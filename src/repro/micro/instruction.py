"""Instruction-pipeline microbenchmarks (paper Section 4.1, Fig. 2 left).

Measures warp-instruction throughput of each instruction type (Table 1)
as a function of resident warps per SM by running single-type dependent
chains on the hardware simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.specs import GpuSpec, GTX285
from repro.hw.gpu import HardwareGpu
from repro.micro.codegen import instruction_benchmark
from repro.micro.runner import replay_point, single_warp_stream
from repro.sim.trace import TYPE_NAMES

#: Default warp grid: dense at the knee, sparse near the ceiling.
DEFAULT_WARP_COUNTS = (1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 24, 28, 32)

#: Sparse extension points for wide-warp-count architectures.
_EXTENDED_WARP_COUNTS = (40, 48, 56, 64)


def warp_counts_for(spec: GpuSpec) -> tuple[int, ...]:
    """Calibration warp grid for an architecture spec.

    The GT200 grid tops out at its 32-warp ceiling; registry specs with
    wider SMs (``max_warps`` of 48 or 64) get sparse extension points
    so the model's throughput curves cover the extra parallelism
    instead of clamping at the last GT200 sample.
    """
    counts = tuple(w for w in DEFAULT_WARP_COUNTS if w <= spec.sm.max_warps)
    counts += tuple(
        w
        for w in _EXTENDED_WARP_COUNTS
        if DEFAULT_WARP_COUNTS[-1] < w <= spec.sm.max_warps
    )
    return counts


@dataclass(frozen=True)
class InstructionThroughputTable:
    """GI/s (whole GPU, warp-instructions) per type and warp count."""

    warp_counts: tuple[int, ...]
    throughput: dict[str, tuple[float, ...]]  # type -> GI/s per warp count

    def at(self, type_name: str, warps: int) -> float:
        """Throughput at an exactly-measured warp count."""
        index = self.warp_counts.index(warps)
        return self.throughput[type_name][index]

    def saturated(self, type_name: str) -> float:
        return max(self.throughput[type_name])

    def saturation_warps(self, type_name: str, fraction: float = 0.95) -> int:
        """Smallest measured warp count reaching ``fraction`` of peak."""
        ceiling = self.saturated(type_name)
        for warps, value in zip(self.warp_counts, self.throughput[type_name]):
            if value >= fraction * ceiling:
                return warps
        return self.warp_counts[-1]


def measure_instruction_throughput(
    gpu: HardwareGpu | None = None,
    warp_counts: tuple[int, ...] = DEFAULT_WARP_COUNTS,
    types: tuple[str, ...] = TYPE_NAMES,
    iterations: int = 60,
    unroll: int = 16,
) -> InstructionThroughputTable:
    """Run the sweep of Fig. 2 (left) on the hardware simulator."""
    gpu = gpu or HardwareGpu()
    spec = gpu.spec
    table: dict[str, tuple[float, ...]] = {}
    for type_name in types:
        kernel = instruction_benchmark(type_name, unroll=unroll)
        stream = single_warp_stream(kernel, {"iters": iterations})
        series = []
        for warps in warp_counts:
            result = replay_point(gpu, stream, warps, "instruction", type_name)
            seconds = result.cycles / spec.core_clock_hz
            instructions = iterations * unroll * warps * spec.num_sms
            series.append(instructions / seconds / 1e9)
        table[type_name] = tuple(series)
    return InstructionThroughputTable(tuple(warp_counts), table)


def peak_table(spec: GpuSpec = GTX285) -> dict[str, float]:
    """Theoretical peaks per type in GI/s (paper Table 1 arithmetic)."""
    return {
        name: spec.peak_instruction_throughput(name) / 1e9 for name in TYPE_NAMES
    }
