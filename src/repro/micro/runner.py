"""Plumbing shared by the microbenchmark sweeps.

A microbenchmark's event stream is identical for every warp (same code,
same coalescing/bank behaviour), so we functionally simulate a single
warp once and replicate its stream across the requested warp count --
cheap, and bit-identical to simulating each warp (asserted in tests).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro import obs
from repro.errors import CalibrationError
from repro.isa.program import Kernel
from repro.sim.functional import FunctionalSimulator, LaunchConfig
from repro.sim.memory import GlobalMemory
from repro.sim.trace import BlockTrace

if TYPE_CHECKING:
    from repro.hw.cluster import ClusterResult
    from repro.hw.gpu import HardwareGpu


def single_warp_stream(
    kernel: Kernel,
    params: dict[str, float],
    gmem: GlobalMemory | None = None,
    block_threads: int = 32,
) -> list:
    """Functionally simulate one warp; return its event stream."""
    simulator = FunctionalSimulator(kernel, gmem=gmem)
    launch = LaunchConfig(
        grid=(1, 1), block_threads=block_threads, params=params
    )
    trace = simulator.run_block(launch, (0, 0))
    return trace.warp_streams[0]


def blocks_for_warps(warps: int, max_warps_per_block: int = 16) -> list[int]:
    """Split a per-SM warp count into resident blocks (<= 8 of <= 16).

    Mirrors how the paper "chooses the size of blocks and the number of
    blocks" to control resident warps per SM.
    """
    if warps < 1:
        raise CalibrationError("warp count must be at least 1")
    if warps > 8 * max_warps_per_block:
        raise CalibrationError(f"cannot place {warps} warps on one SM")
    per_block = max(1, -(-warps // 8))
    per_block = min(per_block, max_warps_per_block)
    blocks: list[int] = []
    remaining = warps
    while remaining > 0:
        take = min(per_block, remaining)
        blocks.append(take)
        remaining -= take
    return blocks


def synthetic_block(stream: list, warps: int) -> BlockTrace:
    """Wrap a replicated warp stream as a BlockTrace for the hw sim."""
    return BlockTrace(
        block=(0, 0), stages=[], warp_streams=[stream] * warps
    )


def sm_resident_blocks(stream: list, warps: int) -> list[list[list]]:
    """Per-SM resident block set realizing ``warps`` warps."""
    return [[stream] * k for k in blocks_for_warps(warps)]


def replay_point(
    gpu: HardwareGpu, stream: list, warps: int, sweep: str, kind: str
) -> ClusterResult:
    """Replay one sweep point: ``warps`` resident warps of ``stream`` per SM.

    Each point is a ``micro.sweep`` obs span carrying the sweep, the
    benchmark ``type``, the warp count and the events replayed.
    """
    with obs.span("micro.sweep", sweep=sweep, type=kind, warps=warps):
        result = gpu.measure_uniform_sm(
            sm_resident_blocks(stream, warps), resident_per_sm=8
        )
        obs.tag(events=result.events)
    return result
