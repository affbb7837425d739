"""Symbolic trace synthesis: O(program) BlockTraces for affine kernels.

The interpreters pay O(instructions x warps x blocks) for a full-grid
trace.  For the kernels the dedup engine proves homogeneous, that cost
is almost entirely redundant: every block of a proved class replays the
representative's trace, so only the *representative* needs a trace at
all -- and its trace does not need the memory contents to exist.

This module synthesizes a class representative's :class:`BlockTrace`
from the program alone:

* **Coverage gate.**  Synthesis is offered only when the affine fixed
  point (:func:`repro.analysis.affine.affine_summary`) shows that no
  guard, shared address, or global address can depend on global-memory
  *contents* (``not summary.data_dependent``).  Loop-carried pointers
  may widen to TOP -- the synthesizer re-executes the loop, so only
  *data* dependence is fatal.  Under that gate, loaded values can only
  flow into stored data -- never into anything a trace records -- so
  executing the anchor with zeroed loads is trace-equivalent to
  executing it with the real arena.  SpMV and other data-dependent
  kernels are refused and fall back to the batched interpreter.
* **Symbolic execution.**  :class:`TraceSynthesizer` walks the anchor
  block once per class with the per-warp reference schedule (min-PC
  reconvergence, barrier-delimited stages), recording the exact event
  streams, dependence distances, and per-stage statistics the
  interpreters would -- but it never reads or writes global memory, and
  it counts memory traffic in closed form: coalescing segment counts
  and bytes through :func:`repro.memory.coalescing.affine_transactions`
  and bank-conflict degrees through
  :func:`repro.memory.banks.affine_conflict_degree`, both derived from
  the affine lane strides the kernels' address arithmetic produces (a
  non-affine half-warp falls back to the exact protocol, so the counts
  are always exact).
* **Byte identity.**  The result is rebuilt through
  :meth:`BlockTrace.from_synthesis`, which canonicalizes stage mappings
  and coerces event fields, so a synthesized trace pickles to exactly
  the bytes the interpreters produce.  ``trace_mode="both"`` in the
  engine enforces this on every run that interprets alongside.

The cost per class is O(program trace length x warps per block) --
independent of the grid -- and the engine synthesizes at most one trace
per dedup class, so full-grid traces of affine kernels cost
O(classes x program) instead of O(blocks x program).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arch.specs import GTX285, GpuSpec, WARP_SIZE
from repro.isa.program import Kernel
from repro.memory.banks import warp_transactions_affine
from repro.memory.coalescing import coalesce_warp, coalesce_warp_affine
from repro.sim.functional import FunctionalSimulator, LaunchConfig
from repro.sim.memory import GlobalMemory
from repro.sim.trace import EV_GLOBAL_LD, EV_GLOBAL_ST, EV_SHARED, BlockTrace
from repro.analysis.affine import KernelAffineSummary, affine_summary

__all__ = [
    "SynthesisCoverage",
    "TraceSynthesizer",
    "synthesis_coverage",
    "synthesize_block_trace",
]


@dataclass(frozen=True)
class SynthesisCoverage:
    """Whether a launch is eligible for trace synthesis, and why not."""

    covered: bool
    reason: str

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.covered


def synthesis_coverage(
    kernel: Kernel,
    launch: LaunchConfig,
    *,
    summary: KernelAffineSummary | None = None,
) -> SynthesisCoverage:
    """Static gate for zero-memory synthesis of a launch's traces.

    Refusal is always sound -- the engine falls back to the batched
    interpreter.  The gate is data-freedom, not full affine closure (see
    the module docstring); the ``data`` flag does not depend on the
    launch, so the engine passes in its unbound ``summary``.
    """
    if summary is None:
        summary = affine_summary(kernel, launch)
    if summary.data_dependent:
        return SynthesisCoverage(
            False,
            "global-memory contents can steer control flow or addresses",
        )
    return SynthesisCoverage(True, "data-free control and addressing")


class _SynthesisSimulator(FunctionalSimulator):
    """The per-warp reference schedule with memory contents elided.

    Inherits the oracle's scheduling, issue accounting, and dependence
    tracking wholesale (so those stay byte-identical by construction)
    and overrides only the memory instructions: global loads deposit
    zeros without touching the arena (sound under
    :func:`synthesis_coverage`), global stores skip the write, and all
    traffic statistics come from the closed-form affine counters with
    exact fallback.  Shared memory keeps real values -- block-uniform
    and tid-derived data legitimately round-trips through it into
    addresses.
    """

    def __init__(
        self,
        kernel: Kernel,
        gmem: GlobalMemory,
        spec: GpuSpec = GTX285,
        max_warp_instructions: int = 50_000_000,
    ) -> None:
        # The per-warp path, not the batched one: a synthesizer runs one
        # block per dedup class, where slab batching has nothing to win.
        super().__init__(
            kernel,
            gmem=gmem,
            spec=spec,
            max_warp_instructions=max_warp_instructions,
            batched=False,
        )

    def _fetch(self, run, warp, operand, active):
        tag = operand[0]
        if tag != "mem":
            return super()._fetch(run, warp, operand, active)
        base_idx, offset = operand[1], operand[2]
        warp_slice = self._warp_slice(warp)
        addresses = np.full(WARP_SIZE, float(offset))
        if base_idx >= 0:
            addresses = addresses + run.R[warp_slice, base_idx]
        addresses = addresses.astype(np.int64)
        values = np.zeros(WARP_SIZE)
        if active.any():
            values[active] = run.smem.read(addresses[active])
            if base_idx < 0:
                halves = self._active_halfwarps(active)
                txn = (values, halves, halves)
            else:
                actual, ideal = warp_transactions_affine(
                    addresses, active, self._bank_config
                )
                txn = (values, actual, ideal)
        else:
            txn = (values, 0, 0)
        useful = 4 * int(active.sum())
        run.stage.shared_transactions += txn[1]
        run.stage.shared_transactions_ideal += txn[2]
        run.stage.shared_useful_bytes += useful
        return values, (txn[1], txn[2])

    def _exec_shared(self, run, warp, decoded, active, is_load: bool) -> None:
        if is_load:
            base_idx, offset = decoded.srcs[0][1], decoded.srcs[0][2]
        else:
            base_idx, offset = decoded.dst_mem[1], decoded.dst_mem[2]
        addresses = self._shared_addresses(run, warp, base_idx, offset)
        warp_slice = self._warp_slice(warp)
        actual = ideal = 0
        if active.any():
            if is_load:
                values = np.zeros(WARP_SIZE)
                values[active] = run.smem.read(addresses[active])
                run.R[warp_slice, decoded.dst_reg][active] = values[active]
            else:
                store_vals, _ = self._fetch(run, warp, decoded.srcs[0], active)
                run.smem.write(addresses[active], store_vals[active])
            actual, ideal = warp_transactions_affine(
                addresses, active, self._bank_config
            )
        run.stage.shared_transactions += actual
        run.stage.shared_transactions_ideal += ideal
        run.stage.shared_useful_bytes += 4 * int(active.sum())
        self._emit_event(warp, decoded, EV_SHARED, actual, 0, None)

    def _exec_global(self, run, warp, decoded, active, is_load: bool) -> None:
        if is_load:
            base_idx, offset = decoded.srcs[0][1], decoded.srcs[0][2]
        else:
            base_idx, offset = decoded.dst_mem[1], decoded.dst_mem[2]
        warp_slice = self._warp_slice(warp)
        addresses = np.full(WARP_SIZE, float(offset))
        if base_idx >= 0:
            addresses = addresses + run.R[warp_slice, base_idx]
        addresses = addresses.astype(np.int64)

        n_active = int(active.sum())
        stage = run.stage
        stage.global_requests += 1
        stage.global_useful_bytes += 4 * n_active

        primary_txns = 0
        primary_bytes = 0
        segments = None
        cacheable = False
        if n_active:
            if is_load:
                # Zeroed loads: sound because the coverage gate proved
                # loaded values never reach control flow or addressing.
                run.R[warp_slice, decoded.dst_reg][active] = 0.0
            else:
                # The operand fetch's statistics (a shared-memory source
                # counts bank transactions) must still happen; only the
                # arena write is elided.
                self._fetch(run, warp, decoded.srcs[0], active)

            chosen = addresses[active]
            first_address = int(chosen[0])
            allocation = self.gmem.allocation_at(first_address)
            array_name = allocation.name if allocation else "?"
            run.track_global(
                array_name, int(chosen.min()), int(chosen.max()) + 4, is_load
            )
            cacheable = self.gmem.is_cacheable(first_address)
            for position, granularity in enumerate(run.launch.granularities):
                config = self._txn_config(granularity)
                if position == 0 and run.launch.record_segments:
                    # Absolute segment addresses are recorded: take the
                    # exact protocol, whose transaction list is the
                    # event payload.
                    transactions = coalesce_warp(addresses, active, 4, config)
                    count = len(transactions)
                    nbytes = sum(t.size for t in transactions)
                    segments = tuple(
                        (t.address, t.size) for t in transactions
                    )
                else:
                    count, nbytes = coalesce_warp_affine(
                        addresses, active, 4, config
                    )
                stage.global_transactions[granularity] = (
                    stage.global_transactions.get(granularity, 0) + count
                )
                stage.global_bytes[granularity] = (
                    stage.global_bytes.get(granularity, 0) + nbytes
                )
                per_array = stage.global_by_array.setdefault(array_name, {})
                old = per_array.get(granularity, (0, 0))
                per_array[granularity] = (old[0] + count, old[1] + nbytes)
                if position == 0:
                    primary_txns = count
                    primary_bytes = nbytes

        payload = (cacheable, segments) if segments is not None else None
        event_kind = EV_GLOBAL_LD if is_load else EV_GLOBAL_ST
        self._emit_event(
            warp, decoded, event_kind, primary_txns, primary_bytes, payload
        )


class TraceSynthesizer:
    """Synthesize class-representative traces for one kernel.

    Construct once per (kernel, arena) -- kernel validation and decode
    happen here -- then call :meth:`synthesize` once per dedup class.
    The arena is consulted for allocation metadata (names, bounds,
    cacheability) only; its contents are never read and never written.

    The caller is responsible for the coverage gate
    (:func:`synthesis_coverage`) and, for multi-member classes, for the
    translation-invariance proof
    (:func:`repro.analysis.dedup_proof.prove_block_class`); this class
    synthesizes whatever anchor it is handed.
    """

    def __init__(
        self,
        kernel: Kernel,
        gmem: GlobalMemory,
        spec: GpuSpec = GTX285,
        max_warp_instructions: int = 50_000_000,
    ) -> None:
        self._simulator = _SynthesisSimulator(
            kernel,
            gmem,
            spec=spec,
            max_warp_instructions=max_warp_instructions,
        )

    def synthesize(
        self, launch: LaunchConfig, block: tuple[int, int]
    ) -> BlockTrace:
        """Closed-form :class:`BlockTrace` for one class anchor."""
        trace = self._simulator.run_block(launch, block)
        return BlockTrace.from_synthesis(
            trace.block,
            trace.stages,
            trace.warp_streams,
            trace.global_load_ranges,
            trace.global_store_ranges,
        )


def synthesize_block_trace(
    kernel: Kernel,
    launch: LaunchConfig,
    block: tuple[int, int],
    gmem: GlobalMemory,
    *,
    spec: GpuSpec = GTX285,
    max_warp_instructions: int = 50_000_000,
) -> BlockTrace:
    """One-shot :class:`TraceSynthesizer` convenience wrapper."""
    synthesizer = TraceSynthesizer(
        kernel, gmem, spec=spec, max_warp_instructions=max_warp_instructions
    )
    return synthesizer.synthesize(launch, block)
