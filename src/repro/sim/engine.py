"""Deduplicating, parallel, memoizing simulation engine.

Whole-grid functional simulation in Python is the pipeline's bottleneck:
the analytical model answers in microseconds what a serial
:meth:`FunctionalSimulator.run` over thousands of blocks takes minutes
to produce.  The kernels the paper studies are *homogeneous* -- most
blocks execute the same instruction sequence with the same transaction
pattern -- so the engine exploits that structure instead of brute force:

1. **Deduplication.**  The affine summary of the static kernel
   (:func:`repro.analysis.affine.affine_summary`) tells whether memory
   contents (``data_dependent``) or block coordinates
   (``block_in_control``) can reach control flow or shared addresses.
   Blocks are partitioned accordingly: one class for block-uniform
   kernels, boundary-role classes (first/interior/last per grid
   dimension) when ``ctaid`` reaches a guard, and singleton classes
   when traces are data-dependent.  One representative per class is
   simulated and its :class:`BlockTrace` is replicated with the exact
   class multiplicity (:func:`aggregate_weighted` -- no
   representative-sample extrapolation).
2. **Verification.**  The summary is conservative about what it
   *refuses* to dedup, but it cannot show that block-dependent global
   addresses preserve coalescing.  Every multi-member class is therefore
   certified by the static dedup proof or verified by also simulating
   probe members and comparing behavioural fingerprints
   (:meth:`BlockTrace.stats_key`); on mismatch the class is demoted and
   every member is simulated individually.
3. **Parallel fan-out.**  Blocks that do need simulating are distributed
   over a ``multiprocessing`` pool (``workers`` > 1).  Workers only
   produce statistics; global-memory *writes* stay in the worker, so the
   engine is a statistics pipeline -- numerical validation should use
   :class:`FunctionalSimulator` directly.
4. **Memoization.**  Aggregated :class:`KernelTrace` results can be
   cached on disk keyed by (kernel fingerprint, launch, spec, global
   memory digest), so CLIs and benchmark harnesses replay instantly.
"""

from __future__ import annotations

import bisect
import hashlib
import os
import pickle
import time
import warnings
from dataclasses import dataclass, replace

from repro.arch.specs import GpuSpec, GTX285
from repro.errors import AnalysisError, LaunchError, ReproError
from repro.isa.program import Kernel
from repro.pool import (
    HealthRecord,
    PoolHealth,
    map_tasks,
    release_segment,
    start_method,
)
from repro.sim.functional import FunctionalSimulator, LaunchConfig
from repro.sim.memory import GlobalMemory
from repro.util import VersionedPickleCache, spec_fingerprint
from repro.sim.trace import (
    BlockTrace,
    KernelTrace,
    aggregate_blocks,
    aggregate_weighted,
    intern_stage_strings,
)

#: Bump when trace or aggregation semantics change: invalidates caches.
#: v2: BlockTrace carries global load/store footprints (RAW check).
#: v3: footprints are bounded interval lists (not single hulls), and
#: barrier-free grids run through the multi-block batched interpreter
#: (cross-block write visibility changed for racy kernels).
#: v4: barrier-synchronized grids batch too (per-block barrier release
#: inside one slab), so cross-block write visibility changed for racy
#: *barriered* kernels, and the slab width (grid_batch_blocks) joined
#: the key.
#: v5: the static dedup soundness proof can skip verifier probes
#: (``dedup_verify`` joined the key) and class members are canonically
#: sorted, so stats like ``simulated_blocks`` changed for proved grids.
#: v6: covered dedup classes synthesize their representative trace in
#: closed form instead of interpreting it (``trace_mode`` joined the
#: key), so ``simulated_blocks``/``synthesized_classes`` changed for
#: affine grids; the slab width resolves per launch from the launch's
#: warps-per-block.
#: v7: EngineStats carries a ``health`` degradation record
#: (:class:`repro.pool.HealthRecord`), so cached stats gained a field.
#: v8: coalescing takes its max-segment ceiling from the spec instead
#: of a hardcoded 128 B, so traces of specs with other ceilings
#: (registered architecture generations) changed.
#: v9: the block partition comes from the affine summary instead of the
#: taint pass, which can change ``block_classes`` in cached EngineStats.
ENGINE_CACHE_VERSION = 9

# ----------------------------------------------------------------------
# block partitioning
# ----------------------------------------------------------------------
@dataclass
class BlockClass:
    """A set of blocks believed to produce identical traces."""

    members: list[tuple[int, int]]

    def __post_init__(self) -> None:
        # Canonical member order: the representative and the probe
        # picks must not depend on grid iteration order, and the dedup
        # proof anchors at the minimum ctaid.
        self.members = sorted(self.members)

    @property
    def representative(self) -> tuple[int, int]:
        return self.members[0]

    @property
    def verifiers(self) -> tuple[tuple[int, int], ...]:
        """Extra members simulated to confirm the equivalence claim.

        Three probes when available: the representative's *neighbour*
        (catches parity/phase patterns a same-phase distant pick would
        miss), the *median* member (catches drift across the class),
        and the *last* member.  The last probe makes the class sound
        for any per-block activity pattern that is monotone in member
        order -- e.g. a ``gid < n`` tail guard whose cutoff falls
        strictly inside the class: if first and last members agree, no
        monotone cutoff can separate the members between them.
        """
        if len(self.members) < 2:
            return ()
        picks = {
            self.members[1],
            self.members[len(self.members) // 2],
            self.members[-1],
        }
        picks.discard(self.representative)
        return tuple(sorted(picks))


def _role(index: int, extent: int) -> int:
    """Boundary role of a block index: first, interior, or last."""
    if index == 0:
        return 0
    if index == extent - 1:
        return 2
    return 1


def partition_blocks(
    launch: LaunchConfig, data_dependent: bool, block_in_control: bool
) -> list[BlockClass]:
    """Partition the grid by the kernel's affine-summary verdicts."""
    blocks = launch.all_blocks()
    if data_dependent:
        return [BlockClass([block]) for block in blocks]
    if block_in_control:
        gx, gy = launch.grid
        by_role: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for bx, by in blocks:
            by_role.setdefault((_role(bx, gx), _role(by, gy)), []).append(
                (bx, by)
            )
        return [BlockClass(members) for members in by_role.values()]
    # Block coordinates reach at most global addresses (uniform base
    # shifts); the whole grid is one candidate class, probe-verified.
    return [BlockClass(blocks)]


# ----------------------------------------------------------------------
# engine statistics
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EngineStats:
    """What the engine did for one launch (rendered in reports).

    ``replicated_blocks``/``block_classes`` only mean something in
    ``dedup`` mode (exact replication); in ``sample`` mode the trace is
    a scaled extrapolation and both are zero.
    """

    total_blocks: int
    simulated_blocks: int
    replicated_blocks: int
    block_classes: int
    probe_fallbacks: int
    workers: int
    cache_hit: bool
    wall_seconds: float
    mode: str  # 'dedup' | 'full' | 'sample'
    #: Multi-member classes whose equivalence the static proof
    #: certified, skipping their verifier probes entirely.
    proved_classes: int = 0
    #: Dedup classes whose representative trace was synthesized in
    #: closed form (no interpreter pass) vs interpreted.  Their sum is
    #: ``block_classes``; ``synthesized_classes == 0`` is the fallback
    #: signal for data-dependent kernels under ``trace_mode="symbolic"``.
    synthesized_classes: int = 0
    interpreted_classes: int = 0
    #: Degradation record for this run: pool retries/timeouts/serial
    #: fallbacks, cache quarantines, shm fallbacks, analysis fallbacks.
    #: All-zero on a healthy run.
    health: HealthRecord = HealthRecord()

    def summary(self) -> str:
        cache = "cache hit" if self.cache_hit else "cache miss"
        if self.mode == "dedup":
            detail = (
                f"{self.replicated_blocks} replicated, "
                f"{self.block_classes} classes"
            )
            qualifiers = []
            if self.proved_classes:
                qualifiers.append(f"{self.proved_classes} proved")
            if self.synthesized_classes:
                qualifiers.append(f"{self.synthesized_classes} synthesized")
            if qualifiers:
                detail += f" ({', '.join(qualifiers)})"
            detail += ", dedup"
        elif self.mode == "sample":
            detail = "representative sample, scaled"
        else:
            detail = "full grid"
        return (
            f"{self.simulated_blocks}/{self.total_blocks} blocks simulated "
            f"({detail}, {cache}, {self.wall_seconds * 1e3:.1f} ms)"
        )


# ----------------------------------------------------------------------
# fingerprints and the on-disk cache
# ----------------------------------------------------------------------
def kernel_fingerprint(kernel: Kernel) -> str:
    """Stable content hash of a kernel's code and static resources."""
    h = hashlib.sha256()
    h.update(kernel.name.encode())
    for instr in kernel.instructions:
        h.update(repr(instr).encode())
    h.update(repr(sorted(kernel.labels.items())).encode())
    h.update(repr(kernel.params).encode())
    h.update(repr(sorted(kernel.param_regs.items())).encode())
    h.update(
        f"{kernel.num_registers}:{kernel.num_predicates}:"
        f"{kernel.shared_memory_words}".encode()
    )
    return h.hexdigest()


def _launch_key(launch: LaunchConfig) -> tuple:
    return (
        launch.grid,
        launch.block_threads,
        tuple(sorted(launch.params.items())),
        launch.granularities,
        launch.record_segments,
    )


class TraceCache(VersionedPickleCache):
    """Pickled :class:`KernelTrace` results keyed by content hashes.

    Shared mechanics (fail-open loads, mtime-refreshing LRU, atomic
    stores under the ``$REPRO_CACHE_MAX_BYTES`` budget) live in
    :class:`repro.util.VersionedPickleCache`.
    """

    def __init__(self, directory: str | os.PathLike) -> None:
        super().__init__(directory, ENGINE_CACHE_VERSION, ".trace.pkl")

    def load(self, key: str) -> KernelTrace | None:
        trace = self.load_payload(key)
        return trace if isinstance(trace, KernelTrace) else None

    def store(self, key: str, trace: KernelTrace) -> None:
        self.store_payload(key, trace)


# ----------------------------------------------------------------------
# cross-block read-after-write detection
# ----------------------------------------------------------------------
def find_cross_block_raw(
    traces: list[BlockTrace],
) -> list[tuple[tuple, tuple, tuple, tuple]]:
    """Store/load range-overlap check across simulated blocks.

    Returns ``(loading block, load range, storing block, store range)``
    tuples, at most one per block whose global-load footprint overlaps
    another block's global-store footprint.  Blocks of one launch
    cannot synchronize, so such a kernel has no defined result in the
    CUDA model and its recorded statistics are schedule-dependent (see
    DESIGN.md "Parallelism knobs").  Footprints are per-allocation
    hulls: a reported overlap may be a false positive *within* one
    allocation (a block striding past another's slice), but disjoint
    hulls are a sound proof of independence, and separate allocations
    never conflict.
    """
    stores = sorted(
        (lo, hi, trace.block)
        for trace in traces
        for lo, hi in trace.global_store_ranges
    )
    if not stores:
        return []
    store_lows = [lo for lo, _, _ in stores]
    # Prefix "top two store ends from distinct blocks": enough to find,
    # for any load, an overlapping store from a *different* block
    # (second always tracks the best hull owned by another block than
    # best's, even with several hulls per block).
    best: tuple[int, tuple | None] = (-1, None)  # (hi, (lo, hi, block))
    second: tuple[int, tuple | None] = (-1, None)  # best of other blocks
    prefix = []
    for lo, hi, block in stores:
        if best[1] is None or hi > best[0]:
            if best[1] is not None and best[1][2] != block and best[0] > second[0]:
                second = best
            best = (hi, (lo, hi, block))
        elif block != best[1][2] and hi > second[0]:
            second = (hi, (lo, hi, block))
        prefix.append((best, second))

    conflicts = []
    for trace in traces:
        for lo, hi in trace.global_load_ranges:
            index = bisect.bisect_left(store_lows, hi)  # stores with lo < hi
            if not index:
                continue
            top, other = prefix[index - 1]
            overlap = None
            if top[1] is not None and top[1][2] != trace.block and top[0] > lo:
                overlap = top[1]
            elif other[1] is not None and other[0] > lo:
                overlap = other[1]
            if overlap is not None:
                conflicts.append(
                    (
                        trace.block,
                        (lo, hi),
                        overlap[2],
                        (overlap[0], overlap[1]),
                    )
                )
                break  # one report per loading block is enough
    return conflicts


# ----------------------------------------------------------------------
# multiprocessing plumbing
# ----------------------------------------------------------------------
_WORKER_STATE: tuple[FunctionalSimulator, LaunchConfig] | None = None

#: Sentinel first element of _WORKER_STATE when the shared-memory arena
#: attach failed in the initializer: tasks then raise an ordinary
#: exception instead of killing the worker, and the pool layer degrades
#: them to the serial (pickle-free) reference instead of aborting.
_ATTACH_FAILED = "shm-attach-failed"


def _init_worker(
    kernel, gmem, spec, max_warp_instructions, launch, batched,
    grid_batch_blocks,
) -> None:
    global _WORKER_STATE
    if isinstance(gmem, dict):
        # Shared-memory arena descriptor (see GlobalMemory.share):
        # attach, copy into private worker memory, verify the digest.
        # An attach failure must not crash the initializer (that breaks
        # the whole pool); it is deferred to the tasks as an ordinary,
        # serially recoverable error.
        try:
            gmem = GlobalMemory.from_shared(gmem)
        except Exception as exc:
            _WORKER_STATE = (_ATTACH_FAILED, repr(exc))
            return
    simulator = FunctionalSimulator(
        kernel,
        gmem=gmem,
        spec=spec,
        max_warp_instructions=max_warp_instructions,
        batched=batched,
        grid_batch_blocks=grid_batch_blocks,
    )
    _WORKER_STATE = (simulator, launch)


def _run_chunk_task(chunk: list[tuple[int, int]]) -> list[BlockTrace]:
    simulator, launch = _WORKER_STATE
    if simulator == _ATTACH_FAILED:
        raise ReproError(
            f"worker could not attach the shared global-memory arena "
            f"({launch}); falling back to serial execution"
        )
    return simulator.run_blocks(launch, chunk)


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------
class SimulationEngine:
    """Fast functional-simulation frontend for the analysis pipeline.

    Parameters
    ----------
    kernel, gmem, spec, max_warp_instructions:
        Forwarded to the underlying :class:`FunctionalSimulator`.
    workers:
        Process-pool width for fanning out unique blocks.  ``0`` or
        ``1`` simulates in-process (and is the only mode whose global
        memory writes are observable to the caller).
    cache_dir:
        Directory for the on-disk :class:`KernelTrace` memo cache;
        ``None`` disables memoization.
    batched:
        Use the block-wide batched interpreter (default).  ``False``
        selects the per-warp reference oracle -- bit-identical traces,
        kept for differential benchmarks and tests.
    grid_batch_blocks:
        Blocks per multi-block interpreter slab (and per worker chunk).
        ``None`` uses :data:`repro.sim.functional.GRID_BATCH_BLOCKS`.
    dedup_verify:
        How multi-member dedup classes are verified.  ``"proof"``
        (default) consults the static soundness proof
        (:mod:`repro.analysis.dedup_proof`) first and only probe-
        simulates classes the proof refuses.  ``"probe"`` is the
        probe-only status quo.  ``"both"`` runs the proof *and* the
        probes and raises :class:`~repro.errors.AnalysisError` if a
        proved class's probes disagree -- a prover-or-simulator bug
        that must never be silently demoted.
    trace_mode:
        Where a dedup class's representative trace comes from.
        ``"symbolic"`` (default) synthesizes it in closed form
        (:mod:`repro.analysis.symbolic`) whenever the coverage gate and
        the dedup proof cover the class, falling back to the batched
        interpreter otherwise (data-dependent kernels like SpMV always
        fall back; ``EngineStats.synthesized_classes`` reports the
        split).  ``"interpret"`` is the interpreter-only status quo.
        ``"both"`` synthesizes *and* interprets every covered class and
        raises :class:`~repro.errors.AnalysisError` unless the two
        traces are pickle-byte-identical -- the differential audit
        mirroring ``dedup_verify="both"``.
    task_timeout:
        Per-task watchdog budget (seconds) for pooled simulation tasks;
        a hung worker is killed after this long and its task re-executed
        serially.  ``None`` defers to ``$REPRO_POOL_TIMEOUT`` (unset
        disables the watchdog).
    faults:
        Optional fault-injection plan (:class:`repro.faults.FaultPlan`
        or a ``$REPRO_FAULTS``-style string) activated for the duration
        of each :meth:`run` -- chaos testing without mutating global
        state permanently.
    """

    def __init__(
        self,
        kernel: Kernel,
        gmem: GlobalMemory | None = None,
        spec: GpuSpec = GTX285,
        workers: int = 0,
        cache_dir: str | os.PathLike | None = None,
        max_warp_instructions: int = 50_000_000,
        batched: bool = True,
        grid_batch_blocks: int | None = None,
        dedup_verify: str = "proof",
        trace_mode: str = "symbolic",
        task_timeout: float | None = None,
        faults=None,
    ) -> None:
        if dedup_verify not in ("proof", "probe", "both"):
            raise ReproError(
                f"dedup_verify must be 'proof', 'probe', or 'both', "
                f"not {dedup_verify!r}"
            )
        if trace_mode not in ("symbolic", "interpret", "both"):
            raise ReproError(
                f"trace_mode must be 'symbolic', 'interpret', or 'both', "
                f"not {trace_mode!r}"
            )
        self.kernel = kernel
        self.gmem = gmem if gmem is not None else GlobalMemory()
        self.spec = spec
        self.dedup_verify = dedup_verify
        self.trace_mode = trace_mode
        self.workers = max(0, int(workers))
        self.max_warp_instructions = max_warp_instructions
        self.batched = batched
        self.simulator = FunctionalSimulator(
            kernel,
            gmem=self.gmem,
            spec=spec,
            max_warp_instructions=max_warp_instructions,
            batched=batched,
            grid_batch_blocks=grid_batch_blocks,
        )
        # Imported lazily: repro.analysis imports this module for the
        # block partitioner.
        from repro.analysis.affine import affine_summary

        self.summary = affine_summary(kernel)
        self.cache = TraceCache(cache_dir) if cache_dir is not None else None
        self.task_timeout = task_timeout
        from repro.faults import parse_plan

        self.faults_plan = parse_plan(faults) if isinstance(faults, str) else faults
        # Per-run degradation accumulators, reset at the top of run().
        self._pool_health = PoolHealth()
        self._shm_fallbacks = 0
        self._proof_fallbacks = 0
        self._symbolic_fallbacks = 0

    # ------------------------------------------------------------------
    def run(
        self,
        launch: LaunchConfig,
        blocks: list[tuple[int, int]] | None = None,
        dedup: bool = True,
    ) -> KernelTrace:
        """Drop-in replacement for :meth:`FunctionalSimulator.run`.

        ``blocks=None`` covers the full grid -- deduplicated and exact
        unless ``dedup=False`` forces one simulation per block.  A
        ``blocks`` sample reproduces the representative methodology
        (per-stage scaling, ``exact=False`` unless the sample is the
        grid).
        """
        from contextlib import nullcontext

        from repro import faults as faults_mod
        from repro import obs

        context = (
            faults_mod.injected(self.faults_plan)
            if self.faults_plan is not None
            else nullcontext()
        )
        with context:
            with obs.span(
                "engine.run",
                kernel=self.kernel.name,
                spec=getattr(self.spec, "name", None),
                workers=self.workers,
                dedup=dedup,
            ):
                trace = self._run(launch, blocks, dedup)
            self._absorb_stats(trace.engine_stats)
            return trace

    def _absorb_stats(self, stats) -> None:
        """Fold this run's EngineStats into the obs metric registry.

        Spans and metrics travel out-of-band: nothing here touches the
        trace payload, so instrumented runs stay byte-identical.
        """
        from repro import obs
        from repro.obs import metrics

        if not obs.enabled() or not isinstance(stats, EngineStats):
            return
        metrics.inc("engine.runs")
        metrics.inc("engine.blocks.total", stats.total_blocks)
        metrics.inc("engine.blocks.simulated", stats.simulated_blocks)
        metrics.inc("engine.blocks.replicated", stats.replicated_blocks)
        metrics.inc("engine.classes.proved", stats.proved_classes)
        metrics.inc(
            "engine.classes.synthesized", stats.synthesized_classes
        )
        metrics.inc(
            "engine.classes.interpreted", stats.interpreted_classes
        )
        metrics.inc("engine.probe_fallbacks", stats.probe_fallbacks)
        metrics.observe("engine.wall_seconds", stats.wall_seconds)
        metrics.absorb_health("engine", stats.health)

    def _run(
        self,
        launch: LaunchConfig,
        blocks: list[tuple[int, int]] | None,
        dedup: bool,
    ) -> KernelTrace:
        started = time.perf_counter()
        self._pool_health = PoolHealth()
        self._shm_fallbacks = 0
        self._proof_fallbacks = 0
        self._symbolic_fallbacks = 0
        cache_quarantines = self.cache.quarantines if self.cache else 0
        cache_write_errors = self.cache.write_errors if self.cache else 0
        if blocks is not None:
            blocks = list(blocks)
            if not blocks:
                raise LaunchError("no blocks selected")
        key = self._cache_key(launch, blocks, dedup) if self.cache else None
        if key is not None:
            cached = self.cache.load(key)
            if cached is not None:
                stats = cached.engine_stats
                if isinstance(stats, EngineStats):
                    # Health describes *this* run, not the run that
                    # populated the cache: a hit simulated nothing, so
                    # nothing can have degraded.
                    stats = replace(
                        stats,
                        cache_hit=True,
                        wall_seconds=time.perf_counter() - started,
                        health=HealthRecord(),
                    )
                cached.engine_stats = stats
                # Cached block traces carry their footprints: warm runs
                # of a schedule-dependent kernel must warn too.
                self._warn_cross_block_raw(cached.block_traces)
                return cached

        if blocks is not None:
            trace, stats = self._run_sample(launch, list(blocks), started)
        elif not dedup:
            trace, stats = self._run_full(launch, started)
        else:
            trace, stats = self._run_dedup(launch, started)
        trace.engine_stats = stats

        if key is not None:
            self.cache.store(key, trace)
        # Attached after the store so a failed store itself shows up;
        # the cached copy's health is replaced on every hit anyway.
        trace.engine_stats = replace(
            stats,
            health=self._pool_health.record(
                cache_quarantines=(
                    (self.cache.quarantines - cache_quarantines)
                    if self.cache
                    else 0
                ),
                cache_write_errors=(
                    (self.cache.write_errors - cache_write_errors)
                    if self.cache
                    else 0
                ),
                shm_fallbacks=self._shm_fallbacks,
                proof_fallbacks=self._proof_fallbacks,
                symbolic_fallbacks=self._symbolic_fallbacks,
            ),
        )
        return trace

    # ------------------------------------------------------------------
    def _stats(
        self,
        launch: LaunchConfig,
        simulated: int,
        classes: int,
        fallbacks: int,
        mode: str,
        started: float,
        proved: int = 0,
        synthesized: int = 0,
    ) -> EngineStats:
        total = launch.num_blocks
        dedup = mode == "dedup"
        return EngineStats(
            total_blocks=total,
            simulated_blocks=simulated,
            replicated_blocks=(
                max(total - simulated, 0) if dedup else 0
            ),
            block_classes=classes if dedup else 0,
            probe_fallbacks=fallbacks,
            workers=self.workers,
            cache_hit=False,
            wall_seconds=time.perf_counter() - started,
            mode=mode,
            proved_classes=proved,
            synthesized_classes=synthesized if dedup else 0,
            interpreted_classes=max(classes - synthesized, 0) if dedup else 0,
        )

    def _run_sample(
        self,
        launch: LaunchConfig,
        blocks: list[tuple[int, int]],
        started: float,
    ) -> tuple[KernelTrace, EngineStats]:
        traces = self._simulate(launch, blocks)
        self._warn_cross_block_raw(traces)
        trace = aggregate_blocks(traces, scale_to_blocks=launch.num_blocks)
        stats = self._stats(launch, len(blocks), 0, 0, "sample", started)
        return trace, stats

    def _run_full(
        self, launch: LaunchConfig, started: float
    ) -> tuple[KernelTrace, EngineStats]:
        blocks = launch.all_blocks()
        traces = self._simulate(launch, blocks)
        self._warn_cross_block_raw(traces)
        trace = aggregate_blocks(traces)
        stats = self._stats(launch, len(blocks), 0, 0, "full", started)
        return trace, stats

    def _run_dedup(
        self, launch: LaunchConfig, started: float
    ) -> tuple[KernelTrace, EngineStats]:
        from repro import obs

        classes = partition_blocks(
            launch, self.summary.data_dependent, self.summary.block_in_control
        )

        # Phase 0: static soundness proof.  A proved class is exact by
        # translation invariance, so its verifier probes are skipped
        # entirely (under "both" they still run, as a prover audit).
        proved: set[int] = set()
        if self.dedup_verify in ("proof", "both"):
            # Imported lazily, like the summary in __init__.
            from repro.analysis.dedup_proof import prove_block_class

            with obs.span("engine.proof", classes=len(classes)):
                for index, cls in enumerate(classes):
                    if not cls.verifiers:
                        continue
                    if prove_block_class(
                        self.kernel, launch, cls.members, self.gmem
                    ):
                        proved.add(index)
        # Multi-member classes the proof did not certify fall back to
        # probe simulation (all of them, under dedup_verify="probe").
        self._proof_fallbacks = sum(
            1
            for index, cls in enumerate(classes)
            if cls.verifiers and index not in proved
        )

        # Phase 0.5: symbolic synthesis.  A class whose equivalence is
        # settled without probes (singleton, or certified by the proof)
        # and whose kernel passes the coverage gate gets its
        # representative trace synthesized in closed form -- no
        # interpreter pass, no memory contents.  Unproved multi-member
        # classes keep interpreting: their probe verification needs the
        # real traces anyway.
        synthesized: dict[int, BlockTrace] = {}
        if self.trace_mode in ("symbolic", "both"):
            # Lazy for the same reason as the proof import above.
            from repro.analysis.symbolic import (
                TraceSynthesizer,
                synthesis_coverage,
            )

            with obs.span("engine.synthesis", classes=len(classes)):
                if synthesis_coverage(
                    self.kernel, launch, summary=self.summary
                ):
                    synthesizer = TraceSynthesizer(
                        self.kernel,
                        self.gmem,
                        spec=self.spec,
                        max_warp_instructions=self.max_warp_instructions,
                    )
                    for index, cls in enumerate(classes):
                        if cls.verifiers and index not in proved:
                            continue
                        synthesized[index] = synthesizer.synthesize(
                            launch, cls.representative
                        )
            self._symbolic_fallbacks = len(classes) - len(synthesized)

        # Phase 1: representatives plus the verification members of
        # every unproved multi-member class, all simulated in one
        # (possibly parallel) batch.  A synthesized representative is
        # interpreted only when something still needs its real trace:
        # the "both" differential audit, or a pending probe comparison.
        probe_blocks: list[tuple[int, int]] = []
        for index, cls in enumerate(classes):
            audit = cls.verifiers and (
                index not in proved or self.dedup_verify == "both"
            )
            if index not in synthesized or self.trace_mode == "both" or audit:
                probe_blocks.append(cls.representative)
            if audit:
                probe_blocks.extend(cls.verifiers)
        probe_traces = dict(
            zip(probe_blocks, self._simulate(launch, probe_blocks))
        )

        # Synthesized traces must be byte-identical to interpreted ones
        # -- not merely equal -- because traces are pickled into the
        # cache and compared by stats_key.  Under "both" every covered
        # class is checked on every run.
        if self.trace_mode == "both":
            for index, synthetic in synthesized.items():
                rep = classes[index].representative
                expected = pickle.dumps(
                    probe_traces[rep], pickle.HIGHEST_PROTOCOL
                )
                actual = pickle.dumps(synthetic, pickle.HIGHEST_PROTOCOL)
                if actual != expected:
                    raise AnalysisError(
                        f"symbolic synthesis of kernel "
                        f"{self.kernel.name!r} block {rep} diverges from "
                        "the interpreter (pickled traces differ); "
                        "synthesizer or interpreter bug"
                    )

        # Phase 2: verify; classes with any disagreeing probe are
        # demoted and every member is simulated individually.  A
        # *proved* class whose probes disagree is a contradiction
        # between the prover and the simulator: hard error.
        fallback_blocks: list[tuple[int, int]] = []
        demoted: set[int] = set()
        with obs.span("engine.verify", probes=len(probe_blocks)):
            for index, cls in enumerate(classes):
                if not cls.verifiers:
                    continue
                if index in proved and self.dedup_verify != "both":
                    continue
                rep_key = probe_traces[cls.representative].stats_key()
                if any(
                    probe_traces[v].stats_key() != rep_key
                    for v in cls.verifiers
                ):
                    if index in proved:
                        raise AnalysisError(
                            f"dedup proof certified class "
                            f"{cls.members[0]}..{cls.members[-1]} of "
                            f"kernel {self.kernel.name!r}, but probe "
                            "simulations disagree with the "
                            "representative; prover or simulator bug"
                        )
                    demoted.add(index)
                    fallback_blocks.extend(
                        b for b in cls.members if b not in probe_traces
                    )
        fallback_traces = dict(
            zip(fallback_blocks, self._simulate(launch, fallback_blocks))
        )
        simulated_traces = {**probe_traces, **fallback_traces}
        # Data-dependent grids are all singleton classes, so at this
        # point every block has a real trace: check cross-block RAW.
        self._warn_cross_block_raw(list(simulated_traces.values()))

        # Phase 3: exact aggregation with per-class multiplicities, and
        # a per-block trace table so the timing simulator sees the right
        # stream at every block index.
        with obs.span(
            "engine.aggregate",
            classes=len(classes),
            demoted=len(demoted),
        ):
            entries: list[tuple[BlockTrace, int]] = []
            trace_for: dict[tuple[int, int], BlockTrace] = {}
            for index, cls in enumerate(classes):
                if index not in demoted:
                    # Verifier traces equal the representative's, so
                    # one entry with the full multiplicity is exact.  A
                    # synthesized trace is byte-identical to the
                    # interpreted one, so either serves.
                    rep_trace = synthesized.get(index)
                    if rep_trace is None:
                        rep_trace = simulated_traces[cls.representative]
                    entries.append((rep_trace, len(cls.members)))
                    for member in cls.members:
                        trace_for[member] = rep_trace
                else:
                    for member in cls.members:
                        member_trace = simulated_traces[member]
                        entries.append((member_trace, 1))
                        trace_for[member] = member_trace

            trace = aggregate_weighted(
                [t for t, _ in entries], [m for _, m in entries]
            )
            if len(entries) == 1:
                # Homogeneous grid: a single representative lets the
                # timing simulator use its fast wave-extrapolation path.
                trace.block_traces = [entries[0][0]]
            else:
                trace.block_traces = [
                    trace_for[b] for b in launch.all_blocks()
                ]
        stats = self._stats(
            launch,
            len(simulated_traces),
            len(classes),
            len(demoted),
            "dedup",
            started,
            proved=len(proved),
            synthesized=len(synthesized),
        )
        return trace, stats

    # ------------------------------------------------------------------
    def _simulate(
        self, launch: LaunchConfig, blocks: list[tuple[int, int]]
    ) -> list[BlockTrace]:
        from repro import obs

        with obs.span(
            "engine.simulate", blocks=len(blocks), workers=self.workers
        ):
            return self._simulate_blocks(launch, blocks)

    def _simulate_blocks(
        self, launch: LaunchConfig, blocks: list[tuple[int, int]]
    ) -> list[BlockTrace]:
        """Simulate blocks, preserving order; parallel when configured.

        Blocks are fanned out in grid-batch-sized chunks so every
        worker (and the serial path) rides the multi-block batched
        interpreter for barrier-free kernels.  Pool policy (fork on
        Linux only, serial fallback, deterministic order) lives in
        :mod:`repro.pool`, shared with the hardware timing layer.
        """
        if self.workers <= 1 or len(blocks) <= 1:
            return self.simulator.run_blocks(launch, blocks)
        step = max(1, int(self.simulator.grid_batch_blocks))
        chunks = [blocks[i : i + step] for i in range(0, len(blocks), step)]
        # Ship the arena through multiprocessing.shared_memory instead
        # of re-pickling it per fan-out; workers copy it into private
        # memory and verify the pre-launch content digest.  Fork pools
        # inherit the parent's arena copy-on-write, so only spawn-style
        # pools (which would otherwise pickle it per worker) use the
        # segment; platforms without shared memory fall back to
        # pickling the arena.
        shared = (
            self.gmem.share()
            if len(chunks) > 1 and start_method() != "fork"
            else None
        )
        if shared is not None:
            gmem_arg, segment = shared
        else:
            gmem_arg, segment = self.gmem, None
        health = self._pool_health
        fallbacks_before = health.serial_fallbacks
        try:
            results = map_tasks(
                chunks,
                self.workers,
                serial_fn=lambda chunk: self.simulator.run_blocks(
                    launch, chunk
                ),
                worker_fn=_run_chunk_task,
                initializer=_init_worker,
                initargs=(
                    self.kernel,
                    gmem_arg,
                    self.spec,
                    self.max_warp_instructions,
                    launch,
                    self.batched,
                    step,
                ),
                task_timeout=self.task_timeout,
                health=health,
            )
        finally:
            if segment is not None:
                # Tracked at creation (GlobalMemory.share); releasing is
                # idempotent, so the interrupt/atexit safety nets and
                # this finally can both fire.
                release_segment(segment)
        if segment is not None:
            # Tasks that degraded to the serial reference while the
            # shared arena was the transport: attach failures and any
            # other worker loss end up here, executed against the
            # caller's own arena -- bit-identical, pickle-free.
            self._shm_fallbacks += health.serial_fallbacks - fallbacks_before
        # Unpickled worker results carry per-chunk copies of strings the
        # in-process interpreter shares grid-wide; re-interning keeps a
        # pooled (or partially serial-recovered) run's aggregate
        # pickle-byte-identical to the serial reference.
        return [
            intern_stage_strings(trace)
            for chunk_traces in results
            for trace in chunk_traces
        ]

    def _warn_cross_block_raw(self, traces: list[BlockTrace]) -> None:
        """Warn when simulated blocks read ranges other blocks wrote.

        Only data-dependent kernels are checked: for them the loaded
        values can steer addresses or control flow, so cross-block
        visibility (serial row-major vs per-worker pre-launch copies)
        changes the *statistics*, not just the numerics.  Block-uniform
        kernels replicate one representative and are schedule-
        independent by construction.
        """
        if not self.summary.data_dependent:
            return
        conflicts = find_cross_block_raw(traces)
        if not conflicts:
            return

        def describe(block, span):
            allocation = self.gmem.allocation_at(span[0])
            name = allocation.name if allocation else "?"
            return f"block {block} [{span[0]:#x}, {span[1]:#x}) in {name!r}"

        shown = "; ".join(
            f"{describe(loader, load_span)} overlaps stores of "
            f"{describe(storer, store_span)}"
            for loader, load_span, storer, store_span in conflicts[:3]
        )
        message = (
            f"kernel {self.kernel.name!r}: cross-block global "
            f"read-after-write detected ({len(conflicts)} overlapping "
            f"block(s)): {shown}. Blocks of one launch cannot "
            "synchronize, so these statistics are schedule-dependent "
            "(see DESIGN.md 'Parallelism knobs')."
        )
        # ``warnings.warn`` keeps owning the user-facing rendering (and
        # its once-per-location dedup); the structured record lands in
        # the event log every time, unfiltered.
        from repro.obs import log as obs_log

        obs_log.warning(
            message,
            render=False,
            kernel=self.kernel.name,
            conflicts=len(conflicts),
        )
        warnings.warn(message, RuntimeWarning, stacklevel=4)

    # ------------------------------------------------------------------
    def _cache_key(
        self,
        launch: LaunchConfig,
        blocks: list[tuple[int, int]] | None,
        dedup: bool,
    ) -> str:
        h = hashlib.sha256()
        h.update(f"engine-v{ENGINE_CACHE_VERSION};".encode())
        h.update(kernel_fingerprint(self.kernel).encode())
        h.update(repr(_launch_key(launch)).encode())
        h.update(spec_fingerprint(self.spec).encode())
        h.update(self.gmem.digest().encode())
        h.update(repr(tuple(blocks) if blocks is not None else "full").encode())
        h.update(f"dedup={dedup}".encode())
        # Proof-skipped probes change EngineStats (simulated_blocks,
        # proved_classes), which ride inside the cached trace.
        h.update(f"verify={self.dedup_verify}".encode())
        # Synthesis changes EngineStats the same way (simulated_blocks,
        # synthesized_classes), even though the traces themselves are
        # byte-identical across modes.
        h.update(f"trace={self.trace_mode}".encode())
        # The runaway-instruction guard must still fire on warm caches.
        h.update(f"limit={self.simulator.max_warp_instructions}".encode())
        # Pooled workers see pickled gmem copies, so cross-block write
        # visibility depends on the pool width (blocks sharing a worker
        # share its copy); never share entries across widths, and fold
        # the serial cases (workers 0 and 1 run identically in-process).
        h.update(f"workers={self.workers if self.workers > 1 else 0}".encode())
        if self.batched:
            # Slab width likewise shapes cross-block visibility for
            # racy kernels (blocks sharing a slab interleave lockstep);
            # the per-warp oracle never forms slabs, so its keys stay
            # width-independent.
            h.update(f"gbb={self.simulator.grid_batch_blocks};".encode())
        if not self.batched:
            # Batched and per-warp traces are bit-identical for
            # well-synchronized kernels; the oracle is keyed separately
            # so differential benchmarks never serve each other's
            # entries for racy ones.
            h.update(b"interp=warp;")
        return h.hexdigest()
