"""Shared process-pool plumbing for the simulation layers.

Both the functional-simulation engine (:mod:`repro.sim.engine`) and the
hardware timing layer (:mod:`repro.hw.engine`) fan independent tasks
across worker processes.  This module owns the one pool policy they
share, so worker-count semantics, start-method quirks, and -- since the
fault-tolerance layer -- failure semantics cannot drift apart:

* **fork on Linux only.**  macOS still offers fork, but forking after
  numpy/Accelerate initialisation can deadlock children; everywhere but
  Linux the safer (slower) spawn method is used.
* **serial fallback.**  ``workers <= 1`` or a single task runs in the
  caller's process through ``serial_fn`` -- the only mode whose side
  effects (e.g. global-memory writes) are observable to the caller, and
  the mode every parallel run must be bit-identical to.
* **deterministic aggregation.**  Results come back in task order, so
  callers reduce them exactly as a serial loop would.
* **self-healing.**  A crashed worker (``BrokenProcessPool``, abnormal
  exit) triggers a bounded retry with exponential backoff through a
  rebuilt pool; a hung task is detected by the per-task timeout
  watchdog, its pool is killed, and the task is re-executed in-process
  through ``serial_fn`` -- the bit-identity reference -- so a degraded
  run returns *exactly* the healthy result.  What degraded is reported
  in a :class:`PoolHealth` record, never swallowed.
* **no leaked segments.**  Shared-memory segments registered through
  :func:`track_segment` are unlinked on ``KeyboardInterrupt`` and at
  interpreter exit, so an interrupted run cannot strand ``/dev/shm``
  entries.
"""

from __future__ import annotations

import atexit
import os
import sys
import time
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field, fields

#: Environment variable supplying a default per-task timeout (seconds)
#: for pooled tasks; unset or non-positive disables the watchdog.
POOL_TIMEOUT_ENV = "REPRO_POOL_TIMEOUT"

#: Bounded retries per task through rebuilt pools before the serial
#: fallback takes over.
DEFAULT_MAX_RETRIES = 2

#: First backoff delay before a pool rebuild; doubles per rebuild,
#: capped at 1 s (crash loops must not spin the CPU, tests must not
#: crawl).
DEFAULT_RETRY_BACKOFF = 0.05


def start_method() -> str:
    """The multiprocessing start method both simulation layers use."""
    import multiprocessing

    if (
        sys.platform == "linux"
        and "fork" in multiprocessing.get_all_start_methods()
    ):
        return "fork"
    return "spawn"


# ----------------------------------------------------------------------
# degradation telemetry
# ----------------------------------------------------------------------
@dataclass
class PoolHealth:
    """Mutable failure counters for one or more :func:`map_tasks` calls.

    ``wall_seconds_lost`` is an estimate (timeout budgets spent waiting
    on hung tasks plus backoff sleeps), not a precise accounting.
    """

    tasks: int = 0
    retried: int = 0
    serial_fallbacks: int = 0
    timeouts: int = 0
    worker_crashes: int = 0
    task_errors: int = 0
    pool_rebuilds: int = 0
    interrupts: int = 0
    wall_seconds_lost: float = 0.0

    @property
    def degraded(self) -> bool:
        return bool(
            self.retried
            or self.serial_fallbacks
            or self.timeouts
            or self.worker_crashes
            or self.task_errors
            or self.pool_rebuilds
            or self.interrupts
        )

    def merge(self, other: "PoolHealth") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def record(self, **extra) -> "HealthRecord":
        """Freeze these counters into a :class:`HealthRecord`.

        ``extra`` supplies the layer-specific counters the pool cannot
        know (cache quarantines, shm fallbacks, analysis fallbacks).
        """
        return HealthRecord(
            pool_retries=self.retried,
            serial_fallbacks=self.serial_fallbacks,
            timeouts=self.timeouts,
            worker_crashes=self.worker_crashes,
            task_errors=self.task_errors,
            pool_rebuilds=self.pool_rebuilds,
            wall_seconds_lost=self.wall_seconds_lost,
            **extra,
        )


@dataclass(frozen=True)
class HealthRecord:
    """Frozen degradation summary attached to engine/timing results.

    All-zero (the default) means a fully healthy run.  The analysis
    fallbacks (``proof_fallbacks``/``symbolic_fallbacks``) are expected
    behaviour for data-dependent kernels and do *not* count as
    degradation; everything else records a survived fault.
    """

    pool_retries: int = 0
    serial_fallbacks: int = 0
    timeouts: int = 0
    worker_crashes: int = 0
    task_errors: int = 0
    pool_rebuilds: int = 0
    wall_seconds_lost: float = 0.0
    #: Corrupt on-disk cache entries renamed to ``*.corrupt``.
    cache_quarantines: int = 0
    #: Cache stores that failed open (fsync/write/replace errors).
    cache_write_errors: int = 0
    #: Pool tasks that fell back while a shared-memory arena was the
    #: transport (attach failures degrade to pickled/serial execution).
    shm_fallbacks: int = 0
    #: Multi-member dedup classes the static proof refused (probed).
    proof_fallbacks: int = 0
    #: Dedup classes interpreted because symbolic synthesis was not
    #: covered (e.g. data-dependent kernels).
    symbolic_fallbacks: int = 0

    @property
    def degraded(self) -> bool:
        return bool(
            self.pool_retries
            or self.serial_fallbacks
            or self.timeouts
            or self.worker_crashes
            or self.task_errors
            or self.pool_rebuilds
            or self.cache_quarantines
            or self.cache_write_errors
            or self.shm_fallbacks
        )

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def summary(self) -> str:
        """Compact nonzero-counter listing, e.g. ``retries=1 timeouts=2``."""
        parts = []
        for f in fields(self):
            value = getattr(self, f.name)
            if not value:
                continue
            if f.name == "wall_seconds_lost":
                parts.append(f"lost={value:.1f}s")
            else:
                name = f.name.replace("pool_retries", "retries")
                parts.append(f"{name}={value}")
        return " ".join(parts) if parts else "ok"


# ----------------------------------------------------------------------
# shared-memory segment tracking
# ----------------------------------------------------------------------
#: Keyed by id(): safe because the map itself holds a strong reference
#: to every segment until release_segment pops it.
_TRACKED_SEGMENTS: dict[int, object] = {}


def track_segment(segment) -> None:
    """Register a ``SharedMemory`` segment for guaranteed cleanup.

    Tracked segments are unlinked when a pooled run is interrupted
    (``KeyboardInterrupt``) and, as a last resort, at interpreter exit
    -- an aborted sweep must never strand ``/dev/shm`` entries.
    """
    _TRACKED_SEGMENTS[id(segment)] = segment


def release_segment(segment) -> None:
    """Close and unlink a tracked segment (idempotent, best-effort)."""
    _TRACKED_SEGMENTS.pop(id(segment), None)
    try:
        segment.close()
    except Exception:
        pass
    try:
        segment.unlink()
    except FileNotFoundError:
        pass
    except Exception:
        pass


def cleanup_segments() -> None:
    """Release every tracked segment (interrupt/exit safety net)."""
    for segment in list(_TRACKED_SEGMENTS.values()):
        release_segment(segment)


atexit.register(cleanup_segments)


# ----------------------------------------------------------------------
# the pooled map
# ----------------------------------------------------------------------
class _SpanEnvelope:
    """Worker capture shipped home beside one task's result.

    The pool strips the envelope at harvest, so callers receive exactly
    the object ``worker_fn`` returned -- observability on or off never
    changes a result's pickled bytes, only adds this out-of-band
    sidecar.
    """

    __slots__ = ("result", "events", "counters", "gauges", "histograms")

    def __init__(self, result, recorder) -> None:
        self.result = result
        self.events = recorder.events
        self.counters = recorder.counters
        self.gauges = recorder.gauges
        self.histograms = recorder.histograms


def _call_task(worker_fn, index, task, attempt, plan, obs_lane=None):
    """Module-level (picklable) task wrapper run inside workers.

    Consults the fault-injection plan first: the plan is shipped
    explicitly so spawn workers honor plans installed programmatically
    in the parent (fork workers would inherit the global anyway).
    ``obs_lane`` (set only when the parent records) installs a fresh
    per-task recorder -- replacing any recorder a fork worker inherited,
    whose events would otherwise die with the worker -- and wraps the
    result in a :class:`_SpanEnvelope` for the parent to adopt.
    """
    from repro import faults

    faults.on_pool_task(index, attempt, plan)
    if obs_lane is None:
        return worker_fn(task)
    from repro import obs

    with obs.capture(obs_lane) as recorder:
        with recorder.span("pool.task", index=index, attempt=attempt):
            result = worker_fn(task)
    return _SpanEnvelope(result, recorder)


def default_task_timeout() -> float | None:
    """Per-task watchdog budget from ``$REPRO_POOL_TIMEOUT``.

    Unset, unparsable, or non-positive values disable the watchdog
    (fail open: a bad env var must not change results, only patience).
    """
    raw = os.environ.get(POOL_TIMEOUT_ENV)
    if raw is None:
        return None
    try:
        value = float(raw)
    except ValueError:
        return None
    return value if value > 0 else None


def _stop_executor(executor, kill: bool) -> None:
    """Shut an executor down, killing workers first when asked.

    ``kill=True`` is the hung-worker watchdog path: a worker stuck in a
    task would block a graceful shutdown forever, so workers are killed
    outright and the shutdown must not wait on them.
    """
    if kill:
        processes = getattr(executor, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.kill()
            except Exception:
                pass
    try:
        executor.shutdown(wait=not kill, cancel_futures=True)
    except Exception:
        pass


def map_tasks(
    tasks: Sequence,
    workers: int,
    serial_fn: Callable,
    worker_fn: Callable,
    initializer: Callable | None = None,
    initargs: Iterable = (),
    task_timeout: float | None = None,
    max_retries: int = DEFAULT_MAX_RETRIES,
    retry_backoff: float = DEFAULT_RETRY_BACKOFF,
    health: PoolHealth | None = None,
) -> list:
    """Apply a function to every task, preserving task order.

    ``workers <= 1`` (or a single task) calls ``serial_fn`` in-process;
    otherwise a pool of ``min(workers, len(tasks))`` processes is built
    with ``initializer(*initargs)`` and each task is handed to the
    module-level (picklable) ``worker_fn``.  The two functions must
    compute the same pure result for a task; parallel runs are then
    bit-identical to serial ones.

    Failure semantics (all recorded in ``health``):

    * A worker death (``BrokenProcessPool``: OOM kill, segfault,
      ``os._exit``) loses the in-flight tasks; finished results are
      harvested, the pool is rebuilt after an exponential backoff, and
      the lost tasks are retried up to ``max_retries`` times each before
      degrading to ``serial_fn``.
    * ``task_timeout`` (seconds per task; default from
      ``$REPRO_POOL_TIMEOUT``, ``None`` disables) is the hung-worker
      watchdog: on expiry the pool is killed, the offending task is
      re-executed through ``serial_fn``, and the survivors continue
      through a fresh pool.  The budget is the time spent *waiting* on
      one task's result, which overlaps other tasks' execution -- size
      it generously.
    * A task that raises an ordinary exception in a worker is re-run
      through ``serial_fn``: either the failure was environmental
      (e.g. a shared-memory attach failure) and the serial reference
      recovers it bit-identically, or it is genuine and ``serial_fn``
      raises the true error to the caller.
    * ``KeyboardInterrupt`` kills the pool and unlinks every tracked
      shared-memory segment (:func:`track_segment`) before re-raising.

    Because every degraded path re-executes through ``serial_fn``, the
    returned list is exactly the healthy result regardless of faults.
    """
    tasks = list(tasks)
    if health is None:
        health = PoolHealth()
    health.tasks += len(tasks)
    if not tasks:
        return []
    from repro import obs

    recorder = obs.current()
    if recorder is not None:
        recorder.inc("pool.tasks", len(tasks))
    if workers <= 1 or len(tasks) == 1:
        with obs.span(
            "pool.map_tasks", tasks=len(tasks), workers=workers,
            mode="serial",
        ):
            return [serial_fn(task) for task in tasks]
    if task_timeout is None:
        task_timeout = default_task_timeout()

    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures import TimeoutError as FutureTimeout
    from concurrent.futures.process import BrokenProcessPool

    from repro import faults

    plan = faults.active_plan()
    context = multiprocessing.get_context(start_method())
    processes = min(workers, len(tasks))
    results: dict[int, object] = {}
    attempts = [0] * len(tasks)
    pending = list(range(len(tasks)))
    executor = None

    # Worker-side span capture: one deterministic lane per pool call
    # (``pool<n>.t<index>``), shipped only when the parent records.
    # Counter deltas against ``health`` are folded into the metric
    # registry at the end, so shared PoolHealth objects (the engine
    # accumulates one across _simulate calls) are not double-counted.
    lane_prefix = (
        recorder.next_pool_lane() if recorder is not None else None
    )
    health_before = (
        {f.name: getattr(health, f.name) for f in fields(health)}
        if recorder is not None
        else None
    )
    pool_span = obs.span(
        "pool.map_tasks",
        tasks=len(tasks),
        workers=processes,
        mode="pool",
        lane=lane_prefix,
    )
    pool_span.__enter__()

    def harvest(value):
        """Strip a worker envelope, adopting its capture exactly once.

        Every path that stores a pooled future's result goes through
        here; lost attempts never produce an envelope and serial
        re-runs record straight into the parent recorder, so no span
        can land twice.
        """
        if isinstance(value, _SpanEnvelope):
            if recorder is not None:
                recorder.adopt(
                    value.events,
                    value.counters,
                    value.gauges,
                    value.histograms,
                )
            return value.result
        return value

    def run_serial(index: int) -> None:
        results[index] = serial_fn(tasks[index])
        health.serial_fallbacks += 1

    try:
        while pending:
            if executor is None:
                executor = ProcessPoolExecutor(
                    max_workers=min(processes, len(pending)),
                    mp_context=context,
                    initializer=initializer,
                    initargs=tuple(initargs),
                )
            futures = {}
            completed: set[int] = set()
            timed_out: int | None = None
            crashed = False
            for i in pending:
                try:
                    futures[i] = executor.submit(
                        _call_task,
                        worker_fn,
                        i,
                        tasks[i],
                        attempts[i],
                        plan,
                        f"{lane_prefix}.t{i}" if lane_prefix else None,
                    )
                except BrokenProcessPool:
                    # A worker died before every task was submitted.
                    crashed = True
                    break
            for i in futures if not crashed else ():
                try:
                    results[i] = harvest(
                        futures[i].result(timeout=task_timeout)
                    )
                    completed.add(i)
                except FutureTimeout:
                    timed_out = i
                    break
                except BrokenProcessPool:
                    crashed = True
                    break
                except Exception:
                    # Genuine task error: let the bit-identity reference
                    # decide -- it either recovers the result or raises
                    # the true error in the caller's process.
                    health.task_errors += 1
                    run_serial(i)
                    completed.add(i)

            if timed_out is None and not crashed:
                pending = []
                break

            # The pool is compromised: stop it (killing workers when a
            # hang is suspected), harvest finished siblings, and decide
            # each survivor's fate.
            _stop_executor(executor, kill=timed_out is not None)
            executor = None
            health.pool_rebuilds += 1
            for i in pending:
                if i in completed or i == timed_out:
                    continue
                future = futures.get(i)
                if future is not None and future.done() and not future.cancelled():
                    try:
                        results[i] = harvest(future.result(timeout=0))
                        completed.add(i)
                    except Exception:
                        pass  # lost with the pool; handled below

            if timed_out is not None:
                health.timeouts += 1
                health.wall_seconds_lost += task_timeout or 0.0
                # The hung task gets no second chance to hang: straight
                # to the serial reference.
                run_serial(timed_out)
                completed.add(timed_out)
                survivors = [i for i in pending if i not in completed]
            else:
                health.worker_crashes += 1
                # Any in-flight task may have killed the worker; all
                # lost tasks consume one retry.
                survivors = []
                for i in pending:
                    if i in completed:
                        continue
                    attempts[i] += 1
                    if attempts[i] > max_retries:
                        run_serial(i)
                    else:
                        survivors.append(i)
                health.retried += len(survivors)

            pending = survivors
            if pending:
                delay = min(
                    retry_backoff * (2 ** max(health.pool_rebuilds - 1, 0)),
                    1.0,
                )
                if delay > 0:
                    time.sleep(delay)
                    health.wall_seconds_lost += delay
    except KeyboardInterrupt:
        health.interrupts += 1
        if executor is not None:
            _stop_executor(executor, kill=True)
            executor = None
        cleanup_segments()
        raise
    finally:
        if executor is not None:
            _stop_executor(executor, kill=False)
        pool_span.__exit__(None, None, None)

    if recorder is not None and health_before is not None:
        for name, previous in health_before.items():
            delta = getattr(health, name) - previous
            if delta and name != "tasks":
                recorder.inc(f"pool.{name}", delta)
    return [results[i] for i in range(len(tasks))]
