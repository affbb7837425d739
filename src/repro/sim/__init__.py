"""Functional SIMT simulation (the paper's Barra analogue)."""

from repro.sim.engine import (
    EngineStats,
    SimulationEngine,
    TraceCache,
    kernel_fingerprint,
    partition_blocks,
)
from repro.sim.functional import FunctionalSimulator, LaunchConfig
from repro.sim.launch import (
    evenly_spaced_blocks,
    make_simulator,
    run_full,
    run_representative,
)
from repro.sim.memory import Allocation, GlobalMemory, SharedMemory
from repro.sim.trace import (
    EV_ARITH,
    EV_ARITH_SHARED,
    EV_BAR,
    EV_GLOBAL_LD,
    EV_GLOBAL_ST,
    EV_SHARED,
    BlockTrace,
    KernelTrace,
    StageStats,
    TYPE_INDEX,
    TYPE_NAMES,
    aggregate_blocks,
    aggregate_weighted,
    stream_digest,
)

__all__ = [
    "Allocation",
    "BlockTrace",
    "EngineStats",
    "EV_ARITH",
    "EV_ARITH_SHARED",
    "EV_BAR",
    "EV_GLOBAL_LD",
    "EV_GLOBAL_ST",
    "EV_SHARED",
    "FunctionalSimulator",
    "GlobalMemory",
    "KernelTrace",
    "LaunchConfig",
    "SharedMemory",
    "SimulationEngine",
    "StageStats",
    "TYPE_INDEX",
    "TYPE_NAMES",
    "TraceCache",
    "aggregate_blocks",
    "aggregate_weighted",
    "evenly_spaced_blocks",
    "kernel_fingerprint",
    "make_simulator",
    "partition_blocks",
    "run_full",
    "run_representative",
    "stream_digest",
]
