"""Differential tests: the cluster event loop against its test oracle.

``cluster_oracle`` is the single-heap loop that ``repro.hw.cluster``
replaced with wait FIFOs and SM decoupling.  Both must agree field for
field on every job -- cycles, events, cache counters and DRAM busy time
-- and raise the same errors.  The two ``ClusterResult`` classes are
distinct types, so results are compared through ``dataclasses.asdict``.
"""

from __future__ import annotations

import dataclasses

import cluster_oracle
import pytest
from hypothesis import given, settings, strategies as st

import repro.hw.gpu as gpu_module
from repro.hw import ClusterSimulator, HardwareGpu, HwConfig
from repro.hw.cluster import _decoupled
from repro.micro import calibrate
from repro.sim.trace import (
    EV_ARITH,
    EV_ARITH_SHARED,
    EV_BAR,
    EV_GLOBAL_LD,
    EV_GLOBAL_ST,
    EV_SHARED,
)

_ZERO_JITTER = {"arith_jitter": 0.0, "shared_jitter": 0.0, "global_jitter": 0.0}


def _outcome(simulator_cls, config, use_cache, queues, resident):
    """asdict of the result, or (exception type, message)."""
    simulator = simulator_cls(config=config, use_cache=use_cache)
    try:
        return dataclasses.asdict(simulator.run(queues, resident))
    except Exception as exc:  # compared by type and message
        return (type(exc), str(exc))


def assert_same(queues, resident, config=None, use_cache=False):
    config = config or HwConfig()
    new = _outcome(ClusterSimulator, config, use_cache, queues, resident)
    old = _outcome(cluster_oracle.ClusterSimulator, config, use_cache, queues, resident)
    assert new == old
    return new


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
_payload = st.none() | st.tuples(
    st.booleans(),
    st.none()
    | st.lists(
        st.tuples(st.integers(0, 63).map(lambda k: 16 * k), st.sampled_from((4, 32, 64))),
        max_size=3,
    ).map(tuple),
)


@st.composite
def events(draw, memory: bool):
    kinds = [EV_ARITH, EV_ARITH_SHARED, EV_SHARED, EV_BAR]
    if memory:
        kinds += [EV_GLOBAL_LD, EV_GLOBAL_ST]
    kind = draw(st.sampled_from(kinds))
    dep = draw(st.integers(0, 3))
    if kind == EV_BAR:
        return (EV_BAR, 0, 0, 0, None)
    if kind == EV_ARITH:
        return (kind, dep, draw(st.integers(0, 3)), 0, None)
    if kind == EV_ARITH_SHARED:
        return (kind, dep, draw(st.integers(0, 3)), draw(st.integers(0, 4)), None)
    if kind == EV_SHARED:
        return (kind, dep, draw(st.integers(0, 6)), 0, None)
    ntxn = draw(st.integers(1, 4))
    nbytes = draw(st.sampled_from((0, 32, 64, 128)))
    return (kind, dep, ntxn, nbytes, draw(_payload))


@st.composite
def cluster_jobs(draw):
    """(queues, resident, config, use_cache) over the loop's whole surface.

    Streams may be empty, hold barriers, and (when ``memory``) global
    loads and stores with texture-cache payloads.  Queues may exceed the
    resident count.  ``symmetric`` jobs give three SMs the same queue
    with every jitter zero, so SMs tie at exactly equal times.
    """
    memory = draw(st.booleans())
    pool = draw(st.lists(st.lists(events(memory), max_size=10), min_size=1, max_size=4))
    blocks = st.lists(st.lists(st.sampled_from(pool), max_size=4), max_size=4)
    resident = draw(st.integers(1, 3))
    symmetric = draw(st.booleans())
    if symmetric:
        queues = [draw(blocks)] * 3
    else:
        queues = [draw(blocks) for _ in range(draw(st.integers(1, 3)))]
    jitter = _ZERO_JITTER if symmetric or draw(st.booleans()) else {}
    config = HwConfig(
        repush_slack=draw(st.sampled_from((0.0, 4.0, 8.0))),
        arith_in_order=draw(st.booleans()),
        shared_in_order=draw(st.booleans()),
        **jitter,
    )
    return queues, resident, config, draw(st.booleans())


class TestDifferential:
    @given(cluster_jobs())
    @settings(max_examples=400, deadline=None)
    def test_random_jobs_match_oracle(self, job):
        queues, resident, config, use_cache = job
        assert_same(queues, resident, config, use_cache)


# ----------------------------------------------------------------------
# deterministic cases
# ----------------------------------------------------------------------
def _arith(type_index, dep=1):
    return (EV_ARITH, dep, type_index, 0, None)


def _calibration_queue():
    """Two resident blocks of a shared-fed arithmetic chain (no memory)."""
    stream = [(EV_SHARED, 0, 2, 0, None), (EV_ARITH_SHARED, 1, 1, 2, None)] * 20
    stream += [_arith(1)] * 20
    return [[stream] * 8, [stream] * 8]


class TestDeterministic:
    def test_herd_on_type_iv_pipe(self):
        # 32 warps contend for the 32-cycle type IV pipe: the longest
        # waits, and the case the wait FIFOs exist for.
        herd = [[[_arith(3)] * 30] * 32]
        result = assert_same([herd], 1)
        assert result["events"] == 32 * 30
        assert_same([herd] * 3, 1, HwConfig(**_ZERO_JITTER))

    def test_herd_gated_on_shared_pipe(self):
        # Four transactions keep the shared pipe busy longer than the
        # type I pipe, so the shared pipe sets the gated FIFO's horizon.
        stream = [(EV_ARITH_SHARED, 1, 0, 4, None)] * 30
        assert_same([[[stream] * 16]], 1)
        # Exact ties: re-queued at the pipe's horizon instead of the
        # shared pipe's, the waiters would draw later seqs.
        gated = [(EV_ARITH_SHARED, 0, 0, 3, None)]
        block = [gated, gated, gated, [(EV_ARITH_SHARED, 0, 1, 3, None)]]
        assert_same([[block]], 1, HwConfig(repush_slack=0.0, **_ZERO_JITTER))

    def test_decoupled_job(self):
        queues = [_calibration_queue()] * 3
        assert _decoupled(queues, 8)
        result = assert_same(queues, 8)
        assert result["events"] == 3 * 16 * 60

    def test_coupled_job_with_one_global_store(self):
        queues = [_calibration_queue() for _ in range(3)]
        queues[2][1] = queues[2][1][:-1] + [
            queues[2][1][-1] + [(EV_GLOBAL_ST, 0, 2, 128, None)]
        ]
        assert not _decoupled(queues, 8)
        result = assert_same(queues, 8)
        assert result["dram_busy_cycles"] > 0

    def test_long_queue_is_coupled(self):
        # A queue longer than the resident count launches late blocks,
        # which move the shared warp counter: no decoupling.
        queues = [_calibration_queue()] * 3
        assert not _decoupled(queues, 1)
        assert_same(queues, 1)

    def test_reduced_calibration_is_byte_identical(self, monkeypatch):
        def tables():
            return calibrate(HardwareGpu(), warp_counts=(1, 8, 32), iterations=10).to_json()

        new = tables()
        monkeypatch.setattr(gpu_module, "ClusterSimulator", cluster_oracle.ClusterSimulator)
        assert tables() == new


@pytest.mark.parametrize("resident", [0, -1])
def test_bad_resident_count_matches(resident):
    assert_same([[]], resident)
