"""Hardware cluster simulator: timing semantics and determinism."""

import pytest

from repro.errors import HardwareModelError
from repro.hw import ClusterSimulator, HwConfig, TextureCache
from repro.hw.config import cluster_bytes_per_cycle, deterministic_jitter, issue_intervals
from repro.arch import GTX285
from repro.sim.trace import (
    EV_ARITH,
    EV_ARITH_SHARED,
    EV_BAR,
    EV_GLOBAL_LD,
    EV_GLOBAL_ST,
    EV_SHARED,
)


def arith(dep=1, type_index=1):
    return (EV_ARITH, dep, type_index, 0, None)


def shared(ntrans, dep=0):
    return (EV_SHARED, dep, ntrans, 0, None)


def load(nbytes, ntxn=2, dep=0, payload=None):
    return (EV_GLOBAL_LD, dep, ntxn, nbytes, payload)


def run_one(stream, warps=1, config=None, use_cache=False, resident=1):
    sim = ClusterSimulator(config=config or HwConfig(), use_cache=use_cache)
    return sim.run([[[stream] * warps]], resident_per_sm=resident)


class TestBasics:
    def test_empty_block_completes(self):
        result = ClusterSimulator().run([[[[]]]], 1)
        assert result.cycles >= 0

    def test_dependent_chain_costs_latency_each(self):
        n = 100
        result = run_one([arith()] * n)
        cfg = HwConfig()
        per = cfg.arith_latency[1] + issue_intervals(GTX285)[1]
        assert result.cycles == pytest.approx(n * per, rel=0.25)

    def test_type_iv_slower_than_type_ii(self):
        slow = run_one([arith(type_index=3)] * 50)
        fast = run_one([arith(type_index=1)] * 50)
        assert slow.cycles > fast.cycles

    def test_more_warps_dont_slow_wallclock(self):
        stream = [arith()] * 100
        one = run_one(stream, warps=1)
        eight = run_one(stream, warps=8)
        # 8 warps do 8x the work in (at most) modestly more time.
        assert eight.cycles < 2.0 * one.cycles

    def test_determinism(self):
        stream = [arith()] * 64 + [shared(2)] * 16 + [load(128)] * 8
        a = run_one(stream, warps=4)
        b = run_one(stream, warps=4)
        assert a.cycles == b.cycles
        assert a.events == b.events

    def test_events_counted(self):
        result = run_one([arith()] * 10)
        assert result.events == 10


class TestSharedTiming:
    def test_transactions_scale_busy_time(self):
        few = run_one([shared(2)] * 100)
        many = run_one([shared(32)] * 100)
        assert many.cycles > few.cycles * 2

    def test_zero_transaction_event_is_cheap(self):
        # Fully predicated-off accesses still occupy issue slots (4
        # cycles each on the type II pipe) but never touch the banks.
        result = run_one([shared(0)] * 100)
        assert result.cycles < 700

    def test_replay_stalls_issuing_warp(self):
        config = HwConfig(replay_warp_stall=10.0)
        no_stall = HwConfig(replay_warp_stall=0.0)
        conflicted = [shared(16)] * 50
        slow = run_one(conflicted, config=config)
        fast = run_one(conflicted, config=no_stall)
        assert slow.cycles > fast.cycles

    def test_conflict_free_unaffected_by_replay_config(self):
        clean = [shared(2)] * 50
        a = run_one(clean, config=HwConfig(replay_warp_stall=0.0))
        b = run_one(clean, config=HwConfig(replay_warp_stall=50.0))
        assert a.cycles == b.cycles


class TestGlobalTiming:
    def test_latency_dominates_single_load(self):
        result = run_one([load(128)])
        assert result.cycles >= HwConfig().global_latency

    def test_bandwidth_dominates_many_loads(self):
        n = 2000
        result = run_one([load(128, dep=0)] * n, warps=4)
        rate = cluster_bytes_per_cycle(GTX285)
        service = n * 4 * 128 / rate
        assert result.cycles == pytest.approx(service, rel=0.3)

    def test_dram_busy_accounted(self):
        result = run_one([load(128)] * 10)
        rate = cluster_bytes_per_cycle(GTX285)
        assert result.dram_busy_cycles == pytest.approx(10 * 128 / rate, rel=1e-6)

    def test_stores_do_not_block_warp(self):
        stores = [(EV_GLOBAL_ST, 0, 2, 128, None)] * 50
        loads = [load(128, dep=1)] * 50
        assert run_one(stores).cycles < run_one(loads).cycles

    def test_three_sms_share_the_dram_pipe(self):
        # Eight warps per SM saturate the cluster's DRAM slice; adding
        # SMs then stretches time ~linearly (one shared pipe per
        # cluster, the paper's Section 4.3 topology).
        stream = [load(128)] * 300
        sim = ClusterSimulator()
        one_sm = sim.run([[[stream] * 8]], 1)
        three_sm = sim.run([[[stream] * 8], [[stream] * 8], [[stream] * 8]], 1)
        assert three_sm.cycles > 2.0 * one_sm.cycles


class TestBarriers:
    def test_barrier_waits_for_slowest_warp(self):
        fast = [arith()] * 5 + [(EV_BAR, 0, 0, 0, None)] + [arith()] * 5
        slow = [arith()] * 50 + [(EV_BAR, 0, 0, 0, None)] + [arith()] * 5
        result = ClusterSimulator().run([[[fast, slow]]], 1)
        solo = run_one([arith()] * 55)
        assert result.cycles >= solo.cycles

    def test_barrier_only_streams_complete(self):
        streams = [[(EV_BAR, 0, 0, 0, None)] for _ in range(4)]
        result = ClusterSimulator().run([[streams]], 1)
        assert result.cycles < 200

    def test_unbalanced_block_queue(self):
        stream = [arith()] * 20
        sim = ClusterSimulator()
        result = sim.run([[[stream]], [[stream]] * 3, []], 1)
        assert result.cycles > 0


class TestScheduling:
    def test_resident_limit_serializes_blocks(self):
        stream = [arith()] * 100
        blocks = [[stream]] * 4
        serial = ClusterSimulator().run([blocks], resident_per_sm=1)
        parallel = ClusterSimulator().run([blocks], resident_per_sm=4)
        assert serial.cycles > parallel.cycles

    def test_too_many_queues_rejected(self):
        with pytest.raises(HardwareModelError):
            ClusterSimulator().run([[], [], [], []], 1)

    def test_bad_resident_count(self):
        with pytest.raises(HardwareModelError):
            ClusterSimulator().run([[]], 0)

    def test_negative_repush_slack_rejected(self):
        with pytest.raises(HardwareModelError, match="repush_slack"):
            HwConfig(repush_slack=-1.0)


class TestTextureCache:
    def test_cache_hits_skip_dram(self):
        payload = (True, ((0, 64),))
        stream = [load(64, ntxn=1, payload=payload)] * 50
        cached = run_one(stream, use_cache=True)
        uncached = run_one(stream, use_cache=False)
        assert cached.cycles < uncached.cycles
        assert cached.cache_hit_rate > 0.9

    def test_non_cacheable_payload_ignores_cache(self):
        payload = (False, ((0, 64),))
        stream = [load(64, ntxn=1, payload=payload)] * 20
        result = run_one(stream, use_cache=True)
        assert result.cache_hit_rate == 0.0

    def test_lru_eviction(self):
        cache = TextureCache(capacity=256, line=32, ways=2)
        cache.access(0, 32)
        cache.access(0, 32)
        assert cache.hits == 1
        # 4 sets x 2 ways: touching 3 lines in the same set evicts.
        cache.access(128, 32)
        cache.access(256, 32)
        cache.access(0, 32)
        assert cache.misses == 4

    def test_bad_geometry(self):
        with pytest.raises(HardwareModelError):
            TextureCache(capacity=100, line=32, ways=2)


class TestJitter:
    def test_jitter_deterministic(self):
        assert deterministic_jitter(1234, 8.0) == deterministic_jitter(1234, 8.0)

    def test_jitter_bounds(self):
        for key in range(200):
            j = deterministic_jitter(key, 8.0)
            assert 0 <= j < 8.0

    def test_zero_amplitude(self):
        assert deterministic_jitter(7, 0.0) == 0.0
