"""Dedup soundness proof: zero-probe runs, differential traces, audits."""

import pickle

import pytest

from repro.analysis.affine import affine_summary
from repro.analysis.dedup_proof import prove_block_class
from repro.analysis.report import analysis_case
from repro.errors import AnalysisError, ReproError
from repro.isa import Imm, KernelBuilder
from repro.sim.engine import (
    BlockClass,
    SimulationEngine,
    partition_blocks,
)
from repro.sim.functional import LaunchConfig
from repro.sim.memory import GlobalMemory

def _partition(launch, kernel):
    summary = affine_summary(kernel)
    return partition_blocks(
        launch, summary.data_dependent, summary.block_in_control
    )


AFFINE_KERNELS = (
    "matmul",
    "scan",
    "stencil",
    "stencil_guarded",
    "reduction",
    "tridiag",
    "tridiag_nbc",
)


class TestProofCoverage:
    @pytest.mark.parametrize("name", AFFINE_KERNELS)
    def test_every_affine_class_proves(self, name):
        case = analysis_case(name)
        classes = _partition(case.launch, case.kernel)
        for cls in classes:
            result = prove_block_class(
                case.kernel, case.launch, cls.members, case.gmem
            )
            assert result.proved, (name, result.reason)

    @pytest.mark.parametrize("name", AFFINE_KERNELS)
    def test_engine_skips_all_probes(self, name):
        case = analysis_case(name)
        # trace_mode="interpret" isolates the proof's probe skipping
        # from trace synthesis (which drops simulated_blocks to zero;
        # see test_sim_symbolic.py).
        engine = SimulationEngine(
            case.kernel, gmem=case.gmem, trace_mode="interpret"
        )
        trace = engine.run(case.launch)
        stats = trace.engine_stats
        # Every multi-member class proved: exactly one simulation per
        # class, zero verifier probes, zero fallbacks.
        assert stats.simulated_blocks == stats.block_classes
        assert stats.probe_fallbacks == 0
        multi = sum(
            1
            for cls in _partition(case.launch, case.kernel)
            if len(cls.members) > 1
        )
        assert stats.proved_classes == multi

    def test_data_dependent_spmv_is_all_singletons(self):
        case = analysis_case("spmv")
        engine = SimulationEngine(case.kernel, gmem=case.gmem)
        stats = engine.run(case.launch).engine_stats
        assert stats.proved_classes == 0
        assert stats.simulated_blocks == stats.total_blocks


class TestDifferentialProofVsProbe:
    @pytest.mark.parametrize("name", AFFINE_KERNELS + ("spmv",))
    def test_traces_are_pickle_identical(self, name):
        payloads = {}
        for mode in ("proof", "probe", "both"):
            case = analysis_case(name)
            engine = SimulationEngine(
                case.kernel, gmem=case.gmem, dedup_verify=mode
            )
            trace = engine.run(case.launch)
            trace.engine_stats = None  # stats legitimately differ
            payloads[mode] = pickle.dumps(trace)
        assert payloads["proof"] == payloads["probe"] == payloads["both"]


class TestProofProbeContradiction:
    def _parity_kernel(self, gmem):
        # Work depends on ctaid parity: any single-class claim over the
        # interior is wrong, and honest probes catch it.
        out = gmem.alloc(32 * 4, "out")
        b = KernelBuilder("parity", params=("out",))
        even = b.reg()
        b.iand(even, b.ctaid_x, Imm(1))
        p = b.pred()
        b.isetp(p, "eq", even, Imm(0))
        v = b.reg()
        b.mov(v, Imm(1.0))
        with b.if_then(p):
            b.fadd(v, v, v)
        addr = b.reg()
        b.imad(addr, b.tid, Imm(4), b.param("out"))
        b.stg(addr, v)
        b.exit()
        return b.build(), {"out": out}

    def test_both_mode_raises_on_lying_prover(self, monkeypatch):
        import repro.analysis.dedup_proof as dedup_proof

        gmem = GlobalMemory()
        kernel, params = self._parity_kernel(gmem)
        launch = LaunchConfig(grid=(10, 1), block_threads=32, params=params)
        monkeypatch.setattr(
            dedup_proof,
            "prove_block_class",
            lambda *a, **k: dedup_proof.ProofResult(True, "lie"),
        )
        engine = SimulationEngine(kernel, gmem=gmem, dedup_verify="both")
        with pytest.raises(AnalysisError, match="probe simulations disagree"):
            engine.run(launch)

    def test_honest_prover_refuses_parity_kernel(self):
        gmem = GlobalMemory()
        kernel, params = self._parity_kernel(gmem)
        launch = LaunchConfig(grid=(10, 1), block_threads=32, params=params)
        classes = _partition(launch, kernel)
        interior = next(c for c in classes if len(c.members) > 1)
        result = prove_block_class(kernel, launch, interior.members, gmem)
        assert not result.proved

    def test_proof_mode_still_probes_unproved_classes(self):
        gmem = GlobalMemory()
        kernel, params = self._parity_kernel(gmem)
        launch = LaunchConfig(grid=(10, 1), block_threads=32, params=params)
        engine = SimulationEngine(kernel, gmem=gmem)
        stats = engine.run(launch).engine_stats
        assert stats.proved_classes == 0
        assert stats.probe_fallbacks >= 1


class TestEngineParameter:
    def test_unknown_mode_rejected(self):
        case = analysis_case("stencil")
        with pytest.raises(ReproError, match="dedup_verify"):
            SimulationEngine(case.kernel, dedup_verify="trust-me")


class TestMemberOrderDeterminism:
    def test_members_are_canonically_sorted(self):
        shuffled = [(7, 0), (1, 0), (4, 0), (0, 0), (3, 0), (6, 0), (2, 0), (5, 0)]
        cls = BlockClass(shuffled)
        assert cls.members == sorted(shuffled)
        assert cls.representative == (0, 0)
        assert cls.verifiers == ((1, 0), (4, 0), (7, 0))

    def test_probe_picks_survive_reordering(self):
        members = [(x, y) for y in range(2) for x in range(3)]
        forward = BlockClass(list(members))
        backward = BlockClass(list(reversed(members)))
        assert forward.representative == backward.representative
        assert forward.verifiers == backward.verifiers
