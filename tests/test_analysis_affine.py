"""Affine domain, fixed-point summary, and the concolic class tracer."""

import numpy as np
import pytest

from repro.analysis.affine import (
    LOOP,
    TOP,
    AffineForm,
    ClassBox,
    affine_summary,
    trace_block_class,
)
from repro.analysis.report import BUILTIN_KERNELS, analysis_case
from repro.isa import Imm, KernelBuilder, parse_kernel
from repro.sim.functional import LaunchConfig
from repro.sim.memory import GlobalMemory


class TestAffineForm:
    def test_plus_adds_coefficients(self):
        a = AffineForm(tid=4, bx=128, const=8.0)
        b = AffineForm(tid=1, by=2, const=-3.0)
        s = a.plus(b)
        assert (s.tid, s.bx, s.by, s.const) == (5, 128, 2, 5.0)

    def test_join_disagreeing_constants_is_loop(self):
        a = AffineForm(const=1.0)
        b = AffineForm(const=2.0)
        assert a.join(b).const is LOOP

    def test_join_disagreeing_coefficients_is_top(self):
        a = AffineForm(tid=4)
        b = AffineForm(tid=8)
        joined = a.join(b)
        assert joined.tid is TOP
        assert not joined.affine

    def test_join_with_equal_form_returns_it(self):
        a = AffineForm(tid=4, bx=TOP, const=LOOP, data=True)
        assert a.join(a) is a
        assert a.join(AffineForm(tid=4, bx=TOP, const=LOOP, data=True)) is a

    def test_scaled_by_zero_collapses(self):
        form = AffineForm(tid=TOP, bx=3, const=LOOP)
        assert AffineForm(data=False) == form.scaled(0)

    def test_tags(self):
        form = AffineForm(tid=1, bx=2, const=LOOP, data=True)
        assert form.tags == {"tid", "ctaid_x", "loop", "data"}

    def test_describe_mentions_every_term(self):
        text = AffineForm(tid=4, bx=128, const=16.0).describe()
        assert "4*tid" in text and "128*ctaid_x" in text and "16" in text


def _linear_store_kernel():
    """out[ctaid_x*ntid + tid] = 1.0 -- the canonical affine kernel."""
    b = KernelBuilder("linear", params=("out",))
    gid = b.reg()
    b.imad(gid, b.ctaid_x, b.ntid, b.tid)
    addr = b.reg()
    b.imad(addr, gid, Imm(4), b.param("out"))
    v = b.reg()
    b.mov(v, Imm(1.0))
    b.stg(addr, v)
    b.exit()
    return b.build()


class TestAffineSummary:
    def test_linear_store_address_is_affine(self):
        kernel = _linear_store_kernel()
        gmem = GlobalMemory()
        out = gmem.alloc(4 * 128, "out")
        launch = LaunchConfig(
            grid=(4, 1), block_threads=32, params={"out": out}
        )
        summary = affine_summary(kernel, launch)
        assert summary.affine
        (store,) = [a for a in summary.addresses if a.store]
        assert store.space == "global"
        assert store.form.tid == 4
        assert store.form.bx == 128

    def test_without_launch_param_base_stays_uniform(self):
        summary = affine_summary(_linear_store_kernel())
        (store,) = [a for a in summary.addresses if a.store]
        # ntid is unknown without a launch: the ctaid_x coefficient
        # degrades, but the form must not invent a data dependence.
        assert not store.form.data

    def test_loop_counter_becomes_loop_varying(self):
        b = KernelBuilder("looped", params=("out",))
        i = b.reg()
        b.mov(i, Imm(0))
        with b.counted_loop(4):
            b.iadd(i, i, Imm(1))
        addr = b.reg()
        b.imad(addr, i, Imm(4), b.param("out"))
        b.stg(addr, i)
        b.exit()
        kernel = b.build()
        summary = affine_summary(kernel)
        (store,) = [a for a in summary.addresses if a.store]
        assert store.form.const is LOOP or store.form.const is TOP

    def test_guarded_exit_falls_through(self):
        # A guarded exit does not end the path: the summary must see
        # the accesses after it, including the data-dependent gather.
        kernel = parse_kernel(
            ".kernel guarded_exit\n.regs 5\n.preds 1\n"
            "    isetp.ge p0, %tid, 16\n"
            "    @p0 exit\n"
            "    imad r2, %tid, 4, r0\n"
            "    ldg r3, g[r2]\n"
            "    imad r4, r3, 4, r0\n"
            "    ldg r3, g[r4]\n"
            "    stg g[r2], r3\n"
            "    exit\n"
        )
        summary = affine_summary(kernel)
        assert len(summary.addresses) == 3
        assert not summary.affine
        assert summary.data_dependent


#: (data_dependent, block_in_control) per zoo kernel; these are the
#: values the engine partitions the grid by.
ZOO_DEPENDENCE = {
    "matmul": (False, False),
    "scan": (False, True),
    "stencil": (False, False),
    "stencil_guarded": (False, True),
    "reduction": (False, False),
    "tridiag": (False, False),
    "tridiag_nbc": (False, False),
    "spmv": (True, True),
}


class TestDependenceVerdicts:
    @pytest.mark.parametrize("name", sorted(BUILTIN_KERNELS))
    def test_zoo_verdicts(self, name):
        summary = affine_summary(analysis_case(name).kernel)
        verdict = (summary.data_dependent, summary.block_in_control)
        assert verdict == ZOO_DEPENDENCE[name]

    def test_block_in_shared_address_is_control(self):
        # A ctaid-dependent shared address makes blocks touch different
        # banks, so it partitions by role even without a guard.
        b = KernelBuilder("k")
        b.alloc_shared(64)
        addr = b.reg()
        b.imul(addr, b.ctaid_x, Imm(4))
        v = b.reg()
        b.lds(v, base=addr)
        b.exit()
        summary = affine_summary(b.build())
        assert summary.block_in_control
        assert not summary.data_dependent

    def test_block_in_global_address_only_is_uniform(self):
        b = KernelBuilder("k", params=("out",))
        addr = b.reg()
        b.imad(addr, b.ctaid_x, Imm(128), b.param("out"))
        b.stg(addr, b.tid)
        b.exit()
        summary = affine_summary(b.build())
        assert not summary.block_in_control
        assert not summary.data_dependent


class TestClassBox:
    def test_rectangle_roundtrip(self):
        members = [(x, y) for x in range(2, 5) for y in range(1, 3)]
        box = ClassBox.from_members(members)
        assert box == ClassBox(2, 4, 1, 2)
        assert box.count == 6
        assert box.anchor == (2, 1)

    def test_non_rectangle_is_rejected(self):
        assert ClassBox.from_members([(0, 0), (1, 1)]) is None

    def test_extremes_at_corners(self):
        box = ClassBox(0, 3, 0, 2)
        sx = np.array([4.0, -4.0])
        sy = np.array([0.0, 8.0])
        lo, hi = box.extremes(sx, sy)
        assert lo.tolist() == [0.0, -12.0]
        assert hi.tolist() == [12.0, 16.0]


class TestClassTracer:
    def _launch(self, gmem, n_blocks=4, threads=32):
        out = gmem.alloc(4 * n_blocks * threads, "out")
        return LaunchConfig(
            grid=(n_blocks, 1), block_threads=threads, params={"out": out}
        )

    def test_linear_store_strides(self):
        kernel = _linear_store_kernel()
        gmem = GlobalMemory()
        launch = self._launch(gmem)
        trace = trace_block_class(kernel, launch, ClassBox(0, 3, 0, 0))
        assert trace.complete
        (access,) = trace.global_accesses
        assert access.store
        assert not access.unknown
        # One word per lane, tid-major; ctaid_x advances by 32 elements.
        assert (np.diff(access.addresses) == 4).all()
        assert (access.stride_x == 128).all()
        assert (access.stride_y == 0).all()

    def test_uniform_guard_stays_quiet(self):
        b = KernelBuilder("guarded", params=("out",))
        p = b.pred()
        b.isetp(p, "lt", b.tid, Imm(16))
        addr = b.reg()
        b.imad(addr, b.tid, Imm(4), b.param("out"))
        v = b.reg()
        b.mov(v, Imm(1.0))
        with b.if_then(p):
            b.stg(addr, v)
        b.exit()
        kernel = b.build()
        gmem = GlobalMemory()
        launch = self._launch(gmem)
        trace = trace_block_class(kernel, launch, ClassBox(0, 3, 0, 0))
        assert trace.complete
        assert trace.nonuniform_control == []

    def test_block_dependent_guard_is_nonuniform(self):
        b = KernelBuilder("tail", params=("out", "n"))
        gid = b.reg()
        b.imad(gid, b.ctaid_x, b.ntid, b.tid)
        p = b.pred()
        b.isetp(p, "lt", gid, b.param("n"))
        addr = b.reg()
        b.imad(addr, gid, Imm(4), b.param("out"))
        v = b.reg()
        b.mov(v, Imm(1.0))
        with b.if_then(p):
            b.stg(addr, v)
        b.exit()
        kernel = b.build()
        gmem = GlobalMemory()
        out = gmem.alloc(4 * 128, "out")
        launch = LaunchConfig(
            grid=(4, 1), block_threads=32, params={"out": out, "n": 100}
        )
        # The cutoff (100) falls strictly inside the 4-block box.
        trace = trace_block_class(kernel, launch, ClassBox(0, 3, 0, 0))
        assert trace.nonuniform_control

    def test_degenerate_box_matches_concrete_execution(self):
        kernel = _linear_store_kernel()
        gmem = GlobalMemory()
        launch = self._launch(gmem)
        trace = trace_block_class(kernel, launch, ClassBox(2, 2, 0, 0))
        (access,) = trace.global_accesses
        base = launch.params["out"]
        assert access.addresses[0] == base + 2 * 32 * 4
