"""KernelBuilder: register allocation, loops, labels, build checks."""

import pytest

from repro.errors import IsaError, ValidationError
from repro.isa import (
    Imm,
    KernelBuilder,
    Opcode,
    kernel_register_count,
    validate_kernel,
)


def minimal_kernel():
    b = KernelBuilder("tiny")
    r = b.reg()
    b.mov(r, Imm(1))
    b.exit()
    return b.build()


class TestRegisters:
    def test_params_claim_low_registers(self):
        b = KernelBuilder("k", params=("x", "y"))
        assert b.param("x").index == 0
        assert b.param("y").index == 1
        assert b.reg().index == 2

    def test_unknown_param(self):
        b = KernelBuilder("k", params=("x",))
        with pytest.raises(IsaError):
            b.param("z")

    def test_regs_allocates_distinct(self):
        b = KernelBuilder("k")
        regs = b.regs(5)
        assert len({r.index for r in regs}) == 5

    def test_register_count_recorded(self):
        kernel = minimal_kernel()
        assert kernel.num_registers == 1
        assert kernel_register_count(kernel) == 1

    def test_shared_allocation_offsets(self):
        b = KernelBuilder("k")
        first = b.alloc_shared(16)
        second = b.alloc_shared(8)
        assert first == 0
        assert second == 64  # byte offset after 16 words
        r = b.reg()
        b.mov(r, Imm(0))
        b.exit()
        assert b.build().shared_memory_words == 24

    def test_bad_shared_allocation(self):
        with pytest.raises(IsaError):
            KernelBuilder("k").alloc_shared(0)


class TestControlFlow:
    def test_counted_loop_emits_compiler_bookkeeping(self):
        b = KernelBuilder("k")
        r = b.reg()
        b.mov(r, Imm(0))
        with b.counted_loop(10):
            b.iadd(r, r, Imm(1))
        b.exit()
        kernel = b.build()
        mnemonics = [i.opcode.mnemonic for i in kernel.instructions]
        # counter init + body + decrement + compare + branch back
        assert mnemonics.count("isetp") == 1
        assert mnemonics.count("bra") == 1
        assert mnemonics.count("iadd") == 2

    def test_counted_loop_rejects_nonpositive(self):
        b = KernelBuilder("k")
        with pytest.raises(IsaError):
            with b.counted_loop(0):
                pass

    def test_counted_loop_accepts_register(self):
        b = KernelBuilder("k", params=("n",))
        r = b.reg()
        b.mov(r, Imm(0))
        with b.counted_loop(b.param("n")):
            b.iadd(r, r, Imm(1))
        b.exit()
        assert b.build().count_static(Opcode.BRA) == 1

    def test_if_then_guards_with_branch(self):
        b = KernelBuilder("k")
        p = b.pred()
        r = b.reg()
        b.isetp(p, "lt", b.tid, Imm(5))
        with b.if_then(p):
            b.mov(r, Imm(1))
        b.exit()
        kernel = b.build()
        branch = next(i for i in kernel.instructions if i.opcode is Opcode.BRA)
        assert branch.guard == (p, False)  # skip when predicate is false

    def test_duplicate_label_rejected(self):
        b = KernelBuilder("k")
        b.label("L")
        with pytest.raises(IsaError):
            b.label("L")

    def test_exit_appended_automatically(self):
        b = KernelBuilder("k")
        r = b.reg()
        b.mov(r, Imm(1))
        kernel = b.build()
        assert kernel.instructions[-1].opcode is Opcode.EXIT


class TestValidation:
    def test_undefined_label_caught(self):
        b = KernelBuilder("k")
        b.bra("NOWHERE")
        with pytest.raises(ValidationError):
            b.build()

    def test_static_shared_out_of_bounds_caught(self):
        b = KernelBuilder("k")
        b.alloc_shared(4)
        r = b.reg()
        b.lds(r, base=None, offset=64)  # beyond the 16-byte footprint
        b.exit()
        with pytest.raises(ValidationError):
            b.build()

    def test_guarded_exit_rejected(self):
        # The interpreters retire every lane at an exit, so a guard on
        # one would be silently ignored; the validator refuses it.
        from repro.isa import Instruction

        b = KernelBuilder("k")
        p = b.pred()
        b.isetp(p, "lt", b.tid, Imm(5))
        b.emit(Instruction(Opcode.EXIT, guard=(p, True)))
        with pytest.raises(ValidationError, match="exit cannot be guarded"):
            b.build()

    def test_validate_rejects_missing_terminator(self):
        from repro.isa import Instruction, Kernel, Reg

        kernel = Kernel(
            name="bad",
            instructions=(
                Instruction(Opcode.MOV, dst=Reg(0), srcs=(Imm(1),)),
            ),
            num_registers=1,
        )
        with pytest.raises(ValidationError):
            validate_kernel(kernel)

    def test_register_out_of_range_caught(self):
        from repro.isa import Instruction, Kernel, Reg

        kernel = Kernel(
            name="bad",
            instructions=(
                Instruction(Opcode.MOV, dst=Reg(9), srcs=(Imm(1),)),
                Instruction(Opcode.EXIT),
            ),
            num_registers=2,
        )
        with pytest.raises(ValidationError):
            validate_kernel(kernel)

    def test_predicate_out_of_range_caught(self):
        from repro.isa import Instruction, Kernel, Pred, Reg

        kernel = Kernel(
            name="bad",
            instructions=(
                Instruction(
                    Opcode.ISETP, dst=Pred(3), srcs=(Reg(0), Imm(1)), cmp="lt"
                ),
                Instruction(Opcode.EXIT),
            ),
            num_registers=1,
            num_predicates=1,
        )
        with pytest.raises(ValidationError):
            validate_kernel(kernel)


class TestEmitters:
    def test_double_precision_emitters(self):
        b = KernelBuilder("k")
        r, c = b.regs(2)
        b.mov(r, Imm(1.5))
        b.mov(c, Imm(2.0))
        b.dadd(r, r, c)
        b.dmul(r, r, c)
        b.dfma(r, r, c, r)
        b.exit()
        kernel = b.build()
        assert kernel.count_static(Opcode.DADD) == 1
        assert kernel.count_static(Opcode.DFMA) == 1

    def test_memory_emitters(self):
        b = KernelBuilder("k", params=("buf",))
        r = b.reg()
        b.ldg(r, b.param("buf"), offset=8)
        b.stg(b.param("buf"), r, offset=8)
        b.exit()
        kernel = b.build()
        assert kernel.count_static(Opcode.LDG) == 1
        assert kernel.count_static(Opcode.STG) == 1

    def test_immediates_coerced(self):
        b = KernelBuilder("k")
        r = b.reg()
        b.mov(r, 5)
        b.fadd(r, r, 1.5)
        b.exit()
        kernel = b.build()
        assert kernel.instructions[0].srcs[0] == Imm(5)


class TestSharedFootprintLimit:
    """validate_kernel(spec=...): static shared memory vs the SM limit."""

    def _kernel(self, words):
        b = KernelBuilder("smem_heavy")
        b.alloc_shared(words)
        r = b.reg()
        b.mov(r, Imm(1))
        b.sts(b.smem(offset=0), r)
        b.exit()
        return b.build()

    def test_within_limit_passes(self):
        from repro.arch.specs import GTX285

        kernel = self._kernel(16)
        validate_kernel(kernel, GTX285)

    def test_footprint_over_limit_rejected(self):
        from repro.arch.specs import GTX285

        words = GTX285.sm.shared_memory_bytes // 4  # over once ABI overhead lands
        kernel = self._kernel(words)
        with pytest.raises(ValidationError, match="shared memory"):
            validate_kernel(kernel, GTX285)

    def test_no_spec_skips_hardware_check(self):
        from repro.arch.specs import GTX285

        kernel = self._kernel(GTX285.sm.shared_memory_bytes // 4)
        validate_kernel(kernel)  # structural checks only

    def test_simulator_enforces_spec_limit(self):
        from repro.arch.specs import GTX285
        from repro.sim.functional import FunctionalSimulator

        kernel = self._kernel(GTX285.sm.shared_memory_bytes // 4)
        with pytest.raises(ValidationError, match="shared memory"):
            FunctionalSimulator(kernel)
