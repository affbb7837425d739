"""KernelBuilder: a fluent authoring API for native kernels.

The builder plays the role of the paper's hand-assembly workflow
(Decuda + cudasm + CUBIN embedding): it lets library code construct
exact native instruction sequences, free from compiler interference,
while tracking register allocation and labels.

Example::

    b = KernelBuilder("axpy", params=("x", "y", "alpha", "n"))
    idx = b.reg()
    b.imad(idx, b.tid, Imm(4), b.param("x"))
    val = b.reg()
    b.ldg(val, idx)
    b.fmad(val, val, b.param("alpha"), val)
    ...
    b.exit()
    kernel = b.build()
"""

from __future__ import annotations

import contextlib
from collections.abc import Iterator

from repro.errors import IsaError
from repro.isa.instructions import (
    CTAID_X,
    CTAID_Y,
    NCTAID_X,
    NCTAID_Y,
    NTID,
    TID,
    Imm,
    Instruction,
    MemRef,
    Operand,
    Pred,
    Reg,
)
from repro.isa.opcodes import Opcode
from repro.isa.program import Kernel


def _as_operand(value: Operand | int | float) -> Operand:
    if isinstance(value, (int, float)):
        return Imm(value)
    return value


class KernelBuilder:
    """Accumulates instructions and resources, then builds a Kernel."""

    #: Specials re-exported for convenience.
    tid = TID
    ntid = NTID
    ctaid_x = CTAID_X
    ctaid_y = CTAID_Y
    nctaid_x = NCTAID_X
    nctaid_y = NCTAID_Y

    def __init__(self, name: str, params: tuple[str, ...] = ()) -> None:
        self.name = name
        self._params = tuple(params)
        self._instructions: list[Instruction] = []
        self._labels: dict[str, int] = {}
        self._next_reg = 0
        self._next_pred = 0
        self._shared_words = 0
        self._label_counter = 0
        self._param_regs = {p: self.reg().index for p in self._params}

    # ------------------------------------------------------------------
    # resources
    # ------------------------------------------------------------------
    def reg(self) -> Reg:
        """Allocate a fresh general register."""
        reg = Reg(self._next_reg)
        self._next_reg += 1
        return reg

    def regs(self, count: int) -> list[Reg]:
        """Allocate ``count`` fresh registers."""
        return [self.reg() for _ in range(count)]

    def pred(self) -> Pred:
        """Allocate a fresh predicate register."""
        pred = Pred(self._next_pred)
        self._next_pred += 1
        return pred

    def param(self, name: str) -> Reg:
        """The register holding a launch parameter."""
        try:
            return Reg(self._param_regs[name])
        except KeyError:
            raise IsaError(f"kernel has no parameter {name!r}") from None

    def alloc_shared(self, words: int) -> int:
        """Reserve ``words`` 4-byte words of shared memory; returns the
        byte offset of the reservation."""
        if words <= 0:
            raise IsaError("shared allocation must be positive")
        offset = self._shared_words * 4
        self._shared_words += words
        return offset

    # ------------------------------------------------------------------
    # labels & control
    # ------------------------------------------------------------------
    def fresh_label(self, hint: str = "L") -> str:
        self._label_counter += 1
        return f"{hint}{self._label_counter}"

    def label(self, name: str | None = None) -> str:
        """Place a label at the current position."""
        name = name or self.fresh_label()
        if name in self._labels:
            raise IsaError(f"label {name!r} already placed")
        self._labels[name] = len(self._instructions)
        return name

    def emit(self, instr: Instruction) -> None:
        """Append a hand-constructed instruction (e.g. guarded forms)."""
        self._instructions.append(instr)

    # Backwards-compatible internal alias.
    _emit = emit

    def bra(self, target: str, guard: tuple[Pred, bool] | None = None) -> None:
        self._emit(Instruction(Opcode.BRA, target=target, guard=guard))

    def bar(self) -> None:
        self._emit(Instruction(Opcode.BAR))

    def exit(self) -> None:
        """Retire every active lane (``exit`` is never guarded)."""
        self._emit(Instruction(Opcode.EXIT))

    def nop(self) -> None:
        self._emit(Instruction(Opcode.NOP))

    @contextlib.contextmanager
    def counted_loop(self, count: "int | Reg | Special") -> Iterator[Reg]:
        """Emit a canonical down-counting loop around the body.

        Produces the bookkeeping a compiler would: initialize a counter,
        decrement, compare, and conditionally branch back.  Yields the
        counter register.  ``count`` may be a compile-time constant or a
        register/special holding the trip count at launch.
        """
        if isinstance(count, (int, float)):
            if count <= 0:
                raise IsaError("loop count must be positive")
            count = Imm(int(count))
        counter = self.reg()
        self.mov(counter, count)
        top = self.label()
        yield counter
        self.iadd(counter, counter, Imm(-1))
        pred = self.pred()
        self.isetp(pred, "gt", counter, Imm(0))
        self.bra(top, guard=(pred, True))

    @contextlib.contextmanager
    def if_then(self, pred: Pred, value: bool = True) -> Iterator[None]:
        """Guard a region: lanes where ``pred != value`` skip the body."""
        skip = self.fresh_label("SKIP")
        self.bra(skip, guard=(pred, not value))
        yield
        self.label(skip)

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def _arith(self, opcode: Opcode, dst: Reg, *srcs: Operand | int | float) -> None:
        self._emit(
            Instruction(opcode, dst=dst, srcs=tuple(_as_operand(s) for s in srcs))
        )

    def mov(self, dst: Reg, src: Operand | int | float) -> None:
        self._arith(Opcode.MOV, dst, src)

    def fadd(self, dst: Reg, a, b) -> None:
        self._arith(Opcode.FADD, dst, a, b)

    def fmul(self, dst: Reg, a, b) -> None:
        self._arith(Opcode.FMUL, dst, a, b)

    def fmad(self, dst: Reg, a, b, c) -> None:
        self._arith(Opcode.FMAD, dst, a, b, c)

    def fneg(self, dst: Reg, a) -> None:
        self._arith(Opcode.FNEG, dst, a)

    def rcp(self, dst: Reg, a) -> None:
        self._arith(Opcode.RCP, dst, a)

    def dadd(self, dst: Reg, a, b) -> None:
        self._arith(Opcode.DADD, dst, a, b)

    def dmul(self, dst: Reg, a, b) -> None:
        self._arith(Opcode.DMUL, dst, a, b)

    def dfma(self, dst: Reg, a, b, c) -> None:
        self._arith(Opcode.DFMA, dst, a, b, c)

    def iadd(self, dst: Reg, a, b) -> None:
        self._arith(Opcode.IADD, dst, a, b)

    def isub(self, dst: Reg, a, b) -> None:
        self._arith(Opcode.ISUB, dst, a, b)

    def imul(self, dst: Reg, a, b) -> None:
        self._arith(Opcode.IMUL, dst, a, b)

    def imad(self, dst: Reg, a, b, c) -> None:
        self._arith(Opcode.IMAD, dst, a, b, c)

    def ishl(self, dst: Reg, a, b) -> None:
        self._arith(Opcode.ISHL, dst, a, b)

    def ishr(self, dst: Reg, a, b) -> None:
        self._arith(Opcode.ISHR, dst, a, b)

    def iand(self, dst: Reg, a, b) -> None:
        self._arith(Opcode.IAND, dst, a, b)

    def imin(self, dst: Reg, a, b) -> None:
        self._arith(Opcode.IMIN, dst, a, b)

    def imax(self, dst: Reg, a, b) -> None:
        self._arith(Opcode.IMAX, dst, a, b)

    def isetp(self, dst: Pred, cmp: str, a, b) -> None:
        self._emit(
            Instruction(
                Opcode.ISETP,
                dst=dst,
                srcs=(_as_operand(a), _as_operand(b)),
                cmp=cmp,
            )
        )

    def fsetp(self, dst: Pred, cmp: str, a, b) -> None:
        self._emit(
            Instruction(
                Opcode.FSETP,
                dst=dst,
                srcs=(_as_operand(a), _as_operand(b)),
                cmp=cmp,
            )
        )

    def sel(self, dst: Reg, pred: Pred, a, b) -> None:
        self._emit(
            Instruction(
                Opcode.SEL,
                dst=dst,
                srcs=(pred, _as_operand(a), _as_operand(b)),
            )
        )

    # ------------------------------------------------------------------
    # memory
    # ------------------------------------------------------------------
    def gmem(self, base: Reg, offset: int = 0) -> MemRef:
        return MemRef("global", base, offset)

    def smem(self, base: Reg | None = None, offset: int = 0) -> MemRef:
        return MemRef("shared", base, offset)

    def ldg(self, dst: Reg, base: Reg, offset: int = 0) -> None:
        self._emit(Instruction(Opcode.LDG, dst=dst, srcs=(self.gmem(base, offset),)))

    def stg(self, base: Reg, src: Operand | int | float, offset: int = 0) -> None:
        self._emit(
            Instruction(
                Opcode.STG, dst=self.gmem(base, offset), srcs=(_as_operand(src),)
            )
        )

    def lds(self, dst: Reg, base: Reg | None = None, offset: int = 0) -> None:
        self._emit(Instruction(Opcode.LDS, dst=dst, srcs=(self.smem(base, offset),)))

    def sts(
        self,
        src: Operand | int | float,
        base: Reg | None = None,
        offset: int = 0,
    ) -> None:
        self._emit(
            Instruction(
                Opcode.STS, dst=self.smem(base, offset), srcs=(_as_operand(src),)
            )
        )

    # ------------------------------------------------------------------
    # finish
    # ------------------------------------------------------------------
    def build(self) -> Kernel:
        """Validate and freeze the program into a Kernel."""
        from repro.isa.validate import validate_kernel

        instructions = list(self._instructions)
        if not instructions or instructions[-1].opcode is not Opcode.EXIT:
            instructions.append(Instruction(Opcode.EXIT))
        kernel = Kernel(
            name=self.name,
            instructions=tuple(instructions),
            labels=dict(self._labels),
            params=self._params,
            param_regs=dict(self._param_regs),
            num_registers=self._next_reg,
            num_predicates=self._next_pred,
            shared_memory_words=self._shared_words,
        )
        validate_kernel(kernel)
        return kernel
