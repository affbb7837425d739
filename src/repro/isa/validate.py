"""Static validation of kernels before simulation."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ValidationError
from repro.isa.instructions import MemRef, Pred, Reg
from repro.isa.opcodes import Opcode, OpKind
from repro.isa.program import Kernel

if TYPE_CHECKING:  # pragma: no cover - import cycle (arch -> isa)
    from repro.arch.specs import GpuSpec


def validate_kernel(kernel: Kernel, spec: GpuSpec | None = None) -> None:
    """Raise :class:`ValidationError` on any structural problem.

    Checks register/predicate bounds, label resolution, memory-space
    consistency (already enforced per-instruction), that execution
    cannot fall off the end of the program, and that no ``exit`` carries
    a guard (the interpreters retire every lane at an ``exit``, while
    CUDA would retire only the lanes whose predicate holds).  With a
    ``spec``, also checks the kernel's static shared-memory footprint
    (including the ABI overhead) against the per-block hardware limit.
    """
    _check_terminates(kernel)
    if spec is not None and kernel.shared_memory_bytes > spec.sm.shared_memory_bytes:
        raise ValidationError(
            f"kernel {kernel.name!r} declares "
            f"{kernel.shared_memory_bytes} bytes of shared memory "
            f"(including ABI overhead), but {spec.name} provides "
            f"{spec.sm.shared_memory_bytes} bytes per block"
        )
    for position, instr in enumerate(kernel.instructions):
        where = f"instruction {position} ({instr})"
        for reg_index in instr.registers_read() + instr.registers_written():
            if reg_index >= kernel.num_registers:
                raise ValidationError(
                    f"{where}: register r{reg_index} out of range "
                    f"(kernel declares {kernel.num_registers})"
                )
        _check_predicates(kernel, instr, where)
        if instr.opcode.kind == OpKind.BRANCH:
            if instr.target not in kernel.labels:
                raise ValidationError(f"{where}: undefined label {instr.target!r}")
        if instr.opcode.kind == OpKind.EXIT and instr.guard is not None:
            raise ValidationError(
                f"{where}: exit cannot be guarded; branch around it instead"
            )
        shared = instr.shared_operand
        if shared is not None and instr.opcode.kind == OpKind.SETP:
            raise ValidationError(f"{where}: setp cannot read shared memory")
        _check_static_shared_bounds(kernel, instr, where)


def _check_predicates(kernel: Kernel, instr, where: str) -> None:
    preds: list[Pred] = []
    if instr.guard is not None:
        preds.append(instr.guard[0])
    if isinstance(instr.dst, Pred):
        preds.append(instr.dst)
    preds.extend(s for s in instr.srcs if isinstance(s, Pred))
    for pred in preds:
        if pred.index >= kernel.num_predicates:
            raise ValidationError(
                f"{where}: predicate p{pred.index} out of range "
                f"(kernel declares {kernel.num_predicates})"
            )


def _check_static_shared_bounds(kernel: Kernel, instr, where: str) -> None:
    """Shared references with no base register must fit the static footprint."""
    refs: list[MemRef] = []
    if isinstance(instr.dst, MemRef):
        refs.append(instr.dst)
    refs.extend(s for s in instr.srcs if isinstance(s, MemRef))
    limit = kernel.shared_memory_words * 4
    for ref in refs:
        if ref.space == "shared" and ref.base is None and ref.offset + 4 > limit:
            raise ValidationError(
                f"{where}: static shared access at byte {ref.offset} exceeds "
                f"the kernel's {limit}-byte shared footprint"
            )


def _check_terminates(kernel: Kernel) -> None:
    last = kernel.instructions[-1]
    if last.opcode is Opcode.EXIT:
        return
    if last.opcode is Opcode.BRA and last.guard is None:
        return
    raise ValidationError(
        "kernel must end with exit or an unconditional branch; "
        f"found {last.opcode.mnemonic}"
    )


def kernel_register_count(kernel: Kernel) -> int:
    """Highest register index actually referenced, plus one."""
    highest = -1
    for instr in kernel.instructions:
        used = instr.registers_read() + instr.registers_written()
        if used:
            highest = max(highest, max(used))
    return highest + 1
