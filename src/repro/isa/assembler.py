"""Textual assembly: format kernels to text and parse them back.

This is the Decuda/cudasm analogue: a human-readable, round-trippable
view of native code.  Grammar (one item per line)::

    .kernel <name>
    .params <name> <name> ...
    .regs <count>
    .preds <count>
    .smem <words>
    <label>:
    [@[!]p<idx>] <mnemonic>[.<cmp>] [operand, operand, ...]

Operands: ``r3``, ``p1``, ``%tid``, ``3.5``, ``-2``, ``g[r3+0x10]``,
``s[0x40]``, ``s[r2]``.  Branches name their label as the sole operand.
A guarded ``exit`` parses, but
:func:`repro.isa.validate.validate_kernel` rejects it.
"""

from __future__ import annotations

import re

from repro.errors import AssemblyError
from repro.isa.instructions import (
    Imm,
    Instruction,
    MemRef,
    Operand,
    Pred,
    Reg,
    Special,
)
from repro.isa.opcodes import Opcode, OpKind, opcode_from_mnemonic
from repro.isa.program import Kernel

_MEMREF_RE = re.compile(
    r"^(?P<space>[gs])\[\s*(?:(?P<base>r\d+))?\s*"
    r"(?:(?P<plus>\+)?\s*(?P<offset>0x[0-9a-fA-F]+|\d+))?\s*\]$"
)
_LABEL_RE = re.compile(r"^(?P<name>[A-Za-z_][\w.$]*):$")
_GUARD_RE = re.compile(r"^@(?P<neg>!)?p(?P<idx>\d+)$")


def format_kernel(kernel: Kernel) -> str:
    """Render a kernel as assembly text."""
    lines = [f".kernel {kernel.name}"]
    if kernel.params:
        lines.append(".params " + " ".join(kernel.params))
    lines.append(f".regs {kernel.num_registers}")
    lines.append(f".preds {kernel.num_predicates}")
    lines.append(f".smem {kernel.shared_memory_words}")
    labels_at: dict[int, list[str]] = {}
    for name, index in kernel.labels.items():
        labels_at.setdefault(index, []).append(name)
    for index, instr in enumerate(kernel.instructions):
        for name in sorted(labels_at.get(index, ())):
            lines.append(f"{name}:")
        lines.append(f"    {instr}")
    for name in sorted(labels_at.get(len(kernel.instructions), ())):
        lines.append(f"{name}:")
    return "\n".join(lines) + "\n"


def parse_kernel(text: str) -> Kernel:
    """Parse assembly text back into a Kernel."""
    name = None
    params: tuple[str, ...] = ()
    num_regs = 0
    num_preds = 0
    smem_words = 0
    instructions: list[Instruction] = []
    labels: dict[str, int] = {}

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].split("//", 1)[0].strip()
        if not line:
            continue
        try:
            if line.startswith(".kernel"):
                name = _directive_value(line, ".kernel")
            elif line.startswith(".params"):
                params = tuple(line.split()[1:])
            elif line.startswith(".regs"):
                num_regs = int(_directive_value(line, ".regs"))
            elif line.startswith(".preds"):
                num_preds = int(_directive_value(line, ".preds"))
            elif line.startswith(".smem"):
                smem_words = int(_directive_value(line, ".smem"))
            elif _LABEL_RE.match(line):
                label = _LABEL_RE.match(line).group("name")
                if label in labels:
                    raise AssemblyError(f"duplicate label {label!r}")
                labels[label] = len(instructions)
            else:
                instructions.append(_parse_instruction(line))
        except AssemblyError:
            raise
        except Exception as exc:
            raise AssemblyError(f"line {line_no}: {raw.strip()!r}: {exc}") from exc

    if name is None:
        raise AssemblyError("missing .kernel directive")
    param_regs = {p: i for i, p in enumerate(params)}
    return Kernel(
        name=name,
        instructions=tuple(instructions),
        labels=labels,
        params=params,
        param_regs=param_regs,
        num_registers=num_regs,
        num_predicates=num_preds,
        shared_memory_words=smem_words,
    )


def _directive_value(line: str, directive: str) -> str:
    parts = line.split()
    if len(parts) != 2 or parts[0] != directive:
        raise AssemblyError(f"malformed directive: {line!r}")
    return parts[1]


def _parse_instruction(line: str) -> Instruction:
    guard = None
    tokens = line.split(None, 1)
    head = tokens[0]
    match = _GUARD_RE.match(head)
    if match:
        guard = (Pred(int(match.group("idx"))), match.group("neg") is None)
        if len(tokens) < 2:
            raise AssemblyError("guard without instruction")
        tokens = tokens[1].split(None, 1)
        head = tokens[0]

    cmp = None
    if "." in head:
        mnemonic, cmp = head.split(".", 1)
    else:
        mnemonic = head
    opcode = opcode_from_mnemonic(mnemonic)

    operand_text = tokens[1] if len(tokens) > 1 else ""
    operands = [t.strip() for t in operand_text.split(",") if t.strip()]

    if opcode.kind == OpKind.BRANCH:
        if len(operands) != 1:
            raise AssemblyError("bra takes exactly one label operand")
        return Instruction(opcode, target=operands[0], guard=guard)
    if opcode.kind in (OpKind.BARRIER, OpKind.EXIT, OpKind.NOP):
        if operands:
            raise AssemblyError(f"{mnemonic} takes no operands")
        return Instruction(opcode, guard=guard)

    parsed = [_parse_operand(t) for t in operands]
    if opcode.kind in (OpKind.STORE_GLOBAL, OpKind.STORE_SHARED):
        if len(parsed) != 2 or not isinstance(parsed[0], MemRef):
            raise AssemblyError(f"{mnemonic} expects: memref, value")
        return Instruction(opcode, dst=parsed[0], srcs=(parsed[1],), guard=guard)
    if not parsed:
        raise AssemblyError(f"{mnemonic} requires a destination")
    dst, srcs = parsed[0], tuple(parsed[1:])
    if not isinstance(dst, (Reg, Pred)):
        raise AssemblyError(f"{mnemonic} destination must be a register")
    return Instruction(opcode, dst=dst, srcs=srcs, guard=guard, cmp=cmp)


def _parse_operand(text: str) -> Operand:
    if text.startswith("%"):
        return Special(text[1:])
    if re.fullmatch(r"r\d+", text):
        return Reg(int(text[1:]))
    if re.fullmatch(r"p\d+", text):
        return Pred(int(text[1:]))
    match = _MEMREF_RE.match(text)
    if match:
        space = "global" if match.group("space") == "g" else "shared"
        base = Reg(int(match.group("base")[1:])) if match.group("base") else None
        offset_text = match.group("offset")
        offset = int(offset_text, 0) if offset_text else 0
        return MemRef(space, base, offset)
    try:
        if re.fullmatch(r"[+-]?\d+", text):
            return Imm(int(text))
        return Imm(float(text))
    except ValueError:
        raise AssemblyError(f"cannot parse operand {text!r}") from None
