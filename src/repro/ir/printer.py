"""Structured-IR printer.

Renders a program (optionally in SSA/CSSA/CSSAME form) as a source-like
listing, the way the paper prints Figures 3–5: φ and π terms appear
inline as ``a3 = phi(a1, a2);`` / ``ta1 = pi(a1, a4);`` lines.
"""

from __future__ import annotations

from repro.errors import TransformError
from repro.ir.expr import expr_to_str
from repro.ir.stmts import IRStmt, Pi
from repro.ir.structured import (
    Body,
    CobeginRegion,
    IfRegion,
    ProgramIR,
    WhileRegion,
)

__all__ = ["format_ir"]


def format_ir(program: ProgramIR) -> str:
    """Render ``program`` as an indented listing."""
    lines: list[str] = []
    _format_body(program.body, 0, lines, {})
    return "\n".join(lines) + ("\n" if lines else "")


def _stmt_text(stmt: IRStmt, rendered: dict[int, tuple]) -> str:
    return stmt.to_str(rendered) if isinstance(stmt, Pi) else stmt.to_str()


def _format_body(body: Body, indent: int, lines: list[str], rendered: dict[int, tuple]) -> None:
    pad = "    " * indent
    for item in body.items:
        if isinstance(item, IRStmt):
            lines.append(pad + _stmt_text(item, rendered))
        elif isinstance(item, IfRegion):
            lines.append(f"{pad}if ({expr_to_str(item.branch.cond)}) {{")
            _format_body(item.then_body, indent + 1, lines, rendered)
            if item.else_body:
                lines.append(f"{pad}}} else {{")
                _format_body(item.else_body, indent + 1, lines, rendered)
            lines.append(pad + "}")
        elif isinstance(item, WhileRegion):
            for header in item.header_phis:
                lines.append(f"{pad}/* loop header */ {_stmt_text(header, rendered)}")
            lines.append(f"{pad}while ({expr_to_str(item.branch.cond)}) {{")
            _format_body(item.body, indent + 1, lines, rendered)
            lines.append(pad + "}")
        elif isinstance(item, CobeginRegion):
            lines.append(pad + "cobegin")
            for i, thread in enumerate(item.threads):
                label = thread.label if thread.label is not None else f"T{i}"
                lines.append(f"{pad}{label}: begin")
                _format_body(thread.body, indent + 1, lines, rendered)
                lines.append(f"{pad}end")
            lines.append(pad + "coend")
        else:  # pragma: no cover - defensive
            raise TransformError(f"unknown body item {item!r}")
