"""Use-def / def-use maps over an SSA-form program.

``chain(u)`` itself lives on each use site
(:attr:`repro.ir.expr.EVar.def_site`); this module builds the reverse
maps passes need: which use sites a definition feeds, and which
statement holds each use.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.ir.expr import EVar
from repro.ir.stmts import IRStmt, Pi
from repro.ir.structured import ProgramIR, iter_statements

__all__ = ["UseMap", "build_term_use_map", "build_use_map", "defs_in_program", "iter_uses"]


class UseMap:
    """Reverse FUD chains: def site → list of (use site, holder stmt)."""

    def __init__(self) -> None:
        self._map: dict[object, list[tuple[EVar, IRStmt]]] = {}

    def add(self, def_site: object, use: EVar, holder: IRStmt) -> None:
        self._map.setdefault(def_site, []).append((use, holder))

    def uses_of(self, def_site: object) -> list[tuple[EVar, IRStmt]]:
        return self._map.get(def_site, [])

    def holders_of(self, def_site: object) -> list[IRStmt]:
        return [holder for _use, holder in self.uses_of(def_site)]

    def is_dead(self, def_site: object) -> bool:
        return not self._map.get(def_site)

    def __len__(self) -> int:
        return len(self._map)


def iter_uses(program: ProgramIR) -> Iterator[tuple[EVar, IRStmt]]:
    """Every (use site, holder statement) in the program, including φ
    arguments, π arguments and branch conditions."""
    for stmt, _ctx in iter_statements(program):
        for use in stmt.uses():
            yield use, stmt


def build_use_map(program: ProgramIR) -> UseMap:
    """Build the def→uses map for an SSA-form program."""
    usemap = UseMap()
    for use, holder in iter_uses(program):
        if use.def_site is not None:
            usemap.add(use.def_site, use, holder)
    return usemap


def build_term_use_map(program: ProgramIR) -> UseMap:
    """:func:`build_use_map` without π conflict arguments.

    A conflict argument always chains to a real assignment, never to a
    φ/π term, so a pass redirecting the uses of deleted φ/π terms needs
    none of them — and they are one entry per (π, concurrent def).
    """
    usemap = UseMap()
    for stmt, _ctx in iter_statements(program):
        uses = (stmt.control,) if isinstance(stmt, Pi) else stmt.uses()
        for use in uses:
            if use.def_site is not None:
                usemap.add(use.def_site, use, stmt)
    return usemap


def defs_in_program(program: ProgramIR) -> list[IRStmt]:
    """All defining statements (assignments, φ terms, π terms)."""
    return [
        stmt
        for stmt, _ctx in iter_statements(program)
        if stmt.def_name() is not None
    ]
