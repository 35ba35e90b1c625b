"""Static ↔ dynamic cross-validation: the ``repro audit`` driver.

The lockset report (:func:`repro.mutex.races.detect_races`) is a *may*
analysis: it over-approximates, so every real race should appear in it,
but not every reported race need be feasible.  The happens-before
detector is the opposite: it only reports races an actual execution
exhibited, each with a replayable witness schedule.  Auditing runs both
and compares:

* **confirmed** — a static race whose variable the dynamic detector
  also flagged; the finding carries a witness schedule whose replay
  reproduces the race deterministically;
* **unconfirmed** — a static race no sampled schedule exhibited:
  possibly infeasible, possibly under-sampled (read the coverage
  block before celebrating), or — ``scope == "observable-args"`` —
  involving only observable-event arguments, which the dynamic monitor
  deliberately excludes (see :mod:`repro.dynamic.hb`);
* **dynamic-only** — a dynamic race on a variable the static report
  missed.  This should be impossible while the analysis is sound, so
  an audit with dynamic-only findings **fails** regardless of flags:
  it is a soundness check on the CSSAME analysis itself.

``audit_source`` samples ``runs`` seeded schedules with a fresh
:class:`~repro.dynamic.hb.HBTracker` each, optionally adds bounded
exhaustive exploration as the coverage yardstick, verifies every
witness by replaying it, and reports deterministic ``work.audit.*``
counters (:func:`repro.obs.prof.record_work`) so the benchmark gate
covers the subsystem.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.cfg.conflicts import collect_access_sites, is_memory_access
from repro.cssame.builder import CSSAMEForm
from repro.errors import StepLimitExceeded
from repro.ir.stmts import Pi, SCallStmt, SPrint
from repro.mutex.races import RaceReport, detect_races
from repro.obs.prof import record_work
from repro.obs.trace import get_tracer
from repro.dynamic.coverage import ScheduleCoverage
from repro.dynamic.hb import DynamicRace, HBTracker
from repro.vm.bytecode import VMProgram
from repro.vm.compile import compile_program
from repro.vm.explore import explore
from repro.vm.machine import VirtualMachine

__all__ = [
    "AuditReport",
    "StaticRaceFinding",
    "audit_program",
    "audit_source",
]

#: classification vocabulary for static findings
CONFIRMED = "confirmed"
UNCONFIRMED = "unconfirmed"
#: scope of an unconfirmed static race
SCOPE_MONITORED = "monitored"
SCOPE_OBSERVABLE = "observable-args"


class StaticRaceFinding:
    """One static race report, judged against the dynamic evidence."""

    __slots__ = ("report", "status", "scope", "dynamic", "witness_verified")

    def __init__(
        self,
        report: RaceReport,
        status: str,
        scope: str,
        dynamic: Optional[DynamicRace] = None,
        witness_verified: bool = False,
    ) -> None:
        self.report = report
        self.status = status  # CONFIRMED | UNCONFIRMED
        self.scope = scope  # SCOPE_MONITORED | SCOPE_OBSERVABLE
        #: the matching dynamic race (carries the witness schedule)
        self.dynamic = dynamic
        self.witness_verified = witness_verified

    def message(self) -> str:
        if self.status == CONFIRMED:
            verified = "replay-verified" if self.witness_verified else "unverified"
            return (
                f"confirmed: {self.report.message()} — witness of "
                f"{len(self.dynamic.witness)} step(s), {verified}"
            )
        if self.scope == SCOPE_OBSERVABLE:
            return (
                f"unconfirmed (observable-event arguments; outside the "
                f"dynamic monitor): {self.report.message()}"
            )
        return f"unconfirmed (possibly infeasible): {self.report.message()}"

    def as_dict(self) -> dict:
        return {
            "status": self.status,
            "scope": self.scope,
            "race": self.report.as_dict(),
            "dynamic": None if self.dynamic is None else self.dynamic.as_dict(),
            "witness_verified": self.witness_verified,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StaticRaceFinding({self.message()})"


class AuditReport:
    """The full result of one audit."""

    def __init__(self) -> None:
        self.findings: list[StaticRaceFinding] = []
        #: distinct dynamic races across all runs (by program location)
        self.dynamic: list[DynamicRace] = []
        #: dynamic races on variables the static report missed
        self.dynamic_only: list[DynamicRace] = []
        self.coverage = ScheduleCoverage()
        self.seeds: list[int] = []

    @property
    def confirmed(self) -> list[StaticRaceFinding]:
        return [f for f in self.findings if f.status == CONFIRMED]

    @property
    def unconfirmed(self) -> list[StaticRaceFinding]:
        return [f for f in self.findings if f.status == UNCONFIRMED]

    @property
    def sound(self) -> bool:
        """No dynamic-only races — the static analysis held up."""
        return not self.dynamic_only

    def exit_code(self, strict: bool = False) -> int:
        """The CLI exit-code contract.

        * 1 — soundness failure (dynamic-only race), always; or, under
          ``strict``, a confirmed race (real, replayable);
        * 2 — a sampled run (or exploration) deadlocked, and nothing
          above applies;
        * 0 — otherwise (unconfirmed static races do not gate).
        """
        if self.dynamic_only:
            return 1
        if strict and self.confirmed:
            return 1
        if self.coverage.deadlock_runs:
            return 2
        return 0

    def as_dict(self) -> dict:
        return {
            "seeds": list(self.seeds),
            "confirmed": [f.as_dict() for f in self.confirmed],
            "unconfirmed": [f.as_dict() for f in self.unconfirmed],
            "dynamic_only": [r.as_dict() for r in self.dynamic_only],
            "dynamic_races": [r.as_dict() for r in self.dynamic],
            "sound": self.sound,
            "coverage": self.coverage.as_dict(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AuditReport(confirmed={len(self.confirmed)}, "
            f"unconfirmed={len(self.unconfirmed)}, "
            f"dynamic_only={len(self.dynamic_only)})"
        )


def _consumers(graph, block_id: int, temp: str) -> list:
    """Statements of ``block_id`` reading the single-assignment ``temp``."""
    return [
        stmt
        for stmt in graph.blocks[block_id].stmts
        if any(use.name == temp and use.version is None for use in stmt.uses())
    ]


def _observable_only(graph, sites: dict, var: str, block_id: int) -> bool:
    """True when every monitored access of ``var`` in ``block_id`` feeds
    only observable-event statements (print / opaque call).

    In CSSA form a protected use is routed through a π term, so the
    access site sits on the :class:`Pi`; the judgement follows the π
    target to its consuming statement(s) in the block.
    """
    found = False
    for site in sites.get(var, []):
        if site.block_id != block_id or not is_memory_access(site):
            continue
        stmts = [site.stmt]
        if isinstance(site.stmt, Pi):
            stmts = _consumers(graph, block_id, site.stmt.target) or stmts
        for stmt in stmts:
            if not isinstance(stmt, (SPrint, SCallStmt)):
                return False
        found = True
    return found


def audit_program(
    form: CSSAMEForm,
    compiled: VMProgram,
    static_races: Optional[list[RaceReport]] = None,
    runs: int = 16,
    seed_base: int = 0,
    fuel: int = 1_000_000,
    functions: Optional[Callable[[str, list[int]], int]] = None,
    explore_states: int = 20_000,
    do_explore: bool = True,
) -> AuditReport:
    """Cross-validate the unpruned CSSA ``form``'s static races against
    ``runs`` traced schedules of its bytecode ``compiled``.

    The static side is the Section 6 lockset report of ``form`` (unless
    ``static_races`` overrides it — the soundness tests inject
    fabricated reports that way), its access sites and its conflict
    variables.  The dynamic/static match is at variable granularity: a
    static race on ``v`` is *confirmed* by any dynamic race on ``v``
    (block ids and PCs index different program representations, so
    finer matching would be spuriously precise).  Witnesses are
    verified by replay before the report claims them.
    """
    graph = form.graph
    if static_races is None:
        static_races = detect_races(graph, form.structures)
    access_sites = collect_access_sites(graph)
    tracer = get_tracer()
    report = AuditReport()
    report.coverage.static_conflict_vars = set(graph.conflict_edges.variables())

    dynamic: dict[tuple, DynamicRace] = {}
    total_checks = 0
    total_joins = 0
    total_steps = 0
    with tracer.span("audit-runs", runs=runs) as span:
        for seed in range(seed_base, seed_base + runs):
            report.seeds.append(seed)
            hb = HBTracker(compiled)
            vm = VirtualMachine(
                compiled, seed=seed, functions=functions, fuel=fuel, hb=hb
            )
            try:
                execution = vm.run(raise_on_deadlock=False)
            except StepLimitExceeded:
                continue  # fuel-bounded run: no outcome to record
            report.coverage.runs += 1
            if execution.deadlocked:
                report.coverage.deadlock_runs += 1
            report.coverage.sampled_outcomes.add(execution.output_key())
            hb.merge_orderings(report.coverage.orderings)
            for race in hb.races:
                dynamic.setdefault(race.pair_key(), race)
            total_checks += hb.checks
            total_joins += hb.joins
            total_steps += execution.steps
        span.set(dynamic_races=len(dynamic))
    report.dynamic = [dynamic[key] for key in sorted(dynamic)]

    if do_explore:
        result = explore(compiled, functions=functions, max_states=explore_states)
        report.coverage.explored_outcomes = result.outcomes
        report.coverage.explored_states = result.states
        report.coverage.explore_complete = result.complete

    # Witness verification: replaying the recorded schedule prefix on a
    # fresh tracker must re-detect the same race at the same locations.
    verified: set[tuple] = set()
    for race in report.dynamic:
        hb = HBTracker(compiled)
        vm = VirtualMachine(compiled, functions=functions, hb=hb)
        try:
            vm.replay(list(race.witness))
        except Exception:  # noqa: BLE001 - an unreplayable witness is a bug
            continue
        if race.pair_key() in {r.pair_key() for r in hb.races}:
            verified.add(race.pair_key())

    dynamic_vars = {race.var for race in report.dynamic}
    static_vars = set()
    for static in static_races:
        static_vars.add(static.var)
        match = next(
            (r for r in report.dynamic if r.var == static.var), None
        )
        if match is not None:
            report.findings.append(
                StaticRaceFinding(
                    static,
                    CONFIRMED,
                    SCOPE_MONITORED,
                    dynamic=match,
                    witness_verified=match.pair_key() in verified,
                )
            )
            continue
        scope = SCOPE_MONITORED
        if (
            _observable_only(graph, access_sites, static.var, static.block_a)
            or _observable_only(graph, access_sites, static.var, static.block_b)
        ):
            scope = SCOPE_OBSERVABLE
        report.findings.append(StaticRaceFinding(static, UNCONFIRMED, scope))
    report.dynamic_only = [r for r in report.dynamic if r.var not in static_vars]

    record_work(
        "audit",
        runs=report.coverage.runs,
        steps=total_steps,
        access_checks=total_checks,
        clock_joins=total_joins,
        dynamic_races=len(report.dynamic),
        static_races=len(static_races),
        confirmed=len(report.confirmed),
    )
    return report


def audit_source(
    source: str,
    runs: int = 16,
    seed_base: int = 0,
    fuel: int = 1_000_000,
    functions: Optional[Callable[[str, list[int]], int]] = None,
    explore_states: int = 20_000,
    do_explore: bool = True,
    static_races: Optional[list[RaceReport]] = None,
    session=None,
) -> AuditReport:
    """Audit a source program end to end.

    Builds the unpruned CSSA form and the bytecode through ``session``
    (an ephemeral one when omitted), then delegates to
    :func:`audit_program`.
    """
    from repro.session.session import Session

    session = session if session is not None else Session()
    return audit_program(
        session.analyze(source, prune=False),
        compile_program(session.front_end(source)),
        static_races,
        runs=runs,
        seed_base=seed_base,
        fuel=fuel,
        functions=functions,
        explore_states=explore_states,
        do_explore=do_explore,
    )
