"""Exhaustive interleaving exploration (a tiny model checker).

:func:`explore` and :func:`find_witness` are drivers of the one
transition in :mod:`repro.vm.semantics`, with no observers attached.
:func:`explore` enumerates **every** schedule of a compiled program by
depth-first search over canonical machine states, memoizing the set of
observable outcome suffixes per state.  An *outcome* is the tuple of
observable events (``("print", values)`` / ``("call", name, values)``)
produced by one complete schedule, optionally terminated by a
``("deadlock",)`` or ``("error", msg)`` marker; a state cycle
(livelock) contributes a ``("livelock",)`` marker.

The verification suite uses :func:`explore` to prove that an optimized
program has exactly the same outcome set as the original — for every
schedule, not just sampled ones.

The memo key is the machine state itself: threads are keyed by their
spawn path (so two schedules reaching the same configuration share a
state), an unset variable and a zero one are the same memory, and output
produced so far is *not* part of the state (outcomes are composed from
memoized suffixes).
"""

from __future__ import annotations

import sys
from typing import Callable, Iterable, Optional, Union

from repro.errors import VMError
from repro.ir.structured import ProgramIR
from repro.obs.trace import get_tracer
from repro.vm.bytecode import VMProgram
from repro.vm.semantics import Machine

__all__ = ["ExplorationResult", "explore", "find_witness"]


class ExplorationResult:
    """All behaviours of a program."""

    def __init__(
        self, outcomes: frozenset, states: int, complete: bool
    ) -> None:
        #: frozenset of outcome tuples (see module docstring)
        self.outcomes = outcomes
        #: number of distinct machine states visited
        self.states = states
        #: False when the state budget was exhausted
        self.complete = complete

    @property
    def can_deadlock(self) -> bool:
        return any(o and o[-1] == ("deadlock",) for o in self.outcomes)

    @property
    def can_livelock(self) -> bool:
        return any(o and o[-1] == ("livelock",) for o in self.outcomes)

    def print_outcomes(self) -> frozenset:
        """Outcomes reduced to printed values only (no call events)."""
        return frozenset(
            tuple(e for e in o if e[0] in ("print", "deadlock", "error", "livelock"))
            for o in self.outcomes
        )

    @property
    def print_classes(self) -> int:
        """Number of distinct print-level outcome classes — the paper's
        observable-behaviour count (what sampled schedules are measured
        against in :mod:`repro.dynamic.coverage`)."""
        return len(self.print_outcomes())

    def coverage_of(self, sampled: Iterable[tuple]) -> dict:
        """Schedule-coverage summary of ``sampled`` outcome keys (from
        ``Execution.output_key()``) against this exhaustive result."""
        seen = set(sampled)
        hit = seen & self.outcomes
        return {
            "states": self.states,
            "complete": self.complete,
            "outcome_classes": len(self.outcomes),
            "print_classes": self.print_classes,
            "sampled_classes": len(seen),
            "sampled_hit": len(hit),
            "outcome_coverage": (
                round(len(hit) / len(self.outcomes), 4) if self.outcomes else None
            ),
        }

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"ExplorationResult(outcomes={len(self.outcomes)}, "
            f"states={self.states}, complete={self.complete})"
        )


class _Explorer:
    def __init__(self, machine: Machine, max_states: int) -> None:
        self.machine = machine
        self.max_states = max_states
        self.memo: dict[tuple, frozenset] = {}
        self.gray: set[tuple] = set()
        self.truncated = False

    # -- DFS with memoized suffixes ---------------------------------------------

    def outcomes(self, state: tuple) -> frozenset:
        cached = self.memo.get(state)
        if cached is not None:
            return cached
        if state in self.gray:
            return frozenset({(("livelock",),)})
        threads = state[0]
        if not threads:
            result = frozenset({()})
            self.memo[state] = result
            return result
        if len(self.memo) >= self.max_states:
            self.truncated = True
            return frozenset({(("truncated",),)})

        self.gray.add(state)
        runnable = self.machine.runnable(state)
        collected: set = set()
        if not runnable:
            collected.add((("deadlock",),))
        else:
            for index in runnable:
                try:
                    event, next_state = self.machine.step(state, index)
                except VMError as exc:
                    collected.add((("error", str(exc)),))
                    continue
                suffixes = self.outcomes(next_state)
                for suffix in suffixes:
                    if event is None:
                        collected.add(suffix)
                    else:
                        collected.add((event,) + suffix)
        self.gray.remove(state)
        result = frozenset(collected)
        # Do not memoize across a truncation (partial results poison).
        if not self.truncated:
            self.memo[state] = result
        return result


def find_witness(
    program: Union[VMProgram, ProgramIR],
    outcome: tuple,
    functions: Optional[Callable[[str, list[int]], int]] = None,
    max_states: int = 200_000,
) -> Optional[list[tuple]]:
    """Find a schedule (list of thread ids, in step order) whose
    observable outcome is exactly ``outcome``.

    Used to turn an equivalence-check counterexample ("the transformed
    program can print X") into a concrete replayable interleaving.
    Returns ``None`` when no schedule produces the outcome within the
    state budget.
    """
    machine = Machine(program, functions)

    # Depth-first search over (state, produced-prefix) pairs.  The memo
    # keyed by (state, remaining-suffix) bounds the search.
    seen: set[tuple] = set()

    def dfs(state: tuple, remaining: tuple, schedule: list) -> Optional[list]:
        key = (state, remaining)
        if key in seen or len(seen) > max_states:
            return None
        seen.add(key)
        threads = state[0]
        if not threads:
            return list(schedule) if not remaining else None
        runnable = machine.runnable(state)
        if not runnable:
            # Terminal deadlock: matches only the deadlock marker.
            if remaining == (("deadlock",),):
                return list(schedule)
            return None
        for index in runnable:
            tid = threads[index][0]
            try:
                event, next_state = machine.step(state, index)
            except VMError:
                continue
            if event is None:
                next_remaining = remaining
            elif remaining and remaining[0] == event:
                next_remaining = remaining[1:]
            else:
                continue  # produced an event the outcome doesn't want
            schedule.append(tid)
            found = dfs(next_state, next_remaining, schedule)
            if found is not None:
                return found
            schedule.pop()
        return None

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 100_000))
    tracer = get_tracer()
    try:
        with tracer.span("find-witness", max_states=max_states) as span:
            schedule = dfs(machine.initial_state(), tuple(outcome), [])
            span.set(
                found=schedule is not None,
                states_considered=len(seen),
                schedule_length=0 if schedule is None else len(schedule),
            )
        return schedule
    finally:
        sys.setrecursionlimit(old_limit)


def explore(
    program: Union[VMProgram, ProgramIR],
    functions: Optional[Callable[[str, list[int]], int]] = None,
    max_states: int = 200_000,
) -> ExplorationResult:
    """Enumerate every schedule of ``program``.

    Intended for small programs (the state space is exponential in the
    number of concurrent statements); ``max_states`` bounds the search
    and marks the result incomplete when hit.
    """
    machine = Machine(program, functions)
    explorer = _Explorer(machine, max_states)
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 100_000))
    tracer = get_tracer()
    try:
        with tracer.span("explore", max_states=max_states) as span:
            outcomes = explorer.outcomes(machine.initial_state())
            span.set(
                states=len(explorer.memo),
                outcomes=len(outcomes),
                complete=not explorer.truncated,
            )
    finally:
        sys.setrecursionlimit(old_limit)
    result = ExplorationResult(
        outcomes, states=len(explorer.memo), complete=not explorer.truncated
    )
    if tracer.enabled:
        tracer.counter("explore.states").inc(len(explorer.memo))
        tracer.counter("explore.outcomes").inc(len(outcomes))
        tracer.counter("explore.print_classes").inc(result.print_classes)
    return result
