"""The seeded random scheduler and schedule replay.

Both are drivers of the one transition in :mod:`repro.vm.semantics`:
:meth:`VirtualMachine.run` picks the next thread with ``rng.choice``
over the runnable threads in thread-id order, and
:meth:`VirtualMachine.replay` follows a given schedule.  Run-time
bookkeeping is done by :class:`Observer` objects the drivers notify
(the exhaustive explorer and witness search attach none):

* the lock account, which records ``Execution.lock_intervals`` — the
  one source of every per-lock number (``lock_held_steps``,
  ``lock_blocked_steps``, ``lock_acquisitions`` and the ``lock-*``
  trace events, the metrics the LICM benchmarks report);
* the tracer's ``vm-step`` / ``context-switch`` events, when a tracer
  is enabled;
* an optional happens-before tracker (:class:`repro.dynamic.hb.HBTracker`).
"""

from __future__ import annotations

import random
from typing import Callable, Optional, Union

from repro.errors import DeadlockError, StepLimitExceeded, VMError
from repro.ir.structured import ProgramIR
from repro.obs.events import (
    ContextSwitch,
    LockAcquire,
    LockBlockedInterval,
    LockHeldInterval,
    LockRelease,
    VMStep,
)
from repro.obs.trace import get_tracer
from repro.vm.bytecode import Instr, Op, VMProgram
from repro.vm.semantics import Machine, default_functions

__all__ = ["Execution", "Observer", "VirtualMachine", "default_functions", "run_random"]


class Observer:
    """Run-time bookkeeping notified by the random and replay drivers.

    ``on_step`` runs before step number ``step`` executes ``instr`` (at
    ``pc``) of thread ``tid`` in ``state``; the structural hooks run
    from inside the transition; ``on_end`` sees the final state.
    """

    def on_step(self, step: int, state: tuple, tid: tuple, pc: int, instr: Instr) -> None:
        pass

    def on_spawn(self, parent: tuple, children: tuple) -> None:
        pass

    def on_thread_end(self, child: tuple, parent: tuple) -> None:
        pass

    def on_barrier_release(self, name: str, tids: list[tuple]) -> None:
        pass

    def on_end(self, steps: int, state: tuple) -> None:
        pass


class Execution:
    """The observable result of one run."""

    def __init__(self) -> None:
        #: sequence of ("print", values) / ("call", name, values) events
        self.events: list[tuple] = []
        self.steps = 0
        self.deadlocked = False
        #: per-lock contention timeline: dicts with ``kind`` ("held" |
        #: "blocked"), ``lock``, ``tid`` (spawn-path tuple), ``from``/
        #: ``to`` global steps, and ``open`` (True when the interval was
        #: still running at run end — the deadlock signature).  A held
        #: interval covers the steps ``from+1 … to`` that ran while the
        #: lock was held (``from`` acquires, ``to`` releases or is the
        #: last step); a blocked interval covers the steps ``from …
        #: to-1`` that ran while ``tid`` waited at ``lock`` with the lock
        #: held, so it ends at the release.
        self.lock_intervals: list[dict] = []
        #: final shared memory: every variable the run assigned
        self.memory: dict[str, int] = {}

    def _per_lock(self, kind: str, count_steps: bool) -> dict[str, int]:
        totals: dict[str, int] = {}
        for interval in self.lock_intervals:
            if interval["kind"] == kind:
                n = interval["to"] - interval["from"] if count_steps else 1
                totals[interval["lock"]] = totals.get(interval["lock"], 0) + n
        return {lock: n for lock, n in totals.items() if n}

    @property
    def lock_held_steps(self) -> dict[str, int]:
        """Lock name → steps executed while it was held."""
        return self._per_lock("held", True)

    @property
    def lock_blocked_steps(self) -> dict[str, int]:
        """Lock name → steps threads spent blocked on it."""
        return self._per_lock("blocked", True)

    @property
    def lock_acquisitions(self) -> dict[str, int]:
        """Lock name → number of successful acquisitions."""
        return self._per_lock("held", False)

    @property
    def printed(self) -> list[tuple]:
        return [e[1] for e in self.events if e[0] == "print"]

    def output_key(self) -> tuple:
        """Canonical observable outcome (for set comparisons)."""
        suffix: tuple = (("deadlock",),) if self.deadlocked else ()
        return tuple(self.events) + suffix

    def __repr__(self) -> str:  # pragma: no cover
        return f"Execution(events={len(self.events)}, steps={self.steps})"


class _TraceSteps(Observer):
    """``vm-step`` and ``context-switch`` events for an enabled tracer."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.last_tid: Optional[tuple] = None

    def on_step(self, step, state, tid, pc, instr) -> None:
        tracer = self.tracer
        if self.last_tid is not None and self.last_tid != tid:
            tracer.event(ContextSwitch(step, self.last_tid, tid))
            tracer.counter("vm.context_switches").inc()
        self.last_tid = tid
        tracer.event(VMStep(step, tid, instr.op.name))
        tracer.counter("vm.steps").inc()


class _LockAccount(Observer):
    """The one lock account: opens and closes ``lock_intervals``.

    Before each step it opens a blocked interval for every thread newly
    waiting at ``lock(L)`` while L is held; an acquire opens a held
    interval, and a release closes it together with every blocked
    interval on that lock.  Intervals still open at run end are closed
    with ``open=True``.  All ``lock-*`` trace events and ``vm.lock_*``
    metrics are emitted here, as intervals open or close.
    """

    def __init__(self, instrs: list[Instr], intervals: list[dict], tracer) -> None:
        self.instrs = instrs
        self.intervals = intervals
        self.tracer = tracer
        self.held: dict[str, tuple] = {}  # lock → (owner tid, acquiring step)
        self.blocked: dict[tuple, int] = {}  # (lock, tid) → first blocked step

    def on_step(self, step, state, tid, pc, instr) -> None:
        locks = state[2]
        if locks:
            held = {name for name, _owner in locks}
            for t_tid, t_pc, t_status, _pending in state[0]:
                waits = self.instrs[t_pc]
                if t_status == "r" and waits.op is Op.LOCK and waits.name in held:
                    self.blocked.setdefault((waits.name, t_tid), step)
        tracer = self.tracer
        if instr.op is Op.LOCK:
            self.held[instr.name] = (tid, step)
            if tracer.enabled:
                tracer.event(LockAcquire(step, instr.name, tid))
                tracer.counter(f"vm.lock_acquisitions.{instr.name}").inc()
        elif instr.op is Op.UNLOCK and self.held.get(instr.name, (None,))[0] == tid:
            # (an un-owned unlock faults in the transition instead)
            since = self.held[instr.name][1]
            if tracer.enabled:
                tracer.event(LockRelease(step, instr.name, tid, step - since))
                tracer.histogram(f"vm.lock_hold_steps.{instr.name}").observe(step - since)
            self._close_held(instr.name, step, False)
            for key in [k for k in self.blocked if k[0] == instr.name]:
                self._close_blocked(key, step + 1, False)

    def on_end(self, steps, state) -> None:
        for lock in sorted(self.held):
            self._close_held(lock, steps - 1, True)
        for key in sorted(self.blocked):
            self._close_blocked(key, steps, True)

    def _close_held(self, lock: str, to: int, still_open: bool) -> None:
        tid, since = self.held.pop(lock)
        self._record("held", lock, tid, since, to, still_open)
        if self.tracer.enabled:
            self.tracer.event(LockHeldInterval(lock, tid, since, to, still_open))

    def _close_blocked(self, key: tuple, to: int, still_open: bool) -> None:
        lock, tid = key
        since = self.blocked.pop(key)
        self._record("blocked", lock, tid, since, to, still_open)
        if self.tracer.enabled:
            self.tracer.event(LockBlockedInterval(lock, tid, since, to, still_open))
            self.tracer.counter(f"vm.lock_blocked_steps.{lock}").inc(to - since)

    def _record(self, kind, lock, tid, since, to, still_open) -> None:
        self.intervals.append(
            {"kind": kind, "lock": lock, "tid": tid, "from": since, "to": to, "open": still_open}
        )


class VirtualMachine:
    """Runs a compiled program under a seeded random scheduler."""

    def __init__(
        self,
        program: Union[VMProgram, ProgramIR],
        seed: int = 0,
        functions: Optional[Callable[[str, list[int]], int]] = None,
        fuel: int = 1_000_000,
        hb: Optional[Observer] = None,
    ) -> None:
        self.machine = Machine(program, functions)
        self.rng = random.Random(seed)
        self.fuel = fuel
        self.state = self.machine.initial_state()
        self.execution = Execution()
        tracer = get_tracer()
        #: notified around every step, in this order; ``hb`` is an
        #: optional happens-before tracker (repro.dynamic.hb.HBTracker)
        self.observers: list[Observer] = [
            *([hb] if hb is not None else []),
            *([_TraceSteps(tracer)] if tracer.enabled else []),
            _LockAccount(self.machine.instrs, self.execution.lock_intervals, tracer),
        ]
        self._assigned: dict[str, None] = {}  # first-write order

    def _advance(self, index: int) -> None:
        state, ex, observers = self.state, self.execution, self.observers
        tid, pc, _status, _pending = state[0][index]
        instr = self.machine.instrs[pc]
        for observer in observers:
            observer.on_step(ex.steps, state, tid, pc, instr)
        event, self.state = self.machine.step(state, index, observers)
        if event is not None:
            ex.events.append(event)
        elif instr.op is Op.ASSIGN:
            self._assigned[instr.name] = None
        ex.steps += 1

    def _finish(self) -> Execution:
        ex = self.execution
        memory, slots = self.state[1], self.machine.slots
        ex.memory = {name: memory[slots[name]] for name in self._assigned}
        for observer in self.observers:
            observer.on_end(ex.steps, self.state)
        return ex

    def run(self, raise_on_deadlock: bool = True) -> Execution:
        """Execute to completion (or deadlock / fuel exhaustion)."""
        ex, runnable_in, choice = self.execution, self.machine.runnable, self.rng.choice
        while self.state[0]:
            runnable = runnable_in(self.state)
            if not runnable:
                ex.deadlocked = True
                if raise_on_deadlock:
                    threads, _memory, locks, _events = self.state
                    blocked = {t[0] for t in threads if t[2] != "j"}
                    raise DeadlockError(blocked, dict(locks))
                break
            if ex.steps >= self.fuel:
                raise StepLimitExceeded(self.fuel)
            self._advance(choice(runnable))
        return self._finish()

    def replay(self, schedule: list[tuple]) -> Execution:
        """Execute a fixed schedule (list of thread ids per step).

        Used together with :func:`repro.vm.explore.find_witness` to make
        a specific interleaving reproducible.  Raises :class:`VMError`
        when the schedule names a thread that is not live and runnable
        at that step.
        """
        for tid in schedule:
            tid = tuple(tid)
            runnable = self.machine.runnable(self.state)
            index = next((i for i in runnable if self.state[0][i][0] == tid), None)
            if index is None:
                raise VMError(f"thread {tid!r} is not runnable at this step")
            self._advance(index)
        self.execution.deadlocked = bool(self.state[0]) and not self.machine.runnable(
            self.state
        )
        return self._finish()


def run_random(
    program: Union[VMProgram, ProgramIR],
    seed: int = 0,
    functions: Optional[Callable[[str, list[int]], int]] = None,
    fuel: int = 1_000_000,
    raise_on_deadlock: bool = True,
    hb: Optional[Observer] = None,
) -> Execution:
    """Compile (if needed) and run once under the given seed.

    ``hb`` attaches a :class:`repro.dynamic.hb.HBTracker` for
    happens-before tracking and online race detection.
    """
    vm = VirtualMachine(program, seed=seed, functions=functions, fuel=fuel, hb=hb)
    return vm.run(raise_on_deadlock=raise_on_deadlock)
