"""Vector clocks and the online happens-before race detector.

Definition 1 of the paper orders two statements when one reaches the
other through control flow *or* synchronization; at runtime the same
relation is the classic Lamport happens-before, and a vector clock per
thread makes it decidable online.  The tracker mirrors the paper's
ordering mechanisms exactly:

* **lock release → acquire** (per lock variable): an ``unlock(L)``
  publishes the releasing thread's clock into ``L``'s release clock;
  the next ``lock(L)`` joins it — mutual exclusion edges, Section 4;
* **set → wait** (per event): ``set(e)`` publishes into ``e``'s event
  clock (sticky events join across multiple sets), ``wait(e)`` joins
  it — the guaranteed-ordering edges of the event refinement;
* **fork / join** (``cobegin``/``coend``): children inherit a copy of
  the parent's clock; the parent joins each child's clock as it ends;
* **barrier**: when a barrier releases, every participant's clock is
  replaced by the join of all participants' clocks.

Race detection is FastTrack-style: per shared variable we keep the
last write as an *epoch* ``(tid, clock[tid], pc, step)`` and the last
read epoch per thread.  An access by thread ``t`` races with a prior
epoch ``(u, c)`` iff ``u != t`` and ``clock_t[u] < c`` — the two
accesses are incomparable under happens-before.  Each detected race
records the variable, the two thread ids and PCs, and the **schedule
prefix** up to the detection point, which :meth:`VirtualMachine.replay
<repro.vm.machine.VirtualMachine.replay>` turns back into the exact
interleaving (the witness).

Scope: the detector monitors *memory statements* — assignment targets,
assignment right-hand sides, and branch conditions.  Arguments of
observable events (``print`` and opaque call statements) are excluded:
the VM treats those statements as atomic external actions, and the
static lockset report classifies races that only involve them
separately (see ``repro.dynamic.audit``).  Tracking is opt-in
(``VirtualMachine(..., hb=HBTracker(program))``): the tracker is one of
the VM driver's observers (:class:`repro.vm.machine.Observer`).
"""

from __future__ import annotations

from typing import Optional, Union

from repro.ir.expr import iter_expr_vars
from repro.ir.structured import ProgramIR
from repro.obs.events import DynamicRaceObserved, HappensBeforeEdge
from repro.obs.trace import get_tracer
from repro.vm.bytecode import Instr, Op, VMProgram
from repro.vm.compile import compile_program
from repro.vm.machine import Observer

__all__ = ["DynamicRace", "HBTracker", "VectorClock"]


class VectorClock:
    """A mapping thread-id → logical time, with join/compare helpers.

    Thread ids are the VM's spawn-path tuples; components absent from
    the mapping are 0.  Clocks are mutable — :meth:`copy` before
    publishing one into shared tracker state.
    """

    __slots__ = ("times",)

    def __init__(self, times: Optional[dict] = None) -> None:
        self.times: dict[tuple, int] = dict(times) if times else {}

    def tick(self, tid: tuple) -> int:
        """Advance ``tid``'s own component; returns the new value."""
        value = self.times.get(tid, 0) + 1
        self.times[tid] = value
        return value

    def get(self, tid: tuple) -> int:
        return self.times.get(tid, 0)

    def join(self, other: "VectorClock") -> None:
        """Pointwise maximum, in place (the happens-before merge)."""
        times = self.times
        for tid, value in other.times.items():
            if times.get(tid, 0) < value:
                times[tid] = value

    def copy(self) -> "VectorClock":
        return VectorClock(self.times)

    def leq(self, other: "VectorClock") -> bool:
        """Componentwise ≤ — true iff this clock happens-before-or-equals."""
        return all(other.times.get(tid, 0) >= v for tid, v in self.times.items())

    def concurrent_with(self, other: "VectorClock") -> bool:
        return not self.leq(other) and not other.leq(self)

    def as_dict(self) -> dict[str, int]:
        from repro.obs.events import tid_str

        return {tid_str(tid): v for tid, v in sorted(self.times.items())}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorClock):
            return NotImplemented
        return {t: v for t, v in self.times.items() if v} == {
            t: v for t, v in other.times.items() if v
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VectorClock({self.as_dict()})"


class _Epoch:
    """One access, compressed to FastTrack's ``tid@clock`` plus locus."""

    __slots__ = ("tid", "clock", "pc", "step")

    def __init__(self, tid: tuple, clock: int, pc: int, step: int) -> None:
        self.tid = tid
        self.clock = clock
        self.pc = pc
        self.step = step


class DynamicRace:
    """Two conflicting accesses with incomparable vector clocks.

    ``a`` is the earlier access (by global step), ``b`` the one at
    whose execution the race was detected.  ``witness`` is the schedule
    prefix (thread ids, step order) ending with ``b``'s step — replay
    it to reproduce the race deterministically.
    """

    __slots__ = (
        "var", "kind",
        "tid_a", "pc_a", "step_a",
        "tid_b", "pc_b", "step_b",
        "witness",
    )

    def __init__(
        self,
        var: str,
        kind: str,
        tid_a: tuple,
        pc_a: int,
        step_a: int,
        tid_b: tuple,
        pc_b: int,
        step_b: int,
        witness: list,
    ) -> None:
        self.var = var
        #: "write-write" or "write-read" (matching the static report)
        self.kind = kind
        self.tid_a = tid_a
        self.pc_a = pc_a
        self.step_a = step_a
        self.tid_b = tid_b
        self.pc_b = pc_b
        self.step_b = step_b
        self.witness = witness

    def pair_key(self) -> tuple:
        """Program-location identity (dedup key across runs)."""
        a, b = sorted((self.pc_a, self.pc_b))
        return (self.var, a, b, self.kind)

    def message(self) -> str:
        from repro.obs.events import tid_str

        return (
            f"dynamic {self.kind} race on '{self.var}': "
            f"{tid_str(self.tid_a)}@pc{self.pc_a} (step {self.step_a}) vs "
            f"{tid_str(self.tid_b)}@pc{self.pc_b} (step {self.step_b}), "
            f"clocks incomparable"
        )

    def as_dict(self) -> dict:
        from repro.obs.events import tid_str

        return {
            "var": self.var,
            "kind": self.kind,
            "tid_a": tid_str(self.tid_a),
            "pc_a": self.pc_a,
            "step_a": self.step_a,
            "tid_b": tid_str(self.tid_b),
            "pc_b": self.pc_b,
            "step_b": self.step_b,
            "witness": [list(t) for t in self.witness],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DynamicRace({self.message()})"


class HBTracker(Observer):
    """Per-run happens-before state, driven by the VM's observer hooks.

    One tracker observes one execution (create a fresh one per run);
    aggregate across runs with :meth:`merge_orderings` or via
    :mod:`repro.dynamic.audit`.  All bookkeeping costs are paid only
    when a tracker is attached — the VM's default path is untouched.
    """

    def __init__(self, program: Union[VMProgram, ProgramIR]) -> None:
        if isinstance(program, ProgramIR):
            program = compile_program(program)
        self.program = program
        #: pc → (reads tuple, write-or-None) for memory statements
        self.accesses: list[tuple[tuple, Optional[str]]] = [
            _instr_accesses(instr) for instr in program.instrs
        ]
        self.clocks: dict[tuple, VectorClock] = {(): VectorClock()}
        self.release_clock: dict[str, VectorClock] = {}
        self.event_clock: dict[str, VectorClock] = {}
        self.last_write: dict[str, _Epoch] = {}
        self.last_reads: dict[str, dict[tuple, _Epoch]] = {}
        #: the schedule so far (thread id per step) — witness source
        self.schedule: list[tuple] = []
        self.races: list[DynamicRace] = []
        self._race_keys: set[tuple] = set()
        #: (var, pc_lo, pc_hi) → set of "ab"/"ba" orders exercised
        self.orderings: dict[tuple, set[str]] = {}
        self._last_access: dict[str, tuple] = {}  # var → (tid, pc, is_write)
        #: deterministic work counters (see repro.obs.prof conventions)
        self.checks = 0
        self.joins = 0
        self.tracer = get_tracer()

    # -- clock maintenance (observer hooks of the VM drivers) ----------------

    def on_step(self, step: int, state: tuple, tid: tuple, pc: int, instr: Instr) -> None:
        """Advance ``tid``'s clock across one instruction.

        Pre-merges (lock acquire, wait) happen before the tick so the
        acquired ordering covers the acquiring action itself; publishes
        (unlock, set) happen after so the published clock includes it.
        """
        clock = self.clocks[tid]
        op = instr.op
        step = len(self.schedule)
        self.schedule.append(tid)

        if op is Op.LOCK:
            released = self.release_clock.get(instr.name)
            if released is not None:
                clock.join(released)
                self.joins += 1
                self._edge(step, "release-acquire", released, tid, instr.name)
        elif op is Op.WAIT:
            published = self.event_clock.get(instr.name)
            if published is not None:
                clock.join(published)
                self.joins += 1
                self._edge(step, "set-wait", published, tid, instr.name)

        clock.tick(tid)

        if op is Op.UNLOCK:
            self.release_clock[instr.name] = clock.copy()
        elif op is Op.SET:
            published = self.event_clock.get(instr.name)
            if published is None:
                self.event_clock[instr.name] = clock.copy()
            else:
                published.join(clock)  # sticky events join across sets
        elif op is Op.ASSIGN or op is Op.BRANCH:
            reads, write = self.accesses[pc]
            for var in reads:
                self._on_read(var, tid, clock, pc, step)
            if write is not None:
                self._on_write(write, tid, clock, pc, step)

    def on_spawn(self, parent: tuple, children: tuple) -> None:
        """``cobegin``: each child starts with a copy of the parent clock."""
        clock = self.clocks[parent]
        step = len(self.schedule) - 1
        for child in children:
            self.clocks[child] = clock.copy()
            self.joins += 1
            self._edge_tids(step, "fork", parent, child)

    def on_thread_end(self, child: tuple, parent: tuple) -> None:
        """``coend`` join: the parent's clock absorbs the ending child's."""
        self.clocks[parent].join(self.clocks[child])
        self.joins += 1
        self._edge_tids(len(self.schedule) - 1, "join", child, parent)

    def on_barrier_release(self, name: str, tids: list[tuple]) -> None:
        """All participants leave with the join of all their clocks."""
        merged = VectorClock()
        for tid in tids:
            merged.join(self.clocks[tid])
        self.joins += len(tids)
        step = len(self.schedule) - 1
        for tid in tids:
            self.clocks[tid] = merged.copy()
            self._edge_tids(step, "barrier", tid, tid, name)

    # -- race checks ----------------------------------------------------------

    def _on_read(self, var: str, tid: tuple, clock: VectorClock, pc: int, step: int) -> None:
        self.checks += 1
        write = self.last_write.get(var)
        if write is not None and write.tid != tid and clock.get(write.tid) < write.clock:
            self._report(var, "write-read", write, tid, pc, step)
        reads = self.last_reads.get(var)
        if reads is None:
            reads = self.last_reads[var] = {}
        reads[tid] = _Epoch(tid, clock.get(tid), pc, step)
        self._order(var, tid, pc, is_write=False)

    def _on_write(self, var: str, tid: tuple, clock: VectorClock, pc: int, step: int) -> None:
        self.checks += 1
        write = self.last_write.get(var)
        if write is not None and write.tid != tid and clock.get(write.tid) < write.clock:
            self._report(var, "write-write", write, tid, pc, step)
        for read in self.last_reads.get(var, {}).values():
            if read.tid != tid and clock.get(read.tid) < read.clock:
                self._report(var, "write-read", read, tid, pc, step)
        self.last_write[var] = _Epoch(tid, clock.get(tid), pc, step)
        self._order(var, tid, pc, is_write=True)

    def _report(
        self, var: str, kind: str, prior: _Epoch, tid: tuple, pc: int, step: int
    ) -> None:
        race = DynamicRace(
            var, kind,
            prior.tid, prior.pc, prior.step,
            tid, pc, step,
            witness=[],
        )
        key = race.pair_key()
        if key in self._race_keys:
            return
        self._race_keys.add(key)
        race.witness = list(self.schedule)  # prefix ending at this access
        self.races.append(race)
        if self.tracer.enabled:
            self.tracer.event(
                DynamicRaceObserved(step, var, kind, prior.tid, prior.pc, tid, pc)
            )
            self.tracer.counter("hb.races").inc()

    # -- ordering coverage ----------------------------------------------------

    def _order(self, var: str, tid: tuple, pc: int, is_write: bool) -> None:
        last = self._last_access.get(var)
        self._last_access[var] = (tid, pc, is_write)
        if last is None:
            return
        l_tid, l_pc, l_write = last
        if l_tid == tid or not (l_write or is_write):
            return  # same thread, or read/read — not a conflict pair
        if l_pc <= pc:
            key, order = (var, l_pc, pc), "ab"
        else:
            key, order = (var, pc, l_pc), "ba"
        self.orderings.setdefault(key, set()).add(order)

    def merge_orderings(self, into: dict[tuple, set[str]]) -> None:
        """Accumulate this run's conflict orderings into ``into``."""
        for key, orders in self.orderings.items():
            into.setdefault(key, set()).update(orders)

    # -- event emission -------------------------------------------------------

    def _edge(
        self, step: int, mechanism: str, published: VectorClock, dst: tuple, name: str
    ) -> None:
        if not self.tracer.enabled:
            return
        # The publishing thread is the one whose own component tops the
        # published clock — deterministic because publishes copy the
        # publisher's clock right after its tick.
        src = max(
            published.times, key=lambda t: (published.times[t], t), default=dst
        )
        self.tracer.event(HappensBeforeEdge(step, mechanism, src, dst, name))
        self.tracer.counter(f"hb.edges.{mechanism}").inc()

    def _edge_tids(
        self, step: int, mechanism: str, src: tuple, dst: tuple, name: str = ""
    ) -> None:
        if not self.tracer.enabled:
            return
        self.tracer.event(HappensBeforeEdge(step, mechanism, src, dst, name))
        self.tracer.counter(f"hb.edges.{mechanism}").inc()

    # -- summary --------------------------------------------------------------

    def race_vars(self) -> set[str]:
        return {race.var for race in self.races}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HBTracker(threads={len(self.clocks)}, races={len(self.races)}, "
            f"checks={self.checks})"
        )


def _instr_accesses(instr: Instr) -> tuple[tuple, Optional[str]]:
    """(read variable names, written variable name or None) of one
    instruction — the monitored-access map (see module docstring for
    why print/call arguments are excluded)."""
    if instr.op is Op.ASSIGN:
        reads = tuple(
            dict.fromkeys(var.name for var in iter_expr_vars(instr.expr))
        )
        return reads, instr.name
    if instr.op is Op.BRANCH:
        reads = tuple(
            dict.fromkeys(var.name for var in iter_expr_vars(instr.expr))
        )
        return reads, None
    return (), None
