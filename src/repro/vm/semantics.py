"""The VM's one transition function.

Every driver that executes a schedule — the seeded random scheduler and
``replay`` (:mod:`repro.vm.machine`), the exhaustive explorer and the
witness search (:mod:`repro.vm.explore`) — runs this semantics and no
other:

* one instruction executes atomically per step (statement-granularity
  interleaving, the paper's memory model);
* unset variables read as 0;
* ``lock`` blocks while held by any thread (non-reentrant: a thread
  re-acquiring its own lock self-deadlocks, as with a plain pthreads
  mutex); unlocking a lock the thread does not own is an error;
* ``wait`` blocks until the event has been ``set`` (events are sticky:
  Set with no Clear, as in the paper);
* ``print`` and opaque call *statements* are the observable events of a
  program; calls in expression position are pure and evaluated through a
  deterministic binding (user-suppliable).

A machine state is the canonical tuple ``(threads, memory, locks,
events)``:

* ``threads`` — ``(tid, pc, status, pending)`` records sorted by spawn
  path ``tid``; status ``"r"`` (running), ``"j"`` (joining ``pending``
  children) or ``"b"`` (waiting at a barrier); finished threads vanish;
* ``memory`` — one value per assigned variable, in :attr:`Machine.slots`
  order, so unset and zero are the same state;
* ``locks`` — sorted ``(lock, owner tid)`` pairs of the held locks;
* ``events`` — frozenset of the events set so far.

States are immutable and hashable (the explorer memoizes them), and
:meth:`Machine.step` rebuilds only the components an instruction
touches.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Union

from repro.errors import VMError
from repro.ir.structured import ProgramIR
from repro.opt.folding import eval_expr_concrete
from repro.vm.bytecode import Op, VMProgram
from repro.vm.compile import compile_program

__all__ = ["Machine", "default_functions"]


def default_functions(name: str, args: list[int]) -> int:
    """Deterministic stand-in for opaque pure functions.

    Any pure deterministic binding is semantically admissible (the
    static analyses treat calls as unknown values); this one mixes the
    name and arguments so different calls give different values.
    """
    acc = sum(ord(c) for c in name) * 131
    for i, a in enumerate(args):
        acc = acc * 31 + (i + 1) * a
    return acc % 1009 - 504


def _owner(locks: tuple, name: str) -> Optional[tuple]:
    for held, owner in locks:
        if held == name:
            return owner
    return None


class Machine:
    """``runnable`` and ``step`` over canonical states of one program."""

    def __init__(
        self,
        program: Union[VMProgram, ProgramIR],
        functions: Optional[Callable[[str, list[int]], int]] = None,
    ) -> None:
        if isinstance(program, ProgramIR):
            program = compile_program(program)
        self.program = program
        self.instrs = program.instrs
        self.functions = functions or default_functions
        #: assigned variable → its index in a state's memory tuple
        self.slots: dict[str, int] = {
            name: k
            for k, name in enumerate(
                sorted({i.name for i in program.instrs if i.op is Op.ASSIGN})
            )
        }

    def initial_state(self) -> tuple:
        main = ((), self.program.entry, "r", 0)
        return ((main,), (0,) * len(self.slots), (), frozenset())

    def _eval(self, expr, memory: tuple) -> int:
        slots = self.slots

        def env(name: str) -> int:
            k = slots.get(name)
            return 0 if k is None else memory[k]

        return eval_expr_concrete(expr, env, self.functions)

    def runnable(self, state: tuple) -> list[int]:
        """Indices into ``state[0]`` of the threads that can step, in
        thread-id order."""
        threads, _memory, locks, events = state
        instrs = self.instrs
        out = []
        for index, (_tid, pc, status, _pending) in enumerate(threads):
            if status != "r":
                continue
            instr = instrs[pc]
            if instr.op is Op.LOCK:
                if locks and _owner(locks, instr.name) is not None:
                    continue
            elif instr.op is Op.WAIT and instr.name not in events:
                continue
            out.append(index)
        return out

    def step(
        self, state: tuple, index: int, observers: Sequence = ()
    ) -> tuple[Optional[tuple], tuple]:
        """Execute thread ``state[0][index]`` (which must be runnable).

        Returns ``(event, next_state)``: ``event`` is the observable
        ``("print", values)`` / ``("call", name, values)`` record, or
        None.  Raises :class:`~repro.errors.VMError` on a runtime fault.
        ``observers`` get the spawn / thread-end / barrier-release hooks
        of :class:`repro.vm.machine.Observer`.
        """
        threads, memory, locks, events = state
        tid, pc, status, pending = threads[index]
        instr = self.instrs[pc]
        op = instr.op
        event = None

        if op is Op.ASSIGN:
            k = self.slots[instr.name]
            value = self._eval(instr.expr, memory)
            memory = memory[:k] + (value,) + memory[k + 1:]
            pc += 1
        elif op is Op.PRINT:
            event = ("print", tuple(self._eval(e, memory) for e in instr.exprs))
            pc += 1
        elif op is Op.CALL:
            values = tuple(self._eval(e, memory) for e in instr.exprs)
            event = ("call", instr.name, values)
            pc += 1
        elif op is Op.LOCK:
            locks = tuple(sorted(locks + ((instr.name, tid),)))
            pc += 1
        elif op is Op.UNLOCK:
            if _owner(locks, instr.name) != tid:
                raise VMError(f"unlock of un-owned lock {instr.name}")
            locks = tuple(pair for pair in locks if pair[0] != instr.name)
            pc += 1
        elif op is Op.SET:
            if instr.name not in events:
                events = events | {instr.name}
            pc += 1
        elif op is Op.WAIT:
            pc += 1
        elif op is Op.JUMP:
            pc = instr.target
        elif op is Op.BRANCH:
            pc = pc + 1 if self._eval(instr.expr, memory) != 0 else instr.target
        elif op is Op.BARRIER:
            waiting = [
                i for i, t in enumerate(threads)
                if t[2] == "b" and self.instrs[t[1]].name == instr.name
            ]
            if len(waiting) + 1 < (instr.target or 1):
                status = "b"
            else:
                released = list(threads)
                for i in waiting:
                    w_tid, w_pc, _, w_pending = threads[i]
                    released[i] = (w_tid, w_pc + 1, "r", w_pending)
                released[index] = (tid, pc + 1, status, pending)
                for observer in observers:
                    observer.on_barrier_release(
                        instr.name, [threads[i][0] for i in waiting] + [tid]
                    )
                return None, (tuple(released), memory, locks, events)
        elif op is Op.COBEGIN:
            # A joining thread has no live descendants, so its children
            # sort directly after it.
            children = tuple(
                (tid + (i,), entry, "r", 0) for i, entry in enumerate(instr.entries)
            )
            parent = (tid, instr.target, "j", len(children))
            threads = threads[:index] + (parent,) + children + threads[index + 1:]
            for observer in observers:
                observer.on_spawn(tid, tuple(child[0] for child in children))
            return None, (threads, memory, locks, events)
        elif op is Op.END_THREAD or op is Op.HALT:
            threads = threads[:index] + threads[index + 1:]
            if op is Op.END_THREAD:
                parent_tid = tid[:-1]
                p = index - 1  # a parent sorts before its children
                while threads[p][0] != parent_tid:
                    p -= 1
                _, p_pc, p_status, p_pending = threads[p]
                p_pending -= 1
                parent = (parent_tid, p_pc, "r" if p_pending == 0 else p_status, p_pending)
                threads = threads[:p] + (parent,) + threads[p + 1:]
                for observer in observers:
                    observer.on_thread_end(tid, parent_tid)
            return None, (threads, memory, locks, events)
        else:  # pragma: no cover - defensive
            raise VMError(f"unknown instruction {instr!r}")

        threads = threads[:index] + ((tid, pc, status, pending),) + threads[index + 1:]
        return event, (threads, memory, locks, events)
