"""Interleaving virtual machine.

The authors ran their transformed C programs natively; our equivalent
testbed is a small VM with exactly the paper's memory model: a shared
address space with sequentially consistent interleaving at statement
granularity (every statement reads its operands and writes its target
atomically).

* :mod:`repro.vm.bytecode` / :mod:`repro.vm.compile` — flatten the
  structured IR into a PC-based instruction array (``cobegin`` spawns
  child threads; the parent joins).  SSA-form programs execute directly:
  φ terms are no-ops and π terms are copies, which is precisely the
  conventional-SSA runtime meaning.
* :mod:`repro.vm.semantics` — the one transition function
  (``Machine.runnable`` / ``Machine.step`` over canonical states) that
  every driver below executes.
* :mod:`repro.vm.machine` — drivers: a seeded random scheduler with
  fuel and deadlock detection, and schedule replay; run-time
  bookkeeping (the per-lock interval account used to measure what LICM
  buys, tracing, happens-before tracking) are observers they notify.
* :mod:`repro.vm.explore` — drivers: an exhaustive interleaving
  explorer (a tiny model checker with state memoization) that
  enumerates *every* reachable output sequence of a small program, and
  the witness search; the verification suite uses the explorer to prove
  optimizations preserve the full behaviour set.
"""

from repro.vm.bytecode import Instr, Op, VMProgram
from repro.vm.compile import compile_program
from repro.vm.semantics import Machine
from repro.vm.machine import Execution, Observer, VirtualMachine, run_random
from repro.vm.explore import ExplorationResult, explore, find_witness

__all__ = [
    "ExplorationResult",
    "Execution",
    "Instr",
    "Machine",
    "Observer",
    "Op",
    "VMProgram",
    "VirtualMachine",
    "compile_program",
    "explore",
    "find_witness",
    "run_random",
]
