"""Property tests for the VM and the exhaustive explorer."""

from hypothesis import given, settings, strategies as st

from repro.synth import GeneratorConfig, generate_program, generate_source
from repro.vm.bytecode import Op
from repro.vm.explore import explore, find_witness
from repro.vm.machine import Observer, VirtualMachine, run_random
from tests.conftest import build

# Events and barriers are drawn apart: the generator's consumer waits
# before the first barrier for a set its producer makes after the last
# one, so a program with both can deadlock by construction.
_configs = st.builds(
    GeneratorConfig,
    seed=st.integers(0, 5_000),
    n_threads=st.integers(1, 3),
    stmts_per_thread=st.integers(1, 4),
    n_shared=st.integers(1, 2),
    n_locks=st.integers(0, 2),
    p_if=st.floats(0.0, 0.3),
    p_critical=st.floats(0.0, 0.8),
    n_events=st.integers(0, 2),
    n_barriers=st.integers(0, 2),
).filter(lambda config: not (config.n_events and config.n_barriers))

ABBA_SOURCE = """
cobegin
begin lock(A); lock(B); unlock(B); unlock(A); end
begin lock(B); lock(A); unlock(A); unlock(B); end
coend
"""


@given(_configs, st.integers(0, 100))
@settings(max_examples=25, deadline=None)
def test_runs_deterministic_per_seed(config, seed):
    program = generate_program(config)
    a = run_random(program, seed=seed)
    b = run_random(program, seed=seed)
    assert a.events == b.events
    assert a.memory == b.memory
    assert a.steps == b.steps


@given(_configs)
@settings(max_examples=15, deadline=None)
def test_random_outcomes_subset_of_explored(config):
    program = generate_program(config)
    res = explore(program, max_states=100_000)
    if not res.complete:
        return
    for seed in range(12):
        ex = run_random(program, seed=seed, raise_on_deadlock=False)
        assert ex.output_key() in res.outcomes


class _OwnerCheck(Observer):
    """Asserts, in every state a run passes through, that each lock has
    at most one owner and that the owner is a live thread."""

    def on_step(self, step, state, tid, pc, instr):
        self.check(state)

    def on_end(self, steps, state):
        self.check(state)

    @staticmethod
    def check(state):
        threads, _memory, locks, _events = state
        names = [lock for lock, _owner in locks]
        assert len(names) == len(set(names))
        live = {t[0] for t in threads}
        for _lock, owner in locks:
            assert owner in live


@given(_configs, st.integers(0, 50))
@settings(max_examples=25, deadline=None)
def test_mutual_exclusion_invariant(config, seed):
    """After every step, each lock has at most one owner and the owner is
    a live thread (checked by an observer of the transition)."""
    program = generate_program(config)
    vm = VirtualMachine(program, seed=seed)
    vm.observers.append(_OwnerCheck())
    vm.run(raise_on_deadlock=False)


class _StepCounters(Observer):
    """The per-step counter loop the VM kept before its interval account:
    before every step, +1 held for each held lock and +1 blocked for each
    thread waiting at ``lock(L)`` while L is held; +1 per acquire."""

    def __init__(self, instrs):
        self.instrs = instrs
        self.held, self.blocked, self.acquisitions = {}, {}, {}

    def on_step(self, step, state, tid, pc, instr):
        threads, _memory, locks, _events = state
        owners = dict(locks)
        for lock in owners:
            self.held[lock] = self.held.get(lock, 0) + 1
        for _tid, t_pc, status, _pending in threads:
            waits = self.instrs[t_pc]
            if status == "r" and waits.op is Op.LOCK and waits.name in owners:
                self.blocked[waits.name] = self.blocked.get(waits.name, 0) + 1
        if instr.op is Op.LOCK:
            self.acquisitions[instr.name] = self.acquisitions.get(instr.name, 0) + 1


@given(
    st.one_of(_configs.map(generate_source), st.just(ABBA_SOURCE)),
    st.integers(0, 50),
)
@settings(max_examples=40, deadline=None)
def test_lock_intervals_are_the_lock_account(source, seed):
    """Per lock, the held intervals sum to ``lock_held_steps`` and number
    ``lock_acquisitions``, the blocked intervals sum to
    ``lock_blocked_steps`` — deadlocked runs included — and all three
    equal the per-step counters they replaced."""
    vm = VirtualMachine(build(source), seed=seed)
    counters = _StepCounters(vm.machine.instrs)
    vm.observers.append(counters)
    ex = vm.run(raise_on_deadlock=False)
    assert ex.lock_held_steps == counters.held
    assert ex.lock_blocked_steps == counters.blocked
    assert ex.lock_acquisitions == counters.acquisitions
    for lock in {i["lock"] for i in ex.lock_intervals}:
        held = [i for i in ex.lock_intervals if i["lock"] == lock and i["kind"] == "held"]
        blocked = [i for i in ex.lock_intervals if i["lock"] == lock and i["kind"] == "blocked"]
        assert all(i["from"] <= i["to"] for i in held + blocked)
        assert sum(i["to"] - i["from"] for i in held) == counters.held.get(lock, 0)
        assert sum(i["to"] - i["from"] for i in blocked) == counters.blocked.get(lock, 0)
        assert len(held) == counters.acquisitions.get(lock, 0)


@given(_configs, st.integers(0, 50))
@settings(max_examples=20, deadline=None)
def test_lock_instrumentation_consistent(config, seed):
    program = generate_program(config)
    ex = run_random(program, seed=seed, raise_on_deadlock=False)
    for lock, held in ex.lock_held_steps.items():
        assert held >= 0
        # A lock is held only after at least one acquisition.
        assert ex.lock_acquisitions.get(lock, 0) >= 1


@given(_configs)
@settings(max_examples=10, deadline=None)
def test_every_explored_outcome_has_a_replayable_witness(config):
    program = generate_program(config)
    res = explore(program, max_states=20_000)
    if not res.complete:
        return
    for outcome in res.outcomes:
        schedule = find_witness(program, outcome)
        assert schedule is not None, outcome
        assert VirtualMachine(program).replay(schedule).output_key() == outcome


@given(_configs)
@settings(max_examples=15, deadline=None)
def test_race_free_generated_programs_never_deadlock(config):
    config.race_free = True
    program = generate_program(config)
    res = explore(program, max_states=100_000)
    if res.complete:
        assert not res.can_deadlock
