"""Primitive atomics, CAS semantics, erasure, and action obligations."""

import dataclasses
import random
import signal

import pytest

from histrio.actions import (
    ActionFamily,
    ActionSafetyError,
    AtomicAction,
    Read,
    Rmw,
    Skip,
    Write,
    cas,
    check_action_properties,
    exec_primitive,
    run_atomic,
    StepCtx,
)
from histrio.pcm import Heap, Loc
from histrio.state import SubjState
from histrio.structures import flatcombiner as fc
from histrio.structures import private_heap as pv
from histrio.structures import snapshot as sp
from histrio.structures import spinlock as lk
from histrio.structures import treiber as tb


def test_cas_success_and_failure_semantics():
    prim = cas(Loc(1), "A", "B")
    heap = {Loc(1): "A"}
    res, _ = exec_primitive(prim, heap, 10)
    assert res is True and heap[Loc(1)] == "B"

    heap = {Loc(1): "C"}
    res, _ = exec_primitive(prim, heap, 10)
    assert res is False and heap[Loc(1)] == "C"  # failure leaves the cell alone

    heap = {Loc(1): "A"}
    res, _ = exec_primitive(cas(Loc(1), "A", "A"), heap, 10)
    assert res is True and heap[Loc(1)] == "A"


def test_exec_primitives():
    heap = {Loc(1): 5}
    assert exec_primitive(Read(Loc(1)), heap, 9) == (5, 9)
    exec_primitive(Write(Loc(1), 7), heap, 9)
    assert heap[Loc(1)] == 7
    assert exec_primitive(Skip(), heap, 9) == ((), 9)
    res, nxt = exec_primitive(Rmw(Loc(1), lambda v: v + 1, lambda v: v), heap, 9)
    assert (res, heap[Loc(1)], nxt) == (7, 8, 9)


def test_erasures_of_the_shipped_actions():
    assert sp.read_x().primitive == Read(sp.X)
    a = tb.try_push(Loc(0), Loc(5))
    assert isinstance(a.primitive, Rmw) and a.primitive.loc == tb.SNT
    assert isinstance(sp.write_x("B").primitive, Rmw)
    assert pv.write(Loc(3), 1).primitive == Write(Loc(3), 1)


def test_run_atomic_faults_outside_safety():
    w = pv.initial_state()
    with pytest.raises(ActionSafetyError):
        run_atomic(pv.write(Loc(9), 1), w, StepCtx(1))


def test_write_to_environment_owned_location_faults():
    w = pv.initial_state(other_heap=Heap({Loc(4): 0}))
    with pytest.raises(ActionSafetyError):
        run_atomic(pv.write(Loc(4), 1), w, StepCtx(1))
    with pytest.raises(ActionSafetyError):
        run_atomic(pv.dealloc(Loc(4)), w, StepCtx(1))


def test_alloc_yields_an_unused_location():
    w = pv.initial_state(Heap({Loc(2): 0}), Heap({Loc(3): 1}))
    w2, loc, ctx = run_atomic(pv.alloc(), w, StepCtx(4))
    assert loc == Loc(4) and ctx.next_loc == 5
    assert loc in w2.self_[pv.LB]


ALL_FAMILIES = (
    sp.action_families()
    + pv.action_families()
    + tb.action_families()
    + lk.action_families()
    + fc.action_families()
)


@pytest.mark.parametrize("fam", ALL_FAMILIES, ids=lambda f: f.name)
def test_action_obligations(fam):
    rng = random.Random(99)
    for rep in check_action_properties(fam, 120, rng):
        assert rep.ok, (rep.check, rep.violations[:3])


def test_result_leaking_auxiliary_state_fails_erasure():
    """An action whose result depends on erased history content."""

    def safe(w):
        return pv.LB in w.self_ and "tb" in w.self_

    def step(w, ctx):
        return w, len(w.self_["tb"].entries), ctx  # leaks the partition

    leaky = AtomicAction("leaky", frozenset(["tb"]), safe, step, "id",
                         Read(tb.SNT))

    def sample(rng):
        w = tb.sample_state(rng)
        w = SubjState(
            w.self_.set(pv.LB, Heap()),
            w.joint.set(pv.LB, Heap()),
            w.other.set(pv.LB, Heap()),
        )
        return leaky, w

    fam = ActionFamily("leaky", tb.concurroid(), sample)
    reports = {r.check: r for r in check_action_properties(fam, 80, random.Random(1))}
    assert not reports["erasure-determinism"].ok


def test_a_result_reading_the_triple_split_fails_erasure():
    """An action whose result counts the history entries in the self side
    of the flat combiner's (ids, mutex, history) triple: the primitive
    agrees on the sampled partition, and only a moved entry shows the leak."""
    shape = fc.stack_shape(3)

    def step(w, ctx):
        return w, len(w.self_[fc.LB].aux.entries), ctx

    def sample(rng):
        w = fc.sample_state(shape, rng)
        mine = len(w.self_[fc.LB].aux.entries)
        prim = Rmw(fc.LK, lambda v: v, lambda v, k=mine: k)
        return AtomicAction("split", frozenset([fc.LB]), lambda w: fc.LB in w.self_,
                            step, "id", prim), w

    fam = ActionFamily("split", fc.concurroid(shape), sample)
    reports = {r.check: r for r in check_action_properties(fam, 80, random.Random(4))}
    leaks = reports["erasure-determinism"].violations
    assert leaks and all(m == "split: result depends on erased partition" for m in leaks)


def test_a_trylock_reading_the_lock_ids_fails_erasure():
    """A trylock whose result counts the ids in the self side of the spin
    lock's (ids, mutex, id set) aux: the primitive agrees on the sampled
    partition, and only an id moved to the other side shows the leak."""
    [locking] = [f for f in lk.action_families() if f.name == "trylock"]

    def sample(rng):
        a, w = locking.sample(rng)
        mine = len(w.self_[lk.LB].aux.ids)

        def step(w, ctx):
            w2, _, ctx = a.step(w, ctx)
            return w2, len(w.self_[lk.LB].aux.ids), ctx

        prim = Rmw(lk.LK, lambda v: True, lambda v, k=mine: k)
        return dataclasses.replace(a, step=step, primitive=prim), w

    fam = ActionFamily("trylock", locking.conc, sample)
    reports = {r.check: r for r in check_action_properties(fam, 80, random.Random(4))}
    leaks = reports["erasure-determinism"].violations
    assert leaks and all(m == "trylock: result depends on erased partition" for m in leaks)


@pytest.mark.parametrize("fam", ALL_FAMILIES, ids=lambda f: f.name)
def test_each_state_is_decided_safe_once(fam):
    decided = {}  # id -> [state, decisions]; holding the state keeps its id its own

    def counted(safe):
        def decide(w):
            decided.setdefault(id(w), [w, 0])[1] += 1
            return safe(w)
        return decide

    def recounted(sample):
        def draw(rng):
            a, w = sample(rng)
            return dataclasses.replace(a, safe=counted(a.safe)), w
        return draw

    unsafe = fam.sample_unsafe and recounted(fam.sample_unsafe)
    fam = dataclasses.replace(fam, sample=recounted(fam.sample), sample_unsafe=unsafe)
    assert all(rep.ok for rep in check_action_properties(fam, 40, random.Random(5)))
    assert decided and max(n for _, n in decided.values()) == 1


@pytest.mark.parametrize("name", ["trylock", "fc.tryLock", "tryPush", "tryPop"])
def test_the_cas_families_draw_failing_and_moving_steps(name):
    """Totality, framing and erasure must see a CAS fail on a held lock or a
    stale head as well as succeed, though the transitions draw only steps
    that move."""
    [fam] = [f for f in ALL_FAMILIES if f.name == name]
    rng = random.Random(7)
    moved = []
    for _ in range(100):
        a, w = fam.sample(rng)
        moved.append(run_atomic(a, w, StepCtx(1))[0] != w)
    assert any(moved) and not all(moved), sum(moved)


@pytest.mark.parametrize("name, builder", [("fc.doHelp", "do_help"), ("fc.unlock", "fc_unlock")])
def test_a_planted_refusal_fails_totality_and_does_not_hang(monkeypatch, name, builder):
    """An action that refuses every state fails its totality row: the
    family's draws build the states the action needs and never consult its
    own safety, so they cannot wait forever for a state it accepts."""
    build = getattr(fc, builder)
    monkeypatch.setattr(fc, builder, lambda *args: dataclasses.replace(
        build(*args), safe=lambda w: False))
    [fam] = [f for f in fc.action_families() if f.name == name]

    def timed_out(signum, frame):
        raise TimeoutError(f"{name}: the obligation suite did not finish in 10s")

    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(10)
    try:
        reports = {r.check: r for r in check_action_properties(fam, 20, random.Random(3))}
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    totality = reports["totality"]
    assert totality.violations and all(m.endswith("refused a safe state")
                                       for m in totality.violations)


def test_non_monotone_safety_is_caught():
    def safe(w):
        return pv.LB in w.self_ and len(w.self_[pv.LB]) == 0  # pinned self

    def step(w, ctx):
        return w, (), ctx

    pinned = AtomicAction("pinned", pv.HOME, safe, step, "id", Skip())

    def sample(rng):
        return pinned, pv.initial_state()

    fam = ActionFamily("pinned", pv.concurroid(), sample)
    reports = {r.check: r for r in check_action_properties(fam, 120, random.Random(2))}
    assert not reports["safety-monotonicity"].ok


def test_skip_derived_action_returns_unit_unchanged():
    def step(w, ctx):
        return w, (), ctx

    idle = AtomicAction("idle", pv.HOME, lambda w: True, step, "id", Skip())
    w = pv.initial_state(Heap({Loc(2): 1}))
    w2, res, _ = run_atomic(idle, w, StepCtx(3))
    assert w2 == w and res == ()


def test_try_pop_cas_failure_leaves_the_state_alone():
    w = tb.initial_state(("a",))
    stale = Loc(980)
    w2, ok, _ = run_atomic(tb.try_pop(stale, Loc(0)), w, StepCtx(1))
    assert ok is False and w2 == w


def test_private_read_after_write():
    w = pv.initial_state(Heap({Loc(5): 0}))
    w1, _, _ = run_atomic(pv.write(Loc(5), 42), w, StepCtx(6))
    w2, got, _ = run_atomic(pv.read(Loc(5)), w1, StepCtx(6))
    assert got == 42 and w2 == w1
