"""Concurroid obligations, entanglement, and the constructed failure cases."""

import dataclasses
import itertools
import random
from contextlib import nullcontext

import pytest

from histrio import scenarios, state
from histrio.concurroid import (
    Transition,
    behaviorally_equal,
    check_concurroid,
    check_fork_join_closure,
    empty_concurroid,
    entangle,
    transferred_heap,
)
from histrio.fmap import EMPTY_MAP, FrozenMap
from histrio.pcm import EMPTY_IDSET, OWN, IdSet, Triple
from histrio.scheduler import explore, run_random
from histrio.state import (
    EMPTY_STATE,
    StateError,
    SubjState,
    coherent_at,
    fact_table,
    flatten,
    realign_acquire,
    realign_release,
    validate,
)
from histrio.structures import flatcombiner as fc
from histrio.structures import private_heap as pv
from histrio.structures import snapshot as sp
from histrio.structures import spinlock as lk
from histrio.structures import treiber as tb

ALL = [
    sp.concurroid(),
    pv.concurroid(),
    tb.concurroid(),
    lk.concurroid(),
    fc.concurroid(fc.stack_shape(3)),
]


@pytest.mark.parametrize("conc", ALL, ids=lambda c: c.name)
def test_all_obligations_pass(conc):
    rng = random.Random(2024)
    for rep in check_concurroid(conc, 120, rng):
        assert rep.ok, (rep.check, rep.subject, rep.violations[:3])


def _named(c, *kinds) -> set:
    return {t.name for t in c.transitions.values() if t.kind in kinds}


def test_identity_transition_always_present():
    """Every table is keyed by its transitions' names and holds ``id``.
    ``u ⋊ v`` holds all of ``u``, the internal transitions of ``v`` but
    none of its acquires or releases, and one exchange per acquire and
    release of opposite sides."""
    entangled = [(pv.concurroid(), tb.concurroid()), (pv.concurroid(), lk.concurroid()),
                 (pv.concurroid(), fc.concurroid(fc.stack_shape(3))),
                 (entangle(pv.concurroid(), sp.concurroid()), tb.concurroid())]
    for conc in ALL + [entangle(u, v) for u, v in entangled]:
        assert "id" in conc.transitions, conc.name
        assert all(name == t.name for name, t in conc.transitions.items()), conc.name
        assert _named(conc, "internal", "acquire", "release") == conc.transitions.keys()
    for u, v in entangled:
        ent = entangle(u, v)
        assert all(ent.transitions[name].kind == t.kind for name, t in u.transitions.items())
        assert _named(v, "internal") <= _named(ent, "internal")
        assert not _named(v, "acquire", "release") & ent.transitions.keys()
        pairs = [f"xchg:{a}|{r}" for acq, rel in ((u, v), (v, u))
                 for a in _named(acq, "acquire") for r in _named(rel, "release")]
        exchanges = [name for name in ent.transitions
                     if name.startswith("xchg:") and name not in u.transitions]
        assert pairs and sorted(exchanges) == sorted(pairs), ent.name
        assert _named(ent, "internal") >= set(pairs)


def _carrying(t: Transition):
    """The private-heap concurroid with ``t`` as its one transition."""
    return dataclasses.replace(pv.concurroid(), transitions={t.name: t})


def _failing_rows(conc, n, seed) -> set:
    """(check, subject) of each row of ``check_concurroid`` that failed."""
    return {(rep.check, rep.subject)
            for rep in check_concurroid(conc, n, random.Random(seed)) if not rep.ok}


@pytest.mark.parametrize("conc", ALL, ids=lambda c: c.name)
def test_every_row_counts_each_draw_once(conc):
    n = 30
    reports = check_concurroid(conc, n, random.Random(3))
    sampled = [t.name for t in conc.transitions.values() if t.sampler is not None]
    per_transition = [rep for rep in reports if rep.check in ("guarantee", "rely", "locality")]
    assert sorted(rep.subject for rep in per_transition) == sorted(sampled * 3)
    assert all(rep.samples + rep.vacuous == n for rep in per_transition)
    for check in ("footprints", "post-coherence"):
        [rep] = [rep for rep in reports if rep.check == check]
        assert rep.samples + rep.vacuous == n * len(sampled), check


def test_each_sampled_step_is_drawn_once():
    """One draw serves every per-step obligation of a transition."""
    draws = []

    def sampler(rng):
        draws.append(1)
        w = pv.sample_state(rng)
        return (w, w)

    stay = Transition("stay", "internal", lambda w, w2: w == w2, sampler)
    for n in (1, 7, 40):
        draws.clear()
        reports = check_concurroid(_carrying(stay), n, random.Random(n))
        assert len(draws) == n
        assert all(rep.ok for rep in reports)


def test_guarantee_catches_an_other_mutating_transition():
    def sampler(rng):
        w = pv.sample_state(rng)
        w2 = realign_release(w, FrozenMap({pv.LB: pv.Heap({pv.Loc(777): 1})}))
        return (w, w2)

    bad = Transition("evil", "internal", lambda w, w2: True, sampler)
    failing = _failing_rows(_carrying(bad), 50, 0)
    assert {("guarantee", "evil"), ("rely", "evil")} <= failing


def test_locality_catches_an_absolute_self_reading_transition():
    def member(w, w2):
        # fires only from a completely empty self: not closed under framing
        return w.self_[pv.LB] == pv.EMPTY_HEAP and w == w2

    def sampler(rng):
        w = pv.initial_state()
        return (w, w)

    bad = Transition("absolute", "internal", member, sampler)
    failing = _failing_rows(_carrying(bad), 80, 0)
    assert ("locality", "absolute") in failing
    assert ("guarantee", "absolute") not in failing


@pytest.mark.parametrize("conc", ALL, ids=lambda c: c.name)
def test_every_transition_samples_steps_of_its_actions(conc):
    """Each non-identity transition draws a step every time, and the step
    is a member of the transition, its heap inferred as the explorer
    infers it."""
    rng = random.Random(11)
    for t in conc.transitions.values():
        if t.name == "id":
            continue
        for _ in range(50):
            drawn = t.sampler(rng)
            assert drawn is not None, t.name
            assert t.holds(*drawn, transferred_heap(t, *drawn)), (t.name, drawn[0].render())


@pytest.mark.parametrize("module, conc, names", [
    (lk, lk.concurroid(), ["lk.lock"]),
    (tb, tb.concurroid(), ["tb.push", "tb.pop"]),
    (fc, fc.concurroid(fc.stack_shape(3)), ["fc.lock", "fc.req", "fc.help", "fc.coll"]),
    (pv, pv.concurroid(), ["pv.write"]),
], ids=["spin-lock", "treiber", "flat-combiner", "private-heaps"])
def test_each_sampled_step_takes_one_state_draw(monkeypatch, module, conc, names):
    """A transition's sampler builds the lock, head, slot or owned cell its
    step needs, so one draw of the structure's state gives a step that
    moves: no draw is rejected and none is retried."""
    draws = []
    sample_state = module.sample_state

    def counted(*args, **kwargs):
        draws.append(1)
        return sample_state(*args, **kwargs)

    monkeypatch.setattr(module, "sample_state", counted)
    for name in names:
        for seed in range(50):
            draws.clear()
            drawn = conc.transitions[name].sampler(random.Random(seed))
            assert drawn is not None and drawn[0] != drawn[1], (name, seed)
            assert len(draws) == 1, (name, seed, len(draws))


def test_a_push_that_drops_its_history_entry_fails_post_coherence(monkeypatch):
    """The push transition is sampled from ``try_push`` itself, so a fault
    in the action's step reaches the concurroid's obligations."""
    try_push = tb.try_push

    def dropping(p1, p):
        a = try_push(p1, p)

        def step(w, ctx):
            w2, res, ctx2 = a.step(w, ctx)
            kept = SubjState(w2.self_.set(tb.LB, w.self_[tb.LB]), w2.joint, w2.other)
            return kept, res, ctx2

        return dataclasses.replace(a, step=step)

    monkeypatch.setattr(tb, "try_push", dropping)
    assert ("post-coherence", "treiber") in _failing_rows(tb.concurroid(), 20, 0)


def test_footprints_catch_a_leaking_internal_transition():
    def sampler(rng):
        w = pv.sample_state(rng)
        grown = pv.Heap(w.self_[pv.LB].set(pv.Loc(888), 0))
        w2 = SubjState(w.self_.set(pv.LB, grown), w.joint, w.other)
        return (w, w2)

    bad = Transition("grow", "internal", lambda w, w2: True, sampler)
    conc = _carrying(bad)
    failing = _failing_rows(conc, 40, 0)
    assert ("footprints", conc.name) in failing
    assert ("guarantee", "grow") not in failing


def test_closure_fails_for_a_self_only_coherence():
    conc = pv.concurroid()
    body = conc.homes[pv.LB]
    broken = type(conc)(
        name="broken",
        homes={pv.LB: lambda s, j, o: body(s, j, o) and len(s) == 0},
        transitions=conc.transitions,
        sample_state=lambda rng: pv.initial_state(),
        sample_frame=pv.sample_frame,
    )
    rep = check_fork_join_closure(broken, 100, random.Random(1))
    assert not rep.ok


def test_entangle_requires_disjoint_labels():
    with pytest.raises(ValueError):
        entangle(pv.concurroid(), pv.concurroid())


def _entangled_coherence(u, v, w) -> bool:
    """The coherence of ``u ⋊ v`` by its definition: each side's coherence
    on its own labels, and disjoint heaps overall."""
    return (
        set(w.labels()) == u.labels | v.labels
        and u.coherent(w.restrict(u.labels))
        and v.coherent(w.restrict(v.labels))
        and flatten(w) is not None
    )


def _perturbed(ent, w, rng) -> list:
    """``w``, ``w`` without each of its labels, ``w`` realigned with a
    sampled frame on either side, and ``w`` with a private cell that
    overlaps a cell of another label's joint."""
    out = [w] + [w.restrict(ent.labels - {lbl}) for lbl in sorted(ent.labels)]
    f = ent.sample_frame(rng)
    for realign in (realign_acquire, realign_release):
        try:
            out.append(realign(w, f))
        except StateError:
            pass
    shared = flatten(w.restrict(ent.labels - {pv.LB}))
    if shared:
        loc = min(shared.keys())
        mine = pv.Heap(w.self_[pv.LB].set(loc, 0))
        out.append(SubjState(w.self_.set(pv.LB, mine), w.joint, w.other))
    return out


def test_entangle_labels_and_coherence():
    ent = entangle(pv.concurroid(), sp.concurroid())
    assert ent.labels == {"pv", "sp"}
    rng = random.Random(5)
    for _ in range(40):
        w = ent.sample_state(rng)
        assert ent.coherent(w)
        assert not ent.coherent(w.restrict({"pv"}))
    # on sampled and perturbed states, with and without a fact table, the
    # coherence of u ⋊ v is its definition
    sides = [
        (pv.concurroid(), tb.concurroid()),
        (pv.concurroid(), sp.concurroid()),
        (pv.concurroid(), lk.concurroid()),
        (pv.concurroid(), fc.concurroid(fc.stack_shape(3))),
        (entangle(pv.concurroid(), sp.concurroid()), tb.concurroid()),
    ]
    for (u, v), facts in itertools.product(sides, (nullcontext, fact_table)):
        ent = entangle(u, v)
        verdicts = []
        with facts():
            for _ in range(30):
                for w in _perturbed(ent, ent.sample_state(rng), rng):
                    verdict = ent.coherent(w)
                    assert verdict == _entangled_coherence(u, v, w), (ent.name, w.render())
                    verdicts.append(verdict)
        assert True in verdicts and False in verdicts, ent.name


def test_coherence_builds_no_restricted_copy(monkeypatch):
    """A label's coherence reads that label's components out of the whole
    state: with ``SubjState.restrict`` refusing, coherence and the home
    safety predicates give on sampled and perturbed multi-label states the
    verdicts they give with it intact, with and without a fact table."""
    shape = fc.stack_shape(3)
    cases = [
        (tb.concurroid(), tb._safe_home),
        (lk.concurroid(), lk._safe_home),
        (fc.concurroid(shape), lambda w: coherent_at(w, fc.LB, shape.home)),
    ]
    rng = random.Random(27)
    runs = []
    for v, safe in cases:
        ent = entangle(pv.concurroid(), v)
        states = [w for _ in range(20) for w in _perturbed(ent, ent.sample_state(rng), rng)]
        runs.append((ent, safe, states))

    def verdicts() -> list:
        out = []
        for facts in (nullcontext, fact_table):
            with facts():
                for ent, safe, states in runs:
                    out += [(ent.coherent(w), pv.safe_home(w), safe(w)) for w in states]
        return out

    expected = verdicts()
    assert {c for c, _, _ in expected} == {True, False}

    def refuse(self, labels):
        raise AssertionError(f"restricted copy to {sorted(labels)}")

    monkeypatch.setattr(SubjState, "restrict", refuse)
    assert verdicts() == expected


def _entangled_samples(seed: int) -> list:
    """``(concurroid, states)`` of pv⋊tb, pv⋊lk and pv⋊fc(3): sampled and
    perturbed states, so valid and invalid ones, none validated yet."""
    rng = random.Random(seed)
    out = []
    for v in (tb.concurroid(), lk.concurroid(), fc.concurroid(fc.stack_shape(3))):
        ent = entangle(pv.concurroid(), v)
        out.append((ent, [w for _ in range(20)
                          for w in _perturbed(ent, ent.sample_state(rng), rng)]))
    return out


def _fresh(w: SubjState) -> SubjState:
    """An equal state on which neither ``validate`` nor ``flatten`` ran."""
    return SubjState(w.self_, w.joint, w.other)


@pytest.mark.parametrize("facts", [nullcontext, fact_table], ids=["no-table", "table"])
def test_a_validated_state_is_judged_as_its_parts_are(facts):
    """On a validated state each label's body is called without the part
    check, and gives the verdict the checked path (``state._decide``)
    gives; the concurroid's verdict is the one it gives on an unvalidated
    copy, which under a table reads the facts judged here, with no cells."""
    seen = set()
    for ent, states in _entangled_samples(28):
        with facts():
            for w in states:
                valid = validate(w)
                assert w._valid == valid
                for label, body in ent.homes.items():
                    parts = [m.get(label) for m in (w.self_, w.joint, w.other)]
                    expected = None if None in parts else state._decide(body, *parts)[0]
                    assert coherent_at(w, label, body) == expected, (ent.name, label, w.render())
                verdict = ent.coherent(w)
                assert verdict == ent.coherent(_fresh(w)), (ent.name, w.render())
                seen.add((valid, verdict))
    assert {(True, True), (True, False), (False, False)} <= seen


def test_coherence_of_a_validated_state_unions_its_heaps_once(monkeypatch):
    """``validate`` unions the state's heaps; coherence neither checks the
    parts again nor flattens the state again.  An unvalidated state's parts
    are unioned once each, and its flattening is built from them."""
    calls = []
    union = state._union

    def counted(values):
        calls.append("union")
        return union(values)

    monkeypatch.setattr(state, "_union", counted)
    for ent, states in _entangled_samples(29):
        valid = [w for w in states if validate(_fresh(w))]
        assert valid, ent.name
        for w in valid:
            w = _fresh(w)
            calls.clear()
            assert validate(w)
            ent.coherent(w)
            assert calls == ["union"], (ent.name, w.render())
        # an unvalidated state is checked label by label, each part's cells
        # unioned, and flattened from the parts with no union of its own
        calls.clear()
        w = _fresh(valid[0])
        assert ent.coherent(w) and w._valid
        assert flatten(w) is not None
        assert calls == ["union"] * len(ent.labels)


def _reference_judgment(conc, w) -> bool:
    """``validate(w) and conc.coherent(w)`` as decided before the one-pass
    judgment, on an equal copy: ``validate`` (equal label domains, each
    label's ``self ∘ other`` defined, heaps disjoint), the concurroid's
    labels, and each label's body on its part, valid once the state is."""
    v = _fresh(w)
    return (validate(v) and set(v.labels()) == conc.labels
            and all(body(v.self_[lbl], v.joint[lbl], v.other[lbl])
                    for lbl, body in conc.homes.items()))


def _judged_samples(seed: int) -> list:
    """``(concurroid, states)`` of the five base concurroids, pv⋊tb, pv⋊lk,
    pv⋊fc(3) and (pv⋊sp)⋊tb: sampled states, realigned with a sampled
    frame, with ``self`` put in place of ``other`` (``s ∘ o`` undefined
    unless ``s`` is a unit), and without their labels; the entangled ones
    also perturbed by ``_perturbed``."""
    rng = random.Random(seed)
    composites = [entangle(pv.concurroid(), v) for v in
                  (tb.concurroid(), lk.concurroid(), fc.concurroid(fc.stack_shape(3)))]
    composites.append(entangle(entangle(pv.concurroid(), sp.concurroid()), tb.concurroid()))
    out = []
    for conc in ALL + composites:
        states = []
        for _ in range(15):
            w = conc.sample_state(rng)
            states += _perturbed(conc, w, rng) if pv.LB in conc.labels else [w]
            f = conc.sample_frame(rng)
            for realign in (realign_acquire, realign_release):
                try:
                    states.append(realign(w, f))
                except StateError:
                    pass
            states += [SubjState(w.self_, w.joint, w.self_), w.restrict(set())]
        out.append((conc, states))
    return out


@pytest.mark.parametrize("facts", [nullcontext, fact_table], ids=["no-table", "table"])
def test_coherence_of_an_unvalidated_state_is_its_validity_and_coherence(facts):
    """On a state not yet validated, ``Concurroid.coherent`` gives
    ``validate(w) and coherent(w)``, marks the state valid when it holds
    and leaves it the flattening of all its components.  Under a table,
    every other state's facts are first judged on a validated copy, so that
    they carry no cells, and each state is judged twice, the second time
    from its facts."""
    for conc, states in _judged_samples(34):
        verdicts = set()
        with facts():
            for i, w in enumerate(states):
                expected = _reference_judgment(conc, w)
                if i % 2:
                    v = _fresh(w)
                    assert (validate(v) and conc.coherent(v)) == expected
                for _ in range(2):
                    f = _fresh(w)
                    verdict = conc.coherent(f)
                    assert verdict == expected, (conc.name, w.render())
                    assert f._valid == verdict, (conc.name, w.render())
                    if verdict:
                        assert f._flat == state._union(
                            [*w.self_.values(), *w.joint.values(), *w.other.values()])
                verdicts.add(verdict)
        assert verdicts == {True, False}, conc.name


def _invalid_parts() -> list:
    """``(concurroid, label, state)`` where the label's part is not valid."""
    lock = Triple(EMPTY_IDSET, OWN, EMPTY_IDSET)
    held_twice = SubjState(FrozenMap({lk.LB: lock}), FrozenMap({lk.LB: lk.Heap({lk.LK: True})}),
                           FrozenMap({lk.LB: lock}))
    cell = FrozenMap({pv.LB: pv.Heap({pv.Loc(1): 0})})
    empty = FrozenMap({pv.LB: pv.EMPTY_HEAP})
    no_joint = tb.sample_state(random.Random(3))
    return [
        (lk.concurroid(), lk.LB, held_twice),  # OWN ∘ OWN is undefined
        (pv.concurroid(), pv.LB, SubjState(cell, empty, cell)),  # self ∘ other undefined
        (pv.concurroid(), pv.LB, SubjState(cell, cell, empty)),  # self and joint overlap
        (tb.concurroid(), tb.LB, SubjState(no_joint.self_, EMPTY_MAP, no_joint.other)),
    ]


@pytest.mark.parametrize("facts", [nullcontext, fact_table], ids=["no-table", "table"])
def test_coherence_refuses_invalid_parts_without_running_the_body(facts):
    for conc, label, w in _invalid_parts():
        calls = []
        body = conc.homes[label]

        def counted(s, j, o, body=body):
            calls.append((s, j, o))
            return body(s, j, o)

        counting = dataclasses.replace(conc, homes={label: counted})
        with facts():
            assert coherent_at(w, label, counted) is None, w.render()
            assert counting.coherent(w) is False, w.render()
        assert calls == [], w.render()


def test_entangle_lifts_transitions_with_idle_frames():
    ent = entangle(pv.concurroid(), sp.concurroid())
    rng = random.Random(6)
    wr = ent.transitions["wr_x"]
    base = sp.concurroid().transitions["wr_x"]
    for _ in range(40):
        drawn = base.sampler(rng)
        w_sp, w2_sp = drawn
        w_pv = pv.sample_state(rng)
        w = w_sp.merge_disjoint(w_pv)
        w2 = w2_sp.merge_disjoint(w_pv)
        assert wr.member(w, w2)
        # a simultaneous private write is not a pure snapshot step
        grown = pv.Heap(w_pv.self_[pv.LB].set(pv.Loc(11), 9))
        w2_bad = SubjState(
            w2.self_.set(pv.LB, grown), w2.joint, w2.other
        )
        assert not wr.member(w, w2_bad)


def test_lifted_and_exchange_steps_keep_their_label_set():
    """A step of an entangled concurroid that adds a label to its post-state
    is no member of a lifted internal, a lifted external or an exchange."""
    sc = scenarios.treiber_scenario()
    moved = [e for seed in range(4) for e in run_random(sc, seed, 200, 1).events
             if e.before != e.after]
    steps = {}
    for e in moved:
        kind = "xchg" if e.transition.startswith("xchg:") else e.transition
        steps.setdefault(kind, e)
    assert {"xchg", "pv.acquire", "pv.write"} <= steps.keys()
    for kind in ("xchg", "pv.acquire", "pv.write"):
        e = steps[kind]
        t = sc.conc.transitions[e.transition]
        assert t.holds(e.before, e.after, transferred_heap(t, e.before, e.after)), kind
        w2 = e.after
        grown = SubjState(w2.self_.set("zz", IdSet.of(7)), w2.joint.set("zz", EMPTY_IDSET),
                          w2.other.set("zz", IdSet.of(8)))
        assert not t.holds(e.before, grown, transferred_heap(t, e.before, grown)), kind


def _lifts(u, v) -> list:
    """(lifted transition, side transition, side labels, idle labels) for
    every transition that ``entangle(u, v)`` lifts."""
    ent = entangle(u, v)
    return [(ent.transitions[name], t, side.labels, idle.labels)
            for side, idle in ((u, v), (v, u))
            for name, t in side.transitions.items()
            if name != "id" and (side is u or t.kind == "internal")]


def _lift_verdicts(lifts, w, w2, accepted: set) -> int:
    """Check each lifted transition's membership of the step from ``w`` to
    ``w2``, judged on the whole states, against the side transition judged on
    the states restricted to its side, with the idle side framed; return how
    many were compared, and add the names of those that hold to
    ``accepted``."""
    compared = 0
    for lifted, t, side, idle in lifts:
        h = ()
        if t.kind != "internal":
            heap = transferred_heap(lifted, w, w2)
            if heap is None:
                continue
            h = (heap,)
        framed = w.labels() == w2.labels() and w.restrict(idle) == w2.restrict(idle)
        expected = framed and t.member(w.restrict(side), w2.restrict(side), *h)
        assert lifted.member(w, w2, *h) == expected, (t.name, w.render(), w2.render())
        compared += 1
        if expected:
            accepted.add(t.name)
    return compared


def test_lifted_membership_on_whole_states_is_the_sides_on_restricted_ones():
    """A lifted transition judges the whole states once the idle side is
    framed, so each side member must read only its own labels, or whole-map
    equalities that the frame makes equal to their restrictions.  Compared
    on every step the explorer checks in small runs under pv⋊tb and pv⋊fc,
    and on side steps drawn as ``check_concurroid`` draws them under pv⋊tb,
    pv⋊fc(3), pv⋊sp and pv⋊lk, framed by a state of the other side that the
    step keeps or changes."""
    lifts = {frozenset(u.labels | v.labels): _lifts(u, v)
             for u, v in [(pv.concurroid(), tb.concurroid()),
                          (pv.concurroid(), fc.concurroid(fc.stack_shape(2)))]}
    runs = [(scenarios.treiber_scenario(), 60), (scenarios.seq_recovery_scenario(), 30),
            (scenarios.producer_consumer_scenario(2), 60),
            (scenarios.flat_combiner_scenario(2), 120)]
    accepted, compared = set(), 0
    for sc, step_bound in runs:
        steps = []
        sc.step_invariants.append(lambda w, w2: steps.append((w, w2)))
        assert explore(sc, step_bound, 2).verdict == "pass"
        lifted_steps = [(w, w2) for w, w2 in steps if frozenset(w.labels()) in lifts]
        assert lifted_steps, sc.name
        for w, w2 in lifted_steps:
            compared += _lift_verdicts(lifts[frozenset(w.labels())], w, w2, accepted)
    assert {"pv.write", "tb.pop", "fc.req", "fc.help", "fc.coll"} <= accepted

    rng = random.Random(24)
    drawn_accepted = set()
    for u, v in [(pv.concurroid(), tb.concurroid()),
                 (pv.concurroid(), fc.concurroid(fc.stack_shape(3))),
                 (pv.concurroid(), sp.concurroid()), (pv.concurroid(), lk.concurroid())]:
        ls = _lifts(u, v)
        for _, t, side, _ in ls:
            idle_side = v if side == u.labels else u
            for _ in range(15):
                drawn = t.sampler(rng)
                if drawn is None:
                    continue
                frame = idle_side.sample_state(rng)
                for post_frame in (frame, idle_side.sample_state(rng)):
                    w = drawn[0].merge_disjoint(frame)
                    w2 = drawn[1].merge_disjoint(post_frame)
                    if w is None or w2 is None or flatten(w) is None or flatten(w2) is None:
                        continue
                    compared += _lift_verdicts(ls, w, w2, drawn_accepted)
    assert compared > 1_000
    assert {"pv.write", "pv.acquire", "pv.release", "tb.pop", "fc.req", "fc.help",
            "fc.coll", "wr_x", "wr_y"} <= drawn_accepted


def test_empty_concurroid_is_the_unit():
    e = empty_concurroid()
    assert e.labels == frozenset()
    assert e.coherent(EMPTY_STATE)
    assert not e.coherent(pv.initial_state())
    rng = random.Random(7)
    ent = entangle(tb.concurroid(), e)
    assert behaviorally_equal("unit-law", ent, tb.concurroid(), 40, rng).ok
    never = dataclasses.replace(tb.concurroid(), homes={tb.LB: lambda s, j, o: False})
    rep = behaviorally_equal("unit-law", ent, never, 10, rng)
    assert not rep.ok and rep.violations[0].startswith("coherence differs")


def test_exchange_law():
    rng = random.Random(8)
    u, v, w = pv.concurroid(), sp.concurroid(), tb.concurroid()
    left = entangle(entangle(u, v), w)
    right = entangle(entangle(u, w), v)
    rep = behaviorally_equal("exchange-law", left, right, 30, rng)
    assert rep.ok
    # no entangled transition has a sampler: each counts 30 vacuous draws,
    # and only the 60 coherence draws are samples
    unsampled = [t for c in (left, right) for t in c.transitions.values() if t.sampler is None]
    assert unsampled and (rep.samples, rep.vacuous) == (60, 30 * len(unsampled))
