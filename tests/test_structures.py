"""Structure-level behaviors: transitions, actions, parsing, coherence."""

import random

from histrio.actions import StepCtx, run_atomic
from histrio.fmap import FrozenMap
from histrio.history import lookup_end, push_event
from histrio.pcm import (
    EMPTY_IDSET,
    INIT,
    NONE,
    NOT_OWN,
    NULL,
    OWN,
    Req,
    SOME,
    STACK,
    Heap,
    Hist,
    IdSet,
    Loc,
    Triple,
)
from histrio.state import SubjState, fact_table
from histrio.structures import flatcombiner as fc
from histrio.structures import private_heap as pv
from histrio.structures import snapshot as sp
from histrio.structures import spinlock as lk
from histrio.structures import treiber as tb


def test_snapshot_write_bumps_version_and_records_history():
    w = sp.initial_state("A", "C")
    w2, res, _ = run_atomic(sp.write_x("B"), w, StepCtx(1))
    assert res == ()
    assert w2.joint[sp.LB][sp.X] == ("B", 1)
    assert w2.joint[sp.LB][sp.Y] == ("C", 0)
    delta = {t: e for t, e in w2.self_[sp.LB].entries.items()
             if t not in w.self_[sp.LB].entries}
    assert delta == {1: (("A", "C", 0), ("B", "C", 1))}
    assert sp.concurroid().coherent(w2)


def test_snapshot_write_y_keeps_x_version_in_the_event():
    w = sp.initial_state("A", "C")
    w2, _, _ = run_atomic(sp.write_y("D"), w, StepCtx(1))
    assert w2.joint[sp.LB][sp.Y] == ("D", 1)
    t = max(w2.self_[sp.LB].stamps())
    assert w2.self_[sp.LB].entries[t] == (("A", "C", 0), ("A", "D", 0))


def test_snapshot_reads_do_not_change_state():
    w = sp.initial_state("A", "C")
    w2, res, _ = run_atomic(sp.read_x(), w, StepCtx(1))
    assert w2 == w and res == ("A", 0)
    w2, res, _ = run_atomic(sp.read_y(), w, StepCtx(1))
    assert w2 == w and res == ("C", 0)


def test_versions_ok_rejects_violations():
    good = Hist.of(sp.SNAPSHOT, {0: (("A", "C", 0), ("A", "C", 0)),
                                 1: (("A", "C", 0), ("B", "C", 1))})
    assert sp.versions_ok(good)
    same_v_diff_c = Hist.of(sp.SNAPSHOT, {0: (("A", "C", 0), ("A", "C", 0)),
                                          1: (("A", "C", 0), ("B", "C", 0))})
    assert not sp.versions_ok(same_v_diff_c)
    decreasing = Hist.of(sp.SNAPSHOT, {0: (("A", "C", 5), ("A", "C", 5)),
                                       1: (("A", "C", 5), ("B", "C", 4))})
    assert not sp.versions_ok(decreasing)


def test_parse_stack_splits_garbage():
    h = Heap({
        tb.SNT: Loc(3000),
        Loc(3000): ("b", NULL),
        Loc(2999): ("a", Loc(3000)),  # de-linked old head
    })
    p, contents, cells, grb = tb.parse_stack(h)
    assert p == Loc(3000) and contents == ("b",)
    assert set(grb.keys()) == {Loc(2999)}


def test_try_push_moves_the_node_and_appends_history():
    w0 = tb.initial_state(())
    w0 = SubjState(
        w0.self_.set(pv.LB, Heap({Loc(9): ("a", NULL)})),
        w0.joint.set(pv.LB, Heap()),
        w0.other.set(pv.LB, Heap()),
    )
    a = tb.try_push(NULL, Loc(9))
    w1, ok, _ = run_atomic(a, w0, StepCtx(10))
    assert ok is True
    assert w1.self_[pv.LB] == Heap()
    assert w1.joint[tb.LB][tb.SNT] == Loc(9)
    assert lookup_end(w1.self_[tb.LB], 1) == ("a",)
    # failed CAS leaves everything unchanged
    w2, ok, _ = run_atomic(tb.try_push(Loc(123), Loc(9)), w0, StepCtx(10))
    assert ok is False and w2 == w0


def test_try_pop_delinks_and_keeps_garbage():
    w = tb.initial_state(("a", "b"))
    head = w.joint[tb.LB][tb.SNT]
    nxt = w.joint[tb.LB][head][1]
    w2, ok, _ = run_atomic(tb.try_pop(head, nxt), w, StepCtx(10))
    assert ok is True
    assert w2.joint[tb.LB][tb.SNT] == nxt
    assert head in w2.joint[tb.LB]  # never deallocated
    _, contents, _, grb = tb.parse_stack(w2.joint[tb.LB])
    assert contents == ("b",) and head in grb
    assert lookup_end(w2.self_[tb.LB], 1) == ("b",)


def test_sequential_push_push_pop_is_lifo():
    from histrio.scheduler import explore, Scenario
    from histrio.scenarios import _merge_roots
    from histrio.program import do, const
    from histrio.specs import pop_spec, push_spec

    conc = __import__("histrio.concurroid", fromlist=["entangle"]).entangle(
        pv.concurroid(), tb.concurroid())
    root = _merge_roots(pv.initial_state(), tb.initial_state(()))
    prog = do(
        (None, tb.push_program(lambda env: "x", push_spec("x"))),
        (None, tb.push_program(lambda env: "y", push_spec("y"))),
        ("r", tb.pop_program(pop_spec())),
        ret=const(()),
    )
    sc = Scenario("lifo", conc, root, prog)
    rep = explore(sc, step_bound=30, loop_bound=2)
    assert rep.verdict == "pass" and rep.complete == 1
    [final] = list(rep.finals)
    _, contents, _, _ = tb.parse_stack(final.joint[tb.LB])
    assert contents == ("x",)


def test_pop_on_empty_returns_none():
    from histrio.scheduler import explore, Scenario
    from histrio.specs import pop_spec

    sc = Scenario("pop-empty", tb.concurroid(), tb.initial_state(()),
                  tb.pop_program(pop_spec()))
    rep = explore(sc, step_bound=10, loop_bound=2)
    assert rep.verdict == "pass"
    [final] = list(rep.finals)
    assert final.threads[0].result == NONE


def test_spinlock_roundtrip_restores_coherence():
    from histrio.concurroid import entangle

    conc = entangle(pv.concurroid(), lk.concurroid())
    w = SubjState(
        FrozenMap({lk.LB: Triple(EMPTY_IDSET, NOT_OWN, IdSet.of(1)), pv.LB: Heap()}),
        FrozenMap({lk.LB: Heap({lk.LK: False, lk.REG: (1,)}), pv.LB: Heap()}),
        FrozenMap({lk.LB: Triple(EMPTY_IDSET, NOT_OWN, EMPTY_IDSET), pv.LB: Heap()}),
    )
    assert conc.coherent(w)
    w1, ok, _ = run_atomic(lk.trylock(), w, StepCtx(5000))
    assert ok is True
    assert w1.self_[lk.LB].mx is OWN
    assert lk.REG in w1.self_[pv.LB]
    assert conc.coherent(w1)
    # second trylock fails
    w1b, ok2, _ = run_atomic(lk.trylock(), w1, StepCtx(5000))
    assert ok2 is False and w1b == w1
    # unlock with an updated contribution
    g2 = IdSet.of(1, 3)
    w1c = SubjState(
        w1.self_.set(pv.LB, Heap({lk.REG: (1, 3)})), w1.joint, w1.other)
    w2, _, _ = run_atomic(lk.unlock(g2), w1c, StepCtx(5000))
    assert conc.coherent(w2)
    assert w2.self_[lk.LB] == Triple(EMPTY_IDSET, NOT_OWN, g2)


def test_fc_request_help_and_collect_cycle():
    shape = fc.stack_shape(2)
    w = fc.initial_state(shape)
    coherent = fc.concurroid(shape).coherent
    assert coherent(w)

    w1, _, _ = run_atomic(fc.req_help(shape, 0, "u"), w, StepCtx(1))
    assert coherent(w1)
    jh, _ = w1.joint[fc.LB]
    assert jh[shape.slots[0]] == Req("push", "u")

    # collecting before help yields None and changes nothing
    w1b, res, _ = run_atomic(fc.try_collect(shape, 0), w1, StepCtx(1))
    assert res == NONE and w1b == w1

    # lock, help, unlock, then collect
    w2 = SubjState(
        w1.self_.set(pv.LB, Heap()), w1.joint.set(pv.LB, Heap()),
        w1.other.set(pv.LB, Heap()))
    w3, ok, _ = run_atomic(fc.fc_trylock(shape), w2, StepCtx(4000))
    assert ok is True
    w4, _, _ = run_atomic(fc.do_help(shape, 0, (), "u"), w3, StepCtx(4000))
    _, _, _, gp = fc.parse_fc(shape, w4.joint[fc.LB])
    assert len(gp[0].entries) == 1
    # run the actual sequential push on the private resource heap
    top = w4.self_[pv.LB][fc.SNT]
    w5 = SubjState(
        w4.self_.set(pv.LB, Heap(w4.self_[pv.LB]
                                 .set(Loc(4100), ("u", top))
                                 .set(fc.SNT, Loc(4100)))),
        w4.joint, w4.other)
    w6, _, _ = run_atomic(fc.fc_unlock(shape), w5, StepCtx(4200))
    assert coherent(SubjState(
        w6.self_.remove(pv.LB), w6.joint.remove(pv.LB), w6.other.remove(pv.LB)))
    w7, res, _ = run_atomic(fc.try_collect(shape, 0), w6, StepCtx(4200))
    assert res == SOME(())
    assert len(w7.self_[fc.LB].aux.entries) == 2  # init event + collected push
    jh, gp = w7.joint[fc.LB]
    assert jh[shape.slots[0]] is INIT and not gp[0].entries


def test_fc_transitions_take_no_request_but_push():
    shape = fc.stack_shape(2)
    conc = fc.concurroid(shape)
    req, help_ = conc.transitions["fc.req"].member, conc.transitions["fc.help"].member

    def publish(w, request):
        jh, gp = w.joint[fc.LB]
        return SubjState(w.self_, w.joint.set(fc.LB, (Heap(jh.set(shape.slots[0], request)), gp)),
                         w.other)

    w = fc.initial_state(shape)
    assert req(w, publish(w, Req("push", "u")))
    assert not req(w, publish(w, Req("pop", "u")))

    w1 = publish(w, Req("push", "u"))
    w2 = SubjState(
        w1.self_.set(pv.LB, Heap()), w1.joint.set(pv.LB, Heap()),
        w1.other.set(pv.LB, Heap()))
    w3, _, _ = run_atomic(fc.fc_trylock(shape), w2, StepCtx(4000))
    w4, _, _ = run_atomic(fc.do_help(shape, 0, (), "u"), w3, StepCtx(4000))
    assert help_(w3, w4)
    assert not help_(publish(w3, Req("pop", "u")), w4)


def test_fc_stack_instantiation_validity_predicates():
    g = Hist.of(STACK, {0: ((), ()), 1: ((), ("a",))})
    delta = Hist.of(STACK, {2: (("a",), ("b", "a"))})
    assert push_event(g, "b") == delta
    assert push_event(g, "z") != delta
    assert push_event(g, "b") != Hist.of(STACK, {5: (("a",), ("b", "a"))})


def test_fc_sampled_states_are_hashable():
    shape, rng = fc.stack_shape(3), random.Random(0)
    for _ in range(20):
        w = fc.sample_state(shape, rng)
        assert {type(m[fc.LB].ids.ids) for m in (w.self_, w.other)} == {frozenset}
        assert hash(w) == hash(SubjState(w.self_, w.joint, w.other))


def test_fc_total_aux_is_joined_once_per_run(monkeypatch):
    shape = fc.stack_shape(2)
    w = fc.sample_state(shape, random.Random(1))
    # equal components in other objects: an equal input
    twin = SubjState(FrozenMap(dict(w.self_.items())), FrozenMap(dict(w.joint.items())),
                     FrozenMap(dict(w.other.items())))
    assert twin == w and twin.joint is not w.joint
    joins = []
    join = fc.join

    def counted(a, b):
        joins.append(None)
        return join(a, b)

    monkeypatch.setattr(fc, "join", counted)
    total = fc.total_aux(shape, w)
    assert total is not None and len(joins) == shape.n + 1
    # outside a run it is computed each time
    assert fc.total_aux(shape, twin) == total and len(joins) == 2 * (shape.n + 1)
    joins.clear()
    with fact_table():
        assert fc.total_aux(shape, w) == total
        assert fc.total_aux(shape, twin) == total
        assert fc.total_aux(shape, w, fc.parse_fc(shape, w.joint[fc.LB])[3]) == total
    assert len(joins) == shape.n + 1
