"""Method specifications evaluated against handcrafted and explored runs."""

import random

from histrio.fmap import FrozenMap
from histrio.pcm import NONE, NOT_OWN, SOME, STACK, Heap, Hist, IdSet, Triple
from histrio.program import Node, SpecedN
from histrio.scenarios import flat_combiner_scenario, seq_recovery_scenario, treiber_scenario
from histrio.scheduler import Scenario, explore
from histrio.specs import (
    combined_history,
    join_lemma_checks,
    pop_spec,
    push_spec,
    read_pair_spec,
    snapshot_validity,
    stack_accounting,
)
from histrio.state import SubjState
from histrio.structures import flatcombiner as fc
from histrio.structures import private_heap as pv
from histrio.structures import snapshot as sp
from histrio.structures import treiber as tb


def snap_view(self_entries, other_entries, cx, vx, cy, vy):
    return SubjState(
        FrozenMap({sp.LB: Hist.of(sp.SNAPSHOT, self_entries)}),
        FrozenMap({sp.LB: Heap({sp.X: (cx, vx), sp.Y: (cy, vy)})}),
        FrozenMap({sp.LB: Hist.of(sp.SNAPSHOT, other_entries)}),
    )


def test_read_pair_post_accepts_a_recorded_snapshot():
    spec = read_pair_spec()
    w0 = snap_view({0: (("A", "C", 0), ("A", "C", 0))}, {}, "A", 0, "C", 0)
    caps = spec.capture(w0, FrozenMap())
    w1 = snap_view({0: (("A", "C", 0), ("A", "C", 0))},
                   {1: (("A", "C", 0), ("B", "C", 1))}, "B", 1, "C", 0)
    assert spec.post(caps, w1, ("B", "C")) is None
    assert spec.post(caps, w1, ("A", "C")) is None  # the initial snapshot
    assert spec.post(caps, w1, ("B", "X")) is not None  # never coexisted


def test_read_pair_post_requires_stamp_after_entry():
    spec = read_pair_spec()
    w0 = snap_view({0: (("A", "C", 0), ("A", "C", 0)),
                    1: (("A", "C", 0), ("B", "C", 1))}, {}, "B", 1, "C", 0)
    caps = spec.capture(w0, FrozenMap())
    # ("A", "C") only occurs at stamp 0, strictly before the capture's max
    assert spec.post(caps, w0, ("A", "C")) is not None
    assert spec.post(caps, w0, ("B", "C")) is None


def monolithic_read_pair_post(tau: Hist, total: Hist, res) -> bool:
    """The joint-history form of readPair's post, with no self constraint:
    some stamp at or after the call holds ``res`` as its (x, y) pair."""
    lo = max(tau.stamps(), default=-1)
    return any(t >= lo and total.entries[t][1][:2] == tuple(res[:2])
               for t in total.stamps())


def test_monolithic_variant_is_implied_by_the_subjective_post():
    """Wherever the subjective post holds, the joint-history form does too."""
    rng = random.Random(0)
    spec = read_pair_spec()
    for _ in range(200):
        w = sp.sample_state(rng)
        caps = spec.capture(w, FrozenMap())
        total = combined_history(w, sp.LB)
        for t in total.stamps():
            post = total.entries[t][1]
            res = (post[0], post[1])
            if spec.post(caps, w, res) is None:
                assert monolithic_read_pair_post(caps["tau"], total, res)


def tb_view(self_entries, other_entries, contents, pv_heap=None):
    return SubjState(
        FrozenMap({tb.LB: Hist.of(STACK, self_entries), pv.LB: Heap(pv_heap or {})}),
        FrozenMap({tb.LB: tb.layout(contents), pv.LB: Heap()}),
        FrozenMap({tb.LB: Hist.of(STACK, other_entries), pv.LB: Heap()}),
    )


def test_push_spec_requires_the_exact_singleton():
    spec = push_spec("a")
    w0 = tb_view({0: ((), ())}, {}, ())
    caps = spec.capture(w0, FrozenMap())
    good = tb_view({0: ((), ()), 1: ((), ("a",))}, {}, ("a",))
    assert spec.post(caps, good, ()) is None
    two = tb_view({0: ((), ()), 1: ((), ("a",)), 2: (("a",), ())}, {}, ())
    assert spec.post(caps, two, ()) is not None
    wrong_elem = tb_view({0: ((), ()), 1: ((), ("b",))}, {}, ("b",))
    assert spec.post(caps, wrong_elem, ()) is not None


def test_push_spec_framed_with_prior_history():
    spec = push_spec("z")
    prior = {0: ((), ()), 1: ((), ("q",))}
    w0 = tb_view(prior, {}, ("q",))
    caps = spec.capture(w0, FrozenMap())
    after = dict(prior)
    after[2] = (("q",), ("z", "q"))
    w1 = tb_view(after, {}, ("z", "q"))
    assert spec.post(caps, w1, ()) is None


def specs_in(node) -> list:
    """Every method spec wrapped around a node of the program ``node``."""
    out = [node.spec] if isinstance(node, SpecedN) else []
    for cls in type(node).__mro__:
        for slot in getattr(cls, "__slots__", ()):
            child = getattr(node, slot, None)
            if isinstance(child, Node):
                out += specs_in(child)
    return out


def push_specs(scenario: Scenario) -> list:
    return [spec for spec in specs_in(scenario.program) if spec.name.startswith("push(")]


def test_every_push_is_checked_by_the_one_push_spec():
    """The lock-free, the hidden sequential and the flat combiner's helped
    push all get their spec from ``push_spec``."""
    by_scenario = {sc.name: push_specs(sc) for sc in (
        treiber_scenario(), seq_recovery_scenario(), flat_combiner_scenario(2))}
    assert {name: len(specs) for name, specs in by_scenario.items()} == {
        "treiber": 2, "seq-recovery": 1, "flat-combiner": 2}
    assert {spec.post.__qualname__ for specs in by_scenario.values() for spec in specs} == {
        "push_spec.<locals>.post"}


def fc_view(self_entries, other_entries):
    """A two-slot flat combiner whose thread 0 holds ``self_entries`` and
    whose other thread holds ``other_entries``; both slots are empty."""
    w = fc.initial_state(fc.stack_shape(2))
    return SubjState(
        FrozenMap({fc.LB: Triple(IdSet.of(0), NOT_OWN, Hist.of(STACK, self_entries)),
                   pv.LB: Heap()}),
        w.joint.set(pv.LB, Heap()),
        FrozenMap({fc.LB: Triple(IdSet.of(1), NOT_OWN, Hist.of(STACK, other_entries)),
                   pv.LB: Heap()}),
    )


def test_push_spec_rejects_a_stale_pre_state_or_a_skipped_stamp():
    """The event must push onto the end of the combined history below its
    stamp, at that prefix's fresh stamp: in the Treiber stack and in the
    flat combiner alike, a push onto an older state, or one stamped past a
    gap, is not a push at that point."""
    init, q = {0: ((), ())}, {1: ((), ("q",))}
    [fc_spec] = [spec for spec in push_specs(flat_combiner_scenario(2)) if "e0" in spec.name]
    for spec, e, view in ((push_spec("a"), "a", lambda mine, other: tb_view(mine, other, ())),
                          (fc_spec, "e0", fc_view)):
        caps = spec.capture(view(init, q), FrozenMap())
        good = {2: (("q",), (e, "q"))}
        stale = {2: ((), (e,))}  # () is not the end of {0, 1}
        skipped = {3: (("q",), (e, "q"))}  # the fresh stamp of {0, 1} is 2
        assert spec.post(caps, view({**init, **good}, q), ()) is None
        for bad in (stale, skipped):
            assert spec.post(caps, view({**init, **bad}, q), ()) is not None, (spec.name, bad)


def test_pop_spec_branches():
    spec = pop_spec()
    w0 = tb_view({0: ((), ()), 1: ((), ("a",))}, {}, ("a",))
    caps = spec.capture(w0, FrozenMap())
    popped_w = tb_view({0: ((), ()), 1: ((), ("a",)), 2: (("a",), ())}, {}, ())
    assert spec.post(caps, popped_w, SOME("a")) is None
    assert spec.post(caps, popped_w, SOME("b")) is not None
    # None branch needs an empty-stack witness and an unchanged self
    w_none = tb_view({0: ((), ()), 1: ((), ("a",))}, {}, ("a",))
    assert spec.post(caps, w_none, NONE) is None
    no_nil = tb_view({0: (("x",), ("x",)), 1: (("x",), ("a", "x"))}, {}, ("a", "x"))
    caps2 = spec.capture(no_nil, FrozenMap())
    assert spec.post(caps2, no_nil, NONE) is not None


def test_join_lemma_checks_flag_broken_premises():
    c_ok1 = tb_view({0: ((), ()), 1: ((), ("a",))}, {}, ("a",))
    c_ok2 = tb_view({2: (("a",), ())}, {}, ())
    joined = tb_view({}, {}, ())
    assert join_lemma_checks(c_ok1, c_ok2, joined) == []
    c_bad = tb_view({2: ((), ("b",))}, {}, ("b",))
    msgs = join_lemma_checks(c_ok1, c_bad, joined)
    assert any("pushed" in m for m in msgs)


def test_snapshot_validity_oracle_rejects_doctored_pairs():
    total = Hist.of(sp.SNAPSHOT, {
        0: (("A", "C", 0), ("A", "C", 0)),
        1: (("A", "C", 0), ("B", "C", 1)),
    })
    assert snapshot_validity([("A", "C"), ("B", "C")], total) == []
    assert snapshot_validity([("B", "D")], total) != []


def test_stack_accounting():
    good = Hist.of(STACK, {0: ((), ()), 1: ((), ("a",)), 2: (("a",), ())})
    assert stack_accounting(good, ()) == []
    assert stack_accounting(good, ("a",)) != []
    gap = Hist.of(STACK, {0: ((), ()), 2: (("a",), ())})
    assert stack_accounting(gap, ()) != []


def test_frame_compatibility_of_read_pair():
    """The spec proved for an empty self keeps holding when the reader is
    framed with prior history: run the reader after its own writes."""
    from histrio.program import do, const

    prog = do(
        (None, sp.writer_program("B", "D")),
        ("r", sp.read_pair_program(read_pair_spec())),
        ret=const(()),
    )
    sc = Scenario("framed-reader", sp.concurroid(), sp.initial_state("A", "C"), prog)
    rep = explore(sc, step_bound=20, loop_bound=3)
    assert rep.verdict == "pass"
