"""End-to-end scenario explorations at reduced scale, plus sabotage checks."""

import random

import pytest

from histrio.erasure import compare_erased
from histrio.program import ActN
from histrio.scheduler import check_phi, explore, run_random, run_replay
from histrio.scenarios import (
    flat_combiner_scenario,
    make_treiber_phi,
    pair_snapshot_scenario,
    producer_consumer_scenario,
    seq_recovery_scenario,
    SizeError,
    treiber_scenario,
)
from histrio.structures import treiber as tb
import test_scheduler as ts


def test_pair_snapshot_single_writer():
    rep = explore(pair_snapshot_scenario(writers=1), step_bound=40, loop_bound=3)
    assert rep.verdict == "pass"
    assert rep.inconclusive == 0
    assert rep.complete > 0


def test_treiber_one_pusher_one_popper():
    rep = explore(treiber_scenario(pushers=1, elems=("a",)), step_bound=40,
                  loop_bound=3)
    assert rep.verdict == "pass"
    assert rep.inconclusive == 0


def test_treiber_takes_one_element_per_pusher():
    # three pushers from the two default elements would silently build two,
    # and -1 pushers one
    for pushers in (3, -1):
        with pytest.raises(SizeError, match=f"0 to 2: asked for {pushers}"):
            treiber_scenario(pushers=pushers)
    trace = run_random(treiber_scenario(pushers=3, elems=("a", "b", "c")), 1, 400, 3)
    assert trace.verdict == "pass"
    assert set(trace.schedule) == {0, 1, 2, 3}  # three pushers and the popper


def test_producer_consumer_n2():
    rep = explore(producer_consumer_scenario(2), step_bound=50, loop_bound=3)
    assert rep.verdict == "pass"
    assert rep.complete > 0


def test_flat_combiner_two_threads():
    rep = explore(flat_combiner_scenario(2), step_bound=80, loop_bound=3)
    assert rep.verdict == "pass"
    assert rep.complete > 0


def test_seq_recovery_exact_shapes():
    sc = seq_recovery_scenario(("b", "c"), "a")
    rep = explore(sc, step_bound=20, loop_bound=3)
    assert rep.verdict == "pass" and rep.complete == 1
    [final] = list(rep.finals)
    parsed = tb.parse_stack(final.threads[0].self_["pv"])
    _, contents, _, grb = parsed
    assert contents == ("a", "b", "c")
    assert not grb  # a lone push leaks nothing


def test_seq_recovery_detects_a_wrong_expectation():
    sc = seq_recovery_scenario(("b",), "a")
    # sabotage: demand a different recovered history
    orig = sc.on_hide_exit

    def wrong(phi, g2, hidden):
        msgs = orig(phi, g2, hidden)
        return msgs or ["forced"] if g2.entries else msgs

    sc.on_hide_exit = wrong
    rep = explore(sc, step_bound=20, loop_bound=3)
    assert rep.verdict == "violation"


def test_random_runs_agree_with_the_oracles():
    for seed in range(20):
        t = run_random(treiber_scenario(), seed, 120, 3)
        assert t.verdict in ("pass", "inconclusive")
        assert not t.violations


def test_phi_properties_by_sampling():
    phi = make_treiber_phi(())
    rep = check_phi(phi, 120, random.Random(0))
    assert rep.ok, rep.violations[:3]


def test_erasure_commutation_smoke():
    builders = [
        lambda: pair_snapshot_scenario(2),
        treiber_scenario,
        lambda: producer_consumer_scenario(2),
        lambda: flat_combiner_scenario(2),
        seq_recovery_scenario,
    ]
    for b in builders:
        for seed in (0, 1, 2):
            assert compare_erased(b, seed, 150, 3) is None


def test_erasure_mismatch_is_detected():
    """Sabotaged primitive: the erased run diverges and the check says so.

    The second sabotage writes the same cell as ``linkNode`` but returns a
    different result, which the program ignores: only a per-step result
    comparison sees it.
    """
    from histrio.actions import Rmw, Skip
    from histrio.program import ActN

    def sabotaged(label, replace):
        def broken():
            sc = treiber_scenario()

            def patch(node):
                if isinstance(node, ActN) and node.label == label:
                    orig = node.build

                    def build(env):
                        a = orig(env)
                        a.primitive = replace(a.primitive)  # erasure no longer matches
                        return a

                    node.build = build

            _walk_nodes(sc.program, patch)
            return sc

        return broken

    for broken in (
        sabotaged("alloc", lambda prim: Skip()),
        sabotaged("linkNode",
                  lambda prim: Rmw(prim.loc, lambda v, val=prim.val: val, lambda v: "junk")),
    ):
        msgs = [compare_erased(broken, seed, 120, 3) for seed in range(3)]
        assert any(m is not None for m in msgs)


def _walk_nodes(node, fn, seen=None):
    seen = seen if seen is not None else set()
    if id(node) in seen:
        return
    seen.add(id(node))
    fn(node)
    for attr in ("first", "rest", "then", "els", "body", "left", "right"):
        child = getattr(node, attr, None)
        if child is not None and hasattr(child, "nid"):
            _walk_nodes(child, fn, seen)


def test_reader_only_snapshot_returns_the_initial_pair():
    rep = explore(pair_snapshot_scenario(writers=0), step_bound=10, loop_bound=3)
    assert rep.verdict == "pass" and rep.complete == 1
    [final] = list(rep.finals)
    assert final.threads[0].result == ("A", "C")


def test_single_thread_flat_combine_serializes_itself():
    from histrio.pcm import Hist, STACK
    from histrio.structures import flatcombiner as fc

    rep = explore(flat_combiner_scenario(1), step_bound=40, loop_bound=3)
    assert rep.verdict == "pass" and rep.complete >= 1
    from histrio.scheduler import leaf_view

    shape = fc.stack_shape(1)
    for final in rep.finals:
        view = leaf_view(final, final.threads[0]).restrict(fc.HOME)
        total = fc.total_aux(shape, view)
        assert total == Hist.of(STACK, {0: ((), ()), 1: ((), ("e0",))})


def _naive_read_pair_scenario(writers=2):
    """A reader that reads x then y with no version re-check, racing two or
    three writers."""
    from histrio.program import ActN, Ret, do
    from histrio.scenarios import par_chain, split_take
    from histrio.scheduler import Scenario
    from histrio.specs import read_pair_spec
    from histrio.program import SpecedN
    from histrio.structures import snapshot as sp
    from histrio.pcm import Hist

    naive_body = do(
        ("cx", ActN(lambda env: sp.read_x(), "readX")),
        ("cy", ActN(lambda env: sp.read_y(), "readY")),
        ret=Ret(lambda env: (env["cx"][0], env["cy"][0])),
    )
    reader = SpecedN(read_pair_spec(), naive_body)
    root = sp.initial_state("A", "C")
    writer_args = [("B", "D"), ("E", "G"), ("F", "H")][:writers]
    program = par_chain(
        [reader] + [sp.writer_program(x, y) for x, y in writer_args],
        [split_take({sp.LB: Hist(sp.SNAPSHOT)}),
         split_take({sp.LB: root.self_[sp.LB]})] + [split_take({})] * (writers - 2),
    )
    return Scenario("naive-reader", sp.concurroid(), root, program)


def test_naive_read_pair_is_caught_by_the_spec():
    """Dropping the version re-check admits pairs that never coexisted;
    some interleaving with two writers must expose it."""
    sc = _naive_read_pair_scenario()
    rep = explore(sc, step_bound=40, loop_bound=3)
    assert rep.verdict == "violation"
    assert any(v.check == "spec:readPair" for v in rep.violations)
    # the counterexample is replayable and small
    v = next(v for v in rep.violations if v.check == "spec:readPair")
    assert len(v.schedule) <= 10


def test_every_explored_violation_replays_to_its_check_at_its_step():
    """Each recorded violation's schedule, replayed, reports the same check
    at the same step: a path keeps the step whose run failed a spec post."""
    sc = _naive_read_pair_scenario(writers=3)
    rep = explore(sc, step_bound=40, loop_bound=3)
    assert len(rep.violations) == 50
    for v in rep.violations:
        replay = run_replay(sc, v.schedule, loop_bound=3)
        assert (v.check, v.step, v.schedule) in [
            (r.check, r.step, r.schedule) for r in replay.violations], v.schedule


def test_a_random_run_ends_at_its_first_violating_move():
    """A random run stops at the move that reported, as an explored path
    does: its events are the moves that passed, and its first violation's
    schedule is theirs with the violating move after them."""
    violating = 0
    for seed in range(200):
        sc = _naive_read_pair_scenario(writers=3)
        t = run_random(sc, seed, 40, 3)
        if t.verdict != "violation":
            continue
        violating += 1
        first = t.violations[0]
        assert t.schedule == first.schedule[:-1] and len(t.events) == first.step - 1, seed
        replay = run_replay(_naive_read_pair_scenario(writers=3), first.schedule, 3)
        assert (first.check, first.step, first.schedule) == (
            replay.violations[0].check, replay.violations[0].step,
            replay.violations[0].schedule), seed
    assert violating == 67


def test_violation_cap_does_not_change_path_counts():
    """The cap bounds the recorded violations only: a path that fails a
    spec post during normalization stays violating after the cap is hit."""
    sc = _naive_read_pair_scenario()
    capped = explore(sc, step_bound=40, loop_bound=3, max_violations=1)
    uncapped = explore(sc, step_bound=40, loop_bound=3, max_violations=10**6)
    assert len(capped.violations) == 1
    assert (uncapped.complete, uncapped.violating) == (64, 26)
    assert (capped.complete, capped.violating) == (64, 26)
    assert capped.verdict == uncapped.verdict == "violation"


def _lock_written_as_zero(w):
    """``w`` with ``0`` in the flat combiner's lock cell, where a lock holds
    ``True`` or ``False``: its joint no longer parses."""
    from histrio.pcm import Heap
    from histrio.state import SubjState
    from histrio.structures import flatcombiner as fc

    jh, gp = w.joint[fc.LB]
    return SubjState(w.self_, w.joint.set(fc.LB, (Heap(jh.set(fc.LK, 0)), gp)), w.other)


def _planted_fc_action(monkeypatch, name, plant):
    """Replace the flat combiner's action builder ``name`` with one whose
    step is the original's followed by ``plant(w, w2)``."""
    from histrio.actions import AtomicAction
    from histrio.structures import flatcombiner as fc

    build = getattr(fc, name)

    def planted(*args):
        act = build(*args)

        def step(w, ctx):
            w2, res, ctx2 = act.step(w, ctx)
            return plant(w, w2), res, ctx2

        return AtomicAction(act.name, act.home, act.safe, step, act.claimed, act.primitive)

    monkeypatch.setattr(fc, name, planted)


def test_an_unparsable_flat_combiner_joint_is_reported_not_raised(monkeypatch):
    from histrio.structures import flatcombiner as fc

    _planted_fc_action(monkeypatch, "fc_unlock", lambda w, w2: _lock_written_as_zero(w2))
    rep = explore(flat_combiner_scenario(2), step_bound=120, loop_bound=1)
    assert rep.verdict == "violation"
    assert {"coherence", "invariant"} <= {v.check for v in rep.violations}
    trace = run_random(flat_combiner_scenario(2), 0, 120, 1)
    checks = [v.check for v in trace.violations]
    assert checks[0] == "coherence" and "invariant" in checks
    # outside a run, with no fact table
    shape = fc.stack_shape(2)
    w = _lock_written_as_zero(fc.sample_state(shape, random.Random(0)))
    assert fc.parse_fc(shape, w.joint[fc.LB]) is None
    assert fc.total_aux(shape, w) is None


def _keep_own(w, w2):
    """``w2`` with the flat combiner's self lock view left at ``OWN``."""
    from histrio.pcm import OWN, Triple
    from histrio.state import SubjState
    from histrio.structures import flatcombiner as fc

    s = w2.self_[fc.LB]
    return SubjState(w2.self_.set(fc.LB, Triple(s.ids, OWN, s.aux)), w2.joint, w2.other)


def _keep_resp(w, w2):
    """``w2`` with the flat combiner's heap as in ``w``: a collection writes
    only its slot cell, so the slot stays answered."""
    from histrio.state import SubjState
    from histrio.structures import flatcombiner as fc

    jv = (w.joint[fc.LB][0], w2.joint[fc.LB][1])
    return SubjState(w2.self_, w2.joint.set(fc.LB, jv), w2.other)


def test_an_unlock_that_keeps_the_lock_view_is_reported(monkeypatch):
    """A frame fault of the flat combiner's push, its self lock view left at
    ``OWN`` after unlocking, is caught by coherence and the transition check
    before the push returns; the push spec needs no frame check for it."""
    _planted_fc_action(monkeypatch, "fc_unlock", _keep_own)
    rep = explore(flat_combiner_scenario(2), step_bound=120, loop_bound=2)
    assert rep.verdict == "violation"
    assert {v.check for v in rep.violations} == {"coherence", "transition"}


def test_a_collect_that_leaves_the_slot_answered_is_reported(monkeypatch):
    """A collection that flushes the slot's history but leaves the slot at
    ``Resp`` is caught by the transition check before the push returns."""
    _planted_fc_action(monkeypatch, "try_collect", _keep_resp)
    rep = explore(flat_combiner_scenario(2), step_bound=120, loop_bound=2)
    assert rep.verdict == "violation"
    assert {v.check for v in rep.violations} == {"transition"}


def _plant(scenario):
    return lambda monkeypatch: scenario


def _fc_plant(name, plant):
    def build(monkeypatch):
        _planted_fc_action(monkeypatch, name, plant)
        return lambda: flat_combiner_scenario(2)

    return build


# a planted fault of every step check: (the scenario's builder, given the
# test's monkeypatch, step bound, loop bound, the checks it fails)
PLANTED = {
    "guarantee": (_plant(ts._escape_scenario), 5, 3, {"guarantee", "transition"}),
    "guarantee-after-a-step": (_plant(lambda: ts._escape_scenario(after_a_step=True)),
                               5, 3, {"guarantee", "transition"}),
    "safety": (_plant(ts._refusing_scenario), 5, 3, {"safety"}),
    "invariant": (_plant(ts._racing_counters), 40, 3, {"invariant"}),
    "invariant-written": (_plant(ts._written_scenario), 5, 3, {"invariant"}),
    "inject": (_plant(lambda: ts._pv_sp_scenario("escape", (None, ActN(ts._homed_in_sp, "w")))),
               5, 3, {"inject"}),
    "coherence-unparsable": (
        _fc_plant("fc_unlock", lambda w, w2: _lock_written_as_zero(w2)), 120, 1,
        {"coherence", "invariant", "transition"}),
    "coherence-keep-own": (_fc_plant("fc_unlock", _keep_own), 120, 2,
                           {"coherence", "transition"}),
    "transition-keep-resp": (_fc_plant("try_collect", _keep_resp), 120, 2, {"transition"}),
    "transition-sneaky": (_plant(ts._sneaky_scenario), 5, 3, {"transition", "coherence"}),
    "history-growth": (_plant(ts._shrink_scenario), 5, 3, {"history-growth", "transition"}),
}


@pytest.mark.parametrize("plant", list(PLANTED))
def test_every_step_check_violation_replays_to_its_check_at_its_step(monkeypatch, plant):
    """Each violation a planted fault's exploration records, and the first
    of each violating random run, replays to the same check at the same
    step: the step that failed its check is the last of its schedule."""
    build, step_bound, loop_bound, checks = PLANTED[plant]
    build = build(monkeypatch)
    rep = explore(build(), step_bound, loop_bound)
    assert {v.check for v in rep.violations} == checks
    firsts = [t.violations[0] for t in (run_random(build(), seed, step_bound, loop_bound)
                                        for seed in range(5)) if t.violations]
    assert firsts
    for v in rep.violations + firsts:
        assert v.step == len(v.schedule) > 0 and v.schedule[-1] == v.thread
        replay = run_replay(build(), v.schedule, loop_bound)
        assert (v.check, v.step, v.schedule) in [
            (r.check, r.step, r.schedule) for r in replay.violations], v.schedule
