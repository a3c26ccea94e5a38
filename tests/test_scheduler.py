"""Explorer behavior: counting, determinism, faults, injection, hiding."""

import dataclasses
import gc
import math
import os
import random
import subprocess
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import pytest

from histrio import actions, concurroid, scheduler, state
from histrio.actions import AtomicAction, Skip, Write, check_action_properties
from histrio.concurroid import Concurroid, check_concurroid
from histrio.erasure import compare_erased_trace
from histrio.fmap import FrozenMap
from histrio.pcm import Heap, Hist, Loc, map_pointwise_join, map_subtract, render
from histrio.program import ActN, HideN, LoopN, Node, ParN, RETRY, SpecedN, const, do
from histrio.scheduler import (
    DONE,
    RUN,
    Config,
    HideK,
    Leaf,
    Scenario,
    SchedulerError,
    _Ctx,
    explore,
    initial_config,
    normalize,
    ready_leaves,
    run_local,
    run_random,
    run_replay,
    step_action,
)
from histrio.scenarios import (
    flat_combiner_scenario,
    pair_snapshot_scenario,
    par_chain,
    producer_consumer_scenario,
    seq_recovery_scenario,
    split_take,
    treiber_scenario,
)
from histrio.specs import MethodSpec
from histrio.state import SubjState, flatten
from histrio.structures import flatcombiner as fc
from histrio.structures import private_heap as pv
from histrio.structures import snapshot as sp
from histrio.structures import treiber as tb
from counting import counting_scenario


def multinomial(*ks):
    n = sum(ks)
    out = math.factorial(n)
    for k in ks:
        out //= math.factorial(k)
    return out


@pytest.mark.parametrize("threads,steps", [(2, 1), (2, 2), (3, 2), (2, 3)])
def test_interleaving_counts_match_the_multinomial(threads, steps):
    rep = explore(counting_scenario(threads, steps), step_bound=40, loop_bound=3)
    assert rep.verdict == "pass"
    assert rep.complete == multinomial(*([steps] * threads))
    assert rep.inconclusive == 0


def test_single_thread_is_one_interleaving():
    rep = explore(counting_scenario(1, 3), step_bound=10, loop_bound=3)
    assert rep.complete == 1


def test_run_random_is_deterministic_per_seed():
    sc = treiber_scenario()
    t1 = run_random(sc, 1234, 100, 3)
    t2 = run_random(treiber_scenario(), 1234, 100, 3)
    assert t1.schedule == t2.schedule
    assert [e.as_row() for e in t1.events] == [e.as_row() for e in t2.events]
    assert t1.verdict == t2.verdict
    t3 = run_random(treiber_scenario(), 99, 100, 3)
    assert t3.verdict in ("pass", "inconclusive")


def test_replay_reproduces_a_random_run():
    sc = treiber_scenario()
    t1 = run_random(sc, 7, 100, 3)
    t2 = run_replay(treiber_scenario(), list(t1.schedule), 3)
    assert [e.as_row() for e in t2.events] == [e.as_row() for e in t1.events]


def test_budget_zero_like_run_is_inconclusive():
    t = run_random(treiber_scenario(), 5, 1, 3)
    assert t.verdict == "inconclusive"
    assert len(t.events) == 1


def test_loop_budget_exhaustion_is_inconclusive_not_failing():
    # a loop that always retries can never finish
    spin = LoopN(RETRY)
    sc = Scenario("spin", pv.concurroid(), pv.initial_state(), spin)
    rep = explore(sc, step_bound=10, loop_bound=3)
    assert rep.verdict == "inconclusive"
    assert rep.complete == 0 and rep.violations == []


def test_run_local_runs_a_program_on_the_callers_heap():
    from histrio.actions import exec_primitive
    from histrio.pcm import NONE, SOME

    heap = dict(flatten(tb.initial_state()))
    next_loc = [3000]

    def execute(prim):
        res, next_loc[0] = exec_primitive(prim, heap, next_loc[0])
        return res

    assert run_local(tb.pop_program(), 3, execute) == NONE
    assert run_local(tb.push_program(lambda env: "a"), 3, execute) == ()
    assert heap[tb.SNT] == Loc(3000) and heap[Loc(3000)] == ("a", tb.NULL)
    assert run_local(tb.pop_program(), 3, execute) == SOME("a")
    with pytest.raises(SchedulerError):
        run_local(LoopN(RETRY), 3, execute)


def _evil_build(env):
    """A step that grows its environment's private heap."""
    def step(w, ctx):
        grown = Heap(w.other[pv.LB].set(Loc(50), 1))
        return SubjState(w.self_, w.joint, w.other.set(pv.LB, grown)), (), ctx

    return AtomicAction("evil", pv.HOME, lambda w: True, step, "id", Skip())


def _escape_scenario(after_a_step=False):
    """The ``evil`` step, alone or after a harmless write of a private cell."""
    if not after_a_step:
        return Scenario("evil", pv.concurroid(), pv.initial_state(),
                        do((None, ActN(_evil_build, "evil")), ret=const(())))
    return Scenario("evil", pv.concurroid(), pv.initial_state(Heap({Loc(7): 0})),
                    do((None, ActN(lambda env: pv.write(Loc(7), 1), "w")),
                       (None, ActN(_evil_build, "evil")), ret=const(())))


def test_guarantee_violation_is_caught_with_a_counterexample():
    rep = explore(_escape_scenario(), step_bound=5, loop_bound=3)
    assert rep.verdict == "violation"
    v = rep.violations[0]
    assert v.check == "guarantee"
    assert isinstance(v.schedule, tuple)


def _refusing_scenario():
    """Thread 0 writes its cell 100, with a safety predicate that refuses
    once thread 1 has written its cell 200."""
    def guarded(env):
        write = pv.write(Loc(100), 1)
        return dataclasses.replace(
            write, safe=lambda w: write.safe(w) and w.other[pv.LB][Loc(200)] == 0)

    root = pv.initial_state(Heap({Loc(100): 0, Loc(200): 0}))
    prog = par_chain([ActN(guarded, "guarded"),
                      ActN(lambda env: pv.write(Loc(200), 1), "w")],
                     [split_take({pv.LB: Heap({Loc(100): 0})})])
    return Scenario("refusing", pv.concurroid(), root, prog)


def test_a_refused_step_is_reported_with_its_schedule():
    rep = explore(_refusing_scenario(), step_bound=5, loop_bound=3)
    assert [(v.check, v.thread, v.step, v.schedule) for v in rep.violations] == [
        ("safety", 0, 2, (1, 0))]
    [v] = rep.violations
    assert v.trace == ((1, "write(l200)", "()"), (0, "write(l100)", "None"))
    replay = run_replay(_refusing_scenario(), v.schedule, 3)
    assert [(r.check, r.step, r.schedule) for r in replay.violations] == [
        ("safety", 2, (1, 0))]
    assert (rep.violating, rep.complete) == (1, 1)


def _failed_before_the_first_move() -> Scenario:
    """A method whose post never holds returns before the first action, a
    private write: its spec fails in the initial normalization."""
    never = MethodSpec("never", lambda w, env: FrozenMap(), lambda caps, w, r: "never holds")
    prog = do((None, SpecedN(never, const(1))),
              ret=ActN(lambda env: pv.write(Loc(100), 1), "w"))
    return Scenario("never", pv.concurroid(), pv.initial_state(Heap({Loc(100): 0})), prog)


def test_a_violation_before_the_first_move_ends_the_empty_path():
    rep = explore(_failed_before_the_first_move(), step_bound=5, loop_bound=3)
    assert [(v.check, v.step, v.schedule) for v in rep.violations] == [("spec:never", 0, ())]
    assert (rep.verdict, rep.violating, rep.complete, rep.inconclusive) == ("violation", 1, 0, 0)
    assert (rep.nodes, rep.edges, rep.steps_run, rep.finals) == (0, 0, 0, set())


def test_a_violation_before_the_first_move_ends_a_random_run():
    # the run takes no step, and its empty schedule replays to the violation;
    # a start that reported is not remembered, so every run reports it again
    sc = _failed_before_the_first_move()
    first = run_random(sc, 0, 10, 3)
    for trace in (first, run_random(sc, 1, 10, 3), run_replay(sc, first.schedule, 3),
                  run_replay(sc, first.schedule, 3)):
        assert (trace.verdict, trace.schedule, trace.events) == ("violation", (), [])
        assert [(v.check, v.step, v.schedule) for v in trace.violations] == [
            ("spec:never", 0, ())]
    assert sc.starts == {}


def _sneaky_scenario():
    """A write that skips the version bump breaks the snapshot transition."""
    def sneaky_build(env):
        def step(w, ctx):
            jh = w.joint[sp.LB]
            cx, vx = jh[sp.X]
            return (
                SubjState(w.self_, w.joint.set(
                    sp.LB, Heap(jh.set(sp.X, ("Z", vx)))), w.other),
                (),
                ctx,
            )

        return AtomicAction("sneakyWrite", sp.HOME, lambda w: True, step, "wr_x",
                            Write(sp.X, "Z"))

    return Scenario("sneaky", sp.concurroid(), sp.initial_state(),
                    do((None, ActN(sneaky_build, "sneaky")), ret=const(())))


def test_transition_mismatch_is_caught():
    rep = explore(_sneaky_scenario(), step_bound=5, loop_bound=3)
    assert rep.verdict == "violation"
    checks = {v.check for v in rep.violations}
    assert "transition" in checks or "coherence" in checks


def _pv_sp_scenario(name: str, *bindings) -> Scenario:
    """The private heap entangled with the snapshot, with private cell 7 at 0,
    running the bare actions ``bindings``."""
    from histrio.concurroid import entangle

    conc = entangle(pv.concurroid(), sp.concurroid())
    root = pv.initial_state(Heap({Loc(7): 0})).merge_disjoint(sp.initial_state())
    return Scenario(name, conc, root, do(*bindings, ret=const(())))


def _homed_in_sp(env):
    """A private-heap write whose action declares the snapshot as its home."""
    return dataclasses.replace(pv.write(Loc(7), 1), home=frozenset([sp.LB]))


def test_inject_scoping_catches_label_escapes():
    """A private-heap write declared snapshot-only must fault."""
    sc = _pv_sp_scenario("escape", (None, ActN(_homed_in_sp, "w")))
    rep = explore(sc, step_bound=5, loop_bound=3)
    assert rep.verdict == "violation"
    assert any(v.check == "inject" for v in rep.violations)


def test_every_step_is_scoped_to_its_actions_home():
    # a bare action, in no wrapper, is checked against the home it declares,
    # by the explorer and by a random run alike
    sc = _pv_sp_scenario("escape", (None, ActN(_homed_in_sp, "w")))
    expected = [("inject", "labels ['sp'] only", "write(l7) touched pv")]
    rep = explore(sc, step_bound=5, loop_bound=3)
    assert [(v.check, v.expected, v.actual) for v in rep.violations] == expected
    trace = run_random(sc, 0, 5, 3)
    assert [(v.check, v.expected, v.actual) for v in trace.violations] == expected


def test_inject_respected_programs_pass():
    sc = _pv_sp_scenario("scoped", (None, ActN(lambda env: pv.write(Loc(7), 1), "w")),
                         ("r", ActN(lambda env: sp.read_x(), "rx")))
    rep = explore(sc, step_bound=5, loop_bound=3)
    assert rep.verdict == "pass"


# one action that writes both a private cell and the snapshot's x, with no
# home label: it escapes into pv and sp at once
_TWO_LABEL_ESCAPE = """
from histrio.actions import AtomicAction, Skip
from histrio.concurroid import entangle
from histrio.pcm import Heap, Loc
from histrio.program import ActN, const, do
from histrio.scheduler import Scenario, explore
from histrio.structures import private_heap as pv
from histrio.structures import snapshot as sp

def both(env):
    a, b = pv.write(Loc(7), 1), sp.write_x("Z")

    def step(w, ctx):
        w, _, ctx = a.step(w, ctx)
        return b.step(w, ctx)

    return AtomicAction("both", frozenset(), lambda w: True, step, "id", Skip())

conc = entangle(pv.concurroid(), sp.concurroid())
root = pv.initial_state(Heap({Loc(7): 0})).merge_disjoint(sp.initial_state())
prog = do((None, ActN(both, "both")), ret=const(()))
rep = explore(Scenario("escape", conc, root, prog), step_bound=5, loop_bound=3)
print([v.actual for v in rep.violations if v.check == "inject"])
"""


@pytest.mark.parametrize("hash_seed", ["1", "2"])
def test_escaped_labels_are_reported_in_label_order_under_any_hash_seed(hash_seed):
    # the labels outside the action's home form a set of strings, whose
    # iteration order follows the interpreter's string hash seed
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _TWO_LABEL_ESCAPE], capture_output=True,
                         text=True, env=env, timeout=60, check=True)
    assert out.stdout.strip() == "['both touched pv', 'both touched sp']"


def test_bad_split_directive_is_a_scenario_error():
    root = pv.initial_state(Heap({Loc(1): 0}))
    bad_split = split_take({pv.LB: Heap({Loc(999): 5})})
    prog = par_chain([const(()), const(())], [bad_split])
    sc = Scenario("bad-split", pv.concurroid(), root, prog)
    with pytest.raises((SchedulerError, ValueError)):
        explore(sc, step_bound=5, loop_bound=3)


def test_fork_join_roundtrip_through_the_tree():
    """After a fork, sibling views recombine to the parent's; checked live
    by the scheduler at every collapse, asserted here on a run."""
    sc = counting_scenario(3, 1)
    rep = explore(sc, step_bound=10, loop_bound=3)
    assert rep.verdict == "pass"
    [final] = [c for c in rep.finals]
    [leaf] = final.threads
    assert final.forks == ()
    assert leaf.self_["pv"] == Heap(
        {Loc(100): 1, Loc(200): 1, Loc(300): 1}
    )


def test_hide_with_trivial_body_restores_the_state():
    from histrio.program import HideN
    from histrio.scenarios import make_treiber_phi

    contents = ("b",)
    root = pv.initial_state(tb.layout(contents))
    phi = make_treiber_phi(contents)
    sc = Scenario("hide-nop", pv.concurroid(), root, HideN(phi, const(42)))
    rep = explore(sc, step_bound=5, loop_bound=3)
    assert rep.verdict == "pass"
    [final] = list(rep.finals)
    [leaf] = final.threads
    assert leaf.result == 42
    assert leaf.self_[pv.LB] == tb.layout(contents)
    assert set(final.joint.keys()) == {pv.LB}


def test_hide_entry_requires_the_erased_heap():
    from histrio.program import HideN
    from histrio.scenarios import make_treiber_phi

    phi = make_treiber_phi(("b",))
    sc = Scenario("hide-missing", pv.concurroid(), pv.initial_state(),
                  HideN(phi, const(0)))
    with pytest.raises(SchedulerError):
        explore(sc, step_bound=5, loop_bound=3)


def test_seq_recovery_runs_alone():
    rep = explore(seq_recovery_scenario(("b", "c"), "a"), step_bound=20, loop_bound=3)
    assert rep.verdict == "pass"
    assert rep.complete == 1


def _shrink_scenario():
    """A step that resets its self history to the initial one."""
    def shrink_build(env):
        def step(w, ctx):
            return (
                SubjState(w.self_.set(sp.LB, Hist(sp.SNAPSHOT)), w.joint, w.other),
                (),
                ctx,
            )

        return AtomicAction("shrink", sp.HOME, lambda w: True, step, "id", Skip())

    return Scenario("shrink", sp.concurroid(), sp.initial_state(),
                    do((None, ActN(shrink_build, "shrink")), ret=const(())))


def test_history_growth_check_catches_shrinking_histories():
    rep = explore(_shrink_scenario(), step_bound=5, loop_bound=3)
    assert rep.verdict == "violation"
    assert any(v.check == "history-growth" for v in rep.violations)


def test_zero_budget_random_run_is_an_empty_inconclusive_trace():
    t = run_random(treiber_scenario(), 3, 0, 3)
    assert t.events == [] and t.verdict == "inconclusive"


def test_deep_runs_do_not_exhaust_the_recursion_limit():
    # one step per frame of the explorer's own stack, not of Python's
    rep = explore(counting_scenario(1, 1200), step_bound=1300, loop_bound=3)
    assert rep.complete == 1


def test_inconclusive_paths_are_split_by_cause():
    cut = explore(counting_scenario(2, 2), step_bound=1, loop_bound=3)
    assert (cut.inconclusive_step_bound, cut.inconclusive_loop_bound) == (2, 0)
    spin = Scenario("spin", pv.concurroid(), pv.initial_state(), LoopN(RETRY))
    stuck = explore(spin, step_bound=10, loop_bound=1)
    assert (stuck.inconclusive_step_bound, stuck.inconclusive_loop_bound) == (0, 1)
    for rep in (cut, stuck):
        d = rep.as_dict()
        assert (d["stats"]["inconclusive_step_bound"]
                + d["stats"]["inconclusive_loop_bound"]) == d["inconclusive_count"]


def reference_explore(scenario, step_bound, loop_bound):
    """Every interleaving walked one by one, with no memo of configurations
    and every dict and set of the context emptied before each step (every
    step runs its action and checks, and every reduction runs), each step
    finished by ``normalize``'s scan of the threads rather than its one splice:
    the complete, inconclusive and violating path counts and the distinct
    final states."""
    ctx = _Ctx(scenario, loop_bound)
    counts = {"complete": 0, "inconclusive": 0, "violating": 0}
    finals = set()

    def scanned(cfg, ctx, stepped=None):
        # the stop leaf spliced into its slot, and every thread scanned
        if stepped is not None:
            stop, joint, next_loc = stepped
            threads = tuple(stop if l.tid == stop.tid else l for l in cfg.threads)
            cfg = Config(threads, cfg.forks, joint, cfg.root_other, cfg.conc,
                         next_loc, cfg.next_tid)
        return normalize(cfg, ctx)

    def walk(cfg, used):
        ready = ready_leaves(cfg)
        if not ready:
            done = len(cfg.threads) == 1 and cfg.threads[0].status == DONE
            if done and scenario.final_oracle is not None and list(
                    scenario.final_oracle(cfg, cfg.threads[0].result)):
                counts["violating"] += 1
            elif done:
                counts["complete"] += 1
                finals.add(cfg)
            else:
                counts["inconclusive"] += 1
            return
        if used == step_bound:
            counts["inconclusive"] += 1
            return
        for leaf in ready:
            for memo in vars(ctx).values():
                if isinstance(memo, (dict, set)):
                    memo.clear()
            outcome = step_action(cfg, leaf, ctx)
            if outcome is None:
                counts["violating"] += 1
                continue
            nxt, event = outcome
            assert event is not None  # with no memo, every step runs its action
            walk(nxt, used + 1)
            ctx.path.pop()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scheduler, "normalize", scanned)
        walk(normalize(initial_config(scenario), ctx), 0)
    return counts, finals


def _racing_counters():
    """Two counting threads; a step invariant rejects the paths on which the
    second runs two writes ahead of the first, at varying depths."""
    sc = counting_scenario(2, 3)

    def second_not_ahead(w, w2):
        h = flatten(w2)
        return "second writer ran ahead" if h[Loc(200)] > h[Loc(100)] + 1 else None

    sc.step_invariants.append(second_not_ahead)
    return sc


# step bounds below a scenario's longest path cut some paths; the others
# let every path end on its own
@pytest.mark.parametrize("build,step_bounds", [
    (lambda: counting_scenario(2, 2), (1, 2, 40)),
    (_racing_counters, (3, 40)),
    (lambda: treiber_scenario(pushers=1, elems=("a",)), (6, 40)),
    (treiber_scenario, (8,)),
    (lambda: pair_snapshot_scenario(writers=2), (10, 40)),
    (lambda: flat_combiner_scenario(2), (10, 13)),
], ids=["counting", "racing", "treiber-1", "treiber", "pair-snapshot", "flat-combiner"])
@pytest.mark.parametrize("loop_bound", [1, 2, 3])
def test_the_memo_matches_a_memo_free_walk(build, step_bounds, loop_bound):
    for step_bound in step_bounds:
        sc = build()
        counts, finals = reference_explore(sc, step_bound, loop_bound)
        rep = explore(sc, step_bound, loop_bound)
        assert (rep.complete, rep.inconclusive, rep.violating) == (
            counts["complete"], counts["inconclusive"], counts["violating"]), step_bound
        assert rep.finals == finals


def test_each_producer_consumer_configuration_is_expanded_once():
    rep = explore(producer_consumer_scenario(3), step_bound=60, loop_bound=3)
    assert rep.nodes == 733
    assert (rep.complete, rep.inconclusive) == (102_513_159, 109_424_105)
    assert rep.inconclusive_loop_bound == rep.inconclusive


def test_subtrees_cut_by_the_step_bound_are_remembered_per_budget():
    # a configuration reached at several depths, with paths cut below it,
    # is expanded once per budget, never twice at the same budget: a memo
    # keyed on (configuration, depth) expands 2,733 nodes here, and one
    # that replaced each configuration's entry at a new budget 3,240
    rep = explore(producer_consumer_scenario(3), step_bound=30, loop_bound=3)
    assert rep.nodes == 2_377
    assert (rep.complete, rep.inconclusive_step_bound, rep.inconclusive_loop_bound) == (
        399_754, 41_470_730, 2_658_530)


def test_configurations_holding_a_heap_or_a_plain_map_are_distinct_memo_keys():
    conc = pv.concurroid()
    threads = (Leaf(0, None, FrozenMap(), (), FrozenMap()),)
    heap = Config(threads, (), FrozenMap({"pv": Heap({Loc(1): 0})}), FrozenMap(), conc, 2, 1)
    plain = Config(threads, (), FrozenMap({"pv": FrozenMap({Loc(1): 0})}), FrozenMap(),
                   conc, 2, 1)
    assert heap != plain
    assert len({heap: "heap", plain: "plain"}) == 2


def test_each_move_the_memo_does_not_remember_runs_its_action_once(monkeypatch):
    # of 14,135 edges, 3,733 are moves the memo does not remember: each of
    # those runs its action once, the others none, and the counts are those
    # of a walk that runs every step
    calls = []
    run_atomic = scheduler.run_atomic

    def counted(*args):
        calls.append(None)
        return run_atomic(*args)

    monkeypatch.setattr(scheduler, "run_atomic", counted)
    rep = explore(flat_combiner_scenario(3), step_bound=120, loop_bound=1)
    assert (rep.edges, len(calls)) == (14_135, 3_733)
    assert rep.as_dict()["stats"]["steps_run"] == 3_733
    assert rep.nodes == 7_371
    assert (rep.complete, rep.inconclusive, rep.violating) == (5_615_517, 9_132_415, 0)
    assert len(rep.finals) == 6


def _count_fact_bodies(monkeypatch) -> dict:
    """Record the input of each run of the bodies of ``fc.parse_fc``,
    ``fc._coherent_parse``, ``fc.total_aux`` and ``tb.parse_stack``, and
    whether a fact table was installed when ``parse_fc``'s ran."""
    calls = {"parse_fc": [], "coherent_parse": [], "total_aux": [], "parse_stack": [],
             "tables": set()}
    parse_fc, coherent_parse, parse_stack = fc._parse_fc, fc._coherent_parse, tb._parse_stack
    total_aux = fc._total_aux

    def counted_parse_fc(shape, jv):
        calls["parse_fc"].append((shape.n, jv))
        calls["tables"].add(state._FACTS.get() is not None)
        return parse_fc(shape, jv)

    def counted_coherent_parse(s, jv, o, shape):
        calls["coherent_parse"].append((shape.n, s, jv, o))
        return coherent_parse(s, jv, o, shape)

    def counted_total_aux(shape, s, jv, o, gp):
        calls["total_aux"].append((shape.n, s, jv, o))
        return total_aux(shape, s, jv, o, gp)

    def counted_parse_stack(jh, snt):
        calls["parse_stack"].append((jh, snt))
        return parse_stack(jh, snt)

    monkeypatch.setattr(fc, "_parse_fc", counted_parse_fc)
    monkeypatch.setattr(fc, "_coherent_parse", counted_coherent_parse)
    monkeypatch.setattr(fc, "_total_aux", counted_total_aux)
    monkeypatch.setattr(tb, "_parse_stack", counted_parse_stack)
    return calls


def test_each_structure_fact_is_decided_once_per_run(monkeypatch):
    # one exploration parses 195 distinct joints, decides the coherence of
    # 806 distinct states, joins 592 distinct cumulative contributions and
    # walks 16 distinct stacks, each once
    calls = _count_fact_bodies(monkeypatch)
    rep = explore(flat_combiner_scenario(3), step_bound=120, loop_bound=1)
    counts = {k: (len(calls[k]), len(set(calls[k])))
              for k in ("parse_fc", "coherent_parse", "total_aux", "parse_stack")}
    assert counts == {"parse_fc": (195, 195), "coherent_parse": (806, 806),
                      "total_aux": (592, 592), "parse_stack": (16, 16)}
    assert (rep.nodes, rep.edges, rep.steps_run) == (7_371, 14_135, 3_733)


def test_no_fact_outlives_its_run(monkeypatch):
    calls = _count_fact_bodies(monkeypatch)

    def taken() -> tuple:
        out = tuple(len(calls[k])
                    for k in ("parse_fc", "coherent_parse", "total_aux", "parse_stack"))
        for k in calls:
            calls[k].clear()
        return out

    # the same scenario object, explored twice, decides every fact again
    sc = flat_combiner_scenario(2)
    first = explore(sc, step_bound=120, loop_bound=1)
    once = taken()
    again = explore(sc, step_bound=120, loop_bound=1)
    assert taken() == once and min(once) > 0
    assert again.as_dict() == first.as_dict()
    # the first random run normalizes the start and remembers it; a later
    # run and a replay of its schedule decide the same facts, each its own
    run_random(sc, 3, 120, 1)
    cold = taken()
    trace = run_random(sc, 3, 120, 1)
    drawn = taken()
    assert run_replay(sc, trace.schedule, 1).verdict == trace.verdict
    assert taken() == drawn and min(drawn) > 0
    # a fresh scenario object decides its start's facts again
    assert run_random(flat_combiner_scenario(2), 3, 120, 1).schedule == trace.schedule
    assert taken() == cold != drawn
    # the obligation suites run outside any run: no table, every call computes
    rng = random.Random(0)
    conc = fc.concurroid(fc.stack_shape(3))
    assert all(rep.ok for rep in check_concurroid(conc, 5, rng))
    for fam in fc.action_families():
        assert all(rep.ok for rep in check_action_properties(fam, 5, rng))
    assert calls["parse_fc"] and calls["tables"] == {False}
    assert state._FACTS.get() is None


# the scenarios of the benchmark's seeded runs, each with a step bound
# that cuts no path of its exploration at loop bound 1
SEEDED = {
    "pair-snapshot": (lambda: pair_snapshot_scenario(2), 40),
    "treiber": (treiber_scenario, 60),
    "producer-consumer": (lambda: producer_consumer_scenario(3), 60),
    "flat-combiner": (lambda: flat_combiner_scenario(3), 120),
    "seq-recovery": (seq_recovery_scenario, 20),
}


@pytest.mark.parametrize("name", list(SEEDED)[:4])  # seq-recovery only hides
def test_random_runs_fork_the_start_once_per_loop_bound(name, monkeypatch):
    forks = []
    fork = scheduler._fork

    def counted(*args):
        forks.append(None)
        return fork(*args)

    monkeypatch.setattr(scheduler, "_fork", counted)
    sc = SEEDED[name][0]()
    first = run_random(sc, 0, 250, 3)
    assert forks
    at_start = len(forks)
    forks.clear()
    for seed in (0, 1, 2):
        run_replay(sc, run_random(sc, seed, 250, 3).schedule, 3)
    run_replay(sc, first.schedule, 3)
    assert forks == []
    run_random(sc, 0, 250, 2)
    assert len(forks) == at_start
    assert sorted(sc.starts) == [2, 3]


@pytest.mark.parametrize("name", SEEDED)
def test_a_reused_scenario_runs_as_a_fresh_one(name):
    build = SEEDED[name][0]
    reused = build()
    for seed in range(20):
        fresh = build()
        runs = []
        for sc in (reused, fresh):
            trace = run_random(sc, seed, 250, 3)
            replay = run_replay(sc, trace.schedule, 3)
            assert compare_erased_trace(sc, trace) is None
            assert compare_erased_trace(sc, replay) is None
            runs.append((trace.as_dict(), replay.as_dict()))
        assert runs[0] == runs[1]


@pytest.mark.parametrize("name", SEEDED)
def test_explore_normalizes_its_own_start(name):
    # its stats count the start's local runs and joins, whatever ran before
    build, step_bound = SEEDED[name]
    sc = build()
    before = explore(sc, step_bound, 1).as_dict()
    for seed in range(3):
        run_replay(sc, run_random(sc, seed, 250, 1).schedule, 1)
    assert explore(sc, step_bound, 1).as_dict() == before


@pytest.mark.parametrize("loop_bound", [0, -3])
def test_a_loop_bound_below_one_is_refused(loop_bound):
    sc = treiber_scenario()
    with pytest.raises(ValueError, match="loop bound"):
        explore(sc, 60, loop_bound)
    with pytest.raises(ValueError, match="loop bound"):
        run_random(sc, 1, 60, loop_bound)
    with pytest.raises(ValueError, match="loop bound"):
        run_replay(sc, (), loop_bound)


def test_each_distinct_transition_is_checked_once(monkeypatch):
    # the 3,733 steps that run make 1,880 distinct transitions, each
    # checked once; the counts are those of every step checked
    calls = []
    check_step = scheduler._check_step

    def counted(*args):
        calls.append(None)
        return check_step(*args)

    monkeypatch.setattr(scheduler, "_check_step", counted)
    rep = explore(flat_combiner_scenario(3), step_bound=120, loop_bound=1)
    assert len(calls) == 1_880
    assert rep.as_dict()["stats"]["transitions_checked"] == 1_880
    assert (rep.nodes, rep.edges, rep.steps_run) == (7_371, 14_135, 3_733)
    assert (rep.complete, rep.inconclusive, rep.violating) == (5_615_517, 9_132_415, 0)
    assert len(rep.finals) == 6


def test_random_runs_and_replays_check_every_step():
    # seed 2's run of 14 steps makes 12 distinct transitions: with no
    # transition memo, the two that recur are checked again, so a step
    # invariant sees every event; explore still skips a transition that
    # passed
    def counted_scenario():
        sc, calls = treiber_scenario(), []
        sc.step_invariants.append(lambda w, w2: calls.append(None))
        return sc, calls

    sc, calls = counted_scenario()
    t = run_random(sc, 2, 60, 3)
    assert t.verdict == "pass" and len(t.events) == 14
    assert len({(e.transition, e.before, e.after) for e in t.events}) == 12
    assert len(calls) == 14
    sc, calls = counted_scenario()
    r = run_replay(sc, t.schedule, 3)
    assert r.verdict == "pass" and len(calls) == len(r.events) == 14
    sc, calls = counted_scenario()
    rep = explore(sc, step_bound=60, loop_bound=3)
    assert len(calls) == rep.transitions_checked < rep.steps_run


def _written_scenario():
    """Thread 0 writes cell 100, which a step invariant forbids, and thread
    1 reads cell 200."""
    root = pv.initial_state(Heap({Loc(100): 0, Loc(200): 0}))
    prog = par_chain([ActN(lambda env: pv.write(Loc(100), 1), "w"),
                      ActN(lambda env: pv.read(Loc(200)), "r")],
                     [split_take({pv.LB: Heap({Loc(100): 0})})])

    def unwritten(w, w2):
        return "first cell written" if flatten(w2)[Loc(100)] == 1 else None

    return Scenario("written", pv.concurroid(), root, prog, step_invariants=[unwritten])


def test_a_failing_transition_is_reported_on_every_path_that_takes_it():
    # thread 0's write makes the same transition before and after thread
    # 1's read, which changes no state, from two distinct configurations
    rep = explore(_written_scenario(), step_bound=5, loop_bound=3)
    assert [(v.check, v.thread, v.schedule) for v in rep.violations] == [
        ("invariant", 0, (0,)), ("invariant", 0, (1, 0))]
    assert (rep.violating, rep.complete) == (2, 0)
    assert (rep.steps_run, rep.transitions_checked) == (3, 3)


def test_a_failing_spec_post_is_reported_on_every_path_that_takes_its_step():
    # thread 0's write, with the run after it that ends its method, is one
    # move before and after thread 1's read, which changes no state: a move
    # whose run failed a spec post is not remembered, so its step runs again
    root = pv.initial_state(Heap({Loc(100): 0, Loc(200): 0}))

    def unwritten(caps, w, result):
        return "first cell written" if flatten(w)[Loc(100)] == 1 else None

    spec = MethodSpec("unwritten", lambda w, env: FrozenMap(), unwritten)
    prog = par_chain([SpecedN(spec, ActN(lambda env: pv.write(Loc(100), 1), "w")),
                      ActN(lambda env: pv.read(Loc(200)), "r")],
                     [split_take({pv.LB: Heap({Loc(100): 0})})])
    rep = explore(Scenario("unwritten", pv.concurroid(), root, prog),
                  step_bound=5, loop_bound=3)
    assert [(v.check, v.thread, v.step, v.schedule) for v in rep.violations] == [
        ("spec:unwritten", 0, 1, (0,)), ("spec:unwritten", 0, 2, (1, 0))]
    assert (rep.violating, rep.complete) == (2, 0)
    assert rep.steps_run == 3


def _count_spec_posts(node, calls, seen=None):
    """Wrap the post of every method spec in the program to count its calls."""
    seen = set() if seen is None else seen
    if id(node) in seen:
        return
    seen.add(id(node))
    if isinstance(node, SpecedN):
        post = node.spec.post

        def counted(*args, post=post):
            calls.append(None)
            return post(*args)

        node.spec.post = counted
    for cls in type(node).__mro__:
        for slot in getattr(cls, "__slots__", ()):
            child = getattr(node, slot, None)
            if isinstance(child, Node):
                _count_spec_posts(child, calls, seen)


def test_each_move_is_driven_once(monkeypatch):
    # 3,774 local runs from 14,135 edges: the run after a step, with its
    # spec captures and posts, is driven once per move, a join with the run
    # after it once per fork, self maps and results, joint map and joined
    # environment (36 of them), and only a run after a fork or hide on each
    # visit; re-running every move and join takes 4,691 posts and 1,406
    # joins
    joins = []
    subjective_join = scheduler.subjective_join

    def counted(*args):
        joins.append(None)
        return subjective_join(*args)

    monkeypatch.setattr(scheduler, "subjective_join", counted)
    sc = flat_combiner_scenario(3)
    posts = []
    _count_spec_posts(sc.program, posts)
    rep = explore(sc, step_bound=120, loop_bound=1)
    assert rep.as_dict()["stats"]["local_runs"] == 3_774
    assert (len(posts), len(joins)) == (1_126, 36)
    assert (rep.nodes, rep.edges, rep.steps_run) == (7_371, 14_135, 3_733)
    assert (rep.complete, rep.inconclusive, rep.violating) == (5_615_517, 9_132_415, 0)
    assert len(rep.finals) == 6


def test_a_join_drives_its_run_once_per_join_computed(monkeypatch):
    # of 1,406 joins taken, 36 are computed, one per distinct fork, pair
    # of self maps and results, joint map and joined environment: each
    # computed join drives the run after it, and a remembered one splices
    # the leaf where that run stopped, driving nothing
    taken, computed, runs = [], [], []
    joining = []
    try_collapse, drive = scheduler._try_collapse, scheduler._drive
    subjective_join = scheduler.subjective_join

    def counted_collapse(cfg, ctx):
        joining.append(None)
        try:
            out = try_collapse(cfg, ctx)
        finally:
            joining.pop()
        if out is not None:
            taken.append(None)
        return out

    def counted_drive(*args):
        if joining:
            runs.append(None)
        return drive(*args)

    def counted_join(*args):
        computed.append(None)
        return subjective_join(*args)

    monkeypatch.setattr(scheduler, "_try_collapse", counted_collapse)
    monkeypatch.setattr(scheduler, "_drive", counted_drive)
    monkeypatch.setattr(scheduler, "subjective_join", counted_join)
    rep = explore(flat_combiner_scenario(3), step_bound=120, loop_bound=1)
    assert (len(taken), len(computed), len(runs)) == (1_406, 36, 36)
    assert (rep.nodes, rep.edges, rep.local_runs) == (7_371, 14_135, 3_774)
    assert rep.as_dict()["stats"]["joins_computed"] == 36


def _shipped_explorations():
    from test_golden_reports import naive_reader_scenario

    return [(pair_snapshot_scenario(2), 40, 3), (treiber_scenario(2), 60, 3),
            (producer_consumer_scenario(3), 60, 3), (flat_combiner_scenario(3), 120, 1),
            (seq_recovery_scenario(), 30, 3), (naive_reader_scenario(), 40, 3)]


def _structural_kind(leaf) -> str:
    if isinstance(leaf.node, ParN):
        return "fork"
    if isinstance(leaf.node, HideN):
        return "hide"
    if leaf.node is not None:
        return type(leaf.node).__name__
    if not leaf.kont:
        return "finished"
    return "hide exit" if isinstance(leaf.kont[-1], HideK) else type(leaf.kont[-1]).__name__


def test_only_forks_and_hides_are_restructured(monkeypatch):
    # a run marks a thread finished or stuck where it stops, so the
    # structural step is handed only a fork, a hide or the end of a hide
    handed = []
    restructure = scheduler._restructure

    def recorded(cfg, leaf, ctx):
        handed.append(leaf)
        return restructure(cfg, leaf, ctx)

    monkeypatch.setattr(scheduler, "_restructure", recorded)
    for sc, step_bound, loop_bound in _shipped_explorations():
        handed.clear()
        explore(sc, step_bound, loop_bound)
        kinds = Counter(_structural_kind(leaf) for leaf in handed)
        assert set(kinds) <= {"fork", "hide", "hide exit"}, (sc.name, kinds)
        assert kinds, sc.name


def _join_inputs(cfg):
    """What a join of ``cfg``'s next pair of finished threads reads: their
    fork, self maps and results, the joint map and the joined thread's
    environment, the root map joined with every other thread's self map."""
    i, k = scheduler._done_pair(cfg)
    left, right = cfg.threads[i], cfg.threads[i + 1]
    other = cfg.root_other
    for leaf in cfg.threads[:i] + cfg.threads[i + 2:]:
        other = map_pointwise_join(leaf.self_, other)
    return (cfg.forks[k], left.self_, left.result, right.self_, right.result,
            cfg.joint, other)


def test_each_join_is_computed_once_per_distinct_input(monkeypatch):
    # a join reads its fork, both threads' self maps and results, the joint
    # map and the joined thread's environment; a memo keyed on the whole
    # finished threads and their views computes 384 joins of these 36
    # distinct inputs in flat-combiner with 3 threads
    inputs, computed = [], []
    try_collapse, subjective_join = scheduler._try_collapse, scheduler.subjective_join

    def recorded_collapse(cfg, ctx):
        if scheduler._done_pair(cfg) is not None:
            inputs.append(_join_inputs(cfg))
        return try_collapse(cfg, ctx)

    def counted_join(*args):
        computed.append(None)
        return subjective_join(*args)

    monkeypatch.setattr(scheduler, "_try_collapse", recorded_collapse)
    monkeypatch.setattr(scheduler, "subjective_join", counted_join)
    for sc, step_bound, loop_bound in _shipped_explorations():
        inputs.clear()
        computed.clear()
        rep = explore(sc, step_bound, loop_bound)
        assert len(computed) == rep.joins_computed == len(set(inputs)), sc.name
        if sc.name == "flat-combiner":
            assert (len(inputs), len(computed)) == (1_406, 36)


class _Forgetful:
    """A join memo that remembers nothing."""

    def get(self, key):
        return None

    def __setitem__(self, key, value):
        pass


def _found(rep):
    from test_golden_reports import render_config

    return (rep.verdict, rep.complete, rep.inconclusive_step_bound,
            rep.inconclusive_loop_bound, rep.violating, rep.nodes, rep.edges,
            [v.as_dict() for v in rep.violations],
            sorted(render_config(c) for c in rep.finals))


def test_remembered_joins_find_what_computed_ones_find(monkeypatch):
    # with every join computed again, each exploration finds the same
    # verdict, path counts, nodes, edges, violations and final states
    remembered = [_found(explore(*args)) for args in _shipped_explorations()]
    init = _Ctx.__init__

    def forgetful_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.joins = _Forgetful()

    monkeypatch.setattr(_Ctx, "__init__", forgetful_init)
    reps = [explore(*args) for args in _shipped_explorations()]
    assert [_found(rep) for rep in reps] == remembered
    assert reps[3].scenario == "flat-combiner" and reps[3].joins_computed == 1_406


class _ForgetfulFacts(dict):
    """A fact table that keeps nothing."""

    def __setitem__(self, key, value):
        pass


def _seeded_outcomes() -> list:
    """The random runs at seeds 0-19 of the five scenarios of the benchmark's
    seeded runs, each with its replay: verdicts, schedules, events (results
    and states included), violation reports and final configurations."""
    from test_golden_reports import render_config

    out = []
    for sc in (pair_snapshot_scenario(2), treiber_scenario(), producer_consumer_scenario(3),
               flat_combiner_scenario(3), seq_recovery_scenario()):
        for seed in range(20):
            trace = run_random(sc, seed, 250, 3)
            replay = run_replay(sc, trace.schedule, 3)
            out.append((trace.as_dict(), render_config(trace.final), replay.as_dict()))
    return out


def test_facts_change_no_outcome(monkeypatch):
    # with a fact table that keeps nothing, every coherence and parse is
    # decided afresh and every post-state is flattened from its own cells:
    # runs, replays and explorations find what they find with facts, so
    # no cells taken from a fact stand in for different cells
    runs = _seeded_outcomes()
    explored = [_found(explore(*args)) for args in _shipped_explorations()]

    @contextmanager
    def forgetful_table():
        token = state._FACTS.set(_ForgetfulFacts())
        try:
            yield
        finally:
            state._FACTS.reset(token)

    monkeypatch.setattr(scheduler, "fact_table", forgetful_table)
    assert _seeded_outcomes() == runs
    assert [_found(explore(*args)) for args in _shipped_explorations()] == explored


def test_a_checked_step_validates_nothing_and_walks_only_the_parts_the_table_missed(
        monkeypatch):
    # the post-state's validity is decided with its coherence in one pass
    # over its labels: a checked step calls no validate, and its coherence
    # walks a part's heaps only where the run's table holds no cells for the
    # part, and keeps them there, so no part is walked twice in a run
    counts = Counter()
    walked = []
    scope = []
    check_step, coherent = scheduler._check_step, Concurroid.coherent
    union, recall = state._union, state.recall

    def scoped(name, f):
        def wrapped(*args):
            scope.append(name)
            try:
                return f(*args)
            finally:
                scope.pop()
        return wrapped

    def in_step_coherence() -> bool:
        return scope[-1:] == ["coherence"] and "step" in scope

    def counted_check(*args):
        counts["checked"] += 1
        return scoped("step", check_step)(*args)

    def counted_validate(validate):
        def wrapped(w):
            counts["validate in step"] += "step" in scope
            return validate(w)
        return wrapped

    def counted_union(values):
        if in_step_coherence():
            walked.append(tuple(values))
        return union(values)

    def counted_recall(key, compute, *args):
        counts["parts judged"] += in_step_coherence() and compute is state._decide
        return recall(key, compute, *args)

    monkeypatch.setattr(scheduler, "_check_step", counted_check)
    monkeypatch.setattr(Concurroid, "coherent", scoped("coherence", coherent))
    monkeypatch.setattr(state, "_union", counted_union)
    monkeypatch.setattr(state, "recall", counted_recall)
    for module in (scheduler, state, concurroid, actions):
        if hasattr(module, "validate"):
            monkeypatch.setattr(module, "validate", counted_validate(module.validate))
    rep = explore(pair_snapshot_scenario(2), step_bound=40, loop_bound=3)
    walks = len(walked)
    trace = run_random(flat_combiner_scenario(3), 0, 250, 3)
    assert counts["checked"] == rep.transitions_checked + len(trace.events) > 0
    assert counts["validate in step"] == 0
    assert 0 < walks < len(walked) < counts["parts judged"]
    assert len(set(walked[:walks])) == walks and len(set(walked[walks:])) == len(walked) - walks


def test_a_failed_join_hands_its_check_the_joined_threads_environment(monkeypatch):
    # where two sibling views do not join, the view the scenario's join
    # check is handed has the joined thread's environment, the first
    # sibling's minus the second's self map, not the root's
    from test_golden_reports import naive_reader_scenario

    def refused(c1, c2):
        raise state.StateError("join refused")

    seen = []
    sc = naive_reader_scenario()
    sc.on_join = lambda c1, c2, joined: seen.append((c1, c2, joined)) or []
    monkeypatch.setattr(scheduler, "subjective_join", refused)
    rep = explore(sc, step_bound=40, loop_bound=3)
    assert rep.verdict == "violation" and {v.check for v in rep.violations} == {"join"}
    c1, c2, joined = seen[0]
    assert joined.other == map_subtract(c1.other, c2.self_) != sc.root.other
    for c1, c2, joined in seen:
        assert joined.other == map_subtract(c1.other, c2.self_)
        assert joined.other == map_subtract(c2.other, c1.self_)


def test_the_move_memo_holds_one_object_per_distinct_leaf(monkeypatch):
    ctxs = []
    step = scheduler.step_action

    def captured(cfg, leaf, ctx):
        ctxs.append(ctx)
        return step(cfg, leaf, ctx)

    monkeypatch.setattr(scheduler, "step_action", captured)
    rep = explore(flat_combiner_scenario(2), step_bound=120, loop_bound=3)
    assert rep.verdict == "pass" and rep.complete == 175_040
    moves = ctxs[0].moves
    # a step with its run keys on (leaf, joint, other, id(conc), next_loc)
    # and holds (stop leaf, joint, next_loc, path entry)
    assert {len(key) for key in moves} == {5}
    held = [key[0] for key in moves] + [hit[0] for hit in moves.values()]
    assert len(held) > len(set(held)) > 100
    assert len({id(leaf) for leaf in held}) == len(set(held))


def test_final_oracles_run_once_per_distinct_final_configuration():
    # every finished configuration is remembered on its first visit, so its
    # oracles never run again however many paths reach it
    sc = treiber_scenario()
    oracle, calls = sc.final_oracle, []

    def counted(cfg, result):
        calls.append(cfg)
        return oracle(cfg, result)

    sc.final_oracle = counted
    rep = explore(sc, step_bound=60, loop_bound=3)
    assert rep.verdict == "pass" and rep.complete == 3_198
    assert len(calls) == len(rep.finals) == 12


def _nested_forks(late: bool) -> Scenario:
    """Four threads under ``ParN(ParN(a, b), ParN(c, d))``, each writing
    its own cell twice, with a step invariant that fails where the fourth
    cell runs two writes ahead of the first.  Thread ids follow the forks:
    ``a`` keeps 0 and ``c`` gets 1.  Then ``b`` gets 2 and ``d`` 3, so the
    threads are ``a b c d`` = ``0 2 1 3`` left to right.  With ``late``,
    the left pair forks only after a write of its own, once its right
    sibling has forked: ``d`` gets 2 and ``b`` 3, so ``0 3 1 2``.  In both,
    tree order differs from tid order."""
    cells = [Loc(100), Loc(200), Loc(300), Loc(400)]

    def writes(loc):
        prog = const(loc.n)
        for s in (2, 1):
            prog = do((None, ActN(lambda env, loc=loc, s=s: pv.write(loc, s), "w")), ret=prog)
        return prog

    def take(*locs):
        return split_take({pv.LB: Heap({loc: 0 for loc in locs})})

    a, b, c, d = (writes(loc) for loc in cells)
    left = ParN(a, b, take(cells[0]))
    if late:
        left = do((None, ActN(lambda env: pv.write(cells[0], 0), "w0")), ret=left)
    program = ParN(left, ParN(c, d, take(cells[2])), take(cells[0], cells[1]))
    sc = Scenario("nested-forks", pv.concurroid(),
                  pv.initial_state(Heap({loc: 0 for loc in cells})), program)

    def fourth_not_ahead(w, w2):
        h = flatten(w2)
        return "fourth ran ahead" if h[Loc(400)] > h[Loc(100)] + 1 else None

    sc.step_invariants.append(fourth_not_ahead)
    return sc


# (nodes, edges, complete, inconclusive, violating paths), the violations'
# schedules in report order, and a random run's (seed 2, 6 steps) schedule
# and its final threads left to right; recorded on the fork tree
NESTED_FORKS = {
    False: (
        (72, 195, 2100, 0, 71),
        [(1, 1, 2, 2, 3, 3), (1, 1, 2, 3, 3), (1, 1, 3, 3), (1, 2, 2, 3, 3), (1, 2, 3, 3),
         (1, 3, 3), (2, 2, 3, 3), (2, 3, 3), (3, 3)],
        (0, 0, 1, 2, 1, 3), [(0, DONE), (2, RUN), (1, DONE), (3, RUN)],
    ),
    True: (
        (78, 211, 3420, 0, 155),
        [(0, 1, 1, 2, 2), (0, 1, 1, 2, 3, 2), (0, 1, 1, 2, 3, 3, 2), (0, 1, 2, 2),
         (0, 1, 2, 3, 2), (0, 1, 2, 3, 3, 2), (0, 2, 2), (0, 2, 3, 2), (0, 2, 3, 3, 2),
         (1, 1, 2, 2), (1, 2, 2), (2, 2)],
        (0, 0, 0, 2, 1, 3), [(0, DONE), (3, RUN), (1, RUN), (2, RUN)],
    ),
}


@pytest.mark.parametrize("late", [False, True], ids=["both-fork-first", "left-forks-late"])
def test_forks_whose_thread_order_is_not_tid_order(late):
    counts, schedules, drawn, threads = NESTED_FORKS[late]
    rep = explore(_nested_forks(late), step_bound=40, loop_bound=3)
    assert (rep.nodes, rep.edges, rep.complete, rep.inconclusive, rep.violating) == counts
    assert [v.schedule for v in rep.violations] == schedules
    assert {v.check for v in rep.violations} == {"invariant"}
    [final] = rep.finals
    [leaf] = final.threads
    assert final.forks == ()
    assert render(leaf.result) == "((100, 200), (300, 400))"
    assert render(leaf.self_) == "{pv: {l100->2, l200->2, l300->2, l400->2}}"
    trace = run_random(_nested_forks(late), 2, 6, 3)
    assert trace.verdict == "inconclusive" and trace.schedule == drawn
    assert [(l.tid, l.status) for l in trace.final.threads] == threads
    with pytest.raises(ValueError):
        trace.final.tree


def test_collapsing_forks_leaves_no_reference_cycles():
    sc = treiber_scenario()
    gc.collect()
    gc.disable()
    try:
        explore(sc, step_bound=60, loop_bound=3)
        assert gc.collect() < 100
    finally:
        gc.enable()
