"""The acceptance gate: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import math
import random
import time

from histrio.actions import check_action_properties
from histrio.concurroid import check_concurroid
from histrio.erasure import compare_erased_trace
from histrio.native import stress
from histrio.pcm import (
    HEAP_PCM,
    IDSET_PCM,
    MUTEX_PCM,
    SNAPSHOT_HIST_PCM,
    STACK_HIST_PCM,
    TRIPLE_PCM,
    check_pcm_laws,
)
from histrio.scheduler import explore, run_random
from histrio.scenarios import (
    flat_combiner_scenario,
    pair_snapshot_scenario,
    producer_consumer_scenario,
    seq_recovery_scenario,
    treiber_scenario,
)
from histrio.structures import flatcombiner as fc
from histrio.structures import private_heap as pv
from histrio.structures import snapshot as sp
from histrio.structures import spinlock as lk
from histrio.structures import treiber as tb
from counting import counting_scenario


def _report(n, label, ok, t0, budget):
    elapsed = time.monotonic() - t0
    print(f"ACCEPT {n:>2} {label:<34} {'PASS' if ok else 'FAIL'} "
          f"({elapsed:.2f}s / budget {budget}s)")
    assert ok, f"criterion {n} failed"
    assert elapsed < budget, f"criterion {n} exceeded {budget}s ({elapsed:.1f}s)"


def test_criterion_01_pcm_laws():
    t0 = time.monotonic()
    rng = random.Random(1)
    ok = True
    for inst in (HEAP_PCM, STACK_HIST_PCM, SNAPSHOT_HIST_PCM, MUTEX_PCM,
                 IDSET_PCM, TRIPLE_PCM):
        rep = check_pcm_laws(inst, 1000, rng)
        ok = ok and rep.ok
        if inst is MUTEX_PCM:
            ok = ok and rep.samples == 8  # exhaustive over {Own, NotOwn}^3
    _report(1, "pcm laws @1000", ok, t0, 5)


def test_criterion_02_pair_snapshot():
    t0 = time.monotonic()
    rep = explore(pair_snapshot_scenario(writers=2), step_bound=40, loop_bound=3)
    ok = rep.verdict == "pass" and rep.complete > 0 and not rep.violations
    _report(2, f"pair snapshot ({rep.complete} interleavings)", ok, t0, 120)


def test_criterion_03_treiber():
    t0 = time.monotonic()
    rep = explore(treiber_scenario(pushers=2, elems=("a", "b")),
                  step_bound=60, loop_bound=3)
    ok = rep.verdict == "pass" and rep.complete > 0 and not rep.violations
    _report(3, f"treiber ({rep.complete} interleavings)", ok, t0, 120)


def test_criterion_04_producer_consumer():
    t0 = time.monotonic()
    rep = explore(producer_consumer_scenario(3), step_bound=60, loop_bound=3)
    ok = rep.verdict == "pass" and rep.complete > 0 and not rep.violations
    completed = 0
    for seed in range(100):
        trace = run_random(producer_consumer_scenario(3), seed, 200, 3)
        ok = ok and not trace.violations
        completed += trace.verdict == "pass"
    ok = ok and completed > 0
    _report(4, f"producer/consumer (+{completed}/100 random complete)", ok, t0, 180)


def test_criterion_05_flat_combiner():
    t0 = time.monotonic()
    rep = explore(flat_combiner_scenario(3), step_bound=120, loop_bound=3)
    ok = rep.verdict == "pass" and rep.complete > 0 and not rep.violations
    _report(5, f"flat combiner ({rep.complete} interleavings)", ok, t0, 300)


def test_criterion_06_sequential_recovery():
    t0 = time.monotonic()
    sc = seq_recovery_scenario(("b", "c"), "a")
    rep = explore(sc, step_bound=20, loop_bound=3)
    ok = rep.verdict == "pass" and rep.complete == 1
    if ok:
        [final] = list(rep.finals)
        parsed = tb.parse_stack(final.tree.self_[pv.LB])
        ok = parsed is not None and parsed[1] == ("a", "b", "c")
    _report(6, "sequential recovery (exact)", ok, t0, 1)


def test_criterion_07_metatheory_obligations():
    t0 = time.monotonic()
    ok = True
    rng = random.Random(7)
    for conc in (sp.concurroid(), pv.concurroid(), tb.concurroid(),
                 lk.concurroid(), fc.concurroid(fc.stack_shape(3))):
        for rep in check_concurroid(conc, 500, rng):
            ok = ok and rep.ok
    families = (sp.action_families() + pv.action_families()
                + tb.action_families() + lk.action_families()
                + fc.action_families())
    for fam in families:
        for rep in check_action_properties(fam, 500, random.Random(7)):
            ok = ok and rep.ok
    _report(7, f"metatheory @500 ({len(families)} actions)", ok, t0, 60)


def test_criterion_08_erasure_commutation():
    t0 = time.monotonic()
    builders = [
        lambda: pair_snapshot_scenario(2),
        treiber_scenario,
        lambda: producer_consumer_scenario(3),
        lambda: flat_combiner_scenario(3),
        seq_recovery_scenario,
    ]
    ok = True
    for builder in builders:
        for seed in range(50):
            sc = builder()
            msg = compare_erased_trace(sc, run_random(sc, seed, 250, 3))
            if msg is not None:
                print(f"  erasure (seed {seed}):", msg)
                ok = False
    _report(8, "erasure commutation (5x50 seeds)", ok, t0, 60)


def test_criterion_09_accounting_and_exactness():
    t0 = time.monotonic()
    rep = explore(counting_scenario(2, 2), step_bound=20, loop_bound=3)
    ok = rep.verdict == "pass" and rep.complete == 6
    rep = explore(counting_scenario(3, 2), step_bound=30, loop_bound=3)
    ok = ok and rep.complete == math.factorial(6) // 8  # 6!/(2!2!2!) = 90
    # fork/join round trips are validated live at every Par collapse; a
    # multi-fork scenario passing means every one of them held
    rep = explore(treiber_scenario(), step_bound=60, loop_bound=3)
    ok = ok and rep.verdict == "pass"
    _report(9, "accounting + exact counts", ok, t0, 10)


def test_criterion_10_native_stress():
    t0 = time.monotonic()
    rep = stress(threads=4, ops=1000, seed=20260810)
    ok = rep.verdict == "pass" and rep.committed >= 1000
    _report(10, f"native stress ({rep.committed} committed)", ok, t0, 30)
