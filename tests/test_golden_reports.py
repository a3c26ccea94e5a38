"""Golden reports: the verdicts, exact path counts, node and edge counts,
violation reports and final states of a fixed sweep of runs, compared by
digest with those recorded in ``golden_reports.json``.

The sweep explores every shipped scenario at loop bounds 1-3, each with a
step bound that cuts some paths and one that cuts none; the naive pair
reader of the benchmark's explore-bug workload at violation caps 1, 50 and
10^6; a counting scenario whose step invariant fails on some paths; and
seeded random runs of every shipped scenario; and the command line's reports
of the three sampled obligation suites, without their timing.  Work
counters (``steps_run``, ``local_runs``, ``joins_computed``,
``transitions_checked``) are left out: they say how much the explorer ran,
not what it found.  Final states are written with ``pcm.render``, since
``repr`` embeds addresses.

After a deliberate change of the reports, record new digests with
``PYTHONPATH=src python tests/test_golden_reports.py > tests/golden_reports.json``.
"""

import contextlib
import hashlib
import io
import json
import pathlib

import pytest

from histrio import cli
from histrio import program as pg
from histrio.pcm import Hist, render
from histrio.scenarios import (
    flat_combiner_scenario,
    pair_snapshot_scenario,
    par_chain,
    producer_consumer_scenario,
    seq_recovery_scenario,
    split_take,
    treiber_scenario,
)
from histrio.scheduler import Scenario, explore, run_random
from histrio.specs import read_pair_spec
from histrio.structures import snapshot as sp
from test_scheduler import _racing_counters as racing_counters

GOLDEN = pathlib.Path(__file__).with_name("golden_reports.json")

# name, builder, a step bound that cuts some paths, one that cuts none
SHIPPED = [
    ("seq-recovery", seq_recovery_scenario, 3, 20),
    ("pair-snapshot", lambda: pair_snapshot_scenario(writers=2), 6, 40),
    ("treiber", treiber_scenario, 8, 60),
    ("producer-consumer", lambda: producer_consumer_scenario(3), 20, 60),
    ("flat-combiner", lambda: flat_combiner_scenario(2), 13, 120),
]

# the scenarios of the benchmark's seeded-runs workload
RANDOM = [
    ("seq-recovery", seq_recovery_scenario),
    ("pair-snapshot", lambda: pair_snapshot_scenario(2)),
    ("treiber", treiber_scenario),
    ("producer-consumer", lambda: producer_consumer_scenario(3)),
    ("flat-combiner", lambda: flat_combiner_scenario(3)),
]


def naive_reader_scenario():
    """A reader of x then y with no version re-check, racing three writers."""
    body = pg.do(
        ("cx", pg.ActN(lambda env: sp.read_x(), "readX")),
        ("cy", pg.ActN(lambda env: sp.read_y(), "readY")),
        ret=pg.Ret(lambda env: (env["cx"][0], env["cy"][0])),
    )
    root = sp.initial_state("A", "C")
    programs = [pg.SpecedN(read_pair_spec(), body), sp.writer_program("B", "D"),
                sp.writer_program("E", "G"), sp.writer_program("F", "H")]
    splits = [split_take({sp.LB: Hist(sp.SNAPSHOT)}),
              split_take({sp.LB: root.self_[sp.LB]}), split_take({})]
    return Scenario("naive-reader", sp.concurroid(), root, par_chain(programs, splits))


def render_config(cfg) -> str:
    threads = tuple((l.tid, l.status, l.result, l.self_, l.env) for l in cfg.threads)
    return render((threads, cfg.joint, cfg.root_other, cfg.next_loc, cfg.next_tid))


def explored(build, step_bound, loop_bound, max_violations=50):
    rep = explore(build(), step_bound, loop_bound, max_violations)
    return {
        "verdict": rep.verdict,
        "complete": rep.complete,
        "inconclusive_step_bound": rep.inconclusive_step_bound,
        "inconclusive_loop_bound": rep.inconclusive_loop_bound,
        "violating": rep.violating,
        "nodes": rep.nodes,
        "edges": rep.edges,
        "violations": [v.as_dict() for v in rep.violations],
        "finals": sorted(render_config(c) for c in rep.finals),
    }


def random_run(build, seed):
    trace = run_random(build(), seed, 250, 3)
    return {"trace": trace.as_dict(), "final": render_config(trace.final)}


def suite_report(name, samples):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(["--scenario", name, "--samples", str(samples), "--no-meta"])
    return json.loads(out.getvalue())


def cases() -> dict:
    """Case name -> a thunk that runs the case and returns its report."""
    out = {}
    for name, build, cutting, whole in SHIPPED:
        for loop_bound in (1, 2, 3):
            for step_bound in (cutting, whole):
                out[f"explore/{name}/loop{loop_bound}/steps{step_bound}"] = (
                    lambda b=build, s=step_bound, lb=loop_bound: explored(b, s, lb))
    for cap in (1, 50, 10**6):
        out[f"explore/naive-reader/cap{cap}"] = (
            lambda c=cap: explored(naive_reader_scenario, 40, 3, c))
    for step_bound in (3, 40):
        out[f"explore/racing-counters/steps{step_bound}"] = (
            lambda s=step_bound: explored(racing_counters, s, 3))
    for name, build in RANDOM:
        for seed in range(5):
            out[f"random/{name}/seed{seed}"] = lambda b=build, s=seed: random_run(b, s)
    for name in cli.CHECKS:
        out[f"suite/{name}/samples20"] = lambda n=name: suite_report(n, 20)
    return out


def digest(report: dict) -> str:
    text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


CASES = cases()


@pytest.mark.parametrize("name", list(CASES))
def test_report_matches_the_golden_digest(name):
    golden = json.loads(GOLDEN.read_text())
    assert digest(CASES[name]()) == golden[name]


def test_every_golden_case_is_run():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


if __name__ == "__main__":
    print(json.dumps({name: digest(run()) for name, run in CASES.items()}, indent=1))
