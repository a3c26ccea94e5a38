"""The benchmark's four workloads, driven through histrio's public entry points.

A workload turns the benchmark seed into its inputs when it is
constructed (that construction is part of the measured set-up time) and
then offers a fixed list of jobs.  A job is one unit of work that ends in
verdicts.  Running it returns the ways its outcome differs from the values
pinned at the seed commit (empty when correct) and the counts that the
traced run reports.

Only entry points that the roadmap keeps are called: ``explore``,
``run_random``, ``run_replay``, ``compare_erased``, the three ``check_*``
suites and the scenario builders.  Every call goes through a module
attribute (``scheduler.explore(...)``, ``scenarios.treiber_scenario()``),
never through a name bound at import, so that the tracer's wrappers see
it.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from histrio import actions, concurroid, erasure, pcm, program, scenarios, scheduler, specs
from histrio.structures import flatcombiner as fc
from histrio.structures import private_heap as pv
from histrio.structures import snapshot as sp
from histrio.structures import spinlock as lk
from histrio.structures import treiber as tb


@dataclass
class Outcome:
    errors: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)


@dataclass
class Job:
    name: str
    run: Callable[[], Outcome]


def _explore_counts(rep) -> Counter:
    return Counter({
        "scheduler.memo.nodes": rep.nodes,
        "scheduler.memo.edges": rep.edges,
        # the root and every edge lead to one memo lookup, except edges cut
        # by a violation, so hit ratio = (edges + 1 - nodes) / (edges + 1)
        "scheduler.memo.lookups": rep.edges + 1,
        "scheduler.paths.complete": rep.complete,
        "scheduler.paths.violating": rep.violating,
        "scheduler.violations.recorded": len(rep.violations),
    })


class Workload:
    """Base: ``jobs`` to run, plus the objects built at set-up that hold
    callables the tracer must wrap in place."""

    def __init__(self):
        self.jobs: list[Job] = []
        self.scenarios: list = []
        self.concurroids: list = []

    def trace_errors(self, layer: dict) -> list:
        """Consistency checks on the traced run's per-layer metrics."""
        return []


# ---------------------------------------------------------------------------
# explore-pass: the five shipped scenarios, correct structures
# ---------------------------------------------------------------------------

# name, builder, step bound, loop bound, and the pinned (verdict, complete
# paths, inconclusive paths, distinct final states) of the seed commit.
# Ordered small to large, so the warm-up covers all but the flat combiner.
EXPLORE_PASS = [
    ("seq-recovery", lambda: scenarios.seq_recovery_scenario(("b", "c"), "a"),
     20, 3, ("pass", 1, 0, 1)),
    ("pair-snapshot", lambda: scenarios.pair_snapshot_scenario(writers=2),
     40, 3, ("pass", 1_122, 0, 30)),
    ("treiber", lambda: scenarios.treiber_scenario(pushers=2, elems=("a", "b")),
     60, 3, ("pass", 3_198, 0, 12)),
    ("producer-consumer", lambda: scenarios.producer_consumer_scenario(3),
     60, 3, ("pass", 102_513_159, 109_424_105, 5)),
    ("flat-combiner", lambda: scenarios.flat_combiner_scenario(3),
     120, 1, ("pass", 5_615_517, 9_132_415, 6)),
]


class ExplorePass(Workload):
    """Exhaustive runs are deterministic: the seed does not change them."""

    def __init__(self, seed: int):
        super().__init__()
        for name, build, step_bound, loop_bound, pinned in EXPLORE_PASS:
            sc = build()
            self.scenarios.append(sc)
            self.jobs.append(Job(name, self._job(sc, step_bound, loop_bound, pinned)))

    @staticmethod
    def _job(sc, step_bound, loop_bound, pinned):
        def run() -> Outcome:
            rep = scheduler.explore(sc, step_bound, loop_bound)
            out = Outcome(counts=_explore_counts(rep))
            got = (rep.verdict, rep.complete, rep.inconclusive, len(rep.finals))
            if got != pinned:
                out.errors.append(f"{sc.name}: (verdict, complete, inconclusive, "
                                  f"finals) = {got}, pinned {pinned}")
            if sc.name == "seq-recovery" and got == pinned:
                [final] = rep.finals
                parsed = tb.parse_stack(final.tree.self_[pv.LB])
                if parsed is None or parsed[1] != ("a", "b", "c"):
                    out.errors.append(f"seq-recovery: final stack {parsed}")
            return out

        return run

    def trace_errors(self, layer: dict) -> list:
        calls = layer["scheduler.step_action.calls"]["value"]
        edges = layer["scheduler.memo.edges"]["value"]
        if calls != edges:
            return [f"step_action made {calls} calls for {edges} edges"]
        return []


# ---------------------------------------------------------------------------
# explore-bug: a naive readPair without the version re-check
# ---------------------------------------------------------------------------

def naive_read_pair_scenario(writers: int = 3):
    """One reader that reads x then y with no re-check, racing writers."""
    body = program.do(
        ("cx", program.ActN(lambda env: sp.read_x(), "readX")),
        ("cy", program.ActN(lambda env: sp.read_y(), "readY")),
        ret=program.Ret(lambda env: (env["cx"][0], env["cy"][0])),
    )
    root = sp.initial_state("A", "C")
    writer_args = [("B", "D"), ("E", "G"), ("F", "H")][:writers]
    progs = [program.SpecedN(specs.read_pair_spec(), body)]
    progs += [sp.writer_program(x, y) for x, y in writer_args]
    splits = [scenarios.split_take({sp.LB: pcm.Hist(pcm.SNAPSHOT)}),
              scenarios.split_take({sp.LB: root.self_[sp.LB]})]
    splits += [scenarios.split_take({})] * (writers - 2)
    return scheduler.Scenario("naive-reader", sp.concurroid(), root,
                              scenarios.par_chain(progs, splits))


class ExploreBug(Workload):
    """Path counts are not pinned: they depend on the violation cap."""

    STEP_BOUND, LOOP_BOUND = 40, 3

    def __init__(self, seed: int):
        super().__init__()
        self.sc = naive_read_pair_scenario(3)
        self.scenarios.append(self.sc)
        self.jobs.append(Job("naive-reader", self._run))

    def _run(self) -> Outcome:
        rep = scheduler.explore(self.sc, self.STEP_BOUND, self.LOOP_BOUND)
        out = Outcome(counts=_explore_counts(rep))
        kinds = {v.check for v in rep.violations}
        if rep.verdict != "violation" or kinds != {"spec:readPair"}:
            out.errors.append(f"naive-reader: verdict {rep.verdict}, checks {sorted(kinds)}")
            return out
        first = rep.violations[0]
        replay = scheduler.run_replay(self.sc, first.schedule, self.LOOP_BOUND)
        if not replay.violations or replay.violations[0].check != first.check:
            out.errors.append(f"naive-reader: schedule {first.schedule} replays to "
                              f"{[v.check for v in replay.violations]}")
        return out


# ---------------------------------------------------------------------------
# seeded-runs: one random run, its replay, and the erased replay per job
# ---------------------------------------------------------------------------

SEEDED_BUDGET, SEEDED_LOOP_BOUND = 250, 3
# 40 seeds x 5 scenarios = 200 jobs a repetition, so the 95th percentile
# of job latency has 10 samples beyond it in every repetition.
SEEDED_SEEDS = 40
SEEDED = [
    ("pair-snapshot", lambda: scenarios.pair_snapshot_scenario(2)),
    ("treiber", lambda: scenarios.treiber_scenario()),
    ("producer-consumer", lambda: scenarios.producer_consumer_scenario(3)),
    ("flat-combiner", lambda: scenarios.flat_combiner_scenario(3)),
    ("seq-recovery", lambda: scenarios.seq_recovery_scenario()),
]


class SeededRuns(Workload):
    def __init__(self, seed: int):
        super().__init__()
        rng = random.Random(seed)
        run_seeds = [rng.randrange(2**31) for _ in range(SEEDED_SEEDS)]
        built = [(name, build, build()) for name, build in SEEDED]
        self.scenarios = [sc for _, _, sc in built]
        for s in run_seeds:
            for name, build, sc in built:
                self.jobs.append(Job(f"{name}@{s}", self._job(sc, build, s)))

    @staticmethod
    def _job(sc, build, s):
        def run() -> Outcome:
            t = scheduler.run_random(sc, s, SEEDED_BUDGET, SEEDED_LOOP_BOUND)
            r = scheduler.run_replay(sc, t.schedule, SEEDED_LOOP_BOUND)
            out = Outcome(counts=Counter({
                "scheduler.seeded.runs": 1,
                "scheduler.seeded.decided": t.verdict in ("pass", "violation"),
            }))
            if t.violations or r.violations:
                out.errors.append(f"{sc.name}@{s}: violations in a correct structure")
            if (r.verdict, r.schedule) != (t.verdict, t.schedule):
                out.errors.append(f"{sc.name}@{s}: replay gave {r.verdict}, "
                                  f"random run {t.verdict}")
            msg = erasure.compare_erased(build, s, SEEDED_BUDGET, SEEDED_LOOP_BOUND)
            if msg is not None:
                out.errors.append(f"{sc.name}@{s}: {msg}")
            return out

        return run


# ---------------------------------------------------------------------------
# obligations: the sampled PCM, concurroid and action suites
# ---------------------------------------------------------------------------

OBLIGATION_SAMPLES = 100


class Obligations(Workload):
    """Each suite call is a job with its own generator, seeded from the
    workload seed and the job name, so every repetition draws the same
    samples."""

    def __init__(self, seed: int):
        super().__init__()
        self.seed = seed
        concs = [sp.concurroid(), pv.concurroid(), tb.concurroid(),
                 lk.concurroid(), fc.concurroid(fc.stack_shape(3))]
        families = (sp.action_families() + pv.action_families()
                    + tb.action_families() + lk.action_families()
                    + fc.action_families())
        self.concurroids = concs + [fam.conc for fam in families]
        for inst in pcm.SHIPPED_INSTANCES:
            self._add(f"pcm:{inst.name}", lambda rng, inst=inst:
                      [pcm.check_pcm_laws(inst, OBLIGATION_SAMPLES, rng)], None)
        for c in concs:
            self._add(f"concurroid:{c.name}", lambda rng, c=c:
                      concurroid.check_concurroid(c, OBLIGATION_SAMPLES, rng),
                      "concurroid")
        for i, fam in enumerate(families):
            self._add(f"action:{i}:{fam.name}", lambda rng, fam=fam:
                      actions.check_action_properties(fam, OBLIGATION_SAMPLES, rng),
                      "actions")

    def _add(self, name: str, suite, layer):
        def run() -> Outcome:
            out = Outcome()
            for rep in suite(random.Random(f"{self.seed}/{name}")):
                if not rep.ok:
                    out.errors.append(f"{name}: {rep.violations[0]}")
                if layer is not None:
                    out.counts[f"{layer}.samples"] += rep.samples
                    out.counts[f"{layer}.vacuous"] += rep.vacuous
            return out

        self.jobs.append(Job(name, run))


WORKLOADS = {
    "explore-pass": ExplorePass,
    "explore-bug": ExploreBug,
    "seeded-runs": SeededRuns,
    "obligations": Obligations,
}
