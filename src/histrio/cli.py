"""Command-line scenario runner and JSON report emitter.

Exit codes: 0 all checks passed, 1 a violation was found (the report
embeds a replayable counterexample schedule), 2 usage error or a size the
scenario cannot lay out, 3 only inconclusive outcomes (budgets exhausted
without completing a single execution), 4 internal error (the traceback
goes to stderr).  Identical configurations produce byte-identical reports
when ``--no-meta`` strips the run's wall time and peak memory.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import string
import sys
import time
import traceback
from typing import Optional

from . import scenarios as S
from .actions import check_action_properties
from .concurroid import behaviorally_equal, check_concurroid, empty_concurroid, entangle
from .pcm import SHIPPED_INSTANCES, check_pcm_laws
from .scheduler import ReplayError, check_phi, explore, run_random, run_replay
from .structures import flatcombiner, private_heap, snapshot, spinlock, treiber

REPORT_VERSION = 1
INTERNAL_ERROR = 4


def _treiber(args):
    # every thread but the popper pushes its own element: a to z, a' to z', ...
    n = max(1, args.threads - 1)
    elems = tuple(string.ascii_lowercase[i % 26] + "'" * (i // 26) for i in range(n))
    return S.treiber_scenario(pushers=n, elems=elems)


# name -> (build the scenario from the parsed arguments, default step bound)
SCENARIOS = {
    "pair-snapshot": (
        lambda args: S.pair_snapshot_scenario(writers=max(1, args.threads - 1)), 40),
    "treiber": (_treiber, 60),
    "producer-consumer": (
        lambda args: S.producer_consumer_scenario(n=args.ops_per_thread), 60),
    "flat-combiner": (lambda args: S.flat_combiner_scenario(threads=args.threads), 120),
    "seq-recovery": (lambda args: S.seq_recovery_scenario(), 30),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="histrio",
        description="Explore interleavings of fine-grained concurrent "
        "structures and check their history-based specifications.",
    )
    p.add_argument("--scenario", choices=[*SCENARIOS, *CHECKS])
    p.add_argument("--mode", choices=["exhaustive", "random", "native"],
                   default="exhaustive")
    p.add_argument("--threads", type=int, default=3)
    p.add_argument("--ops-per-thread", type=int, default=3)
    p.add_argument("--step-bound", type=int, default=None)
    p.add_argument("--loop-bound", type=int, default=3)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--samples", type=int, default=500,
                   help="sample count for law/obligation checks")
    p.add_argument("--output", type=str, default=None)
    p.add_argument("--emit-trace", action="store_true")
    p.add_argument("--no-meta", action="store_true",
                   help="omit timing and memory metadata for byte-identical reports")
    p.add_argument("--replay", type=str, default=None,
                   help="re-run the counterexample schedule from a report")
    return p


def _usage_error(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    print(build_parser().format_usage(), file=sys.stderr, end="")
    return 2


def _build_scenario(name: str, args):
    return SCENARIOS[name][0](args)


def _suite_report(rows: list, stats: dict) -> dict:
    """The report of a sampled obligation suite, from one row per check."""
    return {
        "verdict": "pass" if all(r["ok"] for r in rows) else "violation",
        "interleavings": 0,
        "violations": [r for r in rows if not r["ok"]],
        "stats": stats,
    }


def _run_laws(args) -> dict:
    rng = random.Random(args.seed or 0)
    rows = [check_pcm_laws(inst, args.samples, rng).as_dict()
            for inst in SHIPPED_INSTANCES]
    return _suite_report(rows, {"suites": rows})


def _run_concurroid_check(args) -> dict:
    """Each concurroid's obligations, then the laws the report lists in full:
    the hidden stack's Phi, the empty concurroid as the unit of
    entanglement, and the exchange law."""
    rng = random.Random(args.seed or 0)
    n = args.samples
    sp, pv, tb = snapshot.concurroid(), private_heap.concurroid(), treiber.concurroid()
    concs = [sp, pv, tb, spinlock.concurroid(),
             flatcombiner.concurroid(flatcombiner.stack_shape(3))]
    reports = [(c.name, rep) for c in concs for rep in check_concurroid(c, n, rng)]
    obligations = len(reports)
    phi = S.make_treiber_phi(())
    reports.append((phi.conc.name, check_phi(phi, n, rng)))
    reports += [(c.name, behaviorally_equal("unit-law", entangle(c, empty_concurroid()), c,
                                            n, rng)) for c in concs]
    left, right = entangle(entangle(pv, sp), tb), entangle(entangle(pv, tb), sp)
    reports.append((left.name, behaviorally_equal("exchange-law", left, right, n, rng)))
    rows = [{**rep.as_dict(), "concurroid": name} for name, rep in reports]
    return _suite_report(rows, {"checks": len(rows), "laws": rows[obligations:]})


def _run_action_check(args) -> dict:
    families = [fam for module in (snapshot, private_heap, treiber, spinlock, flatcombiner)
                for fam in module.action_families()]
    # each family draws from a generator of its own
    rows = [rep.as_dict() for fam in families
            for rep in check_action_properties(fam, args.samples,
                                               random.Random(args.seed or 0))]
    return _suite_report(rows, {"checks": len(rows)})


# the sampled obligation suites, run in place of a scenario
CHECKS = {
    "laws": _run_laws,
    "concurroid-check": _run_concurroid_check,
    "action-check": _run_action_check,
}


def _report(config: dict, body: dict, started: float, args) -> int:
    """Print the report of ``body``, run under ``config``, and write it to
    ``--output``; return the exit code of its verdict.  Unless ``--no-meta``,
    it carries the wall time since ``started`` and the process's peak RSS."""
    report = {"version": REPORT_VERSION, "config": config, **body}
    if not args.no_meta:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        report["meta"] = {"elapsed_s": round(time.time() - started, 3),
                          "peak_rss_mb": round(peak, 1)}
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return {"violation": 1, "inconclusive": 3}.get(report["verdict"], 0)


def main(argv: Optional[list] = None) -> int:
    try:
        return _main(argv)
    except S.SizeError as exc:
        return _usage_error(str(exc))
    except Exception:
        # exit 1 means a violation was found; a crash must not read as one
        traceback.print_exc()
        return INTERNAL_ERROR


def _main(argv: Optional[list]) -> int:
    args = build_parser().parse_args(argv)

    if args.replay:
        return _do_replay(args)

    if args.scenario is None:
        return _usage_error("--scenario is required")
    for name in ("threads", "ops_per_thread", "loop_bound", "step_bound", "samples"):
        value = getattr(args, name)
        if value is not None and value < 1:
            return _usage_error(f"--{name.replace('_', '-')} must be at least 1")
    if args.mode in ("random", "native") and args.seed is None:
        env_seed = os.environ.get("HISTRIO_SEED")
        if env_seed is None:
            return _usage_error(f"mode {args.mode!r} requires --seed "
                                "(or HISTRIO_SEED)")
        try:
            args.seed = int(env_seed)
        except ValueError:
            return _usage_error(f"HISTRIO_SEED must be an integer, not {env_seed!r}")

    config = {
        "scenario": args.scenario,
        "mode": args.mode,
        "threads": args.threads,
        "ops_per_thread": args.ops_per_thread,
        "step_bound": args.step_bound,
        "loop_bound": args.loop_bound,
        "seed": args.seed,
        "samples": args.samples,
    }
    started = time.time()

    if args.scenario in CHECKS:
        body = CHECKS[args.scenario](args)
    elif args.mode == "native":
        if args.scenario != "treiber":
            return _usage_error("native mode supports only the treiber scenario")
        from .native import stress

        rep = stress(threads=args.threads, ops=args.ops_per_thread, seed=args.seed)
        body = {
            "verdict": rep.verdict,
            "interleavings": 0,
            "violations": rep.violations,
            "stats": rep.as_dict(),
        }
    else:
        scenario = _build_scenario(args.scenario, args)
        step_bound = (args.step_bound if args.step_bound is not None
                      else SCENARIOS[args.scenario][1])
        config["step_bound"] = step_bound  # exhaustive mode always runs bounded
        if args.mode == "exhaustive":
            body = explore(scenario, step_bound, args.loop_bound).as_dict()
        else:
            trace = run_random(scenario, args.seed, step_bound, args.loop_bound)
            body = {
                "verdict": trace.verdict,
                "interleavings": 1 if trace.verdict == "pass" else 0,
                "violations": [v.as_dict() for v in trace.violations],
                "stats": {"steps": len(trace.events)},
                "schedule": list(trace.schedule),
            }
            if args.emit_trace and args.output:
                with open(args.output + ".trace.json", "w") as fh:
                    json.dump(trace.as_dict(), fh, indent=2, sort_keys=True)

    return _report(config, body, started, args)


def _do_replay(args) -> int:
    try:
        with open(args.replay) as fh:
            old = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not JSON, or not text
        return _usage_error(f"cannot read replay file: {exc}")
    cfg = old.get("config", {}) if isinstance(old, dict) else None
    if not isinstance(cfg, dict):
        return _usage_error("replay file and its config must be JSON objects")
    name = cfg.get("scenario")
    if not isinstance(name, str) or name not in SCENARIOS:
        return _usage_error("replay file does not name a runnable scenario")
    violations = old.get("violations", [])
    if not isinstance(violations, list):
        return _usage_error("replay file's violations must be a JSON list")
    schedule = None
    for v in violations:
        # an empty schedule is a violation before the first move
        if isinstance(v, dict) and "schedule" in v:
            schedule = v["schedule"]
            break
    if schedule is None:
        schedule = old.get("schedule")
    if schedule is None:
        return _usage_error("replay file carries no schedule")
    if not (isinstance(schedule, list) and all(type(t) is int for t in schedule)):
        return _usage_error("replay schedule is not a list of thread ids")

    bounds = {key: cfg.get(key, 3) for key in ("threads", "ops_per_thread", "loop_bound")}
    for key, value in bounds.items():
        if type(value) is not int or value < 1:
            return _usage_error(f"replay file's {key} must be an integer at least 1")
    ns = argparse.Namespace(**{**vars(args), **bounds})
    started = time.time()
    scenario = _build_scenario(name, ns)
    try:
        trace = run_replay(scenario, schedule, bounds["loop_bound"])
    except ReplayError as exc:
        return _usage_error(str(exc))
    return _report({**cfg, "mode": "replay"}, {
        "verdict": trace.verdict,
        "interleavings": 0,
        "violations": [v.as_dict() for v in trace.violations],
        "stats": {"steps": len(trace.events)},
    }, started, args)


if __name__ == "__main__":
    sys.exit(main())
