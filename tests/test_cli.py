"""CLI surface: exit codes, report schema, determinism, replay."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from histrio.cli import main
from histrio.state import fact_table

RUN = [sys.executable, "-m", "histrio.cli"]
SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*args):
    # the child interpreter imports histrio from this checkout's src/, as
    # pytest's own pythonpath setting does not reach it
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(RUN + list(args), capture_output=True, text=True, env=env)


def test_unknown_scenario_is_a_usage_error():
    assert run_cli("--scenario", "nosuch").returncode == 2


def test_missing_scenario_is_a_usage_error():
    assert main([]) == 2


def test_random_mode_requires_a_seed(monkeypatch):
    monkeypatch.delenv("HISTRIO_SEED", raising=False)
    assert main(["--scenario", "treiber", "--mode", "random"]) == 2


def test_a_seed_from_the_environment_that_is_no_integer_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("HISTRIO_SEED", "abc")
    assert main(["--scenario", "treiber", "--mode", "random"]) == 2
    assert "HISTRIO_SEED" in capsys.readouterr().err


def test_env_seed_fallback(monkeypatch, capsys, tmp_path):
    monkeypatch.setenv("HISTRIO_SEED", "17")
    out = tmp_path / "r.json"
    code = main(["--scenario", "treiber", "--mode", "random",
                 "--output", str(out), "--no-meta"])
    assert code in (0, 3)
    report = json.loads(out.read_text())
    assert report["config"]["seed"] == 17


@pytest.mark.parametrize("scenario", ["laws", "seq-recovery"])
def test_report_schema(scenario, tmp_path):
    out = tmp_path / "r.json"
    code = main(["--scenario", scenario, "--samples", "60",
                 "--output", str(out), "--no-meta"])
    assert code == 0
    report = json.loads(out.read_text())
    for key in ("version", "config", "verdict", "interleavings", "violations",
                "stats"):
        assert key in report
    assert report["verdict"] == "pass"


def test_reports_are_byte_identical_without_meta(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["--scenario", "treiber", "--mode", "exhaustive", "--threads", "2",
            "--step-bound", "30", "--no-meta"]
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_exhaustive_interleaving_count_in_report(tmp_path):
    out = tmp_path / "r.json"
    code = main(["--scenario", "producer-consumer", "--mode", "exhaustive",
                 "--threads", "2", "--ops-per-thread", "2",
                 "--output", str(out), "--no-meta"])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["interleavings"] > 0
    assert report["verdict"] == "pass"


def test_native_mode_only_for_treiber(tmp_path):
    assert main(["--scenario", "pair-snapshot", "--mode", "native",
                 "--seed", "1"]) == 2
    out = tmp_path / "n.json"
    code = main(["--scenario", "treiber", "--mode", "native", "--seed", "1",
                 "--threads", "2", "--ops-per-thread", "50",
                 "--output", str(out), "--no-meta"])
    assert code == 0


def test_native_mode_needs_a_thread_and_an_operation():
    for flag in ("--threads", "--ops-per-thread"):
        assert main(["--scenario", "treiber", "--mode", "native", "--seed", "1",
                     flag, "0"]) == 2


@pytest.mark.parametrize("args", [
    ("--step-bound", "0"),
    ("--step-bound", "-3"),
    ("--loop-bound", "0"),
    ("--scenario", "flat-combiner", "--threads", "0"),
    ("--scenario", "producer-consumer", "--ops-per-thread", "0"),
    ("--mode", "random", "--seed", "1", "--step-bound", "0"),
    ("--scenario", "laws", "--loop-bound", "0"),
    ("--scenario", "laws", "--samples", "0"),
    ("--scenario", "action-check", "--samples", "-2"),
])
def test_bounds_and_counts_below_one_are_usage_errors(args, capsys):
    # a later --scenario overrides the first
    assert main(["--scenario", "treiber", *args]) == 2
    assert "must be at least 1" in capsys.readouterr().err


def test_an_omitted_step_bound_runs_at_the_scenario_default(tmp_path):
    out = tmp_path / "r.json"
    assert main(["--scenario", "seq-recovery", "--output", str(out), "--no-meta"]) == 0
    assert json.loads(out.read_text())["config"]["step_bound"] == 30


def test_random_mode_emits_replayable_schedule(tmp_path):
    out = tmp_path / "r.json"
    code = main(["--scenario", "treiber", "--mode", "random", "--seed", "3",
                 "--step-bound", "200",
                 "--output", str(out), "--no-meta", "--emit-trace"])
    assert code in (0, 3)
    report = json.loads(out.read_text())
    assert "schedule" in report
    trace = json.loads((tmp_path / "r.json.trace.json").read_text())
    assert trace["schedule"] == report["schedule"]
    # replaying the same schedule reproduces the run deterministically
    code2 = main(["--replay", str(out), "--output", str(tmp_path / "rr.json"),
                  "--no-meta"])
    assert code2 in (0, 3)
    replay = json.loads((tmp_path / "rr.json").read_text())
    assert replay["config"]["mode"] == "replay"
    assert replay["verdict"] != "violation"


def test_a_replay_reports_its_elapsed_time(monkeypatch, tmp_path):
    import histrio.cli as cli
    out = tmp_path / "r.json"
    assert main(["--scenario", "treiber", "--mode", "random", "--seed", "3",
                 "--output", str(out), "--no-meta"]) in (0, 3)
    # the clock reads 100.0 when the replay starts and 102.5 from then on
    ticks = [100.0, 102.5]
    monkeypatch.setattr(cli.time, "time", lambda: ticks.pop(0) if len(ticks) > 1 else ticks[0])
    assert main(["--replay", str(out), "--output", str(tmp_path / "rr.json")]) in (0, 3)
    meta = json.loads((tmp_path / "rr.json").read_text())["meta"]
    assert meta["elapsed_s"] == 2.5
    assert meta["peak_rss_mb"] > 0


@pytest.mark.parametrize("scenario", ["seq-recovery", "laws"])
def test_reports_carry_peak_memory_unless_meta_is_omitted(scenario, tmp_path):
    out = tmp_path / "r.json"
    assert main(["--scenario", scenario, "--samples", "20", "--output", str(out)]) == 0
    meta = json.loads(out.read_text())["meta"]
    assert set(meta) == {"elapsed_s", "peak_rss_mb"}
    assert meta["peak_rss_mb"] > 0


@pytest.mark.parametrize("config, schedule", [
    ({"scenario": "treiber", "loop_bound": 3}, [7, 7]),
    ({"scenario": "treiber", "threads": 0}, [1]),
    ({"scenario": "producer-consumer", "ops_per_thread": 0}, [1]),
    ({"scenario": "treiber", "loop_bound": 0}, [1]),
    ({"scenario": "treiber"}, "1"),
])
def test_a_replay_file_that_cannot_run_is_a_usage_error(config, schedule, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"config": config, "schedule": schedule}))
    assert main(["--replay", str(path), "--no-meta"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "not json {",
    json.dumps([{"config": {"scenario": "treiber"}, "schedule": [1]}]),
    json.dumps({"config": ["treiber"], "schedule": [1]}),
    json.dumps({"config": {"scenario": "treiber"}, "violations": 5, "schedule": [1]}),
], ids=["not-json", "top-level-list", "config-list", "violations-not-a-list"])
def test_a_replay_file_that_is_no_report_is_a_usage_error(text, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["--replay", str(path), "--no-meta"]) == 2
    assert "error:" in capsys.readouterr().err


def test_violation_exits_1(monkeypatch, tmp_path):
    """A sabotaged structure must surface as exit code 1 with a trace."""
    import histrio.cli as cli
    from histrio.actions import AtomicAction, Skip
    from histrio.pcm import Heap, Loc
    from histrio.program import ActN, const, do
    from histrio.scheduler import Scenario
    from histrio.state import SubjState
    from histrio.structures import private_heap as pv

    def evil_build(env):
        def step(w, ctx):
            grown = Heap(w.other[pv.LB].set(Loc(50), 1))
            return SubjState(w.self_, w.joint, w.other.set(pv.LB, grown)), (), ctx

        return AtomicAction("evil", pv.HOME, lambda w: True, step, "id", Skip())

    def fake_build(name, args):
        return Scenario("treiber", pv.concurroid(), pv.initial_state(),
                        do((None, ActN(evil_build, "evil")), ret=const(())))

    monkeypatch.setattr(cli, "_build_scenario", fake_build)
    out = tmp_path / "bad.json"
    code = cli.main(["--scenario", "treiber", "--output", str(out), "--no-meta"])
    assert code == 1
    report = json.loads(out.read_text())
    assert report["verdict"] == "violation"
    assert report["violations"][0]["check"] == "guarantee"
    assert report["violations"][0]["schedule"] == [0]
    # the escaping step is on its schedule, so a replay reports it again
    again = tmp_path / "again.json"
    assert cli.main(["--replay", str(out), "--output", str(again), "--no-meta"]) == 1
    replay = json.loads(again.read_text())
    assert replay["violations"][0]["check"] == "guarantee"
    assert replay["violations"][0]["schedule"] == [0]


def test_a_violation_before_the_first_move_replays(monkeypatch, tmp_path):
    """A spec that fails before any action leaves an empty schedule, which a
    replay takes and reports again."""
    import histrio.cli as cli
    from histrio.fmap import FrozenMap
    from histrio.pcm import Heap, Loc
    from histrio.program import ActN, SpecedN, const, do
    from histrio.scheduler import Scenario
    from histrio.specs import MethodSpec
    from histrio.structures import private_heap as pv

    def fake_build(name, args):
        never = MethodSpec("never", lambda w, env: FrozenMap(), lambda caps, w, r: "never holds")
        prog = do((None, SpecedN(never, const(1))),
                  ret=ActN(lambda env: pv.write(Loc(100), 1), "w"))
        return Scenario("treiber", pv.concurroid(), pv.initial_state(Heap({Loc(100): 0})), prog)

    monkeypatch.setattr(cli, "_build_scenario", fake_build)
    out = tmp_path / "bad.json"
    assert cli.main(["--scenario", "treiber", "--output", str(out), "--no-meta"]) == 1
    report = json.loads(out.read_text())
    assert [(v["check"], v["schedule"]) for v in report["violations"]] == [("spec:never", [])]
    again = tmp_path / "again.json"
    assert cli.main(["--replay", str(out), "--output", str(again), "--no-meta"]) == 1
    replay = json.loads(again.read_text())
    assert [(v["check"], v["schedule"]) for v in replay["violations"]] == [("spec:never", [])]


def test_budget_starved_run_exits_3(tmp_path):
    code = main(["--scenario", "treiber", "--mode", "random", "--seed", "4",
                 "--step-bound", "2", "--output", str(tmp_path / "r.json"),
                 "--no-meta"])
    assert code == 3


@pytest.mark.parametrize("args, code", [
    # the consumer array no longer overlaps the producer array from n = 11
    (("--scenario", "producer-consumer", "--ops-per-thread", "11", "--mode", "random",
      "--seed", "1", "--step-bound", "2000", "--loop-bound", "100"), 0),
    (("--scenario", "producer-consumer", "--ops-per-thread", "11", "--step-bound", "5"), 3),
    # 91 publication slots fit below the flat combiner's sentinel, 92 do not
    (("--scenario", "flat-combiner", "--threads", "91", "--mode", "random", "--seed", "1"), 3),
    (("--scenario", "flat-combiner", "--threads", "92", "--mode", "random", "--seed", "1"), 2),
])
def test_sizes_past_the_first_layouts_build_or_are_usage_errors(args, code, capsys):
    assert main([*args, "--no-meta"]) == code
    assert "Traceback" not in capsys.readouterr().err


def test_a_replay_of_an_unbuildable_size_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "fc.json"
    path.write_text(json.dumps({"config": {"scenario": "flat-combiner", "threads": 92},
                                "schedule": [0]}))
    assert main(["--replay", str(path), "--no-meta"]) == 2
    assert "at most 91 threads" in capsys.readouterr().err


def test_treiber_runs_the_threads_its_config_names(tmp_path):
    out = tmp_path / "r.json"
    assert main(["--scenario", "treiber", "--threads", "9", "--mode", "random",
                 "--seed", "1", "--step-bound", "3000", "--loop-bound", "20",
                 "--output", str(out), "--no-meta"]) == 0
    report = json.loads(out.read_text())
    assert report["config"]["threads"] == 9
    assert sorted(set(report["schedule"])) == list(range(9))


def test_an_escaping_exception_is_an_internal_error(monkeypatch, capsys):
    import histrio.cli as cli

    def broken_build(name, args):
        raise RuntimeError("builder broke")

    monkeypatch.setattr(cli, "_build_scenario", broken_build)
    assert cli.main(["--scenario", "treiber", "--no-meta"]) == cli.INTERNAL_ERROR == 4
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: builder broke" in err


def test_concurroid_check_reports_the_paper_laws(tmp_path):
    out = tmp_path / "r.json"
    assert main(["--scenario", "concurroid-check", "--samples", "20",
                 "--output", str(out), "--no-meta"]) == 0
    laws = json.loads(out.read_text())["stats"]["laws"]
    assert [(r["check"], r["concurroid"]) for r in laws] == [
        ("phi-properties", "treiber"),
        *[("unit-law", name) for name in
          ("pair-snapshot", "private-heaps", "treiber", "spin-lock", "flat-combiner")],
        ("exchange-law", "private-heaps><pair-snapshot><treiber"),
    ]
    assert all(r["ok"] and r["samples"] > 0 for r in laws)


@pytest.mark.parametrize("suite", ["concurroid-check", "action-check"])
def test_a_fact_table_leaves_the_suite_reports_as_they_are(suite, capsys):
    # the suites run outside any run, with no fact table; one installed
    # around them must change no row, law or count of the report
    args = ["--scenario", suite, "--samples", "40", "--no-meta"]
    assert main(args) == 0
    bare = capsys.readouterr().out
    with fact_table():
        assert main(args) == 0
    remembered = capsys.readouterr().out
    assert json.loads(bare)["stats"]["checks"] > 50
    assert remembered == bare


# builds 3,000 locations in shuffled order before running the CLI, so that
# the order of their objects' addresses, which sets of locations iterate
# in, is not the order of the addresses they stand for
_SHUFFLED_LOCS = """
import random, sys
from histrio.cli import main
from histrio.pcm import Loc
addresses = list(range(1, 3001))
random.Random(7).shuffle(addresses)
built = [Loc(n) for n in addresses]
sys.exit(main(sys.argv[1:]))
"""

_DETERMINISM_RUNS = [
    ["--scenario", "concurroid-check", "--samples", "60"],
    ["--scenario", "action-check", "--samples", "60"],
    ["--scenario", "treiber", "--mode", "exhaustive"],
    ["--scenario", "treiber", "--mode", "random", "--seed", "3", "--emit-trace"],
]


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_reports_do_not_depend_on_the_order_locations_were_built_in(hash_seed, tmp_path):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    for i, args in enumerate(_DETERMINISM_RUNS):
        args = args + ["--output", f"r{i}.json", "--no-meta"]
        for side, cmd in (("plain", RUN), ("shuffled", [sys.executable, "-c", _SHUFFLED_LOCS])):
            cwd = tmp_path / side
            cwd.mkdir(exist_ok=True)
            out = subprocess.run(cmd + args, cwd=cwd, env=env, capture_output=True, timeout=120)
            assert out.returncode in (0, 3), out.stderr
    plain = sorted(p.name for p in (tmp_path / "plain").iterdir())
    assert plain == sorted(p.name for p in (tmp_path / "shuffled").iterdir())
    assert "r3.json.trace.json" in plain
    for name in plain:
        assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "shuffled" / name).read_bytes()
