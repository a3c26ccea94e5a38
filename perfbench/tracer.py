"""Outside-in per-layer tracing of histrio.

The tracer wraps the program's callables from outside, without touching
``src/``:

* module-level functions are rebound in every ``histrio`` module that
  binds them, because those names are looked up when called;
* special methods (``Config.__hash__``, ``FrozenMap.__hash__`` and
  ``__eq__``, ``Hist.__post_init__``) are replaced on their class;
* callables captured when a scenario or concurroid is built (coherence,
  method-spec posts, final oracles, step invariants) are replaced on the
  built objects: those the workload built at set-up, those that scenario
  builders return while tracing, and the concurroids that
  ``HideN.entangled_with`` returns.

Every wrapper counts calls and accumulates self time: its duration minus
the time spent in wrapped callables it called.  Leaving the ``with``
block restores everything it replaced.  A callable that the program no longer
has is reported on stderr and reads as 0 calls.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

from histrio import fmap, pcm, program, scenarios, scheduler

# metric prefix -> (module, attribute) of a module-level function
FUNCTIONS = {
    "scheduler.normalize": ("histrio.scheduler", "normalize"),
    "scheduler.step_action": ("histrio.scheduler", "step_action"),
    "scheduler.leaf_view": ("histrio.scheduler", "leaf_view"),
    "scheduler.run_random": ("histrio.scheduler", "run_random"),
    "scheduler.run_replay": ("histrio.scheduler", "run_replay"),
    "actions.run_atomic": ("histrio.actions", "run_atomic"),
    "actions.step_matches_claim": ("histrio.actions", "step_matches_claim"),
    "actions.check_action_properties": ("histrio.actions", "check_action_properties"),
    "state.validate": ("histrio.state", "validate"),
    "state.subjective_join": ("histrio.state", "subjective_join"),
    "state.subjective_split": ("histrio.state", "subjective_split"),
    "concurroid.check_concurroid": ("histrio.concurroid", "check_concurroid"),
    "pcm.check_pcm_laws": ("histrio.pcm", "check_pcm_laws"),
    "history.is_complete": ("histrio.history", "is_complete"),
    "history.is_continuous": ("histrio.history", "is_continuous"),
    "history.is_stacklike": ("histrio.history", "is_stacklike"),
    "erasure.compare_erased": ("histrio.erasure", "compare_erased"),
}

# metric prefix -> (class, special method)
METHODS = {
    "scheduler.Config.hash": (scheduler.Config, "__hash__"),
    "fmap.FrozenMap.hash": (fmap.FrozenMap, "__hash__"),
    "fmap.FrozenMap.eq": (fmap.FrozenMap, "__eq__"),
    "pcm.Hist.post_init": (pcm.Hist, "__post_init__"),
}

# metric prefixes of callables wrapped on built objects
CAPTURED = ["concurroid.coherent", "specs.post", "specs.final_oracle",
            "scenarios.step_invariant"]

SPANS = list(FUNCTIONS) + list(METHODS) + CAPTURED

BUILDERS = ["pair_snapshot_scenario", "treiber_scenario",
            "producer_consumer_scenario", "flat_combiner_scenario",
            "seq_recovery_scenario"]


class Tracer:
    def __init__(self, workload):
        self.workload = workload
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        # configurations handed to ready_leaves, kept to count the distinct
        # ones after tracing, so their hashing is not traced
        self.configs: list = []
        self._open: list = []  # time spent in wrapped children, per open span
        self._undo: list = []
        self._wrapped: set = set()

    def span(self, name: str, fn):
        calls, self_s, open_, clock = self.calls, self.self_s, self._open, time.perf_counter

        def traced(*args, **kwargs):
            open_.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                calls[name] += 1
                self_s[name] += dt - open_.pop()
                if open_:
                    open_[-1] += dt

        return traced

    def _replace(self, obj, attr: str, new):
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def _wrap_attr(self, obj, attr: str, name: str):
        """Wrap a callable held by a built object, once per object."""
        key = (id(obj), attr)
        if key in self._wrapped or getattr(obj, attr, None) is None:
            return
        self._wrapped.add(key)
        self._replace(obj, attr, self.span(name, getattr(obj, attr)))

    def wrap_concurroid(self, c):
        self._wrap_attr(c, "coherent", "concurroid.coherent")
        return c

    def wrap_scenario(self, sc):
        self.wrap_concurroid(sc.conc)
        self._wrap_attr(sc, "final_oracle", "specs.final_oracle")
        if sc.step_invariants:
            self._replace(sc, "step_invariants",
                          [self.span("scenarios.step_invariant", inv)
                           for inv in sc.step_invariants])
        self._wrap_specs(sc.program, set())
        return sc

    def _wrap_specs(self, node, seen: set):
        if id(node) in seen:
            return
        seen.add(id(node))
        if isinstance(node, program.SpecedN):
            self._wrap_attr(node.spec, "post", "specs.post")
        for cls in type(node).__mro__:
            for slot in getattr(cls, "__slots__", ()):
                child = getattr(node, slot, None)
                if isinstance(child, program.Node):
                    self._wrap_specs(child, seen)

    def __enter__(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "histrio" or n.startswith("histrio."))]
        for name, (module, attr) in FUNCTIONS.items():
            orig = getattr(sys.modules[module], attr, None)
            if orig is None:
                print(f"not traced: {module}.{attr} is gone", file=sys.stderr)
                continue
            traced = self.span(name, orig)
            for m in modules:
                for bound, value in list(vars(m).items()):
                    if value is orig:
                        self._replace(m, bound, traced)
        for name, (cls, attr) in METHODS.items():
            if attr not in vars(cls):
                print(f"not traced: {cls.__name__}.{attr} is gone", file=sys.stderr)
                continue
            self._replace(cls, attr, self.span(name, vars(cls)[attr]))

        ready_leaves = scheduler.ready_leaves

        def seen_ready(cfg):
            self.configs.append(cfg)
            return ready_leaves(cfg)

        self._replace(scheduler, "ready_leaves", seen_ready)

        entangled_with = program.HideN.entangled_with
        self._replace(program.HideN, "entangled_with",
                      lambda node, outer: self.wrap_concurroid(entangled_with(node, outer)))
        for b in BUILDERS:
            build = getattr(scenarios, b)
            self._replace(scenarios, b,
                          lambda *a, _build=build, **k: self.wrap_scenario(_build(*a, **k)))
        for sc in self.workload.scenarios:
            self.wrap_scenario(sc)
        for c in self.workload.concurroids:
            self.wrap_concurroid(c)
        return self

    def __exit__(self, *exc):
        for obj, attr, old in reversed(self._undo):
            setattr(obj, attr, old)
        self._undo.clear()
        self._wrapped.clear()
        return False

    def distinct_configs(self) -> int:
        return len(set(self.configs))
