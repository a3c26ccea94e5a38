"""Erasure commutation: auxiliary state does not steer the concrete run.

``compare_erased`` draws one seeded schedule through the instrumented
scheduler, then replays the primitive each step erased to (``Read``,
``Write``, ``Rmw``, ``Alloc``, ...) on a bare mutable heap that starts
from the scenario's flattened initial state.  Every primitive must
return exactly the result the instrumented action returned, and the
final concrete heap must equal the flattening of the instrumented final
state.

Equal per-step results are enough to pin the control path as well: a
program reads nothing but its environment, and the environment holds
nothing but action results (and values computed from them), so the
erased program would take the same branches, retry the same loops and
return the same values as the instrumented one.  Comparing each result,
rather than only the run's final values, also catches an action whose
result disagrees with its primitive's even when the program happens to
ignore it.
"""

from __future__ import annotations

from typing import Optional

from .actions import exec_primitive
from .scheduler import Trace, initial_config, leaf_view, leaves, run_random
from .state import flatten


def compare_erased(scenario_builder, seed: int, budget: int, loop_bound: int) -> Optional[str]:
    """Run one seeded schedule instrumented, replay its primitives, compare."""
    scenario = scenario_builder()
    trace: Trace = run_random(scenario, seed, budget, loop_bound)
    if trace.verdict == "violation":
        return f"instrumented run violated its checks (seed {seed})"
    heap = dict(flatten(scenario.root))
    next_loc = initial_config(scenario).next_loc
    for event in trace.events:
        try:
            res, next_loc = exec_primitive(event.primitive, heap, next_loc)
        except KeyError as exc:
            return (f"erased replay diverged at step {event.index} under seed "
                    f"{seed}: {event.action} touched absent cell {exc}")
        if res != event.result:
            return (f"results differ at step {event.index} under seed {seed}: "
                    f"{event.action} erased {res!r}, instrumented {event.result!r}")
    inst_heap = dict(flatten(_final_view(trace)))
    if heap != inst_heap:
        return (f"final heaps differ under seed {seed}: erased {len(heap)} cells, "
                f"instrumented {len(inst_heap)}")
    return None


def _final_view(trace: Trace):
    """Any leaf's view flattens to the whole concrete heap exactly once."""
    cfg = trace.final
    return leaf_view(cfg, leaves(cfg.tree)[0])
