"""Erasure commutation: auxiliary state does not steer the concrete run.

``compare_erased_trace`` takes one schedule run through the instrumented
scheduler (``compare_erased`` draws it from a seed), then replays the
primitive each step erased to (``Read``, ``Write``, ``Rmw``, ``Alloc``,
...) on a bare mutable heap that starts from the scenario's flattened
initial state.  Every primitive must return exactly the result the
instrumented action returned, and the final concrete heap must equal the
flattening of the instrumented final state.

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
from .scheduler import Trace, initial_config, leaf_view, run_random
from .state import flatten


def compare_erased(scenario_builder, seed: int, budget: int, loop_bound: int) -> Optional[str]:
    """Run one seeded schedule instrumented, then ``compare_erased_trace``."""
    scenario = scenario_builder()
    msg = compare_erased_trace(scenario, run_random(scenario, seed, budget, loop_bound))
    return None if msg is None else f"{msg} (seed {seed})"


def compare_erased_trace(scenario, trace: Trace) -> Optional[str]:
    """Replay the primitives of ``trace``, a run of ``scenario``, and compare."""
    if trace.verdict == "violation":
        return "instrumented run violated its checks"
    heap = dict(flatten(scenario.root))
    next_loc = initial_config(scenario).next_loc
    for event in trace.events:
        try:
            res, next_loc = exec_primitive(event.primitive, heap, next_loc)
        except KeyError as exc:
            return (f"erased replay diverged at step {event.index}: "
                    f"{event.action} touched absent cell {exc}")
        if res != event.result:
            return (f"results differ at step {event.index}: {event.action} "
                    f"erased {res!r}, instrumented {event.result!r}")
    inst_heap = dict(flatten(_final_view(trace)))
    if heap != inst_heap:
        return (f"final heaps differ: erased {len(heap)} cells, "
                f"instrumented {len(inst_heap)}")
    return None


def _final_view(trace: Trace):
    """Any leaf's view flattens to the whole concrete heap exactly once."""
    return leaf_view(trace.final, trace.final.threads[0])
