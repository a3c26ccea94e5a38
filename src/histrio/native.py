"""Native stress mode: real OS threads run the verified Treiber programs.

Each worker thread runs ``treiber.push_program`` and ``treiber.pop_program``,
the programs the explorer verifies, through the explorer's own
thread-local reducer (``scheduler.run_local``).  Every atomic action's
primitive runs with ``actions.exec_primitive`` under one lock, on one shared
concrete heap that starts as the treiber root's flattening; so every
interleaving of primitives the OS scheduler produces is a real one, and the
stack under test is the verified code itself.

Validation is post hoc.  A push that returns, or a pop that returns
``SOME(e)``, is logged at the index of its last primitive, which is its
successful compare-and-swap.  A pop that returns ``NONE`` is logged at the
index of its last primitive too, the read that found the stack empty, as
an observation.  The log, ordered by that index, is read as a stack history
with its pushes and pops stamped from 1, and checked by the same predicates
the modeled runs use (``specs.stack_accounting`` and
``history.lemma2_oracle``): stamps must be gap-free from the initial entry
(completeness), each event's pre-state must equal the previous post-state
(continuity), each event must push or pop a single element
(stack-likeness), and the push/pop multisets must account for the final
stack contents, parsed from the shared heap.  Observations take no stamp:
the stack must be empty at each one's place in the order.

The report counts the primitives run and the compare-and-swaps that
failed, each of which sent an operation round its retry loop, so a run
whose threads seldom raced shows it.
"""

from __future__ import annotations

import random
import sys
import threading
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from .actions import Rmw, exec_primitive
from .fmap import FrozenMap
from .history import lemma2_oracle
from .pcm import NONE, STACK, Heap, Hist, some_value
from .scheduler import run_local
from .specs import stack_accounting
from .state import flatten
from .structures import treiber as tb

PUSH_RATIO = 0.6  # the share of operations that are pushes


@dataclass
class NativeReport:
    threads: int
    ops: int
    committed: int = 0
    pushes: int = 0
    pops: int = 0
    empty_pops: int = 0  # pops that answered "empty", checked as observations
    primitives: int = 0  # primitives run on the shared heap
    failed_cas: int = 0  # compare-and-swaps that lost a race, so an operation retried
    violations: list = field(default_factory=list)

    @property
    def verdict(self) -> str:
        return "pass" if not self.violations else "violation"

    def as_dict(self) -> dict:
        return {
            "threads": self.threads,
            "ops_per_thread": self.ops,
            "committed": self.committed,
            "pushes": self.pushes,
            "pops": self.pops,
            "empty_pops": self.empty_pops,
            "primitives": self.primitives,
            "failed_cas": self.failed_cas,
            "verdict": self.verdict,
            "violations": self.violations[:20],
        }


def validate_log(log: list, final: tuple, report: NativeReport):
    """Check the log, read as a stack history, against the history
    predicates and the final stack contents, and check that the stack is
    empty wherever a pop observed it empty."""
    empty_errors: list = []
    try:
        tau = log_as_history(log, empty_errors)
    except ValueError as exc:
        report.violations.append(str(exc))
        return
    report.violations.extend(stack_accounting(tau, final))
    if not lemma2_oracle(tau):
        report.violations.append("balanced run with unequal push/pop multisets")
    report.violations.extend(empty_errors)
    ops = Counter(op for _, op, _ in log)
    report.pushes, report.pops, report.empty_pops = ops["push"], ops["pop"], ops["empty"]
    report.committed = report.pushes + report.pops


def stress(threads: int = 4, ops: int = 1000, seed: int = 0) -> NativeReport:
    """Run ``ops`` random pushes and pops on each of ``threads`` OS threads
    over one shared heap, then validate the log of committed operations."""
    report = NativeReport(threads, ops)
    heap = dict(flatten(tb.initial_state()))
    next_loc = max(loc.n for loc in heap) + 1
    clock = 0  # primitives run so far
    failed_cas = 0
    lock = threading.Lock()
    # a CAS fails only after another thread's commit, so no retry loop
    # runs more than once per operation of the whole run
    loop_bound = threads * ops + 1
    logs: list = [[] for _ in range(threads)]  # (clock at the last primitive, op, elem)
    barrier = threading.Barrier(threads)
    errors: list = []

    def worker(tid: int):
        rng = random.Random((seed << 8) | tid)
        pop = tb.pop_program()
        last = 0  # the clock at this thread's latest primitive

        def execute(prim):
            nonlocal next_loc, clock, last, failed_cas
            with lock:
                res, next_loc = exec_primitive(prim, heap, next_loc)
                clock += 1
                last = clock
                # the Treiber programs' only read-modify-writes are CASes, answering a bool
                if isinstance(prim, Rmw) and res is False:
                    failed_cas += 1
            return res

        try:
            barrier.wait()
            for i in range(ops):
                if rng.random() < PUSH_RATIO:
                    e = (tid, i)
                    run_local(tb.push_program(lambda env, e=e: e), loop_bound, execute)
                    logs[tid].append((last, "push", e))
                else:
                    r = run_local(pop, loop_bound, execute)
                    if r != NONE:
                        logs[tid].append((last, "pop", some_value(r)))
                    else:
                        logs[tid].append((last, "empty", None))
        except Exception as exc:  # noqa: BLE001 - surfaced in the report
            errors.append(f"thread {tid}: {exc!r}")

    ts = [threading.Thread(target=worker, args=(t,)) for t in range(threads)]
    # the default interpreter switch interval would let each worker finish
    # inside a single slice; shrink it so schedules genuinely interleave
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in ts:
            t.start()
        for t in ts:
            t.join()
    finally:
        sys.setswitchinterval(old_interval)
    report.primitives, report.failed_cas = clock, failed_cas
    if errors:
        report.violations.extend(errors)
        return report
    merged = sorted((entry for mine in logs for entry in mine), key=lambda entry: entry[0])
    log, stamp = [], 0
    for _, op, e in merged:
        if op == "empty":
            log.append((None, op, e))
        else:
            stamp += 1
            log.append((stamp, op, e))
    parsed = tb.parse_stack(Heap(heap))
    if parsed is None:
        report.violations.append("shared heap holds no stack")
        return report
    validate_log(log, parsed[1], report)
    return report


def log_as_history(log: list, empty_errors: Optional[list] = None) -> Hist:
    """The recorded log as a stack history.  A pop of ``e`` is recorded as
    ``(e::post, post)``, so popping anything but the head breaks
    continuity.  ``empty`` observations are not events of the history;
    each one made where the replayed stack is not empty is described in
    ``empty_errors``."""
    state: tuple = ()
    entries = {0: ((), ())}
    last = 0
    for stamp, op, elem in log:
        if op == "push":
            entries[stamp] = (state, (elem,) + state)
            state = (elem,) + state
        elif op == "pop":
            state = state[1:]
            entries[stamp] = ((elem,) + state, state)
        elif op == "empty":
            if state and empty_errors is not None:
                empty_errors.append(f"a pop answered empty after stamp {last}, "
                                    f"when the stack held {len(state)}")
            continue
        else:
            raise ValueError(f"stamp {stamp}: unknown op {op!r}")
        last = stamp
    return Hist(STACK, FrozenMap(entries))
