"""Native stress mode: real OS threads hammering a lock-free stack.

The shared structure lives in ordinary mutable cells; the only
synchronization primitive is a compare-and-swap that atomically also
draws a timestamp from one global counter and appends the committed
operation to the log.  Workers run the usual push/pop loops (allocate,
link, CAS; read head, CAS it out), so every interleaving the OS
scheduler produces is a real one.

Validation is post hoc: the timestamped log is read as a stack history
and checked by the same predicates the modeled runs use
(``specs.stack_accounting`` and ``history.lemma2_oracle``): stamps must be
gap-free from the initial entry (completeness), each event's pre-state
must equal the previous post-state (continuity), each event must push
or pop a single element (stack-likeness), and the push/pop multisets
must account for the final stack contents.  A failed CAS publishes
nothing, so the log contains exactly the committed operations.
"""

from __future__ import annotations

import random
import sys
import threading
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from .fmap import FrozenMap
from .history import lemma2_oracle
from .pcm import STACK, Hist
from .specs import stack_accounting


class NativeStack:
    """Treiber stack over mutable cells with a logging CAS."""

    def __init__(self):
        self._cas_lock = threading.Lock()
        self._alloc_lock = threading.Lock()
        self.top: Optional[int] = None  # node id or None
        self.nodes: dict[int, tuple] = {}  # id -> (elem, next id or None)
        self._next = 1
        self.log: list[tuple] = []  # (stamp, "push"|"pop", elem)
        self._stamp = 1

    def alloc(self, elem, nxt) -> int:
        with self._alloc_lock:
            nid = self._next
            self._next += 1
        self.nodes[nid] = (elem, nxt)
        return nid

    def cas_top(self, expected, desired, op, elem) -> bool:
        """One hardware-style atomic: compare, swap, stamp, and log."""
        with self._cas_lock:
            if self.top != expected:
                return False
            self.top = desired
            self.log.append((self._stamp, op, elem))
            self._stamp += 1
            return True

    def push(self, elem):
        nid = self.alloc(elem, self.top)
        while True:
            top = self.top
            self.nodes[nid] = (elem, top)
            if self.cas_top(top, nid, "push", elem):
                return

    def pop(self):
        while True:
            top = self.top
            if top is None:
                return None
            elem, nxt = self.nodes[top]
            if self.cas_top(top, nxt, "pop", elem):
                return elem

    def contents(self) -> tuple:
        out = []
        cur = self.top
        while cur is not None:
            elem, nxt = self.nodes[cur]
            out.append(elem)
            cur = nxt
        return tuple(out)


@dataclass
class NativeReport:
    threads: int
    ops: int
    committed: int = 0
    pushes: int = 0
    pops: int = 0
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
            "verdict": self.verdict,
            "violations": self.violations[:20],
        }


def validate_log(log: list, final: tuple, report: NativeReport):
    """Check the log, read as a stack history, against the history
    predicates and the final stack contents."""
    try:
        tau = log_as_history(log)
    except ValueError as exc:
        report.violations.append(str(exc))
        return
    report.violations.extend(stack_accounting(tau, final))
    if not lemma2_oracle(tau):
        report.violations.append("balanced run with unequal push/pop multisets")
    ops = Counter(op for _, op, _ in log)
    report.pushes, report.pops = ops["push"], ops["pop"]
    report.committed = len(log)


def stress(threads: int = 4, ops: int = 1000, seed: int = 0,
           push_ratio: float = 0.6) -> NativeReport:
    stack = NativeStack()
    report = NativeReport(threads, ops)
    barrier = threading.Barrier(threads)
    errors: list = []

    def worker(tid: int):
        rng = random.Random((seed << 8) | tid)
        try:
            barrier.wait()
            for i in range(ops):
                if rng.random() < push_ratio:
                    stack.push((tid, i))
                else:
                    stack.pop()
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
    if errors:
        report.violations.extend(errors)
        return report
    validate_log(stack.log, stack.contents(), report)
    return report


def log_as_history(log: list) -> Hist:
    """The recorded log as a stack history.  A pop of ``e`` is recorded as
    ``(e::post, post)``, so popping anything but the head breaks
    continuity."""
    state: tuple = ()
    entries = {0: ((), ())}
    for stamp, op, elem in log:
        if op == "push":
            entries[stamp] = (state, (elem,) + state)
            state = (elem,) + state
        elif op == "pop":
            state = state[1:]
            entries[stamp] = ((elem,) + state, state)
        else:
            raise ValueError(f"stamp {stamp}: unknown op {op!r}")
    return Hist(STACK, FrozenMap(entries))
