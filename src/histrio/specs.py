"""Executable method specifications and whole-scenario oracles.

A method spec captures its logical variables from the state at call
entry (the combined history or cumulative contribution "now") and is
evaluated against the state and result at the actual return point, on
every explored path.  Because recorded histories and cumulative
contributions only grow, the captured value is a lower bound of anything
observed later, which is exactly what the postconditions consume.

One push spec serves every granularity: the lock-free Treiber push and
the flat combiner's helped push differ only in where the thread's own
history and the combined history are read.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import partial
from operator import itemgetter
from typing import Any, Callable, Optional

from .fmap import FrozenMap
from .history import (
    below,
    lemma1_oracle,
    lemma2_oracle,
    is_complete,
    is_continuous,
    is_stacklike,
    lookup_end,
    popped,
    push_event,
    pushed,
    strictly_before,
)
from .pcm import NONE, Hist, is_some, join, pcm_order, render, some_value, subtract
from .state import SubjState
from .structures import private_heap as pv
from .structures import snapshot as sp
from .structures import treiber as tb

Env = FrozenMap


@dataclass(eq=False)
class MethodSpec:
    name: str
    capture: Callable[[SubjState, Env], FrozenMap]
    post: Callable[[FrozenMap, SubjState, Any], Optional[str]]


def combined_history(view: SubjState, label: str) -> Hist:
    total = join(view.self_[label], view.other[label])
    if total is None:
        raise ValueError(f"self/other histories overlap at {label}")
    return total


# ---------------------------------------------------------------------------
# Pair snapshot
# ---------------------------------------------------------------------------

def _find_snapshot(total: Hist, tau: Hist, pair) -> Optional[int]:
    lo = max(tau.stamps(), default=-1)
    for t in sorted(total.stamps()):
        if t >= lo:
            post = lookup_end(total, t)
            if (post[0], post[1]) == pair:
                return t
    return None


def read_pair_spec() -> MethodSpec:
    def capture(view, env):
        return FrozenMap({
            "tau": combined_history(view, sp.LB),
            "self0": view.self_[sp.LB],
        })

    def post(caps, view, res):
        if view.self_[sp.LB] != caps["self0"]:
            return "reader's self history changed"
        total = combined_history(view, sp.LB)
        if not pcm_order(caps["tau"], total):
            return "captured history is not a sub-history of the current one"
        t = _find_snapshot(total, caps["tau"], (res[0], res[1]))
        if t is None:
            return (f"no stamp at or after the call holds {render(res)}: "
                    f"{render(total)}")
        return None

    return MethodSpec("readPair", capture, post)


# ---------------------------------------------------------------------------
# Treiber stack
# ---------------------------------------------------------------------------

def _singleton_delta(before: Hist, after: Hist) -> Optional[tuple]:
    delta = subtract(after, before)
    if delta is None or len(delta.entries) != 1:
        return None
    [(t, pair)] = list(delta.entries.items())
    return t, pair


def push_spec(e, mine: Callable = itemgetter(tb.LB),
              total: Callable = partial(combined_history, label=tb.LB)) -> MethodSpec:
    """push(e) at any granularity.  ``mine`` reads the thread's own history
    from its self map and ``total`` the combined history from its view; the
    defaults read the Treiber stack's.  The push adds exactly one event to
    the thread's history, stamped after the call entry, and that event is
    ``push_event`` of the combined history below its stamp."""

    def capture(view, env):
        return FrozenMap({
            "tau": total(view),
            "self0": mine(view.self_),
            "pv0": view.self_[pv.LB],
        })

    def post(caps, view, res):
        if res != ():
            return f"push returned {render(res)}"
        if view.self_[pv.LB] != caps["pv0"]:
            return "private heap not restored"
        got = _singleton_delta(caps["self0"], mine(view.self_))
        if got is None:
            return "self history did not grow by exactly one event"
        t, pair = got
        if not strictly_before(caps["tau"], t):
            return f"stamp {t} not fresh for the captured history"
        prefix = below(total(view), t)
        # push_event's one entry sits at the prefix's fresh stamp
        if not prefix.entries or push_event(prefix, e).entries.get(t) != pair:
            return f"event at {t} is not a push of {render(e)} onto the history below it"
        return None

    return MethodSpec(f"push({e!r})", capture, post)


def pop_spec() -> MethodSpec:
    def capture(view, env):
        return FrozenMap({
            "tau": combined_history(view, tb.LB),
            "self0": view.self_[tb.LB],
        })

    def post(caps, view, res):
        total = combined_history(view, tb.LB)
        if res == NONE:
            if view.self_[tb.LB] != caps["self0"]:
                return "None branch changed the self history"
            if not any(lookup_end(total, t) == () for t in total.stamps()):
                return "no stamp ever held the empty stack"
            return None
        if not is_some(res):
            return f"pop returned {render(res)}"
        got = _singleton_delta(caps["self0"], view.self_[tb.LB])
        if got is None:
            return "self history did not grow by exactly one event"
        t, (pre, post_) = got
        if pre != (some_value(res),) + post_:
            return f"event at {t} is not a pop of {render(some_value(res))}"
        if not strictly_before(caps["tau"], t):
            return f"stamp {t} not fresh for the captured history"
        return None

    return MethodSpec("pop", capture, post)


# ---------------------------------------------------------------------------
# Producer / consumer
# ---------------------------------------------------------------------------

def produce_spec(elems: tuple) -> MethodSpec:
    def capture(view, env):
        return FrozenMap({"self0": view.self_[tb.LB]})

    def post(caps, view, res):
        mine = view.self_[tb.LB]
        if popped(mine):
            return "producer popped"
        if pushed(mine) != pushed(caps["self0"]) + Counter(elems):
            return f"producer history pushes {render(pushed(mine))}"
        return None

    return MethodSpec("produce", capture, post)


def consume_spec(n: int) -> MethodSpec:
    def capture(view, env):
        return FrozenMap({"self0": view.self_[tb.LB]})

    def post(caps, view, res):
        mine = view.self_[tb.LB]
        if pushed(mine) != pushed(caps["self0"]):
            return "consumer pushed"
        got = popped(mine)
        if sum(got.values()) != n:
            return f"consumer popped {sum(got.values())} of {n}"
        if res is not None and Counter(res) != got:
            return "collected elements disagree with the popped history"
        return None

    return MethodSpec("consume", capture, post)


def exchange_oracle(ap_elems: tuple):
    """Final check: the consumed array is a multiset permutation of the
    produced one."""

    def oracle(consumed: tuple) -> Optional[str]:
        if Counter(consumed) != Counter(ap_elems):
            return (f"exchange mismatch: {render(Counter(consumed))} vs "
                    f"{render(Counter(ap_elems))}")
        return None

    return oracle


def join_lemma_checks(c1: SubjState, c2: SubjState, joined: SubjState) -> list:
    """Lemma obligations at a producer/consumer join point."""
    out = []
    h1, h2 = c1.self_[tb.LB], c2.self_[tb.LB]
    if popped(h1):
        out.append("left sibling popped; lemma premise broken")
    if pushed(h2):
        out.append("right sibling pushed; lemma premise broken")
    try:
        if not lemma1_oracle(h1, h2):
            out.append("combining pushed/popped histories failed")
    except ValueError as exc:
        out.append(str(exc))
        return out
    total = join(h1, h2)
    other = joined.other.get(tb.LB)
    if other is not None and isinstance(other, Hist) and not other.entries:
        if not (is_complete(total) and is_stacklike(total)):
            out.append("joined history not complete and stacklike")
        elif not lemma2_oracle(total):
            out.append("balanced complete stacklike history with unequal multisets")
    return out


# ---------------------------------------------------------------------------
# Trace-level oracles
# ---------------------------------------------------------------------------

def snapshot_validity(results, total: Hist) -> list:
    """Brute-force check: each returned pair must appear as the first two
    components of some recorded snapshot."""
    out = []
    for res in results:
        if not any(
            (lookup_end(total, t)[0], lookup_end(total, t)[1]) == tuple(res)
            for t in total.stamps()
        ):
            out.append(f"pair {render(res)} never coexisted: {render(total)}")
    return out


def stack_accounting(total: Hist, contents: tuple) -> list:
    """Complete/continuous/stacklike, the last entry matches the heap, and
    push/pop conservation."""
    out = []
    if not is_complete(total):
        out.append("history incomplete")
    if not is_continuous(total):
        out.append("history not continuous")
    if not is_stacklike(total):
        out.append("history not stacklike")
    if not out:
        last = max(total.stamps())
        if lookup_end(total, last) != contents:
            out.append(
                f"last entry {render(lookup_end(total, last))} != heap contents "
                f"{render(contents)}"
            )
        want = pushed(total) - popped(total)
        if want != Counter(contents):
            out.append(
                f"final contents {render(Counter(contents))} != pushed-popped "
                f"{render(want)}"
            )
    return out
