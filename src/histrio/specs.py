"""Executable method specifications and whole-scenario oracles.

A method spec captures its logical variables from the state at call
entry (the combined history or cumulative contribution "now") and is
evaluated against the state and result at the actual return point, on
every explored path.  Because self components only shrink never and
every recorded history only grows, the captured value is a lower bound
of anything observed later, which is exactly what the postconditions
consume.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Optional

from .fmap import FrozenMap
from .history import (
    lemma1_oracle,
    lemma2_oracle,
    is_complete,
    is_continuous,
    is_stacklike,
    lookup_end,
    popped,
    pushed,
    strictly_before,
)
from .pcm import INIT, NONE, Hist, is_some, join, pcm_order, render, some_value, subtract
from .state import SubjState
from .structures import flatcombiner as fc
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


def push_spec(e) -> MethodSpec:
    def capture(view, env):
        return FrozenMap({
            "tau": combined_history(view, tb.LB),
            "self0": view.self_[tb.LB],
            "pv0": view.self_[pv.LB],
        })

    def post(caps, view, res):
        if res != ():
            return f"push returned {render(res)}"
        if view.self_[pv.LB] != caps["pv0"]:
            return "private heap not restored"
        got = _singleton_delta(caps["self0"], view.self_[tb.LB])
        if got is None:
            return "self history did not grow by exactly one event"
        t, (pre, post_) = got
        if post_ != (e,) + pre:
            return f"event at {t} is not a push of {render(e)}"
        if not strictly_before(caps["tau"], t):
            return f"stamp {t} not fresh for the captured history"
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
# Flat combiner
# ---------------------------------------------------------------------------

def flat_combine_spec(shape: fc.FcShape, tid: int, arg) -> MethodSpec:
    def capture(view, env):
        return FrozenMap({
            "g": fc.total_aux(shape, view),
            "self0": view.self_[fc.LB],
            "pv0": view.self_[pv.LB],
        })

    def post(caps, view, res):
        if view.self_[pv.LB] != caps["pv0"]:
            return "private heap changed"
        s, s0 = view.self_[fc.LB], caps["self0"]
        if (s.ids, s.mx) != (s0.ids, s0.mx):
            return "thread ids or lock view changed"
        _, slots, _, _ = fc.parse_fc(shape, view.joint[fc.LB])
        if slots[tid] is not INIT:
            return f"slot {tid} not back to Init"
        delta = subtract(s.aux, s0.aux)
        if delta is None:
            return "self contribution did not grow"
        total_now = fc.total_aux(shape, view)
        g_prime = _witness(caps["g"], total_now, delta)
        if g_prime is None:
            return "no cumulative value validates the collected delta"
        if not fc.f_spec_push(arg, res, g_prime, delta):
            return (f"validity predicate rejects result {render(res)} with "
                    f"delta {render(delta)}")
        if delta.entries and not strictly_before(caps["g"], min(delta.stamps())):
            return "collected event not stamped after the call-entry total"
        return None

    def _witness(g0: Hist, total: Hist, delta: Hist) -> Optional[Hist]:
        """The cumulative value current when the help landed: the prefix of
        the final history below the delta's stamp (deltas are stamped fresh,
        so the prefix is the unique candidate)."""
        if delta.entries:
            t = min(delta.stamps())
            cand = Hist(total.kind,
                        FrozenMap({s: p for s, p in total.entries.items() if s < t}))
            if pcm_order(g0, cand):
                return cand
            return None
        for cut in sorted(total.stamps() | {max(total.stamps(), default=0) + 1}):
            cand = Hist(total.kind,
                        FrozenMap({s: p for s, p in total.entries.items() if s < cut}))
            if cand.entries and pcm_order(g0, cand) and lookup_end(
                    cand, max(cand.stamps())) == ():
                return cand
        return None

    return MethodSpec(f"flatCombine(push,{arg!r})@{tid}", capture, post)


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
