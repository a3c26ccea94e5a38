"""Operations and well-formedness predicates on timestamped histories.

A history maps natural timestamps to (pre, post) abstract-state pairs.
Stack histories record list states; snapshot histories record
(x-contents, y-contents, x-version) triples.  The predicates here are
exactly the ones method specifications consume: freshness of stamps,
continuity, completeness, stack-likeness, the push event and the prefix
below a stamp, and the push/pop multiset extractors with their two
combination lemmas.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from .fmap import FrozenMap
from .pcm import Hist, join


class AbsentTimestampError(KeyError):
    pass


def lookup_end(tau: Hist, t: int):
    """``τ[t]``: the post-state recorded at stamp ``t``."""
    try:
        return tau.entries[t][1]
    except KeyError:
        raise AbsentTimestampError(t) from None


def strictly_before(tau: Hist, t: int) -> bool:
    """``τ < t``: every stamp in τ is strictly below ``t``."""
    return all(t2 < t for t2 in tau.stamps())


def fresh(tau: Hist) -> int:
    """The smallest natural not in ``dom(τ)``."""
    t = 0
    dom = tau.entries.keys()
    while t in dom:
        t += 1
    return t


def last_stamp(tau: Hist) -> Optional[int]:
    if not tau.entries:
        return None
    return max(tau.stamps())


def below(tau: Hist, t: int) -> Hist:
    """The prefix of ``τ`` under ``t``: its entries stamped below ``t``."""
    return Hist(tau.kind, FrozenMap({s: p for s, p in tau.entries.items() if s < t}))


def push_event(tau: Hist, e) -> Hist:
    """The one-event history that pushes ``e`` onto the end of ``τ`` at
    ``τ``'s fresh stamp; ``τ`` must not be empty."""
    end = lookup_end(tau, last_stamp(tau))
    return Hist.of(tau.kind, {fresh(tau): (end, (e,) + end)})


def is_continuous(tau: Hist) -> bool:
    """Adjacent stamps chain: post at ``t`` equals pre at ``t+1``."""
    for t, (_, post) in tau.entries.items():
        nxt = tau.entries.get(t + 1)
        if nxt is not None and nxt[0] != post:
            return False
    return True


def is_complete(tau: Hist) -> bool:
    """Stamp 0 holds an initialization pair (l0, l0) and stamps are gap-free."""
    if 0 not in tau.entries:
        return False
    pre0, post0 = tau.entries[0]
    if pre0 != post0:
        return False
    n = len(tau.entries)
    return all(t in tau.entries for t in range(n))


def is_stacklike(tau: Hist) -> bool:
    """Every non-initial entry pushes or pops a single element."""
    for t, (pre, post) in tau.entries.items():
        if t == 0:
            continue
        if len(post) == len(pre) + 1 and post[1:] == pre:
            continue
        if len(pre) == len(post) + 1 and pre[1:] == post:
            continue
        return False
    return True


def pushed(tau: Hist) -> Counter:
    """Multiset of pushed elements, counting the stamp-0 contents."""
    out: Counter = Counter()
    for t, (pre, post) in tau.entries.items():
        if t == 0 and pre == post:
            out.update(pre)
        elif len(post) == len(pre) + 1 and post[1:] == pre:
            out[post[0]] += 1
    return out


def popped(tau: Hist) -> Counter:
    """Multiset of popped elements."""
    out: Counter = Counter()
    for t, (pre, post) in tau.entries.items():
        if t > 0 and len(pre) == len(post) + 1 and pre[1:] == post:
            out[pre[0]] += 1
    return out


def lemma1_oracle(t1: Hist, t2: Hist) -> bool:
    """Push-only and pop-only histories combine without interference.

    When ``popped(τ1)`` and ``pushed(τ2)`` are both empty, the join must
    satisfy ``pushed(τ1 ⊎ τ2) == pushed(τ1)`` and ``popped(τ1 ⊎ τ2) ==
    popped(τ2)``.  Vacuously true when the premise fails.
    """
    combined = join(t1, t2)
    if combined is None:
        raise ValueError("histories overlap; join undefined")
    if popped(t1) or pushed(t2):
        return True
    return pushed(combined) == pushed(t1) and popped(combined) == popped(t2)


def lemma2_oracle(tau: Hist) -> bool:
    """Complete, stacklike, balanced histories push and pop the same multiset.

    Returns ``False`` only on an actual counterexample to the
    conclusion; histories failing the premise pass vacuously.
    """
    p, q = pushed(tau), popped(tau)
    if not (is_complete(tau) and is_stacklike(tau) and sum(p.values()) == sum(q.values())):
        return True
    return p == q
