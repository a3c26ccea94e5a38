"""Scenario definitions: structure + initial state + thread programs + oracles.

Each builder assembles one runnable verification scenario.  Fork split
directives are part of the scenario (the verification chooses how the
parent's contributions are divided), thread ids are assigned
deterministically (left child keeps the parent's id, right child gets
the next fresh one), and the thread holding an extra contribution runs
its procedure framed.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from typing import Optional

from .concurroid import entangle
from .fmap import FrozenMap
from .history import is_complete, is_continuous, is_stacklike, pushed
from .pcm import (
    INIT,
    NONE,
    NOT_OWN,
    NULL,
    STACK,
    Heap,
    Hist,
    IdSet,
    Loc,
    Triple,
    is_some,
    join,
    map_subtract,
    pcm_order,
    render,
    some_value,
    unit_map_like,
)
from .program import ActN, HideN, IfN, LoopN, ParN, Ret, RETRY, SpecedN, const, do
from .scheduler import Config, PhiSpec, Scenario, leaf_view
from .specs import (
    consume_spec,
    exchange_oracle,
    join_lemma_checks,
    pop_spec,
    produce_spec,
    push_spec,
    read_pair_spec,
    snapshot_validity,
    stack_accounting,
)
from .state import SubjState
from .structures import flatcombiner as fc
from .structures import private_heap as pv
from .structures import snapshot as sp
from .structures import treiber as tb


class SizeError(ValueError):
    """A scenario size whose heap layout cannot be built."""


def split_take(parts: dict):
    """Split directive: the left child takes the named components, the
    right child keeps the rest."""

    def split(env, view):
        a = unit_map_like(view.self_)
        for lbl, v in parts.items():
            a = a.set(lbl, v)
        b = map_subtract(view.self_, a)
        if b is None:
            raise ValueError(f"split directive {parts!r} does not divide self")
        return a, b

    return split


def par_chain(programs: list, splits: list) -> object:
    """Right-nested parallel composition: Par(p0, Par(p1, ...))."""
    node = programs[-1]
    for prog, split in zip(reversed(programs[:-1]), reversed(splits)):
        node = ParN(prog, node, split)
    return node


def _merge_roots(*states: SubjState) -> SubjState:
    acc = states[0]
    for w in states[1:]:
        merged = acc.merge_disjoint(w)
        if merged is None:
            raise ValueError("root states overlap")
        acc = merged
    return acc


# ---------------------------------------------------------------------------
# Pair snapshot: one reader racing a configurable crowd of writers
# ---------------------------------------------------------------------------

def pair_snapshot_scenario(writers: int = 2) -> Scenario:
    conc = sp.concurroid()
    root = sp.initial_state("A", "C")
    xs, ys = "BEF", "DGH"
    reader = sp.read_pair_program(read_pair_spec())
    programs = [reader]
    for i in range(writers):
        programs.append(sp.writer_program(xs[i % len(xs)], ys[i % len(ys)]))
    # the reader runs with an empty self history; the first writer carries
    # the initialization event as a frame
    splits = [split_take({sp.LB: Hist(sp.SNAPSHOT)})]
    if writers >= 1:
        splits.append(split_take({sp.LB: root.self_[sp.LB]}))
    splits += [split_take({})] * (writers - 2)
    splits = splits[: len(programs) - 1]
    program = par_chain(programs, splits)

    def final_oracle(cfg: Config, result) -> list:
        reader_res = result[0] if writers else result
        view = leaf_view(cfg, cfg.threads[0])
        total = join(view.self_[sp.LB], view.other[sp.LB])
        return snapshot_validity([reader_res], total)

    return Scenario(
        name="pair-snapshot",
        conc=conc,
        root=root,
        program=program,
        final_oracle=final_oracle,
    )


# ---------------------------------------------------------------------------
# Treiber: two pushers and a popper over the entangled structure
# ---------------------------------------------------------------------------

def treiber_scenario(pushers: int = 2, elems: tuple = ("a", "b")) -> Scenario:
    if not 0 <= pushers <= len(elems):
        raise SizeError(f"treiber builds one pusher per element, 0 to {len(elems)}: "
                        f"asked for {pushers}")
    conc = entangle(pv.concurroid(), tb.concurroid())
    root = _merge_roots(pv.initial_state(), tb.initial_state(()))
    programs = [
        tb.push_program(lambda env, e=e: e, push_spec(e)) for e in elems[:pushers]
    ] + [tb.pop_program(pop_spec())]
    init_hist = root.self_[tb.LB]
    splits = [split_take({tb.LB: init_hist})]  # first pusher carries the init event
    splits += [split_take({})] * (len(programs) - 2)
    program = par_chain(programs, splits)

    def final_oracle(cfg: Config, result) -> list:
        out = []
        view = leaf_view(cfg, cfg.threads[0])
        total = join(view.self_[tb.LB], view.other[tb.LB])
        parsed = tb.parse_stack(view.joint[tb.LB])
        if parsed is None:
            return ["final joint heap is not a stack"]
        _, contents, _, _ = parsed
        out.extend(stack_accounting(total, contents))

        def returns(r, acc):
            if isinstance(r, tuple) and len(r) == 2 and not is_some(r) and r != NONE:
                returns(r[0], acc)
                returns(r[1], acc)
            else:
                acc.append(r)

        acc: list = []
        returns(result, acc)
        for r in acc:
            if is_some(r) and some_value(r) not in elems:
                out.append(f"pop returned a never-pushed element {render(r)}")
        return out

    return Scenario(
        name="treiber",
        conc=conc,
        root=root,
        program=program,
        final_oracle=final_oracle,
    )


# ---------------------------------------------------------------------------
# Producer / consumer over a hidden stack
# ---------------------------------------------------------------------------

AP_BASE = 5001


def make_treiber_phi(init_contents: tuple) -> PhiSpec:
    """Abstraction predicate for a hidden stack: the self history is the
    initialization event joined with the abstract value; no environment."""
    conc = tb.concurroid()

    def erase(g: Hist) -> Heap:
        if g.entries:
            contents = g.entries[max(g.stamps())][1]
        else:
            contents = init_contents
        return tb.layout(contents)

    def install(g: Hist, k: Heap):
        parsed = tb.parse_stack(k)
        if parsed is None:
            raise ValueError("hidden heap is not a stack")
        _, contents, _, _ = parsed
        hist = Hist(STACK, g.entries.set(0, (contents, contents)))
        return (
            FrozenMap({tb.LB: hist}),
            FrozenMap({tb.LB: k}),
        )

    def membership(g: Hist, w: SubjState) -> bool:
        hs = w.self_[tb.LB]
        if not isinstance(hs, Hist) or 0 not in hs.entries:
            return False
        pre0, post0 = hs.entries[0]
        if pre0 != post0:
            return False
        if Hist(STACK, hs.entries.remove(0)) != g:
            return False
        if w.other[tb.LB] != Hist(STACK):
            return False
        return conc.coherent(w)

    def recover(w: SubjState) -> Optional[Hist]:
        hs = w.self_[tb.LB]
        if not isinstance(hs, Hist) or 0 not in hs.entries:
            return None
        return Hist(STACK, hs.entries.remove(0))

    def sample_member(rng):
        w = tb.sample_state(rng)
        hs = join(w.self_[tb.LB], w.other[tb.LB])
        g = Hist(STACK, hs.entries.remove(0))
        member = SubjState(
            w.self_.set(tb.LB, hs), w.joint, w.other.set(tb.LB, Hist(STACK))
        )
        return g, member

    return PhiSpec(
        name="stack-phi",
        conc=conc,
        g0=Hist(STACK),
        erase=erase,
        install=install,
        membership=membership,
        recover=recover,
        sample_member=sample_member,
    )


def _array_heap(base: int, values: tuple) -> Heap:
    return Heap({Loc(base + i): v for i, v in enumerate(values)})


def consume_program(n: int, ac_base: int):
    node = Ret(lambda env: tuple(env[f"c{i}"] for i in range(n)))
    for i in reversed(range(n)):
        attempt = do(
            ("r", tb.pop_program(pop_spec())),
            ret=IfN(
                lambda env: env["r"] != NONE,
                do(
                    (None, ActN(lambda env, i=i: pv.write(Loc(ac_base + i), env["r"][1]),
                                f"ac[{i}]")),
                    ret=Ret(lambda env: env["r"][1]),
                ),
                RETRY,
            ),
        )
        node = do((f"c{i}", LoopN(attempt)), ret=node)
    return node


def producer_consumer_scenario(n: int = 3) -> Scenario:
    conc = pv.concurroid()
    ap_vals = tuple(range(1, n + 1))
    h_p = _array_heap(AP_BASE, ap_vals)
    # the consumer array starts ten cells past the producer array, or right
    # after it when that is longer
    ac_base = AP_BASE + max(n, 10)
    h_c = _array_heap(ac_base, tuple(0 for _ in range(n)))
    snt_cell = Heap({tb.SNT: NULL})
    root = pv.initial_state(
        Heap(Heap(h_p.merge_disjoint(h_c)).merge_disjoint(snt_cell))
    )
    phi = make_treiber_phi(())

    producer = SpecedN(produce_spec(ap_vals), _produce_body(n))
    consumer = SpecedN(consume_spec(n), consume_program(n, ac_base))
    init_hist = Hist.of(STACK, {0: ((), ())})
    split = split_take({pv.LB: h_p, tb.LB: init_hist})
    program = HideN(phi, ParN(producer, consumer, split))

    def final_oracle(cfg: Config, result) -> list:
        out = []
        heap = cfg.threads[0].self_[pv.LB]
        consumed = tuple(heap.get(Loc(ac_base + i)) for i in range(n))
        msg = exchange_oracle(ap_vals)(consumed)
        if msg is not None:
            out.append(msg)
        if any(Loc(AP_BASE + i) not in heap for i in range(n)):
            out.append("producer array lost")
        return out

    return Scenario(
        name="producer-consumer",
        conc=conc,
        root=root,
        program=program,
        on_join=join_lemma_checks,
        final_oracle=final_oracle,
    )


def _produce_body(n: int):
    node = const(())
    for i in reversed(range(n)):
        node = do(
            (f"e{i}", ActN(lambda env, i=i: pv.read(Loc(AP_BASE + i)), f"ap[{i}]")),
            (None, tb.push_program(lambda env, v=f"e{i}": env[v])),
            ret=node,
        )
    return node


# ---------------------------------------------------------------------------
# Flat combiner: n threads each pushing through the combiner
# ---------------------------------------------------------------------------

def flat_combiner_scenario(threads: int = 3) -> Scenario:
    if threads > fc.MAX_SLOTS:
        raise SizeError(f"flat-combiner takes at most {fc.MAX_SLOTS} threads, "
                        "one publication slot each")
    shape = fc.stack_shape(threads)
    conc = entangle(pv.concurroid(), fc.concurroid(shape))
    root = _merge_roots(pv.initial_state(), fc.initial_state(shape))
    elems = tuple(f"e{i}" for i in range(threads))
    programs = [
        fc.flat_combine_program(shape, i, e, push_spec(
            e, mine=lambda s: s[fc.LB].aux, total=partial(fc.total_aux, shape)))
        for i, e in enumerate(elems)
    ]
    # each thread takes its slot id; the last carries the initialization event
    splits = []
    for i in range(threads - 1):
        splits.append(split_take({fc.LB: Triple(IdSet.of(i), NOT_OWN, Hist(STACK))}))
    program = par_chain(programs, splits)

    def step_invariant(w, w2):
        if fc.LB not in w.self_:
            return None
        g1 = fc.total_aux(shape, w)
        g2 = fc.total_aux(shape, w2)
        if g1 is None or g2 is None:
            return "cumulative contribution undefined"
        if not pcm_order(g1, g2):
            return "cumulative contribution shrank"
        return None

    def final_oracle(cfg: Config, result) -> list:
        out = []
        view = leaf_view(cfg, cfg.threads[0])
        total = fc.total_aux(shape, view)
        if not (is_complete(total) and is_continuous(total) and is_stacklike(total)):
            out.append("final combined history not complete/continuous/stacklike")
        if pushed(total) != Counter(elems):
            out.append(f"pushes {render(pushed(total))} != {render(Counter(elems))}")
        _, slots, _, _ = fc.parse_fc(shape, view.joint[fc.LB])
        if any(s is not INIT for s in slots):
            out.append("a publication slot is not back to Init")
        return out

    return Scenario(
        name="flat-combiner",
        conc=conc,
        root=root,
        program=program,
        step_invariants=[step_invariant],
        final_oracle=final_oracle,
    )


# ---------------------------------------------------------------------------
# Sequential recovery: hide-scoped push over a private stack
# ---------------------------------------------------------------------------

def seq_recovery_scenario(contents: tuple = ("b", "c"), elem: str = "a") -> Scenario:
    conc = pv.concurroid()
    root = pv.initial_state(tb.layout(contents))
    phi = make_treiber_phi(contents)
    program = HideN(phi, tb.push_program(lambda env: elem, push_spec(elem)))

    expected_hist = Hist.of(
        STACK, {0: (contents, contents), 1: (contents, (elem,) + contents)}
    )

    def on_hide_exit(phi_, g2, hidden) -> list:
        out = []
        if hidden.self_[tb.LB] != expected_hist:
            out.append(
                f"recovered history {render(hidden.self_[tb.LB])} != "
                f"{render(expected_hist)}"
            )
        return out

    def final_oracle(cfg: Config, result) -> list:
        heap = cfg.threads[0].self_[pv.LB]
        parsed = tb.parse_stack(heap)
        if parsed is None:
            return ["final private heap does not hold a stack"]
        _, got, _, grb = parsed
        out = []
        if got != (elem,) + contents:
            out.append(f"final stack {render(got)} != {render((elem,) + contents)}")
        return out

    return Scenario(
        name="seq-recovery",
        conc=conc,
        root=root,
        program=program,
        on_hide_exit=on_hide_exit,
        final_oracle=final_oracle,
    )
