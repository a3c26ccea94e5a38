"""A straight-line counting scenario, the explorer's exactness fixture.

Each of ``threads`` threads writes ``steps`` times to a cell of its own, so
every interleaving is independent and the path count is a multinomial.
"""

from histrio.pcm import Heap, Loc
from histrio.program import ActN, const, do
from histrio.scenarios import par_chain, split_take
from histrio.scheduler import Scenario
from histrio.structures import private_heap as pv


def counting_scenario(threads: int = 2, steps: int = 2) -> Scenario:
    cells = {Loc(100 * (i + 1)): 0 for i in range(threads)}
    root = pv.initial_state(Heap(cells))
    programs = []
    for i in range(threads):
        loc = Loc(100 * (i + 1))
        prog = const(())
        for s in range(steps):
            prog = do(
                (None, ActN(lambda env, loc=loc, s=s: pv.write(loc, s + 1), "w")),
                ret=prog,
            )
        programs.append(prog)
    splits = []
    for i in range(threads - 1):
        loc = Loc(100 * (i + 1))
        splits.append(split_take({pv.LB: Heap({loc: 0})}))
    return Scenario(
        name="counting",
        conc=pv.concurroid(),
        root=root,
        program=par_chain(programs, splits),
    )
