"""Model families the benchmark solves, all seeded from the run's seed.

* ``grid_adf``: a copy of the acceptance suite's grid generator, so grid
  figures line up with acceptance criterion 10 and the ROADMAP baselines.
* ``peel_adf``: disjoint unions of small components that make the
  preferred and stable peeling loops run many rounds.
* ``free_adf``: disjoint five-argument blocks with two free inputs each,
  whose small diagrams put the time into counting, sampling and output.

The peel and free families are disjoint unions of components of at most
eight arguments, so every component stays under the brute-force oracle's
cap and the answers can be checked without the diagram engine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from adfsolve.formula import Adf, And, Formula, Not, Or, Var


def grid_adf(rows: int, cols: int, seed: int = 5, free_period: int = 29) -> Adf:
    """Grid-shaped model: each cell depends on up to three neighbours."""
    rng = random.Random(seed)
    names = tuple(f"g{r}_{c}" for r in range(rows) for c in range(cols))
    conditions = []
    for r in range(rows):
        for c in range(cols):

            def ref(rr, cc):
                v = Var(f"g{rr}_{cc}")
                return Not(v) if rng.random() < 0.4 else v

            index = r * cols + c
            if index % free_period == 0:
                conditions.append(Var(names[index]))
                continue
            deps = []
            if c > 0:
                deps.append(ref(r, c - 1))
            if r > 0:
                deps.append(ref(r - 1, c))
            if r > 0 and c > 0 and rng.random() < 0.5:
                deps.append(ref(r - 1, c - 1))
            condition = deps[0]
            for dep in deps[1:]:
                condition = (
                    And(condition, dep) if rng.random() < 0.6 else Or(condition, dep)
                )
            conditions.append(condition)
    return Adf(names, tuple(conditions))


@dataclass(frozen=True)
class Component:
    """One independent part of a disjoint-union model.

    ``shape`` identifies the component up to renaming, so references can
    be computed once per shape; ``model`` is the component on its own.
    """

    shape: tuple
    model: Adf


def union(components: list[Component]) -> Adf:
    """The disjoint union, arguments in component order."""
    arguments: list[str] = []
    conditions: list[Formula] = []
    for part in components:
        arguments.extend(part.model.arguments)
        conditions.extend(part.model.conditions)
    return Adf(tuple(arguments), tuple(conditions))


def peel_component(j: int, tail: int) -> Component:
    """Mutual attack ``a = not b`` plus a tail declared last-first.

    In even components each tail argument attacks itself while ``b``
    holds, so the ``b`` branch leaves the whole tail unknown and the
    preferred interpretations differ in their number of unknowns.  In odd
    components the tail copies ``a``, so the stable models differ in how
    many arguments are true.  Declaring the tail in reverse dependency
    order makes every grounding sweep advance one step only.
    """
    a, b = Var(f"a{j}"), Var(f"b{j}")
    names = [f"t{j}_{k}" for k in range(1, tail + 1)]
    conditions = []
    prev = b if j % 2 == 0 else a
    for name in names:
        me = Var(name)
        conditions.append(And(prev, Not(And(b, me))) if j % 2 == 0 else prev)
        prev = me
    model = Adf(
        tuple(reversed(names)) + (b.name, a.name),
        tuple(reversed(conditions)) + (Not(a), Not(b)),
    )
    return Component(("peel", j % 2, tail), model)


TAIL_CYCLE = (1, 4, 2, 6, 3, 5)


def peel_adf(m: int, seed: int) -> tuple[Adf, list[Component]]:
    """``m`` peel components; ``seed`` shuffles the tail lengths within each parity.

    The k-th component of each parity has tail length ``TAIL_CYCLE[k % 6]``
    before the shuffle, so every seed builds the same components in a
    different order, and the work a model takes varies little by seed.
    """
    rng = random.Random(seed)
    tails = {}
    for parity in (0, 1):
        lengths = [TAIL_CYCLE[k % 6] for k in range(len(range(parity, m, 2)))]
        rng.shuffle(lengths)
        tails[parity] = lengths
    parts = [peel_component(j, tails[j % 2][j // 2]) for j in range(m)]
    return union(parts), parts


def _block_conditions(kind: int, p: Var, q: Var, x: Var, y: Var, z: Var) -> tuple:
    # each kind has at least 112 admissible interpretations, so ten blocks
    # count beyond 2**64; their 2v counts are 18, 15 and 12
    if kind == 0:
        return (p, q, Or(x, Not(z)), And(y, z), Or(z, Not(p)))
    if kind == 1:
        return (p, q, Or(x, p), And(Not(q), y), And(z, Not(y)))
    return (p, q, Or(q, x), And(p, y), Or(p, z))


def free_block(j: int, kind: int) -> Component:
    """Five arguments, the first two free inputs (conditions ``p`` and ``q``)."""
    names = tuple(f"{v}{j}" for v in "pqxyz")
    model = Adf(names, _block_conditions(kind, *map(Var, names)))
    return Component(("free", kind), model)


def free_adf(blocks: int, seed: int) -> tuple[Adf, list[Component]]:
    """``blocks`` free-input blocks, the three kinds in turn, shuffled by ``seed``."""
    kinds = [j % 3 for j in range(blocks)]
    random.Random(seed).shuffle(kinds)
    parts = [free_block(j, kind) for j, kind in enumerate(kinds)]
    return union(parts), parts


def permuted(adf: Adf, seed: int) -> Adf:
    """The same model with its arguments declared in a shuffled order."""
    order = list(range(adf.n))
    random.Random(seed).shuffle(order)
    return Adf(
        tuple(adf.arguments[i] for i in order),
        tuple(adf.conditions[i] for i in order),
    )
