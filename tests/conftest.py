"""Shared model generators for randomized and structured tests."""

import random
import sys
from pathlib import Path

from adfsolve.formula import Adf, And, Const, Iff, Imp, Not, Or, Var, Xor

# the benchmark's generators build its peel and free-input unions
sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
from generators import free_adf, peel_adf  # noqa: E402,F401

EXAMPLE_ADF = "s(a). s(b). s(c). ac(a,c(v)). ac(b,or(neg(a),c)). ac(c,b)."
EXAMPLE_BNET = "targets, factors\na, 1\nb, !a | c\nc, b\n"

_BINARY = (And, Or, Imp, Iff, Xor)
_NO_XOR = (And, Or, Imp, Iff)


def random_formula(rng: random.Random, names, depth: int, xor: bool = True):
    """Random condition over ``names`` with nesting up to ``depth``."""
    if depth == 0 or rng.random() < 0.25:
        if names and rng.random() < 0.9:
            return Var(rng.choice(names))
        return Const(rng.random() < 0.5)
    roll = rng.random()
    if roll < 0.2:
        return Not(random_formula(rng, names, depth - 1, xor))
    cls = rng.choice(_BINARY if xor else _NO_XOR)
    return cls(
        random_formula(rng, names, depth - 1, xor),
        random_formula(rng, names, depth - 1, xor),
    )


def random_adf(rng: random.Random, n: int, depth: int = 5, xor: bool = True) -> Adf:
    names = tuple(f"x{i}" for i in range(n))
    conditions = tuple(random_formula(rng, names, depth, xor) for _ in names)
    return Adf(names, conditions)


def random_adf_with_free_inputs(rng: random.Random, n: int, depth: int = 4) -> Adf:
    """Random model where at least one argument is a free input."""
    names = tuple(f"x{i}" for i in range(n))
    free = rng.sample(range(n), rng.randint(1, max(1, n // 2)))
    conditions = tuple(
        Var(names[i]) if i in free else random_formula(rng, names, depth)
        for i in range(n)
    )
    return Adf(names, conditions)


def renamed(formula, suffix: str):
    """``formula`` with ``suffix`` appended to every argument name."""
    if isinstance(formula, Var):
        return Var(formula.name + suffix)
    if isinstance(formula, Const):
        return formula
    if isinstance(formula, Not):
        return Not(renamed(formula.child, suffix))
    return type(formula)(renamed(formula.left, suffix), renamed(formula.right, suffix))


def disjoint_union(parts) -> Adf:
    """The models in ``parts``, part ``j``'s names suffixed ``_j``, as one model."""
    names, conditions = [], []
    for j, part in enumerate(parts):
        names += [name + f"_{j}" for name in part.arguments]
        conditions += [renamed(c, f"_{j}") for c in part.conditions]
    return Adf(tuple(names), tuple(conditions))


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
