"""Exhaustive reference semantics at desk scale.

Everything here scans interpretation spaces outright and applies the
definitions literally; nothing touches the diagram engine.  Conditions
become truth tables over all two-valued assignments (one bit per
assignment), and the completions of a three-valued interpretation form a
subcube mask, so deciding whether a condition is forced true or false
under an interpretation is a pair of big-integer intersections.

Used to derive expected values for tests and as the ground truth in
differential runs; capped at a configurable argument count.
"""

from __future__ import annotations

from itertools import product

from .encoding import Interpretation
from .formula import Adf, And, Const, Formula, Iff, Imp, Not, Or, Var, Xor
from .semantics import SEMANTICS

DEFAULT_CAP = 12


def _check_cap(adf: Adf, cap: int) -> None:
    if adf.n > cap:
        raise ValueError(f"{adf.n} arguments exceed the brute-force cap of {cap}")


def _truth_table(formula: Formula, index: dict[str, int], n: int) -> int:
    """Bitmask over all 2**n assignments; bit p reads variable i as (p >> i) & 1."""
    full = (1 << (1 << n)) - 1
    if isinstance(formula, Var):
        i = index[formula.name]
        mask = 0
        for p in range(1 << n):
            if (p >> i) & 1:
                mask |= 1 << p
        return mask
    if isinstance(formula, Const):
        return full if formula.value else 0
    if isinstance(formula, Not):
        return full ^ _truth_table(formula.child, index, n)
    a = _truth_table(formula.left, index, n)
    b = _truth_table(formula.right, index, n)
    if isinstance(formula, And):
        return a & b
    if isinstance(formula, Or):
        return a | b
    if isinstance(formula, Imp):
        return (full ^ a) | b
    if isinstance(formula, Iff):
        return full ^ (a ^ b)
    return a ^ b


class _Tables:
    """Per-model truth tables and the subcube masks of interpretations."""

    def __init__(self, adf: Adf):
        self.n = adf.n
        self.full = (1 << (1 << self.n)) - 1
        index = {name: i for i, name in enumerate(adf.arguments)}
        self.positive = [
            _truth_table(Var(name), index, self.n) for name in adf.arguments
        ]
        self.conditions = [
            _truth_table(condition, index, self.n) for condition in adf.conditions
        ]

    def cube(self, values: tuple[str, ...]) -> int:
        mask = self.full
        for i, v in enumerate(values):
            if v == "1":
                mask &= self.positive[i]
            elif v == "0":
                mask &= self.full ^ self.positive[i]
        return mask

    def gamma(self, values: tuple[str, ...]) -> tuple[str, ...]:
        cube = self.cube(values)
        out = []
        for table in self.conditions:
            hit = table & cube
            if hit == cube:
                out.append("1")
            elif hit == 0:
                out.append("0")
            else:
                out.append("*")
        return tuple(out)


def brute_gamma(adf: Adf, interp: Interpretation, cap: int = DEFAULT_CAP) -> Interpretation:
    """Characteristic operator by exhaustive check over all completions."""
    _check_cap(adf, cap)
    if interp.names != adf.arguments:
        raise ValueError("interpretation does not match the model's arguments")
    return Interpretation(adf.arguments, _Tables(adf).gamma(interp.values))


def _leq_info(a: tuple[str, ...], b: tuple[str, ...]) -> bool:
    return all(x == "*" or x == y for x, y in zip(a, b))


def _kleene_grounded(adf: Adf, tables: _Tables) -> tuple[str, ...]:
    current = ("*",) * adf.n
    for _ in range(adf.n + 1):
        refined = tables.gamma(current)
        if refined == current:
            return current
        current = refined
    raise RuntimeError("grounded iteration did not reach a fixed point")


def build_reduced(adf: Adf, interp: Interpretation) -> Adf:
    """Submodel over the true arguments, false ones substituted by 0."""
    if interp.names != adf.arguments:
        raise ValueError("interpretation does not match the model's arguments")
    if not interp.is_two_valued():
        raise ValueError("reduction needs a two-valued interpretation")
    false_names = {
        name for name, value in zip(interp.names, interp.values) if value == "0"
    }
    survivors = tuple(
        name for name, value in zip(interp.names, interp.values) if value == "1"
    )
    conditions = tuple(
        _fold(_substitute(adf.condition(name), false_names)) for name in survivors
    )
    return Adf(survivors, conditions)


def _substitute(formula: Formula, false_names: set[str]) -> Formula:
    if isinstance(formula, Var):
        return Const(False) if formula.name in false_names else formula
    if isinstance(formula, Const):
        return formula
    if isinstance(formula, Not):
        return Not(_substitute(formula.child, false_names))
    cls = type(formula)
    return cls(
        _substitute(formula.left, false_names),
        _substitute(formula.right, false_names),
    )


def _fold(formula: Formula) -> Formula:
    """Constant folding; exact equivalences only."""
    if isinstance(formula, (Var, Const)):
        return formula
    if isinstance(formula, Not):
        child = _fold(formula.child)
        if isinstance(child, Const):
            return Const(not child.value)
        return Not(child)
    left = _fold(formula.left)
    right = _fold(formula.right)
    lc = left.value if isinstance(left, Const) else None
    rc = right.value if isinstance(right, Const) else None
    if isinstance(formula, And):
        if lc is False or rc is False:
            return Const(False)
        if lc is True:
            return right
        if rc is True:
            return left
        return And(left, right)
    if isinstance(formula, Or):
        if lc is True or rc is True:
            return Const(True)
        if lc is False:
            return right
        if rc is False:
            return left
        return Or(left, right)
    if isinstance(formula, Imp):
        if lc is False or rc is True:
            return Const(True)
        if lc is True:
            return right
        if rc is False:
            return _fold(Not(left))
        return Imp(left, right)
    if isinstance(formula, Iff):
        if lc is not None and rc is not None:
            return Const(lc == rc)
        if lc is True:
            return right
        if rc is True:
            return left
        if lc is False:
            return _fold(Not(right))
        if rc is False:
            return _fold(Not(left))
        return Iff(left, right)
    if lc is not None and rc is not None:
        return Const(lc != rc)
    if lc is False:
        return right
    if rc is False:
        return left
    if lc is True:
        return _fold(Not(right))
    if rc is True:
        return _fold(Not(left))
    return Xor(left, right)


def _is_stable(adf: Adf, values: tuple[str, ...], tables: _Tables) -> bool:
    # two-valued model check first: every argument equals its condition
    p = 0
    for i, v in enumerate(values):
        if v == "1":
            p |= 1 << i
    for i, table in enumerate(tables.conditions):
        holds = (table >> p) & 1
        if bool(holds) != (values[i] == "1"):
            return False
    interp = Interpretation(adf.arguments, values)
    reduced = build_reduced(adf, interp)
    grounded = _kleene_grounded(reduced, _Tables(reduced))
    return all(g == "1" for g in grounded)


def brute_semantics(adf: Adf, semantics: str, cap: int = DEFAULT_CAP) -> set[Interpretation]:
    """All interpretations satisfying the semantics, by full scan."""
    _check_cap(adf, cap)
    if semantics not in SEMANTICS:
        raise ValueError(f"unknown semantics {semantics!r}")
    tables = _Tables(adf)
    names = adf.arguments

    if semantics == "2v":
        out = set()
        for bits in product("01", repeat=adf.n):
            gamma = tables.gamma(bits)
            if gamma == bits:
                out.add(Interpretation(names, bits))
        return out

    if semantics == "stb":
        return {
            Interpretation(names, bits)
            for bits in product("01", repeat=adf.n)
            if _is_stable(adf, bits, tables)
        }

    admissible = []
    complete = []
    for values in product("01*", repeat=adf.n):
        gamma = tables.gamma(values)
        if _leq_info(values, gamma):
            admissible.append(values)
            if gamma == values:
                complete.append(values)

    if semantics == "adm":
        return {Interpretation(names, v) for v in admissible}
    if semantics == "com":
        return {Interpretation(names, v) for v in complete}
    if semantics == "grd":
        least = [
            v for v in complete if all(_leq_info(v, other) for other in complete)
        ]
        if len(least) != 1:
            raise RuntimeError("complete set has no unique least element")
        return {Interpretation(names, least[0])}

    # preferred: maximal elements of the admissible set; any strict
    # refinement has strictly fewer unknowns, so only compare downward
    by_stars: dict[int, list[tuple[str, ...]]] = {}
    for v in admissible:
        by_stars.setdefault(v.count("*"), []).append(v)
    maximal = set()
    refined: list[tuple[str, ...]] = []
    for k in sorted(by_stars):
        for v in by_stars[k]:
            if not any(_leq_info(v, other) for other in refined):
                maximal.add(Interpretation(names, v))
        refined.extend(by_stars[k])
    return maximal
