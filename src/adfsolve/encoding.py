"""Variable layout, condition compilation, and the dual-variable transform.

Each argument ``i`` owns three adjacent decision variables: a *direct*
variable carrying its Boolean value, and a *dual* pair ``(top, bot)``
encoding a three-valued assignment as ``(1,0) = true``, ``(0,1) = false``
and ``(1,1) = unknown``; ``(0,0)`` is invalid and ruled out by the
validity constraint ``top | bot`` per argument.  Keeping the triple
interleaved keeps every per-argument coupling constraint local in the
variable order.

The dual transform turns a function over direct variables into the
function over dual variables that holds exactly when *some* two-valued
refinement of the three-valued assignment satisfies the original.  It is
a single structural pass over the diagram: a decision on the direct
variable of argument ``i`` with branches ``(lo, hi)`` becomes
``(top_i & T(hi)) | (bot_i & T(lo))``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

from .bdd import _OR, Bdd, BddManager
from .formula import Adf, And, Const, Formula, Iff, Imp, Not, Or, Var

Kind = Literal["direct", "dual"]


class EncodingError(Exception):
    """Invalid interpretation encoding or misplaced variables."""


@dataclass(frozen=True)
class Interpretation:
    """Three-valued assignment over named arguments; values are '1', '0', '*'."""

    names: tuple[str, ...]
    values: tuple[str, ...]

    def __post_init__(self):
        if len(self.names) != len(self.values):
            raise EncodingError("names and values differ in length")
        for v in self.values:
            if v not in ("0", "1", "*"):
                raise EncodingError(f"invalid truth value {v!r}")

    def __getitem__(self, name: str) -> str:
        return self.values[self.names.index(name)]

    def is_two_valued(self) -> bool:
        return "*" not in self.values

    def star_count(self) -> int:
        return self.values.count("*")

    def leq_info(self, other: "Interpretation") -> bool:
        """True when ``other`` refines this assignment only on unknowns."""
        return all(a == "*" or a == b for a, b in zip(self.values, other.values))

    def as_dict(self) -> dict[str, str]:
        return dict(zip(self.names, self.values))

    def format_line(self) -> str:
        return " ".join(f"{n}:{v}" for n, v in zip(self.names, self.values))


class VarLayout:
    """Interleaved per-argument variable triples in one manager.

    Argument ``i`` occupies levels ``3i`` (direct), ``3i + 1`` (top) and
    ``3i + 2`` (bot); the manager therefore has ``3 n`` variables.
    """

    def __init__(self, names: tuple[str, ...] | list[str]):
        self.names = tuple(names)
        self.n = len(self.names)
        self.manager = BddManager(3 * self.n)
        self._index = {name: i for i, name in enumerate(self.names)}
        if len(self._index) != self.n:
            raise EncodingError("duplicate argument names")
        self._dual_cache: dict[int, int] = {}

    @classmethod
    def for_adf(cls, adf: Adf) -> "VarLayout":
        return cls(adf.arguments)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise EncodingError(f"unknown argument {name!r}") from None

    def direct(self, i: int) -> int:
        return 3 * i

    def top(self, i: int) -> int:
        return 3 * i + 1

    def bot(self, i: int) -> int:
        return 3 * i + 2

    @property
    def direct_vars(self) -> list[int]:
        return [3 * i for i in range(self.n)]

    @property
    def dual_vars(self) -> list[int]:
        out = []
        for i in range(self.n):
            out.append(3 * i + 1)
            out.append(3 * i + 2)
        return out


@dataclass(frozen=True)
class GammaPair:
    """Dual-variable functions deciding one argument of the operator.

    ``top_fn`` holds when the argument can still become true, ``bot_fn``
    when it can still become false; together they encode the value the
    characteristic operator assigns: (1,0) true, (0,1) false, (1,1)
    unknown.
    """

    top_fn: Bdd
    bot_fn: Bdd


def formula_to_bdd(formula: Formula, layout: VarLayout) -> Bdd:
    """Compile a condition to a diagram over the direct variables."""
    man = layout.manager

    def rec(f: Formula) -> Bdd:
        if isinstance(f, Var):
            return man.var(layout.direct(layout.index(f.name)))
        if isinstance(f, Const):
            return man.true if f.value else man.false
        if isinstance(f, Not):
            return ~rec(f.child)
        left = rec(f.left)
        right = rec(f.right)
        if isinstance(f, And):
            return left & right
        if isinstance(f, Or):
            return left | right
        if isinstance(f, Imp):
            return left.implies(right)
        if isinstance(f, Iff):
            return left.iff(right)
        return left ^ right

    return rec(formula)


def dual_transform(f: Bdd, layout: VarLayout) -> Bdd:
    """Rewrite a direct-variable function into its dual-variable form.

    On valid encodings the result holds exactly when some two-valued
    refinement of the assignment satisfies ``f``; behaviour on invalid
    ``(0,0)`` pairs is unconstrained, so consumers conjoin the validity
    constraint.  Linear in the diagram size, memoized per layout.
    """
    man = layout.manager
    if f.manager is not man:
        raise EncodingError("function belongs to a different manager")
    cache = layout._dual_cache
    nodes = man._nodes

    def rec(u: int) -> int:
        if u < 2:
            return u
        found = cache.get(u)
        if found is not None:
            return found
        level, lo, hi = nodes[u]
        if level % 3 != 0:
            raise EncodingError("function depends on a dual variable")
        top = level + 1
        bot = level + 2
        can_true = rec(hi)
        can_false = rec(lo)
        either = man._apply(_OR, can_true, can_false)
        result = man._mk(
            top,
            man._mk(bot, 0, can_false),
            man._mk(bot, can_true, either),
        )
        cache[u] = result
        return result

    return Bdd(man, rec(f.root))


def gamma_pairs(adf: Adf, layout: VarLayout) -> list[GammaPair]:
    """Dual encodings of every acceptance condition and its negation."""
    out = []
    for condition in adf.conditions:
        direct = formula_to_bdd(condition, layout)
        out.append(
            GammaPair(
                top_fn=dual_transform(direct, layout),
                bot_fn=dual_transform(~direct, layout),
            )
        )
    return out


def validity_constraint(layout: VarLayout) -> Bdd:
    """Require ``top | bot`` for every argument's dual pair."""
    man = layout.manager
    clauses = [man.var(layout.top(i)) | man.var(layout.bot(i)) for i in range(layout.n)]
    return man.conjoin(clauses)


def decode(valuation, layout: VarLayout, kind: Kind) -> Interpretation:
    """Read an interpretation back out of a satisfying valuation."""
    values = []
    if kind == "direct":
        for i in range(layout.n):
            values.append("1" if valuation[layout.direct(i)] else "0")
    elif kind == "dual":
        for i in range(layout.n):
            top = valuation[layout.top(i)]
            bot = valuation[layout.bot(i)]
            if top and bot:
                values.append("*")
            elif top:
                values.append("1")
            elif bot:
                values.append("0")
            else:
                raise EncodingError(f"invalid (0,0) dual pair for argument {layout.names[i]!r}")
    else:
        raise EncodingError(f"cannot decode kind {kind!r}")
    return Interpretation(layout.names, tuple(values))


def encode_interpretation(interp: Interpretation, layout: VarLayout, kind: Kind) -> list[bool]:
    """Valuation selecting exactly this interpretation; inverse of decode."""
    if interp.names != layout.names:
        raise EncodingError("interpretation does not match the layout's arguments")
    valuation = [False] * layout.manager.num_vars
    for i, value in enumerate(interp.values):
        if kind == "direct":
            if value == "*":
                raise EncodingError("cannot encode unknowns on direct variables")
            valuation[layout.direct(i)] = value == "1"
        elif kind == "dual":
            valuation[layout.top(i)] = value in ("1", "*")
            valuation[layout.bot(i)] = value in ("0", "*")
        else:
            raise EncodingError(f"cannot encode kind {kind!r}")
    return valuation


def apply_gamma(pairs: list[GammaPair], interp: Interpretation, layout: VarLayout) -> Interpretation:
    """Point evaluation of the characteristic operator at one interpretation."""
    valuation = encode_interpretation(interp, layout, "dual")
    values = []
    for pair in pairs:
        can_true = pair.top_fn.evaluate(valuation)
        can_false = pair.bot_fn.evaluate(valuation)
        if can_true and can_false:
            values.append("*")
        elif can_true:
            values.append("1")
        else:
            values.append("0")
    return Interpretation(layout.names, tuple(values))
