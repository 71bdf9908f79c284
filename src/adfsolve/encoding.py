"""Variable layout, condition compilation, and the dual-variable transform.

Each argument ``i`` owns two adjacent decision variables, a *dual* pair
``(top, bot)`` encoding a three-valued assignment as ``(1,0) = true``,
``(0,1) = false`` and ``(1,1) = unknown``; ``(0,0)`` is invalid and ruled
out by the validity constraint ``top | bot`` per argument.  A two-valued
interpretation is a valid pair with ``bot = ~top``, so two-valued sets
(the ``direct`` kind) range over the top variables alone: an argument is
true when its top variable is.  Keeping the pairs interleaved keeps every
per-argument constraint local in the variable order.

The dual transform turns a function over the top variables, read as
two-valued, into the function over dual pairs that holds exactly when
*some* two-valued refinement of the three-valued assignment satisfies
the original.  It is the engine's rebuild pass over the top levels: a
decision on the top variable of argument ``i`` with branches ``(lo, hi)``
becomes ``(top_i & T(hi)) | (bot_i & T(lo))``.

The characteristic operator at a point is itself a dual valuation:
argument ``i``'s pair ``(top_fn, bot_fn)`` evaluated there.  Only the
encoder and the decoder spell the truth-value code.
"""

from __future__ import annotations

from .bdd import _DUAL, Bdd, BddManager
from .formula import Adf, And, Const, Formula, Iff, Imp, Not, Or, Var, _Record, _set


class EncodingError(Exception):
    """Invalid interpretation encoding or misplaced variables."""


_TRUTH_VALUES = frozenset(("0", "1", "*"))


def _line_template(names: tuple[str, ...]) -> str:
    """``%`` template printing ``name:value`` pairs, one ``%s`` per value."""
    return " ".join(name.replace("%", "%%") + ":%s" for name in names)


class Interpretation(_Record):
    """Three-valued assignment over named arguments; values are '1', '0', '*'.

    The public constructor checks its values.  ``decode`` builds members
    from satisfying valuations through ``_trusted``, which skips the check
    because such values are valid by construction, and hands over the
    layout's line template so that ``format_line`` is one ``%``.
    """

    __slots__ = ("names", "values", "_line")
    __match_args__ = ("names", "values")

    def __init__(self, names: tuple[str, ...], values: tuple[str, ...]):
        if len(names) != len(values):
            raise EncodingError("names and values differ in length")
        if not _TRUTH_VALUES.issuperset(values):
            bad = next(v for v in values if v not in _TRUTH_VALUES)
            raise EncodingError(f"invalid truth value {bad!r}")
        _set(self, "names", names)
        _set(self, "values", values)

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
        """``name:value`` pairs separated by single spaces."""
        try:
            line = self._line
        except AttributeError:  # built by the public constructor
            line = _line_template(self.names)
            _set(self, "_line", line)
        return line % self.values


def _trusted(layout: VarLayout, values: tuple[str, ...]) -> Interpretation:
    """An interpretation over the layout's names, without the value check."""
    interp = object.__new__(Interpretation)
    _set(interp, "names", layout.names)
    _set(interp, "values", values)
    _set(interp, "_line", layout._line)
    return interp


class VarLayout:
    """Interleaved per-argument variable pairs in one manager.

    Argument ``i`` occupies levels ``2i`` (top) and ``2i + 1`` (bot); the
    manager therefore has ``2 n`` variables.  Two-valued sets range over
    ``direct_vars``, the top levels.
    """

    def __init__(self, names: tuple[str, ...] | list[str]):
        self.names = tuple(names)
        self.n = len(self.names)
        self.manager = BddManager(2 * self.n)
        self._index = {name: i for i, name in enumerate(self.names)}
        if len(self._index) != self.n:
            raise EncodingError("duplicate argument names")
        self._line = _line_template(self.names)  # read by decode

    @classmethod
    def for_adf(cls, adf: Adf) -> "VarLayout":
        return cls(adf.arguments)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise EncodingError(f"unknown argument {name!r}") from None

    def top(self, i: int) -> int:
        return 2 * i

    def bot(self, i: int) -> int:
        return 2 * i + 1

    @property
    def direct_vars(self) -> list[int]:
        return list(range(0, 2 * self.n, 2))

    @property
    def dual_vars(self) -> list[int]:
        return list(range(2 * self.n))


class GammaPair(_Record):
    """Dual-variable functions deciding one argument of the operator.

    ``top_fn`` holds when the argument can still become true, ``bot_fn``
    when it can still become false; evaluated at a point, they are the
    dual pair of the value the characteristic operator assigns there.
    """

    __slots__ = __match_args__ = ("top_fn", "bot_fn")

    def __init__(self, top_fn: Bdd, bot_fn: Bdd):
        _set(self, "top_fn", top_fn)
        _set(self, "bot_fn", bot_fn)


def formula_to_bdd(formula: Formula, layout: VarLayout) -> Bdd:
    """Compile a condition to a two-valued diagram over the top variables."""
    man = layout.manager

    def rec(f: Formula) -> Bdd:
        if isinstance(f, Var):
            return man.var(layout.top(layout.index(f.name)))
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
    """Rewrite a two-valued function over the top variables into dual form.

    A node on top variable ``v`` becomes decisions on ``(v, v + 1)``; a
    function that depends on a bot variable is rejected.  On valid
    encodings the result holds exactly when some two-valued refinement of
    the assignment satisfies ``f``; behaviour on invalid ``(0,0)`` pairs is
    unconstrained, so consumers conjoin the validity constraint.  The
    transform is the engine's rebuild pass over the top levels, linear in
    the diagram size; results are kept in the manager's memo until the
    next fold step or collection.
    """
    man = layout.manager
    if f.manager is not man:
        raise EncodingError("function belongs to a different manager")
    if any(v % 2 for v in f.support()):
        raise EncodingError("function depends on a bot variable")
    return Bdd(man, man._rebuild(_DUAL, f.root, frozenset(layout.direct_vars), 2 * layout.n - 2))


def _check_layout(adf: Adf, layout: VarLayout) -> None:
    """Condition ``i`` is paired with argument ``i``'s variables, so the names must agree."""
    if tuple(adf.arguments) != layout.names:
        raise EncodingError("layout does not match the model's arguments")


def gamma_pairs(adf: Adf, layout: VarLayout) -> list[GammaPair]:
    """Dual encodings of every acceptance condition and its negation."""
    _check_layout(adf, layout)
    man = layout.manager
    # compiled conditions read only top variables; one level set keys every pass
    tops = frozenset(layout.direct_vars)
    deepest = 2 * layout.n - 2
    out = []
    for condition in adf.conditions:
        compiled = formula_to_bdd(condition, layout)
        out.append(
            GammaPair(
                top_fn=Bdd(man, man._rebuild(_DUAL, compiled.root, tops, deepest)),
                bot_fn=Bdd(man, man._rebuild(_DUAL, (~compiled).root, tops, deepest)),
            )
        )
    return out


def validity_constraint(layout: VarLayout) -> Bdd:
    """Require ``top | bot`` for every argument's dual pair."""
    man = layout.manager
    clauses = [man.var(layout.top(i)) | man.var(layout.bot(i)) for i in range(layout.n)]
    return man.conjoin(clauses)


# a top byte -> its value in a two-valued set
_DIRECT_VALUE = bytes.maketrans(b"\x00\x01", b"01")
# 2 top + bot -> value; the invalid (0,0) pair reads '?'
_DUAL_VALUE = bytes.maketrans(b"\x00\x01\x02\x03", b"?01*")


def decode(valuation, layout: VarLayout, kind: str) -> Interpretation:
    """Read an interpretation back out of a satisfying valuation.

    ``valuation`` holds one 0/1 (or bool) per manager variable, as the
    readers in ``solutions`` produce; ``kind`` is ``direct`` or ``dual``.
    The values are computed by C-level bytes operations and trusted by
    construction, so the interpretation skips the constructor's check.
    """
    n = layout.n
    raw = bytes(valuation)
    if len(raw) != 2 * n or raw.translate(None, b"\x00\x01"):
        raise EncodingError(f"a valuation needs {2 * n} entries, each 0 or 1")
    if kind == "direct":
        codes = raw[0::2].translate(_DIRECT_VALUE)
    elif kind == "dual":
        pairs = 2 * int.from_bytes(raw[0::2], "big") + int.from_bytes(raw[1::2], "big")
        codes = pairs.to_bytes(n, "big").translate(_DUAL_VALUE)
        bad = codes.find(b"?")
        if bad >= 0:
            name = layout.names[bad]
            raise EncodingError(f"invalid (0,0) dual pair for argument {name!r}")
    else:
        raise EncodingError(f"cannot decode kind {kind!r}")
    return _trusted(layout, tuple(codes.decode()))


def encode_interpretation(interp: Interpretation, layout: VarLayout, kind: str) -> list[bool]:
    """Valuation selecting exactly this interpretation; inverse of decode."""
    if interp.names != layout.names:
        raise EncodingError("interpretation does not match the layout's arguments")
    if kind not in ("direct", "dual"):
        raise EncodingError(f"cannot encode kind {kind!r}")
    if kind == "direct" and not interp.is_two_valued():
        raise EncodingError("cannot encode unknowns in a two-valued set")
    # a two-valued interpretation gets its valid dual pairs; its sets read
    # only the top variables
    valuation = [False] * layout.manager.num_vars
    for i, value in enumerate(interp.values):
        valuation[layout.top(i)] = value in ("1", "*")
        valuation[layout.bot(i)] = value in ("0", "*")
    return valuation


def apply_gamma(pairs: list[GammaPair], interp: Interpretation, layout: VarLayout) -> Interpretation:
    """The operator at one interpretation: each argument's ``(top_fn, bot_fn)`` evaluated there."""
    point = encode_interpretation(interp, layout, "dual")
    step = [fn.evaluate(point) for pair in pairs for fn in (pair.top_fn, pair.bot_fn)]
    return decode(step, layout, "dual")
