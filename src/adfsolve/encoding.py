"""Variable layout, condition compilation, and the dual-variable transform.

Each argument ``i`` owns two adjacent decision variables, at the levels
its position in the layout gives: a *dual* pair ``(top, bot)`` encoding a
three-valued assignment as ``(1,0) = true``, ``(0,1) = false`` and
``(1,1) = unknown``; ``(0,0)`` is invalid and ruled out by the validity
constraint ``top | bot`` per argument.  The layout is the declaration
order, or for counting the reversed order when ``fold_layout`` finds it
cheaper to conjoin.  A two-valued interpretation is a valid pair with
``bot = ~top``, so two-valued sets (the ``direct`` kind) range over the
top variables alone: an argument is true when its top variable is.  Keeping the pairs interleaved keeps every
per-argument constraint local in the variable order.

The dual transform turns a function over the top variables, read as
two-valued, into the function over dual pairs that holds exactly when
*some* two-valued refinement of the three-valued assignment satisfies
the original.  It is the engine's rebuild pass over the top levels: a
decision on the top variable of argument ``i`` with branches ``(lo, hi)``
becomes ``(top_i & T(hi)) | (bot_i & T(lo))``.

The characteristic operator at a point is itself a dual valuation:
argument ``i``'s pair ``(top_fn, bot_fn)`` evaluated there.  Only the
encoder and the value tables read by the decoder and by the walkers in
``solutions`` spell the truth-value code, and every reader finds an
argument's bits at the layout's ``top`` and ``bot`` levels, never by
position in a valuation.

The listing line, ``name:value`` pairs separated by single spaces, is
spelled once, by ``_line_labels``.  ``format_line`` joins its labels with
the values, and it builds the layout's *row*: the line as UTF-8 bytes
with its newline, and the byte offset of each value, into which the
walkers write one value byte per argument.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from operator import itemgetter

from .bdd import _DUAL, Bdd, BddManager
from .formula import Adf, And, Const, Formula, Iff, Imp, Not, Or, Var, _Record, _set, variables


class EncodingError(Exception):
    """Invalid interpretation encoding or misplaced variables."""


_TRUTH_VALUES = frozenset(("0", "1", "*"))


def _line_labels(names: tuple[str, ...]) -> list[str]:
    """The text before each value of a listing line: ``name:``, after a
    space for every argument but the first."""
    return [(" " if i else "") + name + ":" for i, name in enumerate(names)]


def _row_template(names: tuple[str, ...]) -> tuple[bytes, tuple[int, ...]]:
    """The line as UTF-8 bytes ending in a newline, and each value's byte
    offset; the values read ``?`` until a walker writes them."""
    row = bytearray()
    offsets = []
    for label in _line_labels(names):
        row += label.encode()
        offsets.append(len(row))
        row += b"?"
    return bytes(row + b"\n"), tuple(offsets)


class Interpretation(_Record):
    """Three-valued assignment over named arguments; values are '1', '0', '*'.

    The public constructor checks its values and keeps both fields as
    tuples.  ``decode`` and the row reader build members from satisfying
    valuations and rows through ``_trusted``, which skips the check
    because such values are valid by construction.
    """

    __slots__ = __match_args__ = ("names", "values")

    def __init__(self, names: tuple[str, ...], values: tuple[str, ...]):
        if len(names) != len(values):
            raise EncodingError("names and values differ in length")
        if not _TRUTH_VALUES.issuperset(values):
            bad = next(v for v in values if v not in _TRUTH_VALUES)
            raise EncodingError(f"invalid truth value {bad!r}")
        _set(self, "names", tuple(names))
        _set(self, "values", tuple(values))

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
        """``name:value`` pairs separated by single spaces, as a listing prints them."""
        return "".join(map(str.__add__, _line_labels(self.names), self.values))


def _trusted(layout: VarLayout, values: tuple[str, ...]) -> Interpretation:
    """An interpretation over the layout's names, without the value check."""
    interp = object.__new__(Interpretation)
    _set(interp, "names", layout.names)
    _set(interp, "values", values)
    return interp


class VarLayout:
    """Interleaved per-argument variable pairs in one manager.

    Argument ``i`` sits at position ``positions[i]`` of the variable order,
    its declaration index unless ``positions`` says otherwise, and occupies
    levels ``top(i) = 2 positions[i]`` and ``bot(i) = top(i) + 1``; the
    manager therefore has ``2 n`` variables.  Names, rows and
    interpretations stay in declaration order whatever the positions:
    every reader goes through ``top`` and ``bot``, so only they place an
    argument; the dual transform and the walkers need each bot level right
    after its top one.  Two-valued sets range over ``direct_vars``, the
    top levels.
    """

    def __init__(self, names: tuple[str, ...] | list[str], positions: Sequence[int] | None = None):
        self.names = tuple(names)
        self.n = len(self.names)
        self.positions = tuple(range(self.n) if positions is None else positions)
        if sorted(self.positions) != list(range(self.n)):
            raise EncodingError("positions must order the arguments 0..n-1")
        self.manager = BddManager(2 * self.n)
        self._index = {name: i for i, name in enumerate(self.names)}
        if len(self._index) != self.n:
            raise EncodingError("duplicate argument names")
        self._row, self._offsets = _row_template(self.names)  # copied by each walk
        # a row's values; itemgetter() needs an offset, and one offset picks
        # a bare value, not a tuple
        self._values = itemgetter(*self._offsets) if self.n else lambda row: ()
        self._tops = frozenset(self.direct_vars)  # built once; every dual_transform memo key holds it

    @classmethod
    def for_adf(cls, adf: Adf) -> "VarLayout":
        return cls(adf.arguments)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise EncodingError(f"unknown argument {name!r}") from None

    def top(self, i: int) -> int:
        return 2 * self.positions[i]

    def bot(self, i: int) -> int:
        return 2 * self.positions[i] + 1

    @property
    def direct_vars(self) -> list[int]:
        return list(range(0, 2 * self.n, 2))

    @property
    def dual_vars(self) -> list[int]:
        return list(range(2 * self.n))


def fold_layout(adf: Adf) -> VarLayout:
    """The declared layout or the reversed one, whichever the fold prefers.

    ``conjoin`` folds the per-argument clauses from the deepest top level
    up.  Argument ``i``'s clause reads its *support*, ``i`` and the
    arguments its condition names, and an argument is *open* once a folded
    clause names it but its own clause is not folded yet: the accumulator
    then carries it unconstrained.  Declared feed-forward, as grids and
    chains are, the fold opens a whole row of inputs before it reaches
    them; reversed, it opens none.  Of the two orders this returns the one
    with the smaller open profile (most arguments open at once, then their
    sum over the steps); a tie keeps the declared order.  Counts do not
    depend on the layout, listings do, so only counting queries use it.
    The cost is one sort of the arguments and one pass over the supports.
    """
    index = {name: i for i, name in enumerate(adf.arguments)}
    supports = [
        [i, *map(index.__getitem__, variables(condition))]
        for i, condition in enumerate(adf.conditions)
    ]
    reverse = range(adf.n - 1, -1, -1)
    if _open_profile(supports, reverse) < _open_profile(supports, range(adf.n)):
        return VarLayout(adf.arguments, reverse)
    return VarLayout(adf.arguments)


def _open_profile(supports: list[list[int]], positions: Sequence[int]) -> tuple[int, int]:
    """The most arguments open at once and their sum over the fold's steps,
    the clauses folded as ``conjoin`` orders them: by the smallest position
    in their support, largest first, ties in declaration order."""
    top = [min(map(positions.__getitem__, support)) for support in supports]
    order = sorted(range(len(supports)), key=top.__getitem__, reverse=True)
    named = bytearray(len(supports))
    now = peak = total = 0
    for i in order:
        if named[i]:  # its clause closes it
            now -= 1
        for j in supports[i]:
            if not named[j]:
                named[j] = 1
                now += j != i
        peak = max(peak, now)
        total += now
    return peak, total


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
    if not layout._tops.issuperset(f.support()):
        raise EncodingError("function depends on a bot variable")
    return Bdd(man, man._rebuild(_DUAL, f.root, layout._tops, 2 * layout.n - 2))


def _check_layout(adf: Adf, layout: VarLayout) -> None:
    """Condition ``i`` is paired with argument ``i``'s variables, so the names must agree."""
    if tuple(adf.arguments) != layout.names:
        raise EncodingError("layout does not match the model's arguments")


def gamma_pairs(adf: Adf, layout: VarLayout) -> list[GammaPair]:
    """Every acceptance condition and its negation, each lifted by ``dual_transform``."""
    _check_layout(adf, layout)
    out = []
    for condition in adf.conditions:
        compiled = formula_to_bdd(condition, layout)
        out.append(GammaPair(dual_transform(compiled, layout), dual_transform(~compiled, layout)))
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
_INVALID = _DUAL_VALUE[0]


def _invalid_pair(layout: VarLayout, i: int) -> EncodingError:
    return EncodingError(f"invalid (0,0) dual pair for argument {layout.names[i]!r}")


def _row_reader(layout: VarLayout) -> Callable[[bytearray], Interpretation]:
    """The interpretation a row of the layout holds, read through the
    layout's value picker.  The row is read as latin-1, one character per
    byte, so byte offsets index it and every value byte, being ASCII, is
    its own character."""
    values = layout._values
    # one offset picks a one-character string, which tuple() splits alike
    return lambda row: _trusted(layout, tuple(values(row.decode("latin-1"))))


def _dual_values(layout: VarLayout, bits: list[tuple[int, int]]) -> Interpretation:
    """The interpretation whose argument ``i`` has the dual pair ``bits[i]``,
    a ``(top, bot)`` pair of 0/1 or bool."""
    codes = bytes(2 * top + bot for top, bot in bits).translate(_DUAL_VALUE)
    bad = codes.find(_INVALID)
    if bad >= 0:
        raise _invalid_pair(layout, bad)
    return _trusted(layout, tuple(codes.decode()))


def decode(valuation, layout: VarLayout, kind: str) -> Interpretation:
    """Read an interpretation back out of a satisfying valuation.

    ``valuation`` holds one 0/1 (or bool) per manager variable, as
    grounding produces; the walkers in ``solutions`` write rows instead.
    ``kind`` is ``direct`` or ``dual``.  Argument ``i``'s value is read at
    ``layout.top(i)``, and for ``dual`` at ``layout.bot(i)`` too.  The
    values are valid by construction, so the interpretation skips the
    constructor's check.
    """
    n = layout.n
    raw = bytes(valuation)
    if len(raw) != 2 * n or raw.translate(None, b"\x00\x01"):
        raise EncodingError(f"a valuation needs {2 * n} entries, each 0 or 1")
    if kind == "direct":
        codes = bytes(raw[layout.top(i)] for i in range(n)).translate(_DIRECT_VALUE)
        return _trusted(layout, tuple(codes.decode()))
    if kind == "dual":
        return _dual_values(layout, [(raw[layout.top(i)], raw[layout.bot(i)]) for i in range(n)])
    raise EncodingError(f"cannot decode kind {kind!r}")


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
    if len(pairs) != layout.n:
        raise EncodingError(f"{len(pairs)} operator pairs for {layout.n} arguments")
    step = [(pair.top_fn.evaluate(point), pair.bot_fn.evaluate(point)) for pair in pairs]
    return _dual_values(layout, step)
