"""Acceptance conditions and the two text formats that carry them.

The AST covers the propositional connectives plus xor, which several
benchmark families use even though network-style formats cannot spell it.
Two formats are supported:

* the ``s(name).`` / ``ac(name, expr).`` statement format where
  expressions are written functionally (``and(a, neg(b))``, constants
  ``c(v)`` and ``c(f)``), and
* the ``.bnet`` table format (``targets, factors`` header, ``&``, ``|``,
  ``!``, parentheses, constants ``0``/``1``), where a name that only ever
  appears on right-hand sides becomes a free input.

Both parsers keep one offset into the text they scan and work out a
syntax error's line and column from it only when they raise; positions
count from 1 in the file.  Writing ``.bnet`` rewrites xor/iff/imp into
and/or/not and emits the text in the same walk; that rewrite can
explode, so each node's rewritten size is checked against a node budget
before its text is built.
"""

from __future__ import annotations

import re
from operator import attrgetter

DEFAULT_NODE_BUDGET = 1_000_000


class ParseError(Exception):
    """Syntax error with its position in the input text."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class FormatError(Exception):
    """Structurally invalid model (duplicate, missing or unknown names)."""


class RewriteBudgetError(Exception):
    """Connective elimination exceeded the allowed formula size."""

    def __init__(self, argument: str, budget: int):
        super().__init__(
            f"rewriting the condition of {argument!r} exceeds the node budget of {budget}"
        )
        self.argument = argument
        self.budget = budget


_set = object.__setattr__


class _Record:
    """Immutable value record, written out by hand to keep imports light.

    A subclass names its fields in ``__match_args__`` and ``__slots__`` and
    assigns them in its own ``__init__`` through ``_set``.  Two records are
    equal when they are of the same class with equal fields; hashing,
    ``repr`` and pickling follow the fields, and assigning a field raises
    ``AttributeError``.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls.__match_args__:
            # C-level field read; one field reads as itself, not a 1-tuple
            cls._key = attrgetter(*cls.__match_args__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name) for name in self.__match_args__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Formula(_Record):
    """Base class of the condition AST; subclasses are immutable records."""

    __slots__ = ()


class Var(Formula):
    __slots__ = __match_args__ = ("name",)

    def __init__(self, name: str):
        _set(self, "name", name)


class Const(Formula):
    __slots__ = __match_args__ = ("value",)

    def __init__(self, value: bool):
        _set(self, "value", value)


class Not(Formula):
    __slots__ = __match_args__ = ("child",)

    def __init__(self, child: Formula):
        _set(self, "child", child)


class _Binary(Formula):
    __slots__ = __match_args__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        _set(self, "left", left)
        _set(self, "right", right)


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Imp(_Binary):
    __slots__ = ()


class Iff(_Binary):
    __slots__ = ()


class Xor(_Binary):
    __slots__ = ()


def variables(formula: Formula) -> set[str]:
    """Names referenced anywhere in the formula."""
    out: set[str] = set()
    stack = [formula]
    while stack:
        f = stack.pop()
        if isinstance(f, Var):
            out.add(f.name)
        elif isinstance(f, Not):
            stack.append(f.child)
        elif isinstance(f, _Binary):
            stack.append(f.left)
            stack.append(f.right)
    return out


def evaluate(formula: Formula, env: dict[str, bool]) -> bool:
    """Evaluate under a total assignment of the referenced names."""
    if isinstance(formula, Var):
        return env[formula.name]
    if isinstance(formula, Const):
        return formula.value
    if isinstance(formula, Not):
        return not evaluate(formula.child, env)
    a = evaluate(formula.left, env)
    b = evaluate(formula.right, env)
    if isinstance(formula, And):
        return a and b
    if isinstance(formula, Or):
        return a or b
    if isinstance(formula, Imp):
        return (not a) or b
    if isinstance(formula, Iff):
        return a == b
    return a != b


class Adf(_Record):
    """Arguments in their fixed input order, one condition per argument."""

    __slots__ = __match_args__ = ("arguments", "conditions")

    def __init__(self, arguments: tuple[str, ...], conditions: tuple[Formula, ...]):
        if len(arguments) != len(conditions):
            raise FormatError("argument and condition counts differ")
        if len(set(arguments)) != len(arguments):
            raise FormatError("duplicate argument names")
        declared = set(arguments)
        for name, condition in zip(arguments, conditions):
            unknown = variables(condition) - declared
            if unknown:
                raise FormatError(
                    f"condition of {name!r} references undeclared argument {sorted(unknown)[0]!r}"
                )
        _set(self, "arguments", arguments)
        _set(self, "conditions", conditions)

    @property
    def n(self) -> int:
        return len(self.arguments)

    def index(self, name: str) -> int:
        return self.arguments.index(name)

    def condition(self, name: str) -> Formula:
        return self.conditions[self.index(name)]

    def free_inputs(self) -> tuple[str, ...]:
        """Arguments whose condition is literally themselves."""
        return tuple(
            name
            for name, condition in zip(self.arguments, self.conditions)
            if condition == Var(name)
        )


# -- scanning, shared by both formats ----------------------------------------

_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_SPACE = re.compile(r"\s*")


class _Scanner:
    """An offset into ``text``; line and column are worked out on error.

    ``line`` numbers the text's first line, so a scanner over one network
    line reports that line.  Lines end at ``\\n`` and every other
    character, tabs and carriage returns included, is one column.
    """

    def __init__(self, text: str, pos: int = 0, line: int = 1):
        self.text = text
        self.pos = pos
        self.line = line

    def error(self, message: str) -> ParseError:
        text, pos = self.text, self.pos
        return ParseError(
            message, self.line + text.count("\n", 0, pos), pos - text.rfind("\n", 0, pos)
        )

    def peek(self) -> str:
        """The next character after white space, or ``""`` at the end."""
        text, pos = self.text, self.pos
        ch = text[pos : pos + 1]
        if ch.isspace():
            self.pos = pos = _SPACE.match(text, pos).end()
            ch = text[pos : pos + 1]
        return ch

    def at_end(self) -> bool:
        return not self.peek()

    def expect(self, ch: str) -> None:
        found = self.peek()
        if found != ch:
            raise self.error(f"expected {ch!r}, found {found or 'end of input'!r}")
        self.pos += 1

    def name(self) -> str:
        found = self.peek()
        match = _NAME.match(self.text, self.pos)
        if match is None:
            raise self.error(f"expected a name, found {found or 'end of input'!r}")
        self.pos = match.end()
        return match.group()


# -- statement format ------------------------------------------------------

# the connectives' keywords, read by the parser and the writer
_KEYWORDS = {"neg": Not, "and": And, "or": Or, "imp": Imp, "iff": Iff, "xor": Xor}
_KEYWORD_OF = {cls: keyword for keyword, cls in _KEYWORDS.items()}


def _parse_functional(scanner: _Scanner) -> Formula:
    token = scanner.name()
    if scanner.peek() != "(":
        return Var(token)
    scanner.pos += 1
    if token == "c":
        flag = scanner.name()
        if flag not in ("v", "f"):
            raise scanner.error(f"constant must be c(v) or c(f), found c({flag})")
        scanner.expect(")")
        return Const(flag == "v")
    connective = _KEYWORDS.get(token)
    if connective is None:
        raise scanner.error(f"unknown connective {token!r}")
    if connective is Not:
        child = _parse_functional(scanner)
        scanner.expect(")")
        return Not(child)
    left = _parse_functional(scanner)
    scanner.expect(",")
    right = _parse_functional(scanner)
    scanner.expect(")")
    return connective(left, right)


def parse_adf(text: str) -> Adf:
    """Parse the statement format into a model.

    Argument order is the order of the ``s(...)`` declarations.  Every
    declared argument needs exactly one ``ac(...)`` statement, and
    conditions may reference declared arguments only.
    """
    scanner = _Scanner(text)
    order: dict[str, None] = {}  # the declared names, in declaration order
    conditions: dict[str, Formula] = {}
    while not scanner.at_end():
        keyword = scanner.name()
        if keyword == "s":
            scanner.expect("(")
            name = scanner.name()
            scanner.expect(")")
            scanner.expect(".")
            if name in order:
                raise FormatError(f"argument {name!r} declared twice")
            order[name] = None
        elif keyword == "ac":
            scanner.expect("(")
            name = scanner.name()
            scanner.expect(",")
            condition = _parse_functional(scanner)
            scanner.expect(")")
            scanner.expect(".")
            if name in conditions:
                raise FormatError(f"duplicate condition for argument {name!r}")
            conditions[name] = condition
        else:
            raise scanner.error(f"expected 's' or 'ac' statement, found {keyword!r}")
    for name in conditions:
        if name not in order:
            raise FormatError(f"condition given for undeclared argument {name!r}")
    missing = [name for name in order if name not in conditions]
    if missing:
        raise FormatError(f"missing condition for argument {missing[0]!r}")
    return Adf(tuple(order), tuple(conditions[name] for name in order))


def _write_functional(formula: Formula) -> str:
    if isinstance(formula, Var):
        return formula.name
    if isinstance(formula, Const):
        return "c(v)" if formula.value else "c(f)"
    keyword = _KEYWORD_OF[type(formula)]
    if isinstance(formula, Not):
        return f"{keyword}({_write_functional(formula.child)})"
    return f"{keyword}({_write_functional(formula.left)},{_write_functional(formula.right)})"


def write_adf(adf: Adf) -> str:
    lines = [f"s({name})." for name in adf.arguments]
    lines += [
        f"ac({name},{_write_functional(condition)})."
        for name, condition in zip(adf.arguments, adf.conditions)
    ]
    return "\n".join(lines) + "\n"


# -- network table format ----------------------------------------------------


def _parse_bnet_or(scanner: _Scanner) -> Formula:
    left = _parse_bnet_and(scanner)
    while scanner.peek() == "|":
        scanner.pos += 1
        left = Or(left, _parse_bnet_and(scanner))
    return left


def _parse_bnet_and(scanner: _Scanner) -> Formula:
    left = _parse_bnet_atom(scanner)
    while scanner.peek() == "&":
        scanner.pos += 1
        left = And(left, _parse_bnet_atom(scanner))
    return left


def _parse_bnet_atom(scanner: _Scanner) -> Formula:
    ch = scanner.peek()
    if ch == "!":
        scanner.pos += 1
        return Not(_parse_bnet_atom(scanner))
    if ch == "(":
        scanner.pos += 1
        inner = _parse_bnet_or(scanner)
        scanner.expect(")")
        return inner
    if ch == "0" or ch == "1":
        scanner.pos += 1
        return Const(ch == "1")
    return Var(scanner.name())


def parse_bnet(text: str) -> Adf:
    """Parse the network table format into a model.

    Names that only occur on right-hand sides become free inputs after the
    declared targets: line by line, each line's new names in sorted order.
    """
    targets: list[str] = []
    conditions: dict[str, Formula] = {}
    header_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not header_seen:
            fields = [part.strip().lower() for part in line.split(",")]
            if fields != ["targets", "factors"]:
                raise ParseError("expected header 'targets, factors'", lineno, 1)
            header_seen = True
            continue
        if "," not in line:
            raise ParseError("expected 'name, expression'", lineno, len(raw) + 1)
        name = line.split(",", 1)[0].strip()
        if not _NAME.fullmatch(name):
            raise ParseError(f"invalid target name {name!r}", lineno, 1)
        if name in conditions:
            raise FormatError(f"duplicate line for target {name!r}")
        # the expression runs from the comma to the line's last non-space
        scanner = _Scanner(raw.rstrip(), raw.index(",") + 1, lineno)
        condition = _parse_bnet_or(scanner)
        if not scanner.at_end():
            raise scanner.error(f"unexpected trailing input {scanner.peek()!r}")
        targets.append(name)
        conditions[name] = condition
    if not header_seen:
        raise ParseError("expected header 'targets, factors'", 1, 1)
    order = list(targets)
    declared = set(order)
    for name in targets:
        for used in sorted(variables(conditions[name])):
            if used not in declared:
                declared.add(used)
                order.append(used)
                conditions[used] = Var(used)
    return Adf(tuple(order), tuple(conditions[name] for name in order))


# and/or/not form of each binary connective: the rewritten tree's size as
# (factor on the operands' sizes, own nodes), and its text over the
# operands ``a`` and ``b``, each parenthesized when it is itself and/or
_INFIX = {
    And: (1, 1, "{a} & {b}"),
    Or: (1, 1, "{a} | {b}"),
    Imp: (1, 2, "!{a} | {b}"),
    Iff: (2, 5, "({a} & {b}) | (!{a} & !{b})"),
    Xor: (2, 5, "({a} & !{b}) | (!{a} & {b})"),
}


def write_bnet(adf: Adf, budget: int = DEFAULT_NODE_BUDGET) -> str:
    """Emit the network table format, rewriting xor/iff/imp into and/or/not.

    Raises :class:`RewriteBudgetError` naming the offending argument when
    the rewritten condition would exceed ``budget`` AST nodes.  Each
    node's rewritten size is checked before its text is built; a leaf
    counts one node and is never refused.
    """

    def infix(f: Formula) -> tuple[str, int, bool]:
        # (text, rewritten tree size, whether the rewritten root is and/or)
        if isinstance(f, Var):
            return f.name, 1, False
        if isinstance(f, Const):
            return ("1" if f.value else "0"), 1, False
        if isinstance(f, Not):
            text, size, compound = infix(f.child)
            if size + 1 > budget:
                raise RewriteBudgetError(name, budget)
            return (f"!({text})" if compound else f"!{text}"), size + 1, False
        left, left_size, left_compound = infix(f.left)
        right, right_size, right_compound = infix(f.right)
        factor, own, template = _INFIX[type(f)]
        size = factor * (left_size + right_size) + own
        if size > budget:
            raise RewriteBudgetError(name, budget)
        a = f"({left})" if left_compound else left
        b = f"({right})" if right_compound else right
        return template.format(a=a, b=b), size, True

    lines = ["targets, factors"]
    for name, condition in zip(adf.arguments, adf.conditions):
        lines.append(f"{name}, {infix(condition)[0]}")
    return "\n".join(lines) + "\n"
