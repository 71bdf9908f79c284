"""Parsers, writers, the xor elimination, and their round trips."""

import hashlib
import random
import time
from itertools import product

import pytest

from adfsolve.formula import (
    Adf,
    And,
    Const,
    FormatError,
    Iff,
    Imp,
    Not,
    Or,
    ParseError,
    RewriteBudgetError,
    Var,
    Xor,
    evaluate,
    parse_adf,
    parse_bnet,
    variables,
    write_adf,
    write_bnet,
)
from conftest import EXAMPLE_ADF, EXAMPLE_BNET, random_adf, random_formula


def tables_equal(adf_a, adf_b):
    """Same arguments and pointwise-equal conditions on every assignment."""
    if adf_a.arguments != adf_b.arguments:
        return False
    names = adf_a.arguments
    for bits in product([False, True], repeat=len(names)):
        env = dict(zip(names, bits))
        for ca, cb in zip(adf_a.conditions, adf_b.conditions):
            if evaluate(ca, env) != evaluate(cb, env):
                return False
    return True


def test_parse_adf_example():
    adf = parse_adf(EXAMPLE_ADF)
    assert adf.arguments == ("a", "b", "c")
    assert adf.conditions == (Const(True), Or(Not(Var("a")), Var("c")), Var("b"))


def test_parse_adf_free_input():
    adf = parse_adf("s(a). ac(a,a).")
    assert adf.arguments == ("a",)
    assert adf.conditions == (Var("a"),)
    assert adf.free_inputs() == ("a",)


def test_parse_adf_is_whitespace_insensitive():
    text = "s(a).\n\n  s( b ).ac(a ,\n and(a,b)). ac(b,c(f))."
    adf = parse_adf(text)
    assert adf.arguments == ("a", "b")
    assert adf.conditions[0] == And(Var("a"), Var("b"))


def test_parse_adf_errors():
    with pytest.raises(FormatError, match="undeclared"):
        parse_adf("s(a). ac(a,b).")
    with pytest.raises(FormatError, match="duplicate condition"):
        parse_adf("s(a). ac(a,a). ac(a,c(v)).")
    with pytest.raises(FormatError, match="missing condition"):
        parse_adf("s(a). s(b). ac(a,a).")
    with pytest.raises(FormatError, match="undeclared argument"):
        parse_adf("ac(a,c(v)).")
    with pytest.raises(FormatError, match="declared twice"):
        parse_adf("s(a). s(a). ac(a,a).")


def test_parse_adf_syntax_error_carries_location():
    with pytest.raises(ParseError) as excinfo:
        parse_adf("s(a).\nac(a, or(a,).")
    assert excinfo.value.line == 2
    assert excinfo.value.column > 0
    with pytest.raises(ParseError, match="expected 's' or 'ac'"):
        parse_adf("q(a).")
    with pytest.raises(ParseError, match="unknown connective"):
        parse_adf("s(a). ac(a, nand(a,a)).")


# (input, message, line, column); columns count every character from 1,
# tabs and carriage returns included
ADF_PARSE_ERRORS = [
    ("s(a).\nac(a, and(a,,a)).", "expected a name, found ','", 2, 13),
    ("s(a). ac(a, foo(a)).", "unknown connective 'foo'", 1, 17),
    ("s(a).\r\nac(a,\r\n b c).", "expected ')', found 'c'", 3, 4),
    ("s(a).\tac(a,\tneg(a)", "expected ')', found 'end of input'", 1, 19),
    ("s(a).\n\nac(a, and(a b)).", "expected ',', found 'b'", 3, 13),
    ("s(a). q(a).", "expected 's' or 'ac' statement, found 'q'", 1, 8),
    ("s(a). ac(a, c(x)).", "constant must be c(v) or c(f), found c(x)", 1, 16),
    ("s(1a).", "expected a name, found '1'", 1, 3),
    ("s(a). ac(a,a). s", "expected '(', found 'end of input'", 1, 17),
    ("s(a).\x0bac(a, ~a).", "expected a name, found '~'", 1, 13),
    ("  \t(", "expected a name, found '('", 1, 4),
    ("s(a). ac(a, \u00e9).", "expected a name, found '\u00e9'", 1, 13),
]

BNET_PARSE_ERRORS = [
    ("targets, factors\r\na, (b  \r\n", "expected ')', found 'end of input'", 2, 6),
    ("targets, factors\n\t  a,\tb & & c  \n", "expected a name, found '&'", 2, 11),
    ("targets, factors\n 1a, b\n", "invalid target name '1a'", 2, 1),
    ("targets, factors\na b\n", "expected 'name, expression'", 2, 4),
    ("targets, factors\r\n  a b  \r\n", "expected 'name, expression'", 2, 8),
    ("targets, factors\na, b c\n", "unexpected trailing input 'c'", 2, 6),
    ("a, b\n", "expected header 'targets, factors'", 1, 1),
    ("", "expected header 'targets, factors'", 1, 1),
    ("# only a comment\n", "expected header 'targets, factors'", 1, 1),
    ("targets, factors\na, b\n\nc, !\n", "expected a name, found 'end of input'", 4, 5),
    ("targets, factors\na, b ^ c\n", "unexpected trailing input '^'", 2, 6),
    ("targets, factors\na, b |\n", "expected a name, found 'end of input'", 2, 7),
    ("targets, factors\n\u00e4, b\n", "invalid target name '\u00e4'", 2, 1),
    ("targets, factors\na, \u00e9\n", "expected a name, found '\u00e9'", 2, 4),
    ("targets, factors\x0ba, (b\n", "expected ')', found 'end of input'", 2, 6),
    ("targets, factors\n, b\n", "invalid target name ''", 2, 1),
    (
        "targets, factors\n\ta ,  ( b | 1 ) & ! (0\t \n",
        "expected ')', found 'end of input'",
        2,
        23,
    ),
]


@pytest.mark.parametrize(
    "parse, text, message, line, column",
    [(parse_adf, *row) for row in ADF_PARSE_ERRORS]
    + [(parse_bnet, *row) for row in BNET_PARSE_ERRORS],
)
def test_parse_error_positions_are_pinned(parse, text, message, line, column):
    with pytest.raises(ParseError) as excinfo:
        parse(text)
    assert str(excinfo.value) == f"line {line}, column {column}: {message}"
    assert (excinfo.value.line, excinfo.value.column) == (line, column)


def test_adf_round_trip():
    rng = random.Random(5)
    for _ in range(100):
        adf = random_adf(rng, rng.randint(1, 10), depth=5)
        assert parse_adf(write_adf(adf)) == adf


def test_write_adf_single_free_input():
    assert write_adf(parse_adf("s(a). ac(a,a).")) == "s(a).\nac(a,a).\n"


def test_parse_bnet_example():
    adf = parse_bnet(EXAMPLE_BNET)
    assert adf.arguments == ("a", "b", "c")
    assert adf.conditions == (Const(True), Or(Not(Var("a")), Var("c")), Var("b"))


def test_parse_bnet_free_input():
    adf = parse_bnet("targets, factors\nx, x\n")
    assert adf.conditions == (Var("x"),)
    # names never given a line become free inputs too
    adf = parse_bnet("targets, factors\ny, x & !y\n")
    assert adf.arguments == ("y", "x")
    assert adf.condition("x") == Var("x")
    assert adf.free_inputs() == ("x",)


def test_parse_bnet_free_inputs_follow_the_targets_line_by_line():
    # each line's new names are sorted, so w and x come after y and z
    adf = parse_bnet("targets, factors\na, z & y\nb, x | w\n")
    assert adf.arguments == ("a", "b", "y", "z", "w", "x")


def test_parse_bnet_precedence_and_parens():
    adf = parse_bnet("targets, factors\na, b | c & !a\nb, (b)\nc, 0\n")
    assert adf.condition("a") == Or(Var("b"), And(Var("c"), Not(Var("a"))))


def test_parse_bnet_errors():
    with pytest.raises(ParseError, match="header"):
        parse_bnet("a, b\n")
    with pytest.raises(FormatError, match="duplicate line"):
        parse_bnet("targets, factors\na, 1\na, 0\n")
    with pytest.raises(ParseError):
        parse_bnet("targets, factors\na, b |\n")
    with pytest.raises(ParseError) as excinfo:
        parse_bnet("targets, factors\na, 1\nb, a & & a\n")
    assert excinfo.value.line == 3


def test_write_bnet_example():
    adf = parse_adf(EXAMPLE_ADF)
    assert write_bnet(adf) == "targets, factors\na, 1\nb, !a | c\nc, b\n"


def test_write_bnet_eliminates_xor():
    adf = Adf(("a", "b"), (Xor(Var("a"), Var("b")), Var("b")))
    text = write_bnet(adf)
    assert text.splitlines()[1] == "a, (a & !b) | (!a & b)"
    for forbidden in ("xor", "iff", "imp", "neg"):
        assert forbidden not in text


def test_write_bnet_round_trip_semantics():
    rng = random.Random(9)
    for _ in range(60):
        adf = random_adf(rng, rng.randint(1, 8), depth=4, xor=False)
        assert tables_equal(parse_bnet(write_bnet(adf)), adf)


def test_elimination_preserves_truth_tables():
    rng = random.Random(15)
    names = tuple(f"x{i}" for i in range(6))
    for _ in range(200):
        condition = random_formula(rng, names, depth=4)
        adf = Adf(names, (condition,) + (Const(False),) * 5)
        rewritten = parse_bnet(write_bnet(adf)).conditions[0]
        for bits in product([False, True], repeat=6):
            env = dict(zip(names, bits))
            assert evaluate(rewritten, env) == evaluate(condition, env)


def test_write_bnet_budget_abort():
    condition = Var("a")
    for _ in range(40):
        condition = Xor(condition, Var("a"))
    adf = Adf(("a",), (condition,))
    with pytest.raises(RewriteBudgetError, match="'a'"):
        write_bnet(adf)
    # generous budget allows a shallow one through
    assert "&" in write_bnet(Adf(("a",), (Xor(Var("a"), Var("a")),)), budget=100)


def smallest_budget(adf):
    """Least node budget under which ``write_bnet`` accepts ``adf``."""
    hi = 1
    while True:
        try:
            write_bnet(adf, hi)
            break
        except RewriteBudgetError:
            hi *= 2
    lo = 0
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            write_bnet(adf, mid)
            hi = mid
        except RewriteBudgetError:
            lo = mid + 1
    return lo


def test_writers_bytes_and_budgets_are_pinned():
    # 300 random models over all five connectives and constants, depth 0-6;
    # a change to either writer's bytes or to the budget's count shows here
    rng = random.Random(14)
    digest = hashlib.sha256()
    for _ in range(300):
        adf = random_adf(rng, rng.randint(1, 5), depth=rng.randint(0, 6))
        digest.update(write_adf(adf).encode())
        digest.update(write_bnet(adf).encode())
        digest.update(f"{smallest_budget(adf)}\n".encode())
    assert digest.hexdigest() == (
        "081f26a410ae1fee5da8ae333ae04e99ee8bcc43de24eddb5a79f7a417a86433"
    )


def test_single_variable_condition_writes_at_budget_zero():
    assert write_bnet(Adf(("a",), (Var("a"),)), budget=0) == "targets, factors\na, a\n"
    with pytest.raises(RewriteBudgetError):
        write_bnet(Adf(("a",), (Not(Var("a")),)), budget=0)


def test_argument_order_is_declaration_order():
    adf = parse_adf("s(z). s(a). s(m). ac(z,a). ac(a,m). ac(m,z).")
    assert adf.arguments == ("z", "a", "m")
    bnet = parse_bnet("targets, factors\nz, a\na, m\nm, z\n")
    assert bnet.arguments == ("z", "a", "m")


def alternating_chain_text(n):
    """``x0`` is free and every later argument negates its predecessor."""
    statements = [f"s(x{i})." for i in range(n)] + ["ac(x0,x0)."]
    statements += [f"ac(x{i},neg(x{i - 1}))." for i in range(1, n)]
    return " ".join(statements)


def test_parse_adf_is_linear_in_the_arguments():
    # each declaration is checked for a repeat in constant time: four
    # times the arguments take about four times as long, where a scan of
    # the names declared so far made it about twelve
    def best_of_three(text):
        times = []
        for _ in range(3):
            started = time.perf_counter()
            adf = parse_adf(text)
            times.append(time.perf_counter() - started)
        return adf, min(times)

    _, small_s = best_of_three(alternating_chain_text(4000))
    large, large_s = best_of_three(alternating_chain_text(16000))
    assert large.arguments == tuple(f"x{i}" for i in range(16000))
    assert large.conditions[1] == Not(Var("x0"))
    assert large_s / small_s < 8, (small_s, large_s)
    with pytest.raises(FormatError, match="^argument 'x7' declared twice$"):
        parse_adf(alternating_chain_text(8) + " s(x7).")


def test_adf_validation():
    with pytest.raises(FormatError):
        Adf(("a",), (Var("missing"),))
    with pytest.raises(FormatError):
        Adf(("a", "a"), (Const(True), Const(True)))
    with pytest.raises(FormatError):
        Adf(("a",), ())


def test_variables_helper():
    f = Imp(Iff(Var("p"), Not(Var("q"))), Const(False))
    assert variables(f) == {"p", "q"}
