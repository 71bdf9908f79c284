"""The hand-written records keep value semantics, and decode keeps its answers."""

import copy
import pickle
import random
import re

import pytest

from adfsolve.bdd import BddManager
from adfsolve.encoding import EncodingError, GammaPair, Interpretation, VarLayout, decode
from adfsolve.formula import Adf, And, Const, FormatError, Iff, Imp, Not, Or, Var, Xor
from adfsolve.semantics import SolutionSet

BINARY = (And, Or, Imp, Iff, Xor)

# each builds a fresh record equal to the one it built before
RECORDS = {
    "Var": lambda: Var("a"),
    "Const": lambda: Const(True),
    "Not": lambda: Not(Var("a")),
    **{cls.__name__: (lambda cls=cls: cls(Var("a"), Not(Var("b")))) for cls in BINARY},
    "Adf": lambda: Adf(("a", "b"), (Not(Var("b")), And(Var("a"), Const(False)))),
    "Interpretation": lambda: Interpretation(("a", "b"), ("1", "*")),
}


@pytest.mark.parametrize("make", RECORDS.values(), ids=RECORDS.keys())
def test_equal_fields_mean_equal_records(make):
    one, other = make(), make()
    assert one is not other
    assert one == other
    assert not one != other
    assert hash(one) == hash(other)
    assert len({one, other}) == 1
    assert pickle.loads(pickle.dumps(one)) == one
    assert copy.copy(one) == one and copy.deepcopy(one) == one


@pytest.mark.parametrize("make", RECORDS.values(), ids=RECORDS.keys())
def test_records_are_immutable(make):
    record = make()
    for field in type(record).__match_args__:
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, before)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) is before
    with pytest.raises(AttributeError):
        record.extra = 1


def test_classes_with_equal_fields_differ():
    a, b = Var("a"), Var("b")
    built = [cls(a, b) for cls in BINARY]
    for i, one in enumerate(built):
        for j, other in enumerate(built):
            assert (one == other) == (i == j)
    assert And(a, b) != Or(a, b)
    assert And(a, b) != And(b, a)
    assert Var(True) != Const(True)
    assert Not(a) != Var(a)
    # a record never equals its fields
    assert Var("a") != "a"
    assert And(a, b) != (a, b)
    assert Interpretation(("a",), ("1",)) != (("a",), ("1",))


def test_repr_names_class_and_fields():
    assert repr(And(Var("a"), Const(False))) == "And(left=Var(name='a'), right=Const(value=False))"
    assert repr(Not(Var("x"))) == "Not(child=Var(name='x'))"
    assert repr(Adf(("a",), (Var("a"),))) == "Adf(arguments=('a',), conditions=(Var(name='a'),))"
    interp = Interpretation(("a", "b"), ("1", "*"))
    interp.format_line()  # leaves nothing on the record for repr to show
    assert repr(interp) == "Interpretation(names=('a', 'b'), values=('1', '*'))"


def test_adf_still_validates():
    with pytest.raises(FormatError, match="undeclared argument 'missing'"):
        Adf(("a",), (Var("missing"),))
    with pytest.raises(FormatError, match="duplicate argument names"):
        Adf(("a", "a"), (Const(True), Const(True)))
    with pytest.raises(FormatError, match="counts differ"):
        Adf(("a",), ())


def test_public_interpretation_checks_its_values():
    with pytest.raises(EncodingError, match="names and values differ in length"):
        Interpretation(("a", "b"), ("1",))
    with pytest.raises(EncodingError, match="invalid truth value '2'"):
        Interpretation(("a", "b"), ("1", "2"))


def test_public_interpretation_keeps_tuples():
    from_string = Interpretation(("a", "b"), "10")
    assert from_string.values == ("1", "0")
    assert from_string == Interpretation(("a", "b"), ("1", "0"))
    assert from_string.format_line() == "a:1 b:0"
    from_lists = Interpretation(["a", "b"], ["1", "*"])
    assert from_lists.names == ("a", "b") and from_lists.values == ("1", "*")
    assert {from_lists} == {Interpretation(("a", "b"), ("1", "*"))}


def test_gamma_pair_and_solution_set():
    man = BddManager(2)
    x, y = man.var(0), man.var(1)
    assert GammaPair(x, y) == GammaPair(top_fn=x, bot_fn=y)
    assert GammaPair(x, y) != GammaPair(y, x)
    assert hash(GammaPair(x, y)) == hash(GammaPair(x, y))
    with pytest.raises(AttributeError):
        GammaPair(x, y).top_fn = y
    layout = VarLayout(("a",))
    solset = SolutionSet(layout.manager.true, layout, "dual")
    assert solset == SolutionSet(layout.manager.true, layout, "dual", None)
    assert solset != SolutionSet(layout.manager.true, layout, "dual", 1)
    solset.iterations = 1  # the one record whose fields can change
    assert solset.iterations == 1
    with pytest.raises(TypeError):
        hash(solset)


# (top, bot) -> value, as the decoder read it before it worked on bytes
REFERENCE_DUAL = {(1, 0): "1", (0, 1): "0", (1, 1): "*"}


def reference_values(valuation, kind):
    tops, bots = valuation[0::2], valuation[1::2]
    if kind == "direct":
        return tuple("1" if top else "0" for top in tops)
    return tuple(REFERENCE_DUAL[int(top), int(bot)] for top, bot in zip(tops, bots))


@pytest.mark.parametrize("kind", ["direct", "dual"])
def test_decode_equals_the_checked_constructor(kind):
    rng = random.Random(4242 if kind == "direct" else 4243)
    for trial in range(200):
        n = rng.randint(0, 40)
        # names with '%' print as they are
        names = tuple(rng.choice(["x", "p%s", "q%%", "r%", "s%d"]) + str(i) for i in range(n))
        layout = VarLayout(names)
        as_bool = trial % 2 == 0  # readers produce bools and getrandbits ints
        valuation = []
        for _ in range(n):
            if kind == "direct":
                pair = (rng.getrandbits(1), rng.getrandbits(1))
            else:
                pair = rng.choice(list(REFERENCE_DUAL))
            valuation += [bool(bit) if as_bool else bit for bit in pair]
        expected = Interpretation(names, reference_values(valuation, kind))
        got = decode(valuation, layout, kind)
        assert got == expected and hash(got) == hash(expected)
        assert got.values == expected.values and got.names == expected.names
        line = " ".join(f"{name}:{value}" for name, value in zip(names, expected.values))
        assert got.format_line() == expected.format_line() == line
        if kind == "dual" and n:
            j = rng.randrange(n)
            valuation[2 * j] = valuation[2 * j + 1] = False
            message = f"invalid (0,0) dual pair for argument {names[j]!r}"
            with pytest.raises(EncodingError, match=f"^{re.escape(message)}$"):
                decode(valuation, layout, kind)


@pytest.mark.parametrize("kind", ["direct", "dual"])
def test_decode_rejects_malformed_valuations(kind):
    layout = VarLayout(("a", "b"))
    for valuation in ([1, 0, 1], [1, 0, 1, 0, 1], [2, 0, 1, 0], [1, 0, 1, 255]):
        with pytest.raises(EncodingError, match="needs 4 entries, each 0 or 1"):
            decode(valuation, layout, kind)
