"""Layout, condition compilation, dual transform, decoding."""

import random
from itertools import product

import pytest

from adfsolve.encoding import (
    EncodingError,
    Interpretation,
    VarLayout,
    apply_gamma,
    decode,
    dual_transform,
    encode_interpretation,
    formula_to_bdd,
    gamma_pairs,
    validity_constraint,
)
from adfsolve.formula import Const, evaluate, parse_adf
from conftest import EXAMPLE_ADF, random_adf, random_formula


def all_interpretations(n):
    yield from product("01*", repeat=n)


def test_layout_is_interleaved():
    layout = VarLayout(("a", "b", "c"))
    pairs = [(layout.top(i), layout.bot(i)) for i in range(3)]
    assert pairs == [(0, 1), (2, 3), (4, 5)]
    assert layout.manager.num_vars == 6
    assert layout.direct_vars == [0, 2, 4]
    assert layout.dual_vars == list(range(6))
    assert not hasattr(layout, "direct")


def test_formula_to_bdd_constants_and_example():
    adf = parse_adf(EXAMPLE_ADF)
    layout = VarLayout.for_adf(adf)
    assert formula_to_bdd(Const(True), layout).is_true
    # second condition is true exactly on {a false} union {c true}
    f = formula_to_bdd(adf.conditions[1], layout)
    man = layout.manager
    expected = man.nvar(layout.top(0)) | man.var(layout.top(2))
    assert f == expected


def test_formula_to_bdd_matches_ast_evaluation():
    rng = random.Random(51)
    for _ in range(30):
        n = rng.randint(1, 8)
        adf = random_adf(rng, n, depth=5)
        layout = VarLayout.for_adf(adf)
        f = formula_to_bdd(adf.conditions[0], layout)
        for bits in product([False, True], repeat=n):
            valuation = [False] * layout.manager.num_vars
            for i, b in enumerate(bits):
                valuation[layout.top(i)] = b
            env = dict(zip(adf.arguments, bits))
            assert f.evaluate(valuation) == evaluate(adf.conditions[0], env)


def test_formula_to_bdd_unknown_name():
    layout = VarLayout(("a",))
    adf = parse_adf("s(b). ac(b,b).")
    with pytest.raises(EncodingError):
        formula_to_bdd(adf.conditions[0], layout)


def test_dual_transform_example_pairs():
    adf = parse_adf(EXAMPLE_ADF)
    layout = VarLayout.for_adf(adf)
    man = layout.manager
    a_bot = man.var(layout.bot(0))
    a_top = man.var(layout.top(0))
    c_top = man.var(layout.top(2))
    c_bot = man.var(layout.bot(2))
    validity = validity_constraint(layout)
    phi_b = formula_to_bdd(adf.conditions[1], layout)
    # on valid encodings the pair matches the hand-computed duals
    assert dual_transform(phi_b, layout) & validity == (a_bot | c_top) & validity
    assert dual_transform(~phi_b, layout) & validity == (a_top & c_bot) & validity


def test_dual_transform_constants():
    layout = VarLayout(("a", "b"))
    assert dual_transform(layout.manager.true, layout).is_true
    assert dual_transform(layout.manager.false, layout).is_false


def test_dual_transform_rejects_dual_variables():
    layout = VarLayout(("a",))
    with pytest.raises(EncodingError):
        dual_transform(layout.manager.var(layout.bot(0)), layout)


def test_dual_transform_semantics_exhaustively():
    # holds exactly when some two-valued refinement satisfies the function
    rng = random.Random(59)
    for _ in range(20):
        n = rng.randint(1, 5)
        names = tuple(f"x{i}" for i in range(n))
        layout = VarLayout(names)
        condition = random_formula(rng, names, depth=4)
        dual = dual_transform(formula_to_bdd(condition, layout), layout)
        for values in all_interpretations(n):
            interp = Interpretation(names, values)
            valuation = encode_interpretation(interp, layout, "dual")
            completions = product(
                *[["1", "0"] if v == "*" else [v] for v in values]
            )
            expected = any(
                evaluate(condition, {nm: bit == "1" for nm, bit in zip(names, c)})
                for c in completions
            )
            assert dual.evaluate(valuation) == expected


def test_weakening_preserves_dual_satisfaction():
    rng = random.Random(61)
    names = tuple(f"x{i}" for i in range(4))
    layout = VarLayout(names)
    condition = random_formula(rng, names, depth=4)
    dual = dual_transform(formula_to_bdd(condition, layout), layout)
    for values in all_interpretations(4):
        refined = Interpretation(names, values)
        if not dual.evaluate(encode_interpretation(refined, layout, "dual")):
            continue
        for weaker in all_interpretations(4):
            weak = Interpretation(names, weaker)
            if weak.leq_info(refined):
                assert dual.evaluate(encode_interpretation(weak, layout, "dual"))


def test_validity_constraint():
    layout = VarLayout(("a", "b", "c"))
    validity = validity_constraint(layout)
    assert validity.sat_count(layout.dual_vars) == 3**3
    assert not validity.evaluate([False] * 6)
    single = VarLayout(("a",))
    man = single.manager
    assert validity_constraint(single) == man.var(0) | man.var(1)


def test_gamma_pairs_example():
    adf = parse_adf(EXAMPLE_ADF)
    layout = VarLayout.for_adf(adf)
    pairs = gamma_pairs(adf, layout)
    man = layout.manager
    assert pairs[0].top_fn.is_true and pairs[0].bot_fn.is_false
    assert pairs[2].top_fn == man.var(layout.top(1))
    assert pairs[2].bot_fn == man.var(layout.bot(1))
    # the all-one operator value at {a:*, b:1, c:1}
    interp = Interpretation(("a", "b", "c"), ("*", "1", "1"))
    assert apply_gamma(pairs, interp, layout).values == ("1", "1", "1")


def test_gamma_collapses_on_two_valued_interpretations():
    rng = random.Random(67)
    for _ in range(20):
        n = rng.randint(1, 5)
        adf = random_adf(rng, n, depth=4)
        layout = VarLayout.for_adf(adf)
        pairs = gamma_pairs(adf, layout)
        for bits in product("01", repeat=n):
            interp = Interpretation(adf.arguments, bits)
            env = {nm: b == "1" for nm, b in zip(adf.arguments, bits)}
            gamma = apply_gamma(pairs, interp, layout)
            for i, condition in enumerate(adf.conditions):
                assert gamma.values[i] == ("1" if evaluate(condition, env) else "0")


def test_decode_dual_example():
    layout = VarLayout(("a", "b", "c"))
    valuation = [False] * 6
    for level, bit in zip(
        [layout.top(0), layout.bot(0), layout.top(1), layout.bot(1), layout.top(2), layout.bot(2)],
        [True, True, True, False, True, False],
    ):
        valuation[level] = bit
    interp = decode(valuation, layout, "dual")
    assert interp.values == ("*", "1", "1")


def test_decode_direct_and_errors():
    layout = VarLayout(("a", "b"))
    assert decode([False] * 4, layout, "direct").values == ("0", "0")
    with pytest.raises(EncodingError, match=r"\(0,0\) dual pair for argument 'b'"):
        decode([False, True, False, False], layout, "dual")


def test_decode_encode_identity():
    layout = VarLayout(tuple(f"x{i}" for i in range(6)))
    for values in all_interpretations(6):
        interp = Interpretation(layout.names, values)
        assert decode(encode_interpretation(interp, layout, "dual"), layout, "dual") == interp
    for bits in product("01", repeat=4):
        small = VarLayout(tuple(f"y{i}" for i in range(4)))
        interp = Interpretation(small.names, bits)
        assert (
            decode(encode_interpretation(interp, small, "direct"), small, "direct")
            == interp
        )


def test_interpretation_helpers():
    interp = Interpretation(("a", "b"), ("1", "*"))
    assert interp["a"] == "1"
    assert not interp.is_two_valued()
    assert interp.star_count() == 1
    assert interp.format_line() == "a:1 b:*"
    refined = Interpretation(("a", "b"), ("1", "0"))
    assert interp.leq_info(refined)
    assert not refined.leq_info(interp)
    with pytest.raises(EncodingError, match="invalid truth value '2'"):
        Interpretation(("a", "b"), ("1", "2"))
