"""Symbolic semantics against the exhaustive reference, plus invariants."""

import random
import time

import pytest

from adfsolve.encoding import VarLayout, encode_interpretation, gamma_pairs
from adfsolve.formula import Adf, Var, parse_adf
from adfsolve.oracle import brute_semantics
from adfsolve.semantics import (
    SEMANTICS,
    admissible,
    complete,
    embed_two_valued,
    grounded,
    grounded_set,
    preferred,
    restrict_free_inputs,
    solve,
    stable,
    two_valued_models,
)
from adfsolve.solutions import count, enumerate_solutions
from conftest import EXAMPLE_ADF, grid_adf, random_adf, random_adf_with_free_inputs


def solved_set(adf, sem, restrict=True):
    return set(enumerate_solutions(solve(adf, sem, restrict_inputs=restrict)))


def test_example_counts_and_members():
    adf = parse_adf(EXAMPLE_ADF)
    expected_counts = {"adm": 5, "com": 3, "grd": 1, "prf": 2, "2v": 2, "stb": 1}
    for sem, expected in expected_counts.items():
        assert count(solve(adf, sem)) == expected
    stable_members = solved_set(adf, "stb")
    assert {i.values for i in stable_members} == {("1", "0", "0")}
    layout = VarLayout.for_adf(adf)
    assert grounded(adf, layout).values == ("1", "*", "*")


def test_two_valued_free_input_tautology():
    adf = parse_adf("s(a). ac(a,a).")
    layout = VarLayout.for_adf(adf)
    ss = two_valued_models(adf, layout)
    assert ss.bdd.is_true
    assert count(ss) == 2


def test_admissible_never_empty():
    rng = random.Random(97)
    for _ in range(20):
        adf = random_adf(rng, rng.randint(1, 6))
        layout = VarLayout.for_adf(adf)
        ss = admissible(adf, layout)
        all_unknown = encode_interpretation(
            grounded(adf, layout).__class__(layout.names, ("*",) * layout.n),
            layout,
            "dual",
        )
        assert ss.bdd.evaluate(all_unknown)
        assert count(ss) >= 1


def test_complete_on_all_free_inputs():
    names = tuple(f"x{i}" for i in range(4))
    adf = Adf(names, tuple(Var(nm) for nm in names))
    layout = VarLayout.for_adf(adf)
    assert count(complete(adf, layout)) == 3**4
    assert grounded(adf, layout).values == ("*",) * 4
    # maximality forces every argument to a Boolean value
    prf = preferred(complete(adf, layout), layout)
    assert count(prf) == 2**4
    assert prf.iterations == 1


def test_stable_single_free_input():
    adf = parse_adf("s(a). ac(a,a).")
    members = solved_set(adf, "stb")
    assert {i.values for i in members} == {("0",)}


def test_dual_sets_carry_validity():
    rng = random.Random(101)
    for _ in range(10):
        adf = random_adf(rng, rng.randint(1, 6))
        layout = VarLayout.for_adf(adf)
        for builder in (admissible, complete):
            ss = builder(adf, layout)
            # no satisfying valuation may contain an invalid (0,0) pair
            for interp in enumerate_solutions(ss):
                assert set(interp.values) <= {"0", "1", "*"}


def test_matches_oracle_on_random_instances():
    rng = random.Random(103)
    for _ in range(40):
        adf = random_adf(rng, rng.randint(1, 7), depth=5)
        for sem in SEMANTICS:
            assert solved_set(adf, sem) == brute_semantics(adf, sem), (
                f"{sem} diverged on {adf}"
            )


def test_grounded_is_least_complete():
    rng = random.Random(107)
    for _ in range(20):
        adf = random_adf(rng, rng.randint(1, 6))
        layout = VarLayout.for_adf(adf)
        g = grounded(adf, layout)
        complete_set = brute_semantics(adf, "com")
        assert g in complete_set
        assert all(g.leq_info(other) for other in complete_set)


def test_iteration_bounds():
    rng = random.Random(109)
    for _ in range(30):
        n = rng.randint(1, 7)
        adf = random_adf(rng, n)
        layout = VarLayout.for_adf(adf)
        prf = preferred(complete(adf, layout), layout)
        assert prf.iterations is not None and prf.iterations <= n + 1
        stb = stable(two_valued_models(adf, layout), gamma_pairs(adf, layout), layout)
        assert stb.iterations is not None and stb.iterations <= n + 1


def test_chain_inclusions_symbolic():
    rng = random.Random(113)
    instances = [parse_adf(EXAMPLE_ADF)] + [
        random_adf(rng, rng.randint(1, 6)) for _ in range(15)
    ]
    for adf in instances:
        layout = VarLayout.for_adf(adf)
        adm = admissible(adf, layout)
        com = complete(adf, layout)
        prf = preferred(com, layout)
        tv = two_valued_models(adf, layout)
        stb = stable(tv, gamma_pairs(adf, layout), layout)
        tv_dual = embed_two_valued(tv, layout)
        assert stb.bdd.implies(tv.bdd).is_true
        assert tv_dual.bdd.implies(prf.bdd).is_true
        assert prf.bdd.implies(com.bdd).is_true
        assert com.bdd.implies(adm.bdd).is_true
        g = encode_interpretation(grounded(adf, layout), layout, "dual")
        assert com.bdd.evaluate(g)


def test_grid_inclusion_chain():
    # the 200-argument grid of acceptance criterion 10, under its 60 s bound
    adf = grid_adf(25, 8)
    started = time.perf_counter()
    layout = VarLayout.for_adf(adf)
    tv = two_valued_models(adf, layout)
    com = complete(adf, layout)
    adm = admissible(adf, layout)
    elapsed = time.perf_counter() - started
    assert count(tv) > 0
    assert embed_two_valued(tv, layout).bdd.implies(com.bdd).is_true
    assert com.bdd.implies(adm.bdd).is_true
    assert elapsed < 60.0


def test_two_valued_equals_two_valued_members_of_complete():
    rng = random.Random(127)
    for _ in range(15):
        adf = random_adf(rng, rng.randint(1, 6))
        layout = VarLayout.for_adf(adf)
        man = layout.manager
        tv_dual = embed_two_valued(two_valued_models(adf, layout), layout)
        no_star = man.true
        for i in range(layout.n):
            no_star = no_star & ~(man.var(layout.top(i)) & man.var(layout.bot(i)))
        assert tv_dual.bdd == (complete(adf, layout).bdd & no_star)


def test_preferred_members_are_maximal_complete():
    rng = random.Random(131)
    for _ in range(15):
        adf = random_adf(rng, rng.randint(1, 6))
        prf = solved_set(adf, "prf")
        com = brute_semantics(adf, "com")
        for i in prf:
            assert not any(i != other and i.leq_info(other) for other in com)


def test_stable_members_are_true_minimal():
    def true_leq(a, b):
        # every argument true in a is true in b
        return all(y == "1" or x != "1" for x, y in zip(a.values, b.values))

    rng = random.Random(137)
    for _ in range(20):
        adf = random_adf(rng, rng.randint(1, 6))
        stb = solved_set(adf, "stb")
        tv = brute_semantics(adf, "2v")
        for i in stb:
            # no other two-valued model has a smaller set of true arguments
            assert not any(other != i and true_leq(other, i) for other in tv)


def test_restriction_changes_nothing():
    rng = random.Random(139)
    for _ in range(20):
        adf = random_adf_with_free_inputs(rng, rng.randint(2, 6))
        assert solved_set(adf, "prf", restrict=True) == solved_set(adf, "prf", restrict=False)
        assert solved_set(adf, "stb", restrict=True) == solved_set(adf, "stb", restrict=False)


def test_restriction_shrinks_search_sets():
    adf = parse_adf("s(a). s(b). ac(a,a). ac(b,neg(a)).")
    layout = VarLayout.for_adf(adf)
    com = complete(adf, layout)
    restricted = restrict_free_inputs(com, adf, "preferred")
    assert count(restricted) < count(com)
    tv = two_valued_models(adf, layout)
    tv_restricted = restrict_free_inputs(tv, adf, "stable")
    assert count(tv_restricted) < count(tv)
    with pytest.raises(ValueError):
        restrict_free_inputs(com, adf, "bogus")


def test_empty_model_has_single_empty_solution():
    adf = Adf((), ())
    for sem in SEMANTICS:
        ss = solve(adf, sem)
        assert count(ss) == 1
        assert [i.values for i in enumerate_solutions(ss)] == [()]


def test_solve_rejects_unknown_semantics():
    with pytest.raises(ValueError):
        solve(parse_adf(EXAMPLE_ADF), "naive")
