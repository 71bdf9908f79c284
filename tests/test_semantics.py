"""Symbolic semantics against the exhaustive reference, plus invariants."""

import random
import time

import pytest

from adfsolve.encoding import EncodingError, VarLayout, encode_interpretation, gamma_pairs
from adfsolve.bdd import Bdd, BddManager
from adfsolve.formula import Adf, And, Const, Not, Var, parse_adf
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
from conftest import (
    EXAMPLE_ADF,
    disjoint_union,
    grid_adf,
    random_adf,
    random_adf_with_free_inputs,
)


def solved_set(adf, sem, restrict=True):
    if restrict:
        return set(enumerate_solutions(solve(adf, sem)))
    layout = VarLayout.for_adf(adf)
    if sem == "prf":
        solset = preferred(complete(adf, layout), layout)
    else:
        solset = stable(two_valued_models(adf, layout), gamma_pairs(adf, layout), layout)
    return set(enumerate_solutions(solset))


def alternating_chain(n):
    """``x0`` is a free input and every later argument negates its predecessor."""
    names = tuple(f"x{i}" for i in range(n))
    return Adf(names, (Var("x0"),) + tuple(Not(Var(names[i - 1])) for i in range(1, n)))


def constant_headed_chain(n):
    """``x0`` is true and every later argument negates its predecessor.

    Grounding settles one argument per step, so it takes ``n`` steps.
    """
    names = tuple(f"x{i}" for i in range(n))
    return Adf(names, (Const(True),) + tuple(Not(Var(names[i - 1])) for i in range(1, n)))


def attack_with_tail(tail, self_attack):
    """Mutual attack ``a = not b`` plus a tail of ``tail`` arguments declared last-first.

    With ``self_attack`` the tail follows ``b`` and each tail argument
    attacks itself while ``b`` holds; otherwise the tail copies ``a``.
    Reverse declaration order puts every tail argument before the one it
    depends on, so well-foundedness runs against the variable order.
    """
    a, b = Var("a"), Var("b")
    names = [f"t{k}" for k in range(1, tail + 1)]
    conditions = []
    prev = b if self_attack else a
    for name in names:
        me = Var(name)
        conditions.append(And(prev, Not(And(b, me))) if self_attack else prev)
        prev = me
    return Adf(
        tuple(reversed(names)) + ("b", "a"),
        tuple(reversed(conditions)) + (Not(a), Not(b)),
    )


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


@pytest.mark.parametrize(
    "conditions, two_valued, stable_values",
    [
        # both models are minimal; in 011 {b} alone is unfounded, c is not
        ("ac(a,neg(b)). ac(b,and(neg(a),and(c,b))). ac(c,neg(a)).", {"100", "011"}, {"100"}),
        # in 110 the whole true set {a,b} is unfounded
        ("ac(a,b). ac(b,a). ac(c,neg(a)).", {"110", "001"}, {"001"}),
    ],
    ids=["part-of-true-set", "whole-true-set"],
)
def test_stable_rejects_unfounded_true_sets(conditions, two_valued, stable_values):
    adf = parse_adf("s(a). s(b). s(c). " + conditions)
    assert {"".join(i.values) for i in solved_set(adf, "2v")} == two_valued
    for restrict in (True, False):
        members = solved_set(adf, "stb", restrict)
        assert members == brute_semantics(adf, "stb")
        assert {"".join(i.values) for i in members} == stable_values


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


def test_peel_minimal_matches_brute_force():
    rng = random.Random(149)
    for trial in range(60):
        nvars = rng.randint(1, 8)
        paired = trial % 2 == 1 and nvars >= 2
        if paired:
            nvars -= nvars % 2
        man = BddManager(nvars)
        density = rng.choice((0.05, 0.2, 0.5))
        table = [rng.random() < density for _ in range(1 << nvars)]
        if paired:
            # dual pairs (2i, 2i+1) that are never both false, as in prf
            for p in range(1 << nvars):
                if any((p >> 2 * i) & 3 == 0 for i in range(nvars // 2)):
                    table[p] = False
        work = man.false
        for p, member in enumerate(table):
            if member:
                cube = man.true
                for v in range(nvars):
                    cube = cube & (man.var(v) if (p >> v) & 1 else man.nvar(v))
                work = work | cube
        found = man.minimal(work, list(range(nvars)))
        members = [p for p in range(1 << nvars) if table[p]]
        minimal = {p for p in members if not any(q != p and q & p == q for q in members)}
        got = {
            p
            for p in range(1 << nvars)
            if found.evaluate([bool((p >> v) & 1) for v in range(nvars)])
        }
        assert got == minimal


def test_attack_tails_declared_last_first_match_oracle():
    for tail in range(7):
        for self_attack in (False, True):
            adf = attack_with_tail(tail, self_attack)
            for sem in ("prf", "stb"):
                for restrict in (True, False):
                    assert solved_set(adf, sem, restrict) == brute_semantics(adf, sem), (
                        f"{sem} diverged on tail {tail}, self_attack={self_attack}"
                    )


def test_long_chain_peels():
    started = time.perf_counter()
    prf = solve(alternating_chain(1000), "prf")
    assert count(prf) == 2
    assert count(solve(alternating_chain(1000), "stb")) == 1
    assert time.perf_counter() - started < 60.0


def test_grounded_cube_on_long_chain_stays_linear():
    n = 1000
    grd = solve(alternating_chain(n), "grd")
    assert count(grd) == 1
    assert len(grd.layout.manager._nodes) < 10 * n


def test_stable_on_long_chain_stays_linear():
    n = 1000
    stb = solve(alternating_chain(n), "stb")
    assert count(stb) == 1
    assert len(stb.layout.manager._nodes) < 100 * n


def attack_tail_union(copies):
    """``copies`` of the 14 ``attack_with_tail`` components (tails 0-6, both
    kinds), renamed apart into one disjoint union; returns it and its parts."""
    parts = [
        attack_with_tail(tail, self_attack)
        for _ in range(copies)
        for tail in range(7)
        for self_attack in (False, True)
    ]
    return disjoint_union(parts), parts


def test_attack_tail_union_past_oracle_cap():
    # 70 arguments: the counts of a disjoint union multiply, and reversing
    # the declaration order keeps them
    forward, parts = attack_tail_union(1)
    expected = {"prf": 1, "stb": 1}
    for part in parts:
        for sem in expected:
            expected[sem] *= len(brute_semantics(part, sem))
    backward = Adf(tuple(reversed(forward.arguments)), tuple(reversed(forward.conditions)))
    assert forward.n == 70
    for sem, total in expected.items():
        there, back = solve(forward, sem), solve(backward, sem)
        assert count(there) == count(back) == total
        assert there.iterations == back.iterations


def test_attack_tail_union_minimisation_stays_small():
    # 140 arguments: prf and stb each leave fewer than 100 nodes per argument
    adf, _ = attack_tail_union(2)
    assert adf.n == 140
    for sem, total in (("prf", 16384**2), ("stb", 256**2)):
        solset = solve(adf, sem)
        assert count(solset) == total
        assert len(solset.layout.manager._nodes) < 100 * adf.n


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
    prf = preferred(com, layout)
    stb = stable(tv, gamma_pairs(adf, layout), layout)
    grd = grounded(adf, layout)
    elapsed = time.perf_counter() - started
    assert count(tv) > 0
    assert stb.bdd.implies(tv.bdd).is_true
    assert embed_two_valued(tv, layout).bdd.implies(prf.bdd).is_true
    assert prf.bdd.implies(com.bdd).is_true
    assert com.bdd.implies(adm.bdd).is_true
    assert com.bdd.evaluate(encode_interpretation(grd, layout, "dual"))
    assert elapsed < 60.0


@pytest.mark.parametrize(
    "adf",
    [alternating_chain(1000), grid_adf(12, 8), constant_headed_chain(400)],
    ids=["chain1000", "grid12x8", "constchain400"],
)
def test_reversed_declaration_order_keeps_answers(adf):
    # past the oracle cap: reversing the declaration order reverses the
    # variable order, so every diagram is built anew, yet the sets agree
    backward = Adf(tuple(reversed(adf.arguments)), tuple(reversed(adf.conditions)))
    for sem in SEMANTICS:
        there, back = solve(adf, sem), solve(backward, sem)
        total = count(there)
        assert count(back) == total
        if total <= 4096:
            listed = [
                {frozenset(i.as_dict().items()) for i in enumerate_solutions(s)}
                for s in (there, back)
            ]
            assert len(listed[0]) == total
            assert listed[0] == listed[1]


def test_constant_headed_chain_grounds_to_its_two_valued_model():
    # one argument settles per step, far past the oracle cap
    adf = constant_headed_chain(400)
    point = grounded(adf, VarLayout.for_adf(adf))
    assert point.values == ("1", "0") * 200
    assert list(enumerate_solutions(solve(adf, "2v"))) == [point]


def test_grounding_work_is_linear_on_the_constant_headed_chain(monkeypatch):
    # an argument is evaluated again only when one it reads has changed, so
    # a chain that settles one argument per step costs linear, not
    # quadratic, evaluations
    calls = 0
    evaluate = Bdd.evaluate

    def counted(self, valuation):
        nonlocal calls
        calls += 1
        return evaluate(self, valuation)

    monkeypatch.setattr(Bdd, "evaluate", counted)
    spent = {}
    for n in (1000, 4000):
        adf = constant_headed_chain(n)
        calls = 0
        point = grounded(adf, VarLayout.for_adf(adf))
        spent[n] = calls
        assert point.values == ("1", "0") * (n // 2)
    assert spent[4000] <= 4.5 * spent[1000], spent


@pytest.mark.parametrize(
    "reorder",
    [lambda names: names[::-1], lambda names: names + ("c",)],
    ids=["reversed", "superset"],
)
@pytest.mark.parametrize("sem", SEMANTICS)
def test_layout_must_match_the_model(reorder, sem):
    adf = parse_adf("s(a). s(b). ac(a,c(v)). ac(b,neg(a)).")
    # names are compared as tuples, so a model built with a list still solves
    listed = Adf(list(adf.arguments), adf.conditions)
    assert count(solve(listed, sem, VarLayout(adf.arguments))) >= 1
    with pytest.raises(EncodingError, match="layout does not match"):
        solve(adf, sem, VarLayout(reorder(adf.arguments)))


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


def test_one_layout_serves_every_semantics():
    # each fold collects what the conditions compiled before it left dead,
    # so a later solve on the same layout must find none of it in a memo
    rng = random.Random(127)
    for _ in range(8):
        adf = random_adf(rng, rng.randint(4, 7))
        layout = VarLayout.for_adf(adf)
        for sem in SEMANTICS + SEMANTICS:
            assert count(solve(adf, sem, layout)) == len(brute_semantics(adf, sem))
            # a stale memo answer can leave a cycle that a later walk never leaves
            layout.manager.validate()


def test_complete_on_a_wide_grid_keeps_its_store_small():
    # folds collect their dead nodes; without that the store reaches 289 K
    solset = solve(grid_adf(25, 8, seed=1), "com")
    assert count(solset) == 2187
    assert len(solset.layout.manager._nodes) < 60_000
    solset.layout.manager.validate()
