"""Acceptance suite: one test per criterion, one pass/fail line each.

The heavy shared fixture solves a 200-instance random corpus against the
brute-force reference once; several criteria read from it.
"""

import random
import time
from collections import Counter
from itertools import product

import pytest

from adfsolve.bdd import BddManager
from adfsolve.encoding import (
    Interpretation,
    VarLayout,
    dual_transform,
    encode_interpretation,
    formula_to_bdd,
    gamma_pairs,
)
from adfsolve.formula import Adf, Var, evaluate, parse_adf
from adfsolve.oracle import brute_semantics
from adfsolve.semantics import (
    SEMANTICS,
    admissible,
    complete,
    embed_two_valued,
    grounded,
    preferred,
    restrict_free_inputs,
    solve,
    stable,
    two_valued_models,
)
from adfsolve.solutions import count, enumerate_solutions, sample_uniform
from conftest import (
    EXAMPLE_ADF,
    grid_adf,
    random_adf,
    random_adf_with_free_inputs,
    random_formula,
)

CORPUS_SIZE = 200
CHI2_001_DF4 = 18.467  # chi-square upper critical value, 4 dof, p = 0.001


def report(number: int, passed: bool, description: str) -> None:
    print(f"criterion {number:2d}: {'PASS' if passed else 'FAIL'} - {description}")
    assert passed, f"criterion {number} failed: {description}"


@pytest.fixture(scope="module")
def corpus():
    """Random models solved symbolically and by the reference, once."""
    started = time.perf_counter()
    rng = random.Random(20240501)
    records = []
    for _ in range(CORPUS_SIZE):
        adf = random_adf(rng, rng.randint(1, 7), depth=5)
        layout = VarLayout.for_adf(adf)
        tv = two_valued_models(adf, layout)
        com = complete(adf, layout)
        prf = preferred(restrict_free_inputs(com, adf, "preferred"), layout)
        stb = stable(
            restrict_free_inputs(tv, adf, "stable"), gamma_pairs(adf, layout), layout
        )
        symbolic = {
            "adm": admissible(adf, layout),
            "com": com,
            "2v": tv,
            "prf": prf,
            "stb": stb,
        }
        records.append(
            {
                "adf": adf,
                "layout": layout,
                "symbolic": symbolic,
                "grounded": grounded(adf, layout),
                "reference": {sem: brute_semantics(adf, sem) for sem in SEMANTICS},
            }
        )
    return {"records": records, "build_seconds": time.perf_counter() - started}


def test_criterion_1_example_exactness():
    started = time.perf_counter()
    adf = parse_adf(EXAMPLE_ADF)
    layout = VarLayout.for_adf(adf)
    counts = {sem: count(solve(adf, sem, layout=layout)) for sem in SEMANTICS}
    stable_members = [
        i.values for i in enumerate_solutions(solve(adf, "stb", layout=layout))
    ]
    grounded_values = grounded(adf, layout).values
    elapsed = time.perf_counter() - started
    ok = (
        counts == {"adm": 5, "com": 3, "grd": 1, "prf": 2, "2v": 2, "stb": 1}
        and stable_members == [("1", "0", "0")]
        and grounded_values == ("1", "*", "*")
        and elapsed < 1.0
    )
    report(1, ok, f"three-argument example solved exactly in {elapsed:.3f}s")


def test_criterion_2_oracle_equivalence(corpus):
    started = time.perf_counter()
    mismatches = 0
    for record in corpus["records"]:
        for sem in SEMANTICS:
            if sem == "grd":
                symbolic = {record["grounded"]}
            else:
                symbolic = set(enumerate_solutions(record["symbolic"][sem]))
            if symbolic != record["reference"][sem]:
                mismatches += 1
    elapsed = corpus["build_seconds"] + time.perf_counter() - started
    ok = mismatches == 0 and elapsed < 120.0
    report(
        2,
        ok,
        f"{CORPUS_SIZE} random models, six semantics each, "
        f"{mismatches} mismatches against the reference ({elapsed:.1f}s total)",
    )


def test_criterion_3_dual_transform_equivalence():
    # on every valid dual point, the rewrite holds exactly when some
    # two-valued completion satisfies the condition itself
    rng = random.Random(77001)
    failures = points = 0
    for _ in range(200):
        n = rng.randint(1, 6)
        names = tuple(f"x{i}" for i in range(n))
        layout = VarLayout(names)
        condition = random_formula(rng, names, depth=5)
        dual = dual_transform(formula_to_bdd(condition, layout), layout)
        table = {
            bits: evaluate(condition, dict(zip(names, bits)))
            for bits in product((False, True), repeat=n)
        }
        for values in product("01*", repeat=n):
            choices = [(False, True) if v == "*" else (v == "1",) for v in values]
            expected = any(table[bits] for bits in product(*choices))
            valuation = encode_interpretation(Interpretation(names, values), layout, "dual")
            points += 1
            failures += dual.evaluate(valuation) != expected
    report(
        3,
        failures == 0,
        f"structural rewrite equals the completion semantics on 200 formulas "
        f"({points} dual points, {failures} mismatches)",
    )


def test_criterion_4_chain_invariant(corpus):
    failures = 0
    checked = 0
    example = parse_adf(EXAMPLE_ADF)
    layout = VarLayout.for_adf(example)
    instances = [
        {
            "layout": layout,
            "symbolic": {
                "adm": admissible(example, layout),
                "com": complete(example, layout),
                "2v": two_valued_models(example, layout),
                "prf": preferred(complete(example, layout), layout),
                "stb": stable(
                    two_valued_models(example, layout),
                    gamma_pairs(example, layout),
                    layout,
                ),
            },
            "grounded": grounded(example, layout),
        }
    ] + corpus["records"]
    for record in instances:
        sets = record["symbolic"]
        lay = record["layout"]
        tv_dual = embed_two_valued(sets["2v"], lay)
        checked += 1
        chain = (
            sets["stb"].bdd.implies(sets["2v"].bdd).is_true
            and tv_dual.bdd.implies(sets["prf"].bdd).is_true
            and sets["prf"].bdd.implies(sets["com"].bdd).is_true
            and sets["com"].bdd.implies(sets["adm"].bdd).is_true
            and sets["com"].bdd.evaluate(
                encode_interpretation(record["grounded"], lay, "dual")
            )
        )
        if not chain:
            failures += 1
    report(
        4,
        failures == 0,
        f"inclusion chain and grounded membership hold on {checked} instances",
    )


def test_criterion_5_specialty_operations():
    rng = random.Random(77002)
    failures = 0

    def random_table_bdd(man, nvars, density):
        expr = man.false
        for _ in range(rng.randint(1, 2 ** nvars if density else 8)):
            cube = man.true
            for v in range(nvars):
                roll = rng.random()
                if roll < 0.4:
                    cube = cube & man.var(v)
                elif roll < 0.8:
                    cube = cube & man.nvar(v)
            expr = expr | cube
        return expr

    # minimal members: none strictly above another over a random subset
    for _ in range(200):
        nvars = rng.randint(1, 10)
        man = BddManager(nvars)
        f = random_table_bdd(man, nvars, density=False)
        over = [v for v in range(nvars) if rng.random() < 0.7]
        mask = sum(1 << v for v in over)
        sat = [
            p
            for p in range(1 << nvars)
            if f.evaluate([bool((p >> i) & 1) for i in range(nvars)])
        ]
        least = [
            p
            for p in sat
            if not any(q != p and q & p == q and (p ^ q) & ~mask == 0 for q in sat)
        ]
        g = man.minimal(f, over)
        got = [
            p
            for p in range(1 << nvars)
            if g.evaluate([bool((p >> i) & 1) for i in range(nvars)])
        ]
        if got != least:
            failures += 1

    # upward closure
    for _ in range(200):
        nvars = rng.randint(1, 10)
        man = BddManager(nvars)
        f = random_table_bdd(man, nvars, density=False)
        table = [
            f.evaluate([bool((p >> i) & 1) for i in range(nvars)])
            for p in range(1 << nvars)
        ]
        closure = list(table)
        for v in range(nvars):
            for p in range(1 << nvars):
                if not (p >> v) & 1 and closure[p]:
                    closure[p | (1 << v)] = True
        g = man.upward_closure(f, range(nvars))
        got = [
            g.evaluate([bool((p >> i) & 1) for i in range(nvars)])
            for p in range(1 << nvars)
        ]
        if got != closure:
            failures += 1
    report(
        5,
        failures == 0,
        f"two set primitives (minimal members, upward closure) match brute "
        f"force on 200 functions each "
        f"({failures} failures)",
    )


def test_criterion_6_iteration_bounds(corpus):
    worst_margin = None
    violations = 0
    for record in corpus["records"]:
        n = record["adf"].n
        for tag in ("prf", "stb"):
            rounds = record["symbolic"][tag].iterations
            if rounds is None or rounds > n + 1:
                violations += 1
            margin = (n + 1) - (rounds or 0)
            if worst_margin is None or margin < worst_margin:
                worst_margin = margin
    report(
        6,
        violations == 0,
        f"peeling loops stayed within n+1 rounds on all instances "
        f"(tightest margin {worst_margin})",
    )


def test_criterion_7_big_counting():
    names = tuple(f"x{i}" for i in range(70))
    adf = Adf(names, tuple(Var(nm) for nm in names))
    total = count(solve(adf, "2v"))
    report(
        7,
        total == 2**70 == 1180591620717411303424,
        f"seventy free inputs count to {total}",
    )


def test_criterion_8_sampling_uniformity():
    adf = parse_adf(EXAMPLE_ADF)
    draws = sample_uniform(solve(adf, "adm"), 10_000, seed=20240501)
    frequencies = Counter(d.values for d in draws)
    expected = 10_000 / 5
    statistic = sum((obs - expected) ** 2 / expected for obs in frequencies.values())
    ok = len(frequencies) == 5 and statistic < CHI2_001_DF4
    report(
        8,
        ok,
        f"10000 draws over five admissible members, chi-square {statistic:.2f} "
        f"< {CHI2_001_DF4}",
    )


def test_criterion_9_free_input_restriction():
    rng = random.Random(77003)
    failures = 0
    for _ in range(50):
        adf = random_adf_with_free_inputs(rng, rng.randint(2, 6))
        layout = VarLayout.for_adf(adf)
        free = adf.free_inputs()
        assert free
        com = complete(adf, layout)
        tv = two_valued_models(adf, layout)
        prf_restricted = preferred(restrict_free_inputs(com, adf, "preferred"), layout)
        prf_plain = preferred(com, layout)
        gam = gamma_pairs(adf, layout)
        stb_restricted = stable(restrict_free_inputs(tv, adf, "stable"), gam, layout)
        stb_plain = stable(tv, gam, layout)
        if prf_restricted.bdd != prf_plain.bdd or stb_restricted.bdd != stb_plain.bdd:
            failures += 1
            continue
        man = layout.manager
        for name in free:
            i = layout.index(name)
            never_star = prf_restricted.bdd.implies(
                ~(man.var(layout.top(i)) & man.var(layout.bot(i)))
            )
            never_true = stb_restricted.bdd.implies(man.nvar(layout.top(i)))
            if not (never_star.is_true and never_true.is_true):
                failures += 1
                break
    report(
        9,
        failures == 0,
        f"restriction is answer-preserving and sound on 50 free-input models "
        f"({failures} failures)",
    )


def test_criterion_10_performance_smoke():
    adf = grid_adf(25, 8)
    assert adf.n == 200
    started = time.perf_counter()
    layout = VarLayout.for_adf(adf)
    tv = two_valued_models(adf, layout)
    tv_count = count(tv)
    stb = stable(
        restrict_free_inputs(tv, adf, "stable"), gamma_pairs(adf, layout), layout
    )
    stb_count = count(stb)
    elapsed = time.perf_counter() - started
    ok = elapsed < 60.0 and tv_count > 0 and stb.bdd.implies(tv.bdd).is_true
    report(
        10,
        ok,
        f"200-argument grid: {tv_count} two-valued and {stb_count} stable models "
        f"counted in {elapsed:.1f}s",
    )
