"""Counting, enumeration order, and the exactness of uniform sampling."""

import hashlib
import random
import re
from collections import Counter

import pytest

from adfsolve.bdd import BddError
from adfsolve.cli import main
from adfsolve.formula import Adf, Var, parse_adf, write_adf
from adfsolve.oracle import brute_semantics
from adfsolve.encoding import VarLayout, decode
from adfsolve.semantics import SEMANTICS, SolutionSet, solve
from adfsolve.solutions import count, enumerate_solutions, sample_uniform
from conftest import EXAMPLE_ADF, disjoint_union, random_adf, random_adf_with_free_inputs

# chi-square upper critical values at significance 0.001
CHI2_001 = {2: 13.816, 4: 18.467, 7: 24.322, 26: 54.052}


def chi_square(observed, expected_each):
    return sum((obs - expected_each) ** 2 / expected_each for obs in observed)


def test_example_counts():
    adf = parse_adf(EXAMPLE_ADF)
    expected = {"adm": 5, "com": 3, "prf": 2, "2v": 2, "stb": 1, "grd": 1}
    for sem, value in expected.items():
        assert count(solve(adf, sem)) == value


def test_count_beyond_64_bits():
    names = tuple(f"x{i}" for i in range(70))
    adf = Adf(names, tuple(Var(nm) for nm in names))
    assert count(solve(adf, "2v")) == 2**70


def test_count_equals_enumeration_length():
    rng = random.Random(149)
    for _ in range(25):
        adf = random_adf(rng, rng.randint(1, 7))
        for sem in SEMANTICS:
            ss = solve(adf, sem)
            assert count(ss) == len(list(enumerate_solutions(ss)))


def test_enumeration_is_deterministic_and_lexicographic():
    adf = parse_adf(EXAMPLE_ADF)
    ss = solve(adf, "prf")
    first = [i.values for i in enumerate_solutions(ss)]
    second = [i.values for i in enumerate_solutions(ss)]
    assert first == second == [("1", "0", "0"), ("1", "1", "1")]
    adm = [i.values for i in enumerate_solutions(solve(adf, "adm"))]
    assert len(adm) == 5 and len(set(adm)) == 5


def test_enumeration_limit_and_empty():
    adf = parse_adf("s(a). s(b). ac(a,a). ac(b,b).")
    ss = solve(adf, "com")
    assert len(list(enumerate_solutions(ss, limit=4))) == 4
    assert count(ss) == 9
    # self-negation has no two-valued model at all
    dead = parse_adf("s(a). ac(a, neg(a)).")
    tv = solve(dead, "2v")
    assert list(enumerate_solutions(tv)) == []
    with pytest.raises(ValueError):
        list(enumerate_solutions(ss, limit=0))


def test_a_set_over_variables_outside_its_kind_is_rejected():
    # a direct set ranges over the top variables; read only there, this
    # one would list the four two-valued assignments
    layout = VarLayout(("a", "b"))
    man = layout.manager
    ss = SolutionSet(man.var(layout.bot(0)) & man.var(layout.top(1)), layout, "direct")
    listed = []
    with pytest.raises(BddError):
        for interp in enumerate_solutions(ss):
            listed.append(interp)
    assert listed == []
    with pytest.raises(BddError):
        count(ss)
    with pytest.raises(BddError):
        sample_uniform(ss, 3, seed=1)


def test_enumerated_solutions_satisfy_the_oracle():
    rng = random.Random(151)
    for _ in range(20):
        adf = random_adf(rng, rng.randint(1, 7))
        for sem in SEMANTICS:
            assert set(enumerate_solutions(solve(adf, sem))) == brute_semantics(adf, sem)


# (top, bot) order of the dual encoding: (0,1) false, (1,0) true, (1,1) unknown
VALUE_ORDER = {"0": 0, "1": 1, "*": 2}


def test_enumeration_order_matches_sorted_oracle():
    rng = random.Random(211)
    for index in range(40):
        make = random_adf if index % 2 else random_adf_with_free_inputs
        adf = make(rng, rng.randint(4, 8))
        for sem in SEMANTICS:
            ss = solve(adf, sem)
            expected = sorted(
                (m.values for m in brute_semantics(adf, sem)),
                key=lambda values: [VALUE_ORDER[v] for v in values],
            )
            assert [i.values for i in enumerate_solutions(ss)] == expected, (index, sem)
            assert [i.values for i in enumerate_solutions(ss, limit=3)] == expected[:3]


def golden_models():
    """The README example, a free-input model whose 2v diagram skips levels
    above its root and between nodes, and a free-input union."""
    skipping = random_adf_with_free_inputs(random.Random(27), 8)
    union = disjoint_union(
        [random_adf_with_free_inputs(random.Random(seed), 4) for seed in (3, 4, 5)]
    )
    return {"example": parse_adf(EXAMPLE_ADF), "skipping": skipping, "union": union}


def skipped_levels(ss):
    """Levels skipped above the root, and on edges between decision nodes."""
    table = ss.layout.manager.model_counts(ss.bdd, ss.variables())
    between = sum(
        table[child][0] - rank - 1
        for u, (rank, lo, hi, _, _) in table.items()
        if u > 1
        for child in (lo, hi)
        if child > 1
    )
    return table[ss.bdd.root][0], between


def reference_samples(ss, n, seed):
    """The draw contract, walked level by level on the count table: from one
    ``random.Random(seed)``, one ``getrandbits(1)`` per skipped level and one
    ``randrange(total)`` per node, choosing false below ``weight_lo``."""
    levels = ss.variables()
    table = ss.layout.manager.model_counts(ss.bdd, levels)
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        valuation = [0] * ss.layout.manager.num_vars
        u = ss.bdd.root
        for idx, level in enumerate(levels):
            rank, lo, hi, weight_lo, total = table[u]
            if rank != idx:
                valuation[level] = rng.getrandbits(1)
            elif rng.randrange(total) < weight_lo:
                u = lo
            else:
                valuation[level] = 1
                u = hi
        out.append(decode(valuation, ss.layout, ss.kind).values)
    return out


def test_sampling_follows_the_draw_contract():
    rng = random.Random(223)
    kinds = Counter()
    skipping = Counter()
    while sum(kinds.values()) < 200:
        index = sum(kinds.values())
        make = random_adf_with_free_inputs if index % 4 < 2 else random_adf
        adf = make(rng, rng.randint(2, 7))
        ss = solve(adf, rng.choice(("2v", "stb") if index % 2 else ("adm", "com", "prf")))
        if ss.bdd.is_false:
            continue
        seed = rng.randrange(2**32)
        drawn = [d.values for d in sample_uniform(ss, 20, seed)]
        assert drawn == reference_samples(ss, 20, seed), (index, ss.kind, seed)
        kinds[ss.kind] += 1
        above_root, between_nodes = skipped_levels(ss)
        skipping["above root"] += above_root > 0
        skipping["between nodes"] += between_nodes > 0
    assert kinds["direct"] == kinds["dual"] == 100
    assert skipping["above root"] >= 5 and skipping["between nodes"] >= 40, skipping


ELAPSED = re.compile(r'"elapsed_ms": [0-9.e+-]+')


def test_samples_and_listings_match_golden_hash(capsys, tmp_path):
    """Sampling draws and CLI listings are pinned, not just repeatable: a
    change to the RNG draw sequence or the enumeration order shows here."""
    models = golden_models()
    above_root, between_nodes = skipped_levels(solve(models["skipping"], "2v"))
    assert above_root >= 2 and between_nodes >= 1
    digest = hashlib.sha256()
    for name, sem, seed in [
        ("example", "adm", 2024),
        ("example", "com", 5),
        ("skipping", "2v", 17),
        ("skipping", "adm", 17),
        ("union", "adm", 99),
        ("union", "2v", 3),
    ]:
        draws = sample_uniform(solve(models[name], sem), 300, seed)
        digest.update(f"{name} {sem} {seed}\n".encode())
        digest.update("".join(v for d in draws for v in d.values).encode())
    for name, adf in models.items():
        path = tmp_path / f"{name}.adf"
        path.write_text(write_adf(adf))
        for flags in [
            ["--sem", "adm", "--sample", "40", "--seed", "8"],
            ["--sem", "2v", "--sample", "25", "--seed", "13"],
            ["--sem", "com", "--enumerate", "--limit", "30"],
            ["--sem", "adm", "--enumerate", "--limit", "50"],
        ]:
            for extra in ([], ["--json"]):
                assert main(["solve", str(path), *flags, *extra]) == 0
                out = ELAPSED.sub('"elapsed_ms": 0', capsys.readouterr().out)
                digest.update(f"{name} {flags} {extra}\n{out}".encode())
    assert digest.hexdigest() == (
        "037cacbaf3bd4227f44982a3ce8e8f9718021f664ea6a1c8ec6819fc0a0979e6"
    )


def test_sampling_singleton_set():
    adf = parse_adf(EXAMPLE_ADF)
    draws = sample_uniform(solve(adf, "stb"), 20, seed=7)
    assert len(draws) == 20
    assert {d.values for d in draws} == {("1", "0", "0")}


def test_sampling_is_deterministic_per_seed():
    adf = parse_adf(EXAMPLE_ADF)
    ss = solve(adf, "adm")
    a = [d.values for d in sample_uniform(ss, 50, seed=123)]
    b = [d.values for d in sample_uniform(ss, 50, seed=123)]
    c = [d.values for d in sample_uniform(ss, 50, seed=124)]
    assert a == b
    assert a != c


def test_sampling_rejects_empty_sets_and_bad_sizes():
    dead = parse_adf("s(a). ac(a, neg(a)).")
    tv = solve(dead, "2v")
    with pytest.raises(ValueError, match="empty"):
        sample_uniform(tv, 5, seed=1)
    adf = parse_adf(EXAMPLE_ADF)
    with pytest.raises(ValueError):
        sample_uniform(solve(adf, "adm"), 0, seed=1)


def test_sampling_stays_inside_the_set():
    rng = random.Random(157)
    for _ in range(10):
        adf = random_adf(rng, rng.randint(1, 6))
        ss = solve(adf, "adm")
        members = brute_semantics(adf, "adm")
        for draw in sample_uniform(ss, 40, seed=9):
            assert draw in members


def test_sampling_uniformity_example_admissible():
    adf = parse_adf(EXAMPLE_ADF)
    ss = solve(adf, "adm")
    draws = sample_uniform(ss, 10_000, seed=2024)
    frequencies = Counter(d.values for d in draws)
    assert len(frequencies) == 5
    statistic = chi_square(frequencies.values(), 10_000 / 5)
    assert statistic < CHI2_001[4], f"chi-square statistic {statistic:.2f}"


def test_sampling_uniformity_random_complete_set():
    # fixed-seed five-argument model; the oracle pins the exact member set
    adf = random_adf(random.Random(165), 5, depth=4)
    members = brute_semantics(adf, "com")
    ss = solve(adf, "com")
    assert count(ss) == len(members) == 5
    draws = sample_uniform(ss, 10_000, seed=77)
    frequencies = Counter(d.values for d in draws)
    assert set(frequencies) == {m.values for m in members}
    statistic = chi_square(frequencies.values(), 10_000 / 5)
    assert statistic < CHI2_001[4], f"chi-square statistic {statistic:.2f}"
