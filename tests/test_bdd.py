"""Diagram engine tests against exhaustive truth-table oracles.

Random functions are built from expression trees; the oracle evaluates
the same tree directly over every valuation, so the expected tables are
independent of the diagram code they check.
"""

import copy
import operator
import random
import re
from pathlib import Path

import pytest

import adfsolve
from adfsolve.bdd import _AND, _EXISTS, Bdd, BddError, BddManager
from adfsolve.encoding import VarLayout, dual_transform, gamma_pairs
from adfsolve.formula import parse_adf
from conftest import EXAMPLE_ADF


def random_expr(rng, nvars, depth):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.9:
            return ("var", rng.randrange(nvars))
        return ("const", rng.random() < 0.5)
    op = rng.choice(["and", "or", "xor", "imp", "iff", "not"])
    if op == "not":
        return ("not", random_expr(rng, nvars, depth - 1))
    return (op, random_expr(rng, nvars, depth - 1), random_expr(rng, nvars, depth - 1))


def eval_expr(expr, valuation):
    kind = expr[0]
    if kind == "var":
        return valuation[expr[1]]
    if kind == "const":
        return expr[1]
    if kind == "not":
        return not eval_expr(expr[1], valuation)
    a = eval_expr(expr[1], valuation)
    b = eval_expr(expr[2], valuation)
    if kind == "and":
        return a and b
    if kind == "or":
        return a or b
    if kind == "xor":
        return a != b
    if kind == "imp":
        return (not a) or b
    return a == b


def shift_expr(expr, offset):
    kind = expr[0]
    if kind == "var":
        return ("var", expr[1] + offset)
    if kind == "const":
        return expr
    return (kind,) + tuple(shift_expr(e, offset) for e in expr[1:])


BINARY = {
    "and": operator.and_,
    "or": operator.or_,
    "xor": operator.xor,
    "imp": Bdd.implies,
    "iff": Bdd.iff,
}


def build_bdd(man, expr):
    kind = expr[0]
    if kind == "var":
        return man.var(expr[1])
    if kind == "const":
        return man.true if expr[1] else man.false
    if kind == "not":
        return ~build_bdd(man, expr[1])
    return BINARY[kind](build_bdd(man, expr[1]), build_bdd(man, expr[2]))


def valuations(nvars):
    for p in range(1 << nvars):
        yield [bool((p >> i) & 1) for i in range(nvars)]


def table_of_expr(expr, nvars):
    return [eval_expr(expr, v) for v in valuations(nvars)]


def table_of_bdd(f, nvars):
    return [f.evaluate(v) for v in valuations(nvars)]


def test_apply_trivial_cases():
    man = BddManager(2)
    x0 = man.var(0)
    assert BINARY["and"](x0, ~x0).is_false
    assert BINARY["or"](x0, man.false) == x0
    assert BINARY["and"](x0, man.true) == x0
    assert BINARY["imp"](man.false, x0).is_true
    assert BINARY["xor"](x0, x0).is_false


def test_apply_rejects_mixed_managers():
    a = BddManager(2)
    b = BddManager(2)
    with pytest.raises(BddError):
        a.var(0).implies(b.var(0))
    with pytest.raises(BddError):
        _ = a.var(0) & b.var(0)


def test_apply_matches_pointwise_tables():
    rng = random.Random(42)
    man = BddManager(6)
    for _ in range(50):
        ea = random_expr(rng, 6, 4)
        eb = random_expr(rng, 6, 4)
        fa = build_bdd(man, ea)
        fb = build_bdd(man, eb)
        ta = table_of_expr(ea, 6)
        tb = table_of_expr(eb, 6)
        for op, fn in [
            ("and", lambda a, b: a and b),
            ("or", lambda a, b: a or b),
            ("xor", lambda a, b: a != b),
            ("imp", lambda a, b: (not a) or b),
            ("iff", lambda a, b: a == b),
        ]:
            combined = BINARY[op](fa, fb)
            expected = [fn(a, b) for a, b in zip(ta, tb)]
            assert table_of_bdd(combined, 6) == expected


def test_negate():
    # negation is exclusive or with true, so it must agree with ``^`` and
    # keep the diagram's shape, swapping only the terminals
    man = BddManager(3)
    assert (~man.true).is_false
    x0, x1 = man.var(0), man.var(1)
    assert ~(x0 & x1) == ~x0 | ~x1
    rng = random.Random(7)
    exprs = [(1, ("const", False)), (1, ("const", True))]
    for _ in range(200):
        nvars = rng.randint(1, 7)
        exprs.append((nvars, random_expr(rng, nvars, 5)))
    for nvars, expr in exprs:
        man = BddManager(nvars)
        f = build_bdd(man, expr)
        g = build_bdd(man, random_expr(rng, nvars, 4))
        neg = ~f
        assert table_of_bdd(neg, nvars) == [not v for v in table_of_expr(expr, nvars)]
        assert (~neg).root == f.root
        assert (f ^ man.true).root == neg.root
        assert neg.size() == f.size()
        assert f.iff(g) == ~(f ^ g)


def test_canonicity_across_construction_orders():
    man = BddManager(4)
    x = [man.var(i) for i in range(4)]
    left = ((x[0] & x[1]) & x[2]) & x[3]
    right = x[0] & (x[1] & (x[2] & x[3]))
    assert left.root == right.root
    a = (x[0] | x[2]) & (x[1] | x[3])
    b = (x[1] | x[3]) & (x[2] | x[0])
    assert a.root == b.root


def test_store_stays_reduced():
    man = BddManager(5)
    rng = random.Random(3)
    for _ in range(50):
        build_bdd(man, random_expr(rng, 5, 5))
    man.validate()


def test_exists():
    man = BddManager(6)
    x0, x1 = man.var(0), man.var(1)
    assert man.exists(x0 & x1, [0]) == x1
    assert man.exists(man.false, [0, 3]).is_false
    rng = random.Random(11)
    for _ in range(40):
        expr = random_expr(rng, 6, 4)
        f = build_bdd(man, expr)
        table = table_of_expr(expr, 6)
        g = man.exists(f, [2, 4])
        for p, v in enumerate(valuations(6)):
            expected = any(
                table[(p & ~(1 << 2) & ~(1 << 4)) | (b2 << 2) | (b4 << 4)]
                for b2 in (0, 1)
                for b4 in (0, 1)
            )
            assert g.evaluate(v) == expected
        assert not (g.support() & {2, 4})


def test_exists_negation_duality():
    # universal quantification brute-forced, compared via De Morgan
    man = BddManager(5)
    rng = random.Random(13)
    for _ in range(30):
        expr = random_expr(rng, 5, 4)
        f = build_bdd(man, expr)
        table = table_of_expr(expr, 5)
        forall = ~man.exists(~f, [1, 3])
        for p, v in enumerate(valuations(5)):
            expected = all(
                table[(p & ~(1 << 1) & ~(1 << 3)) | (b1 << 1) | (b3 << 3)]
                for b1 in (0, 1)
                for b3 in (0, 1)
            )
            assert forall.evaluate(v) == expected


def test_eval_matches_ast_evaluation():
    rng = random.Random(19)
    man = BddManager(8)
    for _ in range(100):
        expr = random_expr(rng, 8, 5)
        f = build_bdd(man, expr)
        for _ in range(10):
            v = [rng.random() < 0.5 for _ in range(8)]
            assert f.evaluate(v) == eval_expr(expr, v)
    assert man.true.evaluate([True] * 8)
    assert not (man.var(0) & man.var(1)).evaluate(
        [True, False, False, False, False, False, False, False]
    )


def test_sat_count():
    man = BddManager(70)
    assert man.true.sat_count(range(70)) == 2**70
    x0, x1 = man.var(0), man.var(1)
    assert (x0 ^ x1).sat_count([0, 1]) == 2
    with pytest.raises(BddError):
        x0.sat_count([1, 2])


def test_sat_count_matches_enumeration():
    rng = random.Random(23)
    man = BddManager(10)
    for _ in range(40):
        expr = random_expr(rng, 10, 5)
        f = build_bdd(man, expr)
        expected = sum(table_of_expr(expr, 10))
        assert f.sat_count(range(10)) == expected


def test_sat_count_inclusion_exclusion():
    rng = random.Random(29)
    man = BddManager(8)
    over = range(8)
    for _ in range(30):
        f = build_bdd(man, random_expr(rng, 8, 4))
        g = build_bdd(man, random_expr(rng, 8, 4))
        assert (f | g).sat_count(over) + (f & g).sat_count(over) == f.sat_count(
            over
        ) + g.sat_count(over)


def test_minimal_trivial():
    man = BddManager(3)
    assert man.minimal(man.false, [0, 1, 2]).is_false
    with pytest.raises(BddError):
        man.minimal(man.true, [3])
    x = [man.var(i) for i in range(3)]
    assert man.minimal(man.true, [0, 1, 2]) == ~x[0] & ~x[1] & ~x[2]
    assert man.minimal(man.true, []) == man.true
    f = x[0] | (x[1] & x[2])
    assert man.minimal(f, []) == f
    assert man.minimal(f, [0, 1, 2]) == (x[0] & ~x[1] & ~x[2]) | (~x[0] & x[1] & x[2])
    assert man.minimal(f, [1, 2]) == (x[0] & ~x[1] & ~x[2]) | (~x[0] & x[1] & x[2])
    assert man.minimal(f, [0]) == (~x[0] & x[1] & x[2]) | (x[0] & ~(x[1] & x[2]))


def test_minimal_matches_brute_force():
    rng = random.Random(31)
    for trial in range(200):
        nvars = rng.randint(1, 8)
        man = BddManager(nvars)
        # a window of the variables, so that over levels above the root and
        # below the last node are skipped by every path
        first = rng.randrange(nvars)
        width = rng.randint(1, nvars - first)
        expr = shift_expr(random_expr(rng, width, 5), first)
        f = build_bdd(man, expr)
        if trial % 2:
            over = sorted(rng.sample(range(nvars), rng.randint(0, nvars)))
        else:
            over = list(range(nvars))
        mask = sum(1 << v for v in over)
        table = table_of_expr(expr, nvars)
        sat = [p for p in range(1 << nvars) if table[p]]
        # q is strictly below p: a proper subset of p's bits, differing only on over
        below = {p for p in sat for q in sat if q != p and q & p == q and (p ^ q) & ~mask == 0}
        assert table_of_bdd(man.minimal(f, over), nvars) == [
            table[p] and p not in below for p in range(1 << nvars)
        ]
        man.validate()


def test_upward_closure_trivial():
    man = BddManager(2)
    assert man.upward_closure(man.false, [0, 1]).is_false
    bottom = ~man.var(0) & ~man.var(1)
    assert man.upward_closure(bottom, [0, 1]).is_true


def test_upward_closure_matches_brute_force():
    rng = random.Random(41)
    man = BddManager(8)
    for _ in range(200):
        expr = random_expr(rng, 8, 5)
        f = build_bdd(man, expr)
        table = table_of_expr(expr, 8)
        closure = list(table)
        for v in range(8):
            for p in range(256):
                if not (p >> v) & 1 and closure[p]:
                    closure[p | (1 << v)] = True
        g = man.upward_closure(f, range(8))
        assert table_of_bdd(g, 8) == closure
        # idempotent and extensive
        assert man.upward_closure(g, range(8)) == g
        assert f.implies(g).is_true


def test_upward_closure_partial_variable_set():
    man = BddManager(3)
    f = ~man.var(0) & ~man.var(1) & ~man.var(2)
    g = man.upward_closure(f, [0, 1])
    # variable 2 is untouched, so it must stay pinned to false
    assert g == ~man.var(2)


def test_upward_closure_rejects_out_of_range_level():
    # exists, upward_closure and minimal share one level check
    man = BddManager(3)
    f = man.var(0) & man.var(1)
    for level in (-1, 3, 99):
        for method in (man.exists, man.upward_closure, man.minimal):
            with pytest.raises(BddError):
                method(f, [1, level])


def test_the_rebuild_rules_share_one_memo():
    # all three run one memoized pass over the same nodes and level sets, in
    # any order, and minimal runs the upward closure inside its own pass, so
    # each must key its entries apart from the others'
    rng = random.Random(43)
    man = BddManager(7)
    for _ in range(60):
        expr = random_expr(rng, 7, 5)
        f = build_bdd(man, expr)
        levels = rng.sample(range(7), rng.randint(1, 7))
        mask = sum(1 << v for v in levels)
        table = table_of_expr(expr, 7)
        sat = [q for q in range(128) if table[q]]
        projected = [any((p ^ q) & ~mask == 0 for q in sat) for p in range(128)]
        closed = [any((p ^ q) & ~mask == 0 and q & p == q for q in sat) for p in range(128)]
        least = [
            table[p] and not any(q != p and (p ^ q) & ~mask == 0 and q & p == q for q in sat)
            for p in range(128)
        ]
        calls = [(man.exists, projected), (man.upward_closure, closed), (man.minimal, least)]
        rng.shuffle(calls)
        for call, expected in calls + calls:
            assert table_of_bdd(call(f, levels), 7) == expected
    man.validate()


def test_conjoin():
    man = BddManager(6)
    assert man.conjoin([]).is_true
    x = [man.var(i) for i in range(6)]
    assert man.conjoin([x[0], ~x[0], x[1]]).is_false
    rng = random.Random(43)
    shuffler = random.Random(44)
    for _ in range(100):
        clauses = [build_bdd(man, random_expr(rng, 6, 3)) for _ in range(rng.randint(1, 8))]
        expected = man.true
        for c in clauses:
            expected = expected & c
        assert man.conjoin(clauses) == expected
        # the result is canonical, so the clause order cannot change the root
        shuffled = clauses[:]
        shuffler.shuffle(shuffled)
        assert man.conjoin(shuffled).root == expected.root
    other = BddManager(6)
    with pytest.raises(BddError):
        man.conjoin([x[0], other.var(1)])
    with pytest.raises(BddError):
        man.conjoin([man.false, other.var(1)])


def test_collection_keeps_live_handles_and_canonicity():
    rng = random.Random(47)
    man = BddManager(7)
    exprs = [random_expr(rng, 7, 5) for _ in range(60)]
    kept = {i: build_bdd(man, expr) for i, expr in enumerate(exprs) if i % 3 == 0}
    for expr in exprs:
        build_bdd(man, expr)  # garbage once built
    live = len(man._unique)
    man._collect()
    man.validate()
    assert len(man._unique) < live
    assert man._free
    for i, f in kept.items():
        assert table_of_bdd(f, 7) == table_of_expr(exprs[i], 7)
        assert build_bdd(man, exprs[i]).root == f.root
    # new nodes take freed ids, so a child's id may now exceed its
    # parent's; counting must not depend on id order
    for expr in exprs:
        f = build_bdd(man, expr)
        table = table_of_expr(expr, 7)
        assert table_of_bdd(f, 7) == table
        assert f.sat_count(range(7)) == sum(table)
    man.validate()
    live = set(man._unique.values())
    assert any(max(man._nodes[u][1:]) > u for u in live)


def test_reused_ids_never_answer_from_a_stale_memo():
    # every collection frees all nodes while the memo still holds entries
    # on them; later rounds build new functions on the same ids
    rng = random.Random(53)
    man = BddManager(5)
    for _ in range(40):
        for _ in range(6):
            expr = random_expr(rng, 5, 4)
            f = build_bdd(man, expr)
            table = table_of_expr(expr, 5)
            assert table_of_bdd(f, 5) == table
            levels = rng.sample(range(5), 2)
            mask = sum(1 << v for v in levels)
            sat = [q for q in range(32) if table[q]]
            projected = man.exists(f, levels)
            assert table_of_bdd(projected, 5) == [
                any((p ^ q) & ~mask == 0 for q in sat) for p in range(32)
            ]
        del f, projected
        man._collect()
        man.validate()
        assert not man._unique


def test_validate_rejects_a_stale_memo_entry():
    man = BddManager(4)
    dead = man.var(0) & man.var(1)
    kept = man.var(2) | man.var(3)
    del dead
    man._collect()
    man.validate()
    stale = man._free[0]
    past = len(man._nodes)
    entries = [
        ((_AND, stale, kept.root), kept.root),
        ((_AND, 1, kept.root), stale),
        ((_EXISTS, past, frozenset([2])), kept.root),
    ]
    for key, result in entries:
        man._cache.clear()
        man._cache[key] = result
        with pytest.raises(BddError):
            man.validate()
    # live ids pass, and a rebuild key's level set is not read as ids
    man._cache.clear()
    man._cache[_EXISTS, kept.root, frozenset([2, past])] = man.var(3).root
    man.validate()


def _append_node(level, lo, hi):
    return lambda man, f: man._nodes.append((level, lo, hi))


def _free(man, u, times=1):
    del man._unique[man._nodes[u]]
    man._free.extend([u] * times)


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda man, f: man._free.append(1), "free list repeats an id or holds a terminal"),
        (lambda man, f: _free(man, 2, times=2), "free list repeats an id or holds a terminal"),
        (_append_node(2, 3, 3), "has equal children"),
        (_append_node(4, 0, 1), "has invalid level 4"),
        (_append_node(2, 0, 99), "node 5 has a child outside the store"),
        (_append_node(2, -1, 1), "node 5 has a child outside the store"),
        (lambda man, f: man._free.append(man._nodes[f.root][2]), "has a freed child"),
        (_append_node(1, 0, 2), "breaks the variable order"),
        (lambda man, f: man._unique.pop(man._nodes[f.root]), "missing from the unique table"),
        (lambda man, f: man._unique.update({(3, 0, 1): 99}), "holds ids outside the store"),
        (lambda man, f: _free(man, f.root), "live handle points to freed node"),
    ],
    ids=[
        "terminal-on-free-list",
        "repeated-free-id",
        "equal-children",
        "level-out-of-range",
        "child-past-the-end",
        "negative-child",
        "freed-child",
        "order-violation",
        "missing-from-unique",
        "unique-outside-store",
        "handle-on-freed-id",
    ],
)
def test_validate_rejects_a_corrupt_store(corrupt, message):
    # store: 2 = (0, 0, 1), which no handle reaches, 3 = (1, 0, 1) and
    # the root 4 = (0, 0, 3)
    man = BddManager(4)
    f = man.var(0) & man.var(1)
    assert man._nodes[2:] == [(0, 0, 1), (1, 0, 1), (0, 0, 3)]
    man.validate()
    corrupt(man, f)
    with pytest.raises(BddError, match=message):
        man.validate()


def test_conjoin_keeps_the_pending_clauses_of_a_generator():
    # the handles die as the generator is consumed, so only the fold's own
    # roots keep the clauses still to be folded; x_i <-> x_(i+n) over the
    # order x_0 .. x_(2n-1) makes the accumulator outgrow them
    for n in range(3, 7):
        man = BddManager(2 * n)
        order = list(range(n))
        random.Random(n).shuffle(order)
        clauses = (man.var(i).iff(man.var(i + n)) for i in order)
        result = man.conjoin(clauses)
        man.validate()
        expected = [all(v[i] == v[i + n] for i in range(n)) for v in valuations(2 * n)]
        assert table_of_bdd(result, 2 * n) == expected
        assert result.sat_count(range(2 * n)) == 2**n


def test_a_copied_handle_counts_itself():
    # a copy that skipped the count would let the collector free the root
    # it still holds, and its __del__ would then find no count to drop
    man = BddManager(3)
    f = man.var(0) & ~man.var(2)
    root, table = f.root, table_of_bdd(f, 3)
    g = copy.copy(f)
    assert g == f
    assert man._refs[root] == 2
    del f
    man._collect()
    assert root not in man._free
    man.validate()
    assert table_of_bdd(g, 3) == table
    del g
    assert root not in man._refs


def test_counting_a_diagram_as_deep_as_its_variable_order():
    # x_i | x_(i+1) for every i: no two adjacent zeros, so a Fibonacci
    # number of models; the count must not recurse once per level
    n = 30000
    man = BddManager(n)
    f = man.conjoin(man.var(i) | man.var(i + 1) for i in range(n - 1))
    a, b = 2, 3  # models over 1 and 2 variables
    for _ in range(n - 2):
        a, b = b, a + b
    assert f.sat_count(range(n)) == b


def test_only_the_engine_reads_its_node_store():
    # every other module goes through manager methods and Bdd handles, and
    # reads counts off linked entries; no node id leaves the engine
    package = Path(adfsolve.__file__).parent
    sources = {path.name: path.read_text() for path in sorted(package.glob("*.py"))}
    readers = [
        name
        for name, text in sources.items()
        if name != "bdd.py" and re.search(r"\._nodes|\._cache", text)
    ]
    assert readers == []
    holders = [
        name
        for name, text in sources.items()
        if name != "bdd.py" and re.search(r"\.root\b", text)
    ]
    assert holders == []


def test_public_rebuild_passes_leave_no_memo():
    # each empties the memo when it returns, the dual lift included
    layout = VarLayout(("a", "b", "c"))
    man = layout.manager
    f = (man.var(0) & man.var(3)) | (man.var(1) ^ man.var(4)) | (man.var(2) & ~man.var(5))
    tops = (man.var(0) & man.var(2)) ^ man.var(4)
    adf = parse_adf(EXAMPLE_ADF)
    passes = [
        lambda: man.exists(f, [1, 3]),
        lambda: man.upward_closure(f, [0, 2, 4]),
        lambda: man.minimal(f, [0, 1, 2, 3, 4, 5]),
        lambda: dual_transform(tops, layout),
        lambda: gamma_pairs(adf, layout)[1].bot_fn,
    ]
    for rebuild in passes:
        assert (f & man.var(5)).root > 1 and man._cache  # a memo to start from
        assert not rebuild().is_false
        assert man._cache == {}
