"""Counting, enumeration, and exactly-uniform sampling of solution sets.

All three answers are read off the set diagram directly.  Counting and
sampling work with exact integer model counts per node, so counts stay
correct beyond 64 bits and every sample is drawn from the exact uniform
distribution over the set (no floating-point weights anywhere).

Output is deterministic: enumeration visits false before true at every
level, and sampling takes a fixed sequence of draws from
``random.Random(seed)`` (one ``getrandbits(1)`` per level a path skips,
in level order, and one ``randrange(total)`` per node it passes), so a
seed reproduces its samples exactly.
"""

from __future__ import annotations

import random
from collections.abc import Iterator

from .bdd import BddError
from .encoding import Interpretation, decode
from .semantics import SolutionSet


def count(solset: SolutionSet) -> int:
    """Exact number of interpretations in the set."""
    return solset.bdd.sat_count(solset.variables())


def enumerate_solutions(solset: SolutionSet, limit: int | None = None) -> Iterator[Interpretation]:
    """Yield distinct interpretations in lexicographic variable order.

    False sorts before true at every level, and a level the diagram skips
    branches both ways, so the order is deterministic for a given layout.
    ``limit`` truncates the stream.

    The walk is iterative: it descends along false branches, setting each
    level of one shared valuation, and pushes the true branch of every
    level it passes onto an explicit stack.  Reaching the last level yields
    a solution; popping an entry sets its level true and descends again.
    Each solution therefore costs the levels below its branch point, and no
    generator frame per level.
    """
    if limit is not None and limit <= 0:
        raise ValueError("limit must be positive")
    layout = solset.layout
    man = layout.manager
    nodes = man._nodes
    levels = solset.variables()
    level_set = set(levels)
    for v in solset.bdd.support():
        if v not in level_set:
            raise BddError(f"set depends on variable {v} outside its kind")
    u = solset.bdd.root
    if u == 0:
        return
    kind = solset.kind
    m = len(levels)
    remaining = limit
    valuation = [False] * man.num_vars
    # (index into levels, node reached by setting that level true)
    stack: list[tuple[int, int]] = []
    idx = 0
    while True:
        # every node but 0 of a reduced diagram reaches 1, so a path that
        # never steps into 0 ends at 1 once every level is set
        while idx < m:
            level = levels[idx]
            v, lo, hi = nodes[u]
            if v != level:
                lo = hi = u  # level skipped by the diagram: both values lead on
            if lo:
                if hi:
                    stack.append((idx, hi))
                valuation[level] = False
                u = lo
            else:
                valuation[level] = True
                u = hi
            idx += 1
        yield decode(valuation, layout, kind)
        if remaining is not None:
            remaining -= 1
            if remaining == 0:
                return
        if not stack:
            return
        idx, u = stack.pop()
        valuation[levels[idx]] = True
        idx += 1


def sample_uniform(solset: SolutionSet, n: int, seed: int) -> list[Interpretation]:
    """Draw ``n`` independent, exactly uniform members of the set.

    Each draw descends from the root picking branches with probability
    proportional to the exact model counts below, with a fair coin for
    every variable the path skips.

    The draws from ``random.Random(seed)`` are fixed, which is what makes a
    sequence reproducible: per sample, one ``getrandbits(1)`` for each
    level the path skips, in level order, and at each node one draw equal
    to ``randrange(total)``, where ``total`` is the node's model count, to
    choose the false branch when it falls below the false branch's count.
    The same seed over the same diagram reproduces the same sequence.

    One table per node, built once from ``model_counts``, holds what a draw
    reads: the node's level, children, false-branch weight, total and its
    bit length, and the levels skipped on the way to either child.
    """
    if n <= 0:
        raise ValueError("sample size must be positive")
    if solset.bdd.is_false:
        raise ValueError("cannot sample from an empty solution set")
    layout = solset.layout
    man = layout.manager
    nodes = man._nodes
    levels = sorted(solset.variables())
    counts, ranks = man.model_counts(solset.bdd, levels)
    table = {}
    for u, r in ranks.items():
        if u < 2:
            continue
        v, lo, hi = nodes[u]
        weight_lo = counts[lo] << (ranks[lo] - r - 1)
        total = counts[u]
        skips = levels[r + 1 : ranks[lo]], levels[r + 1 : ranks[hi]]
        table[u] = (v, lo, hi, weight_lo, total, total.bit_length(), *skips)
    root = solset.bdd.root
    # variables above the root are unconstrained
    above_root = levels[: ranks[root]]

    getrandbits = random.Random(seed).getrandbits
    kind = solset.kind
    valuation = [False] * man.num_vars
    out = []
    for _ in range(n):
        for level in above_root:
            valuation[level] = getrandbits(1)
        u = root
        while u > 1:
            v, lo, hi, weight_lo, total, bits, skip_lo, skip_hi = table[u]
            # randrange(total), as CPython draws it: rejection on bits-bit words
            r = getrandbits(bits)
            while r >= total:
                r = getrandbits(bits)
            if r < weight_lo:
                valuation[v] = False
                u = lo
                skipped = skip_lo
            else:
                valuation[v] = True
                u = hi
                skipped = skip_hi
            for level in skipped:
                valuation[level] = getrandbits(1)
        out.append(decode(valuation, layout, kind))
    return out
