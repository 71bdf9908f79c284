"""Counting, enumeration, and exactly-uniform sampling of solution sets.

All three answers are read off the set diagram directly.  Counting and
sampling work with exact integer model counts per node, so counts stay
correct beyond 64 bits and every sample is drawn from the exact uniform
distribution over the set (no floating-point weights anywhere).
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

    False sorts before true at every level, so the order is deterministic
    for a given layout.  ``limit`` truncates the stream.
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
    remaining = limit

    valuation = [False] * man.num_vars

    def walk(u: int, idx: int) -> Iterator[Interpretation]:
        if idx == len(levels):
            if u == 1:
                yield decode(valuation, layout, solset.kind)
            return
        level = levels[idx]
        var_u = nodes[u][0]
        if var_u == level:
            _, lo, hi = nodes[u]
            branches = ((False, lo), (True, hi))
        else:
            # variable skipped by the diagram: both values lead on
            branches = ((False, u), (True, u))
        for value, child in branches:
            if child == 0:
                continue
            valuation[level] = value
            yield from walk(child, idx + 1)
        valuation[level] = False

    for interp in walk(solset.bdd.root, 0):
        yield interp
        if remaining is not None:
            remaining -= 1
            if remaining == 0:
                return


def sample_uniform(solset: SolutionSet, n: int, seed: int) -> list[Interpretation]:
    """Draw ``n`` independent, exactly uniform members of the set.

    Each draw descends from the root picking branches with probability
    proportional to the exact model counts below, with a fair coin for
    every variable the path skips.  The same seed over the same diagram
    reproduces the same sequence.
    """
    if n <= 0:
        raise ValueError("sample size must be positive")
    if solset.bdd.is_false:
        raise ValueError("cannot sample from an empty solution set")
    layout = solset.layout
    man = layout.manager
    nodes = man._nodes
    levels = sorted(solset.variables())
    rank, counts, ranks = man.model_counts(solset.bdd, levels)

    rng = random.Random(seed)
    out = []
    for _ in range(n):
        valuation = [False] * man.num_vars
        u = solset.bdd.root
        # variables above the root are unconstrained
        for j in range(ranks[u]):
            valuation[levels[j]] = bool(rng.getrandbits(1))
        while u > 1:
            v, lo, hi = nodes[u]
            r = rank[v]
            weight_lo = counts[lo] << (ranks[lo] - r - 1)
            weight_hi = counts[hi] << (ranks[hi] - r - 1)
            if rng.randrange(weight_lo + weight_hi) < weight_lo:
                valuation[v] = False
                child = lo
            else:
                valuation[v] = True
                child = hi
            for j in range(r + 1, ranks[child]):
                valuation[levels[j]] = bool(rng.getrandbits(1))
            u = child
        out.append(decode(valuation, layout, solset.kind))
    return out
