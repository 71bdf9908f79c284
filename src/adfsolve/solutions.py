"""Counting, enumeration, and exactly-uniform sampling of solution sets.

All three answers are read off one table of exact integer model counts
per node, built by ``BddManager.model_counts`` over the set's levels, so
counts stay correct beyond 64 bits and every sample is drawn from the
exact uniform distribution over the set (no floating-point weights
anywhere).  Enumeration and sampling walk the levels in order over that
table; a level whose rank no node on the path carries is skipped by the
diagram.  Only the engine reads its node store.

The walkers write each solution into one reused *row*, a copy of the
layout's row template from ``encoding``, which spells the listing line
and the truth-value code: a direct level writes its argument's value
byte, and a dual pair is written at its bot level, which follows its top
level in the order.  The command line writes the rows as they are; the
public functions wrap each row as an ``Interpretation``.

Output is deterministic: enumeration visits false before true at every
level, and sampling takes a fixed sequence of draws from
``random.Random(seed)`` (one ``getrandbits(1)`` per level a path skips,
and one ``randrange(total)`` per node it passes, in level order), so a
seed reproduces its samples exactly.
"""

from __future__ import annotations

import random
from collections.abc import Iterator

from .encoding import _DIRECT_VALUE, _DUAL_VALUE, _INVALID, Interpretation, _invalid_pair, _row_reader
from .semantics import SolutionSet


def count(solset: SolutionSet) -> int:
    """Exact number of interpretations in the set."""
    return solset.bdd.sat_count(solset.variables())


def _row_plan(solset: SolutionSet) -> tuple[list[int | None], tuple[bytes, bytes]]:
    """Per index into the set's levels, the row offset written there, or
    ``None`` at a dual top level, which only picks the values for its
    pair's bot level; and those values for each top bit, the codes
    ``2 top + bit`` split in two.  A direct walk passes no top level, so
    its values are those of top bit 0: its codes are its bits."""
    layout = solset.layout
    direct = solset.kind == "direct"
    written = layout.top if direct else layout.bot
    values = _DIRECT_VALUE if direct else _DUAL_VALUE
    at = {written(i): offset for i, offset in enumerate(layout._offsets)}
    return [at.get(level) for level in solset.variables()], (values[0:2], values[2:4])


def _enumerate_rows(solset: SolutionSet, limit: int | None = None) -> Iterator[bytearray]:
    """The enumeration walk: yields one reused row per solution."""
    if limit is not None and limit <= 0:
        raise ValueError("limit must be positive")
    layout = solset.layout
    plan, by_top = _row_plan(solset)
    table = layout.manager.model_counts(solset.bdd, solset.variables())
    u = solset.bdd.root
    if u == 0:
        return
    m = len(plan)
    remaining = limit
    row = bytearray(layout._row)
    values = by_top[0]
    # (index into levels, node reached by setting that level true, values there)
    stack: list[tuple[int, int, bytes]] = []
    idx = 0
    while True:
        # every node but 0 of a reduced diagram reaches 1, so a path that
        # never steps into 0 ends at 1 once every level is set
        while idx < m:
            rank, lo, hi, _, _ = table[u]
            if rank != idx:
                lo = hi = u  # level skipped by the diagram: both values lead on
            if lo:
                if hi:
                    stack.append((idx, hi, values))
                u, bit = lo, 0
            else:
                u, bit = hi, 1
            offset = plan[idx]
            if offset is None:
                values = by_top[bit]
            else:
                row[offset] = value = values[bit]
                if value == _INVALID:  # a (0,0) pair, outside the validity constraint
                    raise _invalid_pair(layout, layout._offsets.index(offset))
            idx += 1
        yield row
        if remaining is not None:
            remaining -= 1
            if remaining == 0:
                return
        if not stack:
            return
        idx, u, values = stack.pop()
        offset = plan[idx]
        if offset is None:
            values = by_top[1]
        else:
            row[offset] = values[1]
        idx += 1


def enumerate_solutions(solset: SolutionSet, limit: int | None = None) -> Iterator[Interpretation]:
    """Yield distinct interpretations in lexicographic variable order.

    False sorts before true at every level, and a level the diagram skips
    branches both ways, so the order is deterministic for a given layout.
    ``limit`` truncates the stream.

    The walk is iterative: it descends along false branches, writing each
    level into one shared row, and pushes the true branch of every level
    it passes onto an explicit stack.  Reaching the last level yields a
    solution; popping an entry sets its level true and descends again.
    Each solution therefore costs the levels below its branch point, and no
    generator frame per level.  The nodes come from the ``model_counts``
    table, which raises before the first solution if the set depends on a
    variable outside its kind.
    """
    return map(_row_reader(solset.layout), _enumerate_rows(solset, limit))


def _sample_rows(solset: SolutionSet, n: int, seed: int) -> Iterator[bytearray]:
    """The sampling walk: yields one reused row per draw."""
    if n <= 0:
        raise ValueError("sample size must be positive")
    if solset.bdd.is_false:
        raise ValueError("cannot sample from an empty solution set")
    layout = solset.layout
    plan, by_top = _row_plan(solset)
    table = layout.manager.model_counts(solset.bdd, solset.variables())
    draws = {
        u: (lo, hi, table[lo][0], table[hi][0], weight_lo, total, total.bit_length())
        for u, (_, lo, hi, weight_lo, total) in table.items()
        if u > 1
    }
    root = solset.bdd.root

    getrandbits = random.Random(seed).getrandbits
    row = bytearray(layout._row)
    values = by_top[0]
    for _ in range(n):
        u, rank = root, table[root][0]
        for idx, offset in enumerate(plan):
            if idx != rank:
                bit = getrandbits(1)  # level skipped by the diagram
            else:
                lo, hi, rank_lo, rank_hi, weight_lo, total, bits = draws[u]
                # randrange(total), as CPython draws it: rejection on bits-bit words
                r = getrandbits(bits)
                while r >= total:
                    r = getrandbits(bits)
                if r < weight_lo:
                    bit = 0
                    u, rank = lo, rank_lo
                else:
                    bit = 1
                    u, rank = hi, rank_hi
            if offset is None:
                values = by_top[bit]
            else:
                row[offset] = value = values[bit]
                if value == _INVALID:  # a (0,0) pair, outside the validity constraint
                    raise _invalid_pair(layout, layout._offsets.index(offset))
        yield row


def sample_uniform(solset: SolutionSet, n: int, seed: int) -> list[Interpretation]:
    """Draw ``n`` independent, exactly uniform members of the set.

    Each draw walks the levels in order from the root, picking branches
    with probability proportional to the exact model counts below, with a
    fair coin for every level the path skips.

    The draws from ``random.Random(seed)`` are fixed, which is what makes a
    sequence reproducible: per sample and in level order, one
    ``getrandbits(1)`` for each level the path skips, and at each node one
    draw equal to ``randrange(total)``, where ``total`` is the node's model
    count, to choose the false branch when it falls below the false
    branch's count.  So the coins above the root come first, then each
    node's draw followed by the coins for the levels it skips.  The same
    seed over the same diagram reproduces the same sequence.

    Each node's draw entry is built once from the ``model_counts`` table:
    its children, their ranks, the false-branch weight, the total and its
    bit length.
    """
    return list(map(_row_reader(solset.layout), _sample_rows(solset, n, seed)))
