"""Counting, enumeration, and exactly-uniform sampling of solution sets.

All three answers are read off the linked entries of exact integer model
counts that ``BddManager.model_counts`` returns over the set's levels, so
counts stay correct beyond 64 bits and every sample is drawn from the
exact uniform distribution over the set (no floating-point weights
anywhere).  Enumeration and sampling walk the levels in order from the
root's entry, stepping to a child's entry; a level whose rank no entry
on the path carries is skipped by the diagram.  No node id reaches them.

The walkers write each solution into one reused *row*, a copy of the
layout's row template from ``encoding``, which spells the listing line
and the truth-value code: a direct level writes its argument's value
byte, and a dual pair is written at its bot level, which follows its top
level in the order.  The command line writes the rows as they are; the
public functions wrap each row as an ``Interpretation``.

Output is deterministic: enumeration visits false before true at every
level, and sampling makes a fixed sequence of calls on
``random.Random(seed)`` (one ``getrandbits(1)`` per level a path skips,
and one ``randrange(total)`` per node it passes, in level order), so a
seed reproduces its samples exactly.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from itertools import islice

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


def _enumerate_rows(solset: SolutionSet) -> Iterator[bytearray]:
    """The enumeration walk: yields one reused row per solution."""
    layout = solset.layout
    plan, by_top = _row_plan(solset)
    entry = layout.manager.model_counts(solset.bdd, solset.variables())
    if not entry[4]:
        return
    m = len(plan)
    row = bytearray(layout._row)
    values = by_top[0]
    # (index into levels, entry reached by setting that level true, values there)
    stack: list[tuple[int, tuple, bytes]] = []
    idx = 0
    while True:
        # a branch with members has a path to the true terminal, so a walk
        # that only steps into such branches ends there once every level is set
        while idx < m:
            rank, lo, hi, _, _ = entry
            if rank != idx:
                lo = hi = entry  # level skipped by the diagram: both values lead on
            if lo[4]:
                if hi[4]:
                    stack.append((idx, hi, values))
                entry, bit = lo, 0
            else:
                entry, bit = hi, 1
            offset = plan[idx]
            if offset is None:
                values = by_top[bit]
            else:
                row[offset] = value = values[bit]
                if value == _INVALID:  # a (0,0) pair, outside the validity constraint
                    raise _invalid_pair(layout, layout._offsets.index(offset))
            idx += 1
        yield row
        if not stack:
            return
        idx, entry, values = stack.pop()
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
    generator frame per level.  The count entries come from
    ``model_counts``, which raises before the first solution if the set
    depends on a variable outside its kind.
    """
    if limit is not None and limit <= 0:
        raise ValueError("limit must be positive")
    return islice(map(_row_reader(solset.layout), _enumerate_rows(solset)), limit)


def _sample_rows(solset: SolutionSet, n: int, seed: int) -> Iterator[bytearray]:
    """The sampling walk: yields one reused row per draw."""
    if n <= 0:
        raise ValueError("sample size must be positive")
    if solset.bdd.is_false:
        raise ValueError("cannot sample from an empty solution set")
    layout = solset.layout
    plan, by_top = _row_plan(solset)
    root = layout.manager.model_counts(solset.bdd, solset.variables())

    getrandbits = random.Random(seed).getrandbits
    row = bytearray(layout._row)
    values = by_top[0]
    for _ in range(n):
        rank, lo, hi, weight_lo, total = root
        for idx, offset in enumerate(plan):
            if idx != rank:
                bit = getrandbits(1)  # level skipped by the diagram
            else:
                # randrange(total), as CPython computes it: rejection on bit-length words
                bits = total.bit_length()
                r = getrandbits(bits)
                while r >= total:
                    r = getrandbits(bits)
                bit = r >= weight_lo
                rank, lo, hi, weight_lo, total = hi if bit else lo
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

    The calls on ``random.Random(seed)`` are fixed, which is what makes a
    sequence reproducible: per sample and in level order, one
    ``getrandbits(1)`` for each level the path skips, and at each node one
    draw equal to ``randrange(total)``, where ``total`` is the node's model
    count, to choose the false branch when it falls below the false
    branch's count.  So the coins above the root come first, then each
    node's draw followed by the coins for the levels it skips.  The same
    seed over the same diagram reproduces the same sequence.

    Each draw reads the linked ``model_counts`` entries as it descends:
    a node's entry holds its rank, its children's entries, the
    false-branch weight and the total, so no second table is built.
    """
    return list(map(_row_reader(solset.layout), _sample_rows(solset, n, seed)))
