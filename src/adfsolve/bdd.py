"""Reduced ordered binary decision diagrams.

A manager owns a hash-consed node store over a fixed number of ordered
variables.  Nodes are plain integers; 0 and 1 are the terminal nodes for
the constant functions.  Because the store is hash-consed and every
constructor keeps diagrams reduced, two diagrams built in the same manager
represent the same Boolean function exactly when their root integers are
equal.

The engine has three binary operators, conjunction, disjunction and
exclusive or; negation is exclusive or with true, and implication and
equivalence are derived from them.  One rebuild pass serves existential
quantification, the monotone upward closure of a set under bitwise
inclusion over a given group of variables, and the dual lift behind
``encoding.dual_transform``.  The minimal members of a set under that
inclusion are built on the closure in one further pass, and model
counting is one depth-first walk into a table that the readers of a
solution set share.  Constructions over a level set are
manager methods, queries on one diagram ``Bdd`` methods.  A single memo,
keyed by an opcode and operand ids, serves the three operators and the
rebuild pass; ``minimal`` keeps a per-call memo of its own.

Memory is bounded at safe points, the steps of ``conjoin``'s fold.  The
memo lives one fold step: it is emptied after each step, so it holds only
the work of the conjunction in progress.  A node lives while a ``Bdd``
handle, the fold's accumulator or a clause still waiting in the fold
reaches it.  Each handle counts itself in the manager while it exists.
Once the live store has doubled since the last collection (or, before
the first, since the first fold step), a fold step marks what those
roots reach and frees the rest: the unique table is refilled with the
marked nodes, freed ids go on a free list that later nodes reuse, and
the memo is emptied, so no reused id answers through a stale entry.
Nodes never move, so every handle stays valid.  Because ids are reused,
a child's id may exceed its parent's, so no pass relies on id order.

A manager and every diagram it owns belong to a single thread; distinct
managers are fully independent.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Sequence
from itertools import compress


class BddError(Exception):
    """Invalid use of the diagram engine (mixed managers, bad supports)."""


# opcodes for the memo; _EXISTS, _UP and _DUAL are the rebuild pass's rules
_AND, _OR, _XOR, _EXISTS, _UP, _DUAL = range(6)

# a collection's mark bytes -> 1 where a slot is free
_UNMARKED = bytes.maketrans(b"\x00\x01", b"\x01\x00")


class BddManager:
    """Shared node store for diagrams over ``num_vars`` ordered variables."""

    def __init__(self, num_vars: int):
        if num_vars < 0:
            raise BddError("variable count must be nonnegative")
        self.num_vars = num_vars
        # id -> (level, lo, hi); terminals carry the sentinel level num_vars
        # so that min() over levels always picks a decision node first.
        self._nodes: list[tuple[int, int, int]] = [
            (num_vars, 0, 0),
            (num_vars, 1, 1),
        ]
        self._unique: dict[tuple[int, int, int], int] = {}
        self._cache: dict[tuple, int] = {}
        # ids of collected nodes, reused by _mk before the store grows
        self._free: list[int] = []
        # root -> number of live Bdd handles on it
        self._refs: dict[int, int] = {}
        # a fold step collects once the live store exceeds this size; the
        # first fold step sets it
        self._collect_at: int | None = None
        # recursion depth tracks the variable order, never the node count
        limit = 4 * num_vars + 2000
        if sys.getrecursionlimit() < limit:
            sys.setrecursionlimit(limit)

    # -- construction --------------------------------------------------

    @property
    def false(self) -> "Bdd":
        return Bdd(self, 0)

    @property
    def true(self) -> "Bdd":
        return Bdd(self, 1)

    def var(self, level: int) -> "Bdd":
        """The projection function of the variable at ``level``."""
        self._check_level(level)
        return Bdd(self, self._mk(level, 0, 1))

    def nvar(self, level: int) -> "Bdd":
        """The negated projection of the variable at ``level``."""
        self._check_level(level)
        return Bdd(self, self._mk(level, 1, 0))

    def _check_level(self, level: int) -> None:
        if not 0 <= level < self.num_vars:
            raise BddError(f"variable {level} outside manager range 0..{self.num_vars - 1}")

    def _levels(self, variables: Iterable[int]) -> frozenset[int]:
        levels = frozenset(variables)
        for v in levels:
            self._check_level(v)
        return levels

    def _mk(self, level: int, lo: int, hi: int) -> int:
        if lo == hi:
            return lo
        key = (level, lo, hi)
        found = self._unique.get(key)
        if found is None:
            if self._free:
                found = self._free.pop()
                self._nodes[found] = key
            else:
                self._nodes.append(key)
                found = len(self._nodes) - 1
            self._unique[key] = found
        return found

    def _collect(self, roots: Iterable[int] = ()) -> None:
        """Free every node that no live handle and none of ``roots`` reach.

        One pass marks the reachable nodes and refills the unique table
        with them; every unmarked slot goes on the free list, and the memo
        is emptied.  The table and the list are refilled in place: new
        containers of that size would be young to Python's cyclic
        collector, which would traverse them again.
        """
        nodes = self._nodes
        marked = bytearray(len(nodes))
        marked[0] = marked[1] = 1
        unique = self._unique
        unique.clear()
        stack = [u for u in {*self._refs, *roots} if u > 1]
        for u in stack:
            marked[u] = 1
        while stack:
            u = stack.pop()
            key = nodes[u]
            unique[key] = u
            _, lo, hi = key
            if not marked[lo]:
                marked[lo] = 1
                stack.append(lo)
            if not marked[hi]:
                marked[hi] = 1
                stack.append(hi)
        self._free.clear()
        self._free.extend(compress(range(len(nodes)), marked.translate(_UNMARKED)))
        self._cache.clear()
        self._collect_at = 2 * len(unique)

    # -- operators ------------------------------------------------------

    def _claim(self, f: "Bdd") -> None:
        if f.manager is not self:
            raise BddError("operands belong to different managers")

    def _apply(self, op: int, a: int, b: int) -> int:
        # operands that settle the result skip the memo lookup; all three
        # operators commute, so ordered operands share cache keys
        if op == _AND:
            if a == 0 or b == 0:
                return 0
            if a == 1 or a == b:
                return b
            if b == 1:
                return a
        elif op == _OR:
            if a == 1 or b == 1:
                return 1
            if a == 0 or a == b:
                return b
            if b == 0:
                return a
        else:  # _XOR; a true operand recurses down to XOR(1, 0) and XOR(1, 1)
            if a == b:
                return 0
            if a == 0:
                return b
            if b == 0:
                return a
        if a > b:
            a, b = b, a
        key = (op, a, b)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        nodes = self._nodes
        va, la, ha = nodes[a]
        vb, lb, hb = nodes[b]
        if va <= vb:
            v = va
            a0, a1 = la, ha
        else:
            v = vb
            a0 = a1 = a
        if vb <= va:
            b0, b1 = lb, hb
        else:
            b0 = b1 = b
        result = self._mk(v, self._apply(op, a0, b0), self._apply(op, a1, b1))
        self._cache[key] = result
        return result

    # -- quantification -------------------------------------------------

    def exists(self, f: "Bdd", variables: Iterable[int]) -> "Bdd":
        """Existentially quantify the given variable levels out of ``f``."""
        self._claim(f)
        levels = self._levels(variables)
        return Bdd(self, self._rebuild(_EXISTS, f.root, levels, max(levels, default=-1)))

    def _rebuild(self, op: int, a: int, levels: frozenset[int], top: int) -> int:
        # at a node on a variable v in ``levels``, with rebuilt branches l
        # and h: _EXISTS returns l | h, _UP takes l | h as high branch, and
        # _DUAL maps the pair (v, v + 1) to (0,0) 0, (0,1) l, (1,0) h, (1,1) l | h
        if a < 2:
            return a
        v, lo, hi = self._nodes[a]
        if v > top:
            return a
        key = (op, a, levels)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        l = self._rebuild(op, lo, levels, top)
        h = self._rebuild(op, hi, levels, top)
        if v not in levels:
            result = self._mk(v, l, h)
        elif op == _EXISTS:
            result = self._apply(_OR, l, h)
        elif op == _UP:
            result = self._mk(v, l, self._apply(_OR, l, h))
        else:
            result = self._mk(v, self._mk(v + 1, 0, l), self._mk(v + 1, h, self._apply(_OR, l, h)))
        self._cache[key] = result
        return result

    # -- counting and inspection -----------------------------------------

    def _reachable(self, root: int) -> set[int]:
        seen = {root}
        stack = [root]
        nodes = self._nodes
        while stack:
            u = stack.pop()
            if u < 2:
                continue
            _, lo, hi = nodes[u]
            if lo not in seen:
                seen.add(lo)
                stack.append(lo)
            if hi not in seen:
                seen.add(hi)
                stack.append(hi)
        return seen

    def model_counts(
        self, f: "Bdd", levels: Sequence[int]
    ) -> dict[int, tuple[int, int, int, int, int]]:
        """One table of exact model counts over sorted ``levels``.

        Maps every node ``u`` reachable from the root, and both terminals,
        to ``(rank, lo, hi, weight_lo, total)``: ``rank`` is the position of
        its variable in ``levels`` (``len(levels)`` for the terminals),
        ``total`` the number of assignments to ``levels[rank:]`` that lead
        from ``u`` to the true terminal and ``weight_lo`` the share of them
        through the false branch.  Counting, enumeration and sampling all
        read this table, level by level.  One depth-first walk fills in a
        node's children before the node; raises :class:`BddError` if ``f``
        depends on a variable outside ``levels``.
        """
        self._claim(f)
        rank = {v: i for i, v in enumerate(levels)}
        m = len(levels)
        nodes = self._nodes
        table = {0: (m, 0, 0, 0, 0), 1: (m, 1, 1, 0, 1)}
        # the stack holds the path from the root to the node in hand; it is
        # explicit because Python 3.10 overflows the C stack when a recursion
        # is as deep as a 10,000-argument chain
        stack = [f.root] if f.root > 1 else []
        while stack:
            u = stack[-1]
            v, lo, hi = nodes[u]
            if lo not in table:
                stack.append(lo)
            elif hi not in table:
                stack.append(hi)
            else:
                r = rank.get(v)
                if r is None:
                    raise BddError(f"function depends on variable {v} outside the counting set")
                rank_lo, _, _, _, total_lo = table[lo]
                rank_hi, _, _, _, total_hi = table[hi]
                weight_lo = total_lo << (rank_lo - r - 1)
                table[u] = (r, lo, hi, weight_lo, weight_lo + (total_hi << (rank_hi - r - 1)))
                stack.pop()
        return table

    def validate(self) -> None:
        """Check store invariants.

        Every slot holds a reduced, ordered node with no freed child that
        the unique table maps back to it, or is on the free list, never
        both; no live handle points to a freed id; and no memo entry names
        a freed id or one past the store.
        """
        nodes = self._nodes
        free = set(self._free)
        if len(free) != len(self._free) or free & {0, 1}:
            raise BddError("the free list repeats an id or holds a terminal")
        for u in range(2, len(nodes)):
            if u in free:
                continue
            v, lo, hi = nodes[u]
            if lo == hi:
                raise BddError(f"node {u} has equal children")
            if not 0 <= v < self.num_vars:
                raise BddError(f"node {u} has invalid level {v}")
            if lo in free or hi in free:
                raise BddError(f"node {u} has a freed child")
            if nodes[lo][0] <= v or nodes[hi][0] <= v:
                raise BddError(f"node {u} breaks the variable order")
            if self._unique.get(nodes[u]) != u:
                raise BddError(f"node {u} is missing from the unique table or duplicated")
        if len(self._unique) + len(free) != len(nodes) - 2:
            raise BddError("the unique table holds ids outside the store")
        for root in self._refs:
            if root in free:
                raise BddError(f"a live handle points to freed node {root}")
        for key, result in self._cache.items():
            # position 0 is the opcode; a rebuild key also holds its levels
            for u in (*key[1:], result):
                if isinstance(u, int) and (u in free or not 0 <= u < len(nodes)):
                    raise BddError(f"the memo names freed or unknown node {u}")

    # -- specialty operations --------------------------------------------

    def minimal(self, f: "Bdd", over: Iterable[int]) -> "Bdd":
        """The members of ``f`` minimal under bitwise inclusion over ``over``.

        A member is dropped when another member agrees with it outside
        ``over`` and has its true ``over`` positions strictly contained in
        its own.  One memoized pass keyed by (node, index of the next
        ``over`` level) builds every assignment strictly above a member:
        where an ``over`` variable is true the strict step may be taken,
        and below that step the upward closure of the low branch suffices.
        """
        self._claim(f)
        over_set = self._levels(over)
        levels = sorted(over_set)
        top = max(levels, default=-1)
        nodes = self._nodes
        memo: dict[tuple[int, int], int] = {}

        def up(u: int) -> int:
            return self._rebuild(_UP, u, over_set, top)

        def above(u: int, j: int) -> int:
            # assignments strictly above a member of u over levels[j:]
            key = (u, j)
            result = memo.get(key)
            if result is not None:
                return result
            v, lo, hi = nodes[u]
            if j < len(levels) and levels[j] < v:
                result = self._mk(levels[j], above(u, j + 1), up(u))
            elif u < 2:
                result = 0
            elif v in over_set:
                result = self._mk(v, above(lo, j + 1), self._apply(_OR, above(hi, j + 1), up(lo)))
            else:
                result = self._mk(v, above(lo, j), above(hi, j))
            memo[key] = result
            return result

        return Bdd(self, self._apply(_AND, f.root, self._apply(_XOR, above(f.root, 0), 1)))

    def upward_closure(self, f: "Bdd", over: Iterable[int]) -> "Bdd":
        """Close the satisfying set of ``f`` upward under bitwise inclusion.

        The result accepts ``y`` whenever some satisfying ``x`` agrees with
        ``y`` outside ``over`` and has its true positions within ``over``
        contained in those of ``y``.  One memoized pass: a node on a variable
        in ``over`` takes the join of its two closed branches as high branch.
        """
        self._claim(f)
        levels = self._levels(over)
        return Bdd(self, self._rebuild(_UP, f.root, levels, max(levels, default=-1)))

    def conjoin(self, clauses: Iterable["Bdd"]) -> "Bdd":
        """Conjoin many diagrams, deepest top variable first.

        The clauses are folded in descending order of the level of their
        top variable, so the accumulator grows upward through the variable
        order and each step mostly adds nodes above what is already built.
        The fold stops as soon as the accumulator is false.  The result is
        canonical, so it does not depend on the order of ``clauses``.

        Each fold step is a safe point: the memo is emptied after it, and
        once the live store has doubled since the last collection, the
        nodes that neither a handle, the accumulator nor a clause still to
        be folded reaches are collected.
        """
        roots = []
        for c in clauses:
            self._claim(c)
            roots.append(c.root)
        nodes = self._nodes
        roots.sort(key=lambda u: nodes[u][0], reverse=True)
        acc = 1
        for i, root in enumerate(roots):
            acc = self._apply(_AND, acc, root)
            self._cache.clear()
            if acc == 0:
                break
            if self._collect_at is None:
                self._collect_at = 2 * len(self._unique)
            elif len(self._unique) > self._collect_at:
                self._collect([acc, *roots[i + 1 :]])
        return Bdd(self, acc)


class Bdd:
    """Handle to a function in a manager: the root id plus its owner.

    Handles compare equal exactly when they denote the same function in
    the same manager.  The usual operators are overloaded: ``&``, ``|``,
    ``^``, ``~``, plus :meth:`implies` and :meth:`iff`.  A handle keeps its
    nodes from collection: it counts itself in the manager's ``_refs``
    while it exists.
    """

    __slots__ = ("manager", "root")

    def __init__(self, manager: BddManager, root: int):
        self.manager = manager
        self.root = root
        refs = manager._refs
        refs[root] = refs.get(root, 0) + 1

    def __del__(self):
        refs = self.manager._refs
        count = refs[self.root] - 1
        if count:
            refs[self.root] = count
        else:
            del refs[self.root]

    def __reduce__(self):
        # copies go through __init__, so that they are counted too
        return Bdd, (self.manager, self.root)

    def _binary(self, code: int, other: "Bdd") -> "Bdd":
        self.manager._claim(other)
        return Bdd(self.manager, self.manager._apply(code, self.root, other.root))

    def __and__(self, other: "Bdd") -> "Bdd":
        return self._binary(_AND, other)

    def __or__(self, other: "Bdd") -> "Bdd":
        return self._binary(_OR, other)

    def __xor__(self, other: "Bdd") -> "Bdd":
        return self._binary(_XOR, other)

    def implies(self, other: "Bdd") -> "Bdd":
        return ~self | other

    def iff(self, other: "Bdd") -> "Bdd":
        # negating ``self`` costs one node when it is a single variable
        return ~self ^ other

    def __invert__(self) -> "Bdd":
        return Bdd(self.manager, self.manager._apply(_XOR, self.root, 1))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Bdd)
            and other.manager is self.manager
            and other.root == self.root
        )

    def __hash__(self) -> int:
        return hash((id(self.manager), self.root))

    @property
    def is_false(self) -> bool:
        return self.root == 0

    @property
    def is_true(self) -> bool:
        return self.root == 1

    def evaluate(self, valuation: Sequence[bool]) -> bool:
        """Follow the decision path selected by ``valuation``."""
        if len(valuation) != self.manager.num_vars:
            raise BddError("valuation length does not match manager variables")
        nodes = self.manager._nodes
        u = self.root
        while u > 1:
            v, lo, hi = nodes[u]
            u = hi if valuation[v] else lo
        return u == 1

    def sat_count(self, over: Iterable[int]) -> int:
        """Exact number of satisfying assignments to the ``over`` variables.

        The count is an ordinary Python integer, so it stays exact far
        beyond 64 bits.  The function must not depend on variables outside
        ``over``.
        """
        rank, _, _, _, total = self.manager.model_counts(self, sorted(set(over)))[self.root]
        return total << rank

    def support(self) -> set[int]:
        """Set of variable levels the function depends on."""
        nodes = self.manager._nodes
        return {nodes[u][0] for u in self.manager._reachable(self.root) if u > 1}

    def size(self) -> int:
        """Number of nodes reachable from the root, terminals included."""
        return len(self.manager._reachable(self.root))

    def __repr__(self) -> str:
        return f"Bdd(root={self.root}, size={self.size()})"
