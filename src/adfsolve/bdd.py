"""Reduced ordered binary decision diagrams.

A manager owns a hash-consed node store over a fixed number of ordered
variables.  Nodes are plain integers; 0 and 1 are the terminal nodes for
the constant functions.  Because the store is hash-consed and every
constructor keeps diagrams reduced, two diagrams built in the same manager
represent the same Boolean function exactly when their root integers are
equal.

The engine has three binary operators, conjunction, disjunction and
exclusive or, plus negation; implication and equivalence are derived from
them.  One memoized rebuild pass serves both existential quantification
and the monotone upward closure of a set under bitwise inclusion over a
given group of variables.  The minimal members of a set under that
inclusion are built on the closure in one further pass, and model
counting is one bottom-up pass.

A manager and every diagram it owns belong to a single thread; distinct
managers are fully independent.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Sequence


class BddError(Exception):
    """Invalid use of the diagram engine (mixed managers, bad supports)."""


# opcodes for the shared memo cache
_AND, _OR, _XOR, _NOT, _EXISTS, _UP = range(6)


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
            self._nodes.append(key)
            found = len(self._nodes) - 1
            self._unique[key] = found
        return found

    # -- operators ------------------------------------------------------

    def _claim(self, f: "Bdd") -> None:
        if f.manager is not self:
            raise BddError("operands belong to different managers")

    def _apply(self, op: int, a: int, b: int) -> int:
        # constant and equal operands are settled before the memo lookup;
        # all three operators commute, so ordered operands share cache keys
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
        else:  # _XOR
            if a == b:
                return 0
            if a == 0:
                return b
            if b == 0:
                return a
            if a == 1:
                return self._not(b)
            if b == 1:
                return self._not(a)
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

    def _not(self, a: int) -> int:
        if a < 2:
            return 1 - a
        key = (_NOT, a)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        v, lo, hi = self._nodes[a]
        result = self._mk(v, self._not(lo), self._not(hi))
        self._cache[key] = result
        return result

    # -- quantification -------------------------------------------------

    def exists(self, f: "Bdd", variables: Iterable[int]) -> "Bdd":
        """Existentially quantify the given variable levels out of ``f``."""
        self._claim(f)
        levels = self._levels(variables)
        return Bdd(self, self._rebuild(_EXISTS, f.root, levels, max(levels, default=-1)))

    def _rebuild(self, op: int, a: int, levels: frozenset[int], top: int) -> int:
        # the pass behind _EXISTS and _UP: at a node on a variable in
        # ``levels`` both join the rebuilt branches; _EXISTS returns the
        # join, _UP keeps the low branch and takes the join as high branch
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
        if v in levels:
            h = self._apply(_OR, l, h)
            result = h if op == _EXISTS else self._mk(v, l, h)
        else:
            result = self._mk(v, l, h)
        self._cache[key] = result
        return result

    # -- evaluation, counting, inspection --------------------------------

    def evaluate(self, f: "Bdd", valuation: Sequence[bool]) -> bool:
        """Follow the decision path selected by ``valuation``."""
        self._claim(f)
        if len(valuation) != self.num_vars:
            raise BddError("valuation length does not match manager variables")
        nodes = self._nodes
        u = f.root
        while u > 1:
            v, lo, hi = nodes[u]
            u = hi if valuation[v] else lo
        return u == 1

    def _reachable(self, root: int) -> list[int]:
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
        # children are always created before parents, so ascending ids
        # give a bottom-up evaluation order
        return sorted(seen)

    def size(self, f: "Bdd") -> int:
        """Number of nodes reachable from the root, terminals included."""
        self._claim(f)
        return len(self._reachable(f.root))

    def support(self, f: "Bdd") -> set[int]:
        """Set of variable levels the function depends on."""
        self._claim(f)
        nodes = self._nodes
        return {nodes[u][0] for u in self._reachable(f.root) if u > 1}

    def sat_count(self, f: "Bdd", over: Iterable[int]) -> int:
        """Exact number of satisfying assignments to the ``over`` variables.

        The count is an ordinary Python integer, so it stays exact far
        beyond 64 bits.  ``f`` must not depend on variables outside
        ``over``.
        """
        counts, ranks = self.model_counts(f, sorted(set(over)))
        return counts[f.root] << ranks[f.root]

    def model_counts(
        self, f: "Bdd", levels: Sequence[int]
    ) -> tuple[dict[int, int], dict[int, int]]:
        """Exact model counts below every node of ``f`` over sorted ``levels``.

        Returns ``counts`` and ``ranks``.  For each node ``u`` reachable
        from the root, ``ranks[u]`` is the position of its variable in
        ``levels`` (``len(levels)`` for the terminals) and ``counts[u]`` is
        the number of assignments to ``levels[ranks[u]:]`` that lead from
        ``u`` to the true terminal.  One bottom-up pass; raises
        :class:`BddError` if ``f`` depends on a variable outside ``levels``.
        """
        self._claim(f)
        rank = {v: i for i, v in enumerate(levels)}
        m = len(levels)
        nodes = self._nodes
        reachable = self._reachable(f.root)
        for u in reachable:
            if u > 1 and nodes[u][0] not in rank:
                raise BddError(f"function depends on variable {nodes[u][0]} outside the counting set")
        counts: dict[int, int] = {0: 0, 1: 1}
        ranks: dict[int, int] = {0: m, 1: m}
        for u in reachable:
            if u < 2:
                continue
            v, lo, hi = nodes[u]
            r = rank[v]
            counts[u] = (counts[lo] << (ranks[lo] - r - 1)) + (counts[hi] << (ranks[hi] - r - 1))
            ranks[u] = r
        return counts, ranks

    def validate(self) -> None:
        """Check store invariants: reduced nodes, no duplicate triples."""
        seen: set[tuple[int, int, int]] = set()
        for u, (v, lo, hi) in enumerate(self._nodes):
            if u < 2:
                continue
            if lo == hi:
                raise BddError(f"node {u} has equal children")
            if not 0 <= v < self.num_vars:
                raise BddError(f"node {u} has invalid level {v}")
            if self._nodes[lo][0] <= v or self._nodes[hi][0] <= v:
                raise BddError(f"node {u} breaks the variable order")
            triple = (v, lo, hi)
            if triple in seen:
                raise BddError(f"duplicate node triple {triple}")
            seen.add(triple)

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

        return Bdd(self, self._apply(_AND, f.root, self._not(above(f.root, 0))))

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
        """
        roots = []
        for c in clauses:
            self._claim(c)
            roots.append(c.root)
        nodes = self._nodes
        acc = 1
        for root in sorted(roots, key=lambda u: nodes[u][0], reverse=True):
            acc = self._apply(_AND, acc, root)
            if acc == 0:
                break
        return Bdd(self, acc)


class Bdd:
    """Handle to a function in a manager: the root id plus its owner.

    Handles compare equal exactly when they denote the same function in
    the same manager.  The usual operators are overloaded: ``&``, ``|``,
    ``^``, ``~``, plus :meth:`implies` and :meth:`iff`.
    """

    __slots__ = ("manager", "root")

    def __init__(self, manager: BddManager, root: int):
        self.manager = manager
        self.root = root

    def _binary(self, code: int, other: "Bdd") -> "Bdd":
        if other.manager is not self.manager:
            raise BddError("operands belong to different managers")
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
        return Bdd(self.manager, self.manager._not(self.root))

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
        return self.manager.evaluate(self, valuation)

    def exists(self, variables: Iterable[int]) -> "Bdd":
        return self.manager.exists(self, variables)

    def sat_count(self, over: Iterable[int]) -> int:
        return self.manager.sat_count(self, over)

    def support(self) -> set[int]:
        return self.manager.support(self)

    def size(self) -> int:
        return self.manager.size(self)

    def __repr__(self) -> str:
        return f"Bdd(root={self.root}, size={self.size()})"
