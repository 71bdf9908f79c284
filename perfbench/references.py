"""Reference answers computed without the diagram engine.

* Disjoint unions (peel and free families): every component is small
  enough for ``oracle.brute_semantics``; a union's solution set is the
  product of its components' sets, so counts multiply and an
  interpretation belongs to the set when each component's slice does.
* Grids: each condition reads only the cell itself and its left, upper
  and upper-left neighbours, so in declaration order every argument
  depends on the previous ``cols + 1`` at most.  A transfer count over
  that window gives the exact adm, com and 2v counts, and Kleene
  iteration with point evaluation gives the grounded interpretation.
"""

from __future__ import annotations

from itertools import product
from math import prod

from adfsolve import oracle
from adfsolve.formula import Adf, evaluate, variables

from generators import Component


class UnionReference:
    """Solution sets of a disjoint union, one oracle run per component shape."""

    def __init__(self, components: list[Component], shape_cache: dict):
        self.components = components
        self.widths = [part.model.n for part in components]
        self._cache = shape_cache

    def member_sets(self, semantics: str) -> list[set[tuple[str, ...]]]:
        out = []
        for part in self.components:
            key = (part.shape, semantics)
            if key not in self._cache:
                found = oracle.brute_semantics(part.model, semantics)
                self._cache[key] = {interp.values for interp in found}
            out.append(self._cache[key])
        return out

    def count(self, semantics: str) -> int:
        return prod(len(s) for s in self.member_sets(semantics))

    def contains(self, semantics: str, values: tuple[str, ...]) -> bool:
        start = 0
        for width, members in zip(self.widths, self.member_sets(semantics)):
            if values[start : start + width] not in members:
                return False
            start += width
        return start == len(values)


def point_gamma(formula, names: list[str], values: tuple[str, ...]) -> str:
    """Value the characteristic operator gives one condition, by completions."""
    open_names = [n for n, v in zip(names, values) if v == "*"]
    env = {n: v == "1" for n, v in zip(names, values) if v != "*"}
    seen = set()
    for bits in product((False, True), repeat=len(open_names)):
        env.update(zip(open_names, bits))
        seen.add(evaluate(formula, env))
        if len(seen) == 2:
            return "*"
    return "1" if seen.pop() else "0"


class GridReference:
    """Counts and the grounded interpretation of a banded model."""

    def __init__(self, adf: Adf):
        self.adf = adf
        index = {name: i for i, name in enumerate(adf.arguments)}
        self.supports = [
            sorted(index[v] for v in variables(condition)) for condition in adf.conditions
        ]
        self.width = max(
            (i - s[0] for i, s in enumerate(self.supports) if s), default=0
        )
        for i, support in enumerate(self.supports):
            if support and support[-1] > i:
                raise ValueError("a condition reads a later argument; the model is not banded")
        self._gamma: list[dict] = [{} for _ in adf.arguments]

    def _gamma_at(self, i: int, key: tuple[str, ...]) -> str:
        table = self._gamma[i]
        found = table.get(key)
        if found is None:
            names = [self.adf.arguments[j] for j in self.supports[i]]
            found = table[key] = point_gamma(self.adf.conditions[i], names, key)
        return found

    def counts(self) -> dict[str, int]:
        """Exact adm, com and 2v counts by a transfer count over the band."""
        return {
            "adm": self._count("01*", lambda v, g: v == "*" or v == g),
            "com": self._count("01*", lambda v, g: v == g),
            "2v": self._count("01", lambda v, g: v == g),
        }

    def _count(self, domain: str, accepts) -> int:
        w = self.width
        states: dict[tuple, int] = {(None,) * w: 1}
        for i in range(self.adf.n):
            # positions of the support in the window, -1 for the argument itself
            offsets = [j - i + w if j != i else -1 for j in self.supports[i]]
            nxt: dict[tuple, int] = {}
            for state, ways in states.items():
                for v in domain:
                    key = tuple(v if o < 0 else state[o] for o in offsets)
                    if accepts(v, self._gamma_at(i, key)):
                        shifted = state[1:] + (v,) if w else state
                        nxt[shifted] = nxt.get(shifted, 0) + ways
            states = nxt
        return sum(states.values())

    def grounded(self) -> tuple[str, ...]:
        """Least fixed point of the operator from all-unknown (Kleene iteration)."""
        current = ("*",) * self.adf.n
        for _ in range(self.adf.n + 1):
            refined = tuple(
                self._gamma_at(i, tuple(current[j] for j in self.supports[i]))
                for i in range(self.adf.n)
            )
            if refined == current:
                return current
            current = refined
        raise RuntimeError("Kleene iteration did not reach a fixed point")
