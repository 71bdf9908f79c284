"""In-process replay of one query, split into spans at layer boundaries.

``replay`` calls the solver's public functions in the order
``semantics.solve`` and the CLI use them, with a span around each call:

1. ``formula.parse_adf``
2. ``encoding.VarLayout.for_adf`` and ``formula_to_bdd`` per condition
3. ``encoding.gamma_pairs``
4. ``two_valued_models``, ``admissible``, ``complete`` or ``grounded_set``
5. ``restrict_free_inputs``
6. ``preferred`` or ``stable``
7. ``solutions.count``, then ``sample_uniform`` or ``enumerate_solutions``

The later calls find the earlier work in the manager's memo tables, so
each span holds the cost of its own layer.  Between calls the replay
reads the sizes of the node store and the memo table, read-only.  Spans
stay in memory until the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

from adfsolve import encoding, formula, semantics, solutions

# span name -> the per-layer timing metric it feeds
LAYER_OF_CALL = {
    "parse_adf": "formula.parse_s",
    "formula_to_bdd": "encoding.compile_s",
    "gamma_pairs": "encoding.dual_s",
    "two_valued_models": "semantics.conjoin_s",
    "admissible": "semantics.conjoin_s",
    "complete": "semantics.conjoin_s",
    "grounded_set": "semantics.grounded_s",
    "restrict_free_inputs": "semantics.restrict_s",
    "preferred": "semantics.peel_s",
    "stable": "semantics.peel_s",
    "count": "solutions.count_s",
    "sample_uniform": "solutions.sample_s",
    "enumerate_solutions": "solutions.enumerate_s",
}

CONJOIN = {"2v": "two_valued_models", "adm": "admissible", "com": "complete"}


@dataclass
class Span:
    name: str
    query: int
    parent: int | None
    start: float
    end: float = 0.0
    nodes: int = 0  # node-store growth inside the span
    cache: int = 0  # memo-table growth inside the span

    def as_dict(self) -> dict:
        return dict(self.__dict__)


class Tracer:
    """Collects spans; a span's parent is the span open when it started."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.manager = None  # the node store whose growth spans record

    @contextmanager
    def span(self, name: str, query: int):
        before = self._store_sizes()
        parent = self._open[-1] if self._open else None
        record = Span(name, query, parent, time.perf_counter())
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()
            after = self._store_sizes()
            record.nodes = after[0] - before[0]
            record.cache = after[1] - before[1]

    def _store_sizes(self) -> tuple[int, int]:
        man = self.manager
        if man is None:
            return (0, 0)
        return (len(man._nodes), len(man._cache))


@dataclass
class Replayed:
    """What one replayed query produced, in the CLI's output form."""

    count: int
    lines: list[str] | None  # formatted solutions, when the query lists any
    rounds: int
    result_nodes: int
    store_nodes: int
    store_cache: int
    listed: int


def replay(query, text: str, tracer: Tracer, qid: int) -> Replayed:
    """Answer ``query`` in-process, recording one span per layer call."""
    span = tracer.span
    tracer.manager = None
    sem = query.semantics
    with span("query", qid):
        with span("parse_adf", qid):
            adf = formula.parse_adf(text)
        with span("formula_to_bdd", qid):
            layout = encoding.VarLayout.for_adf(adf)
            tracer.manager = layout.manager
            for condition in adf.conditions:
                encoding.formula_to_bdd(condition, layout)
        if sem in ("adm", "com", "grd", "prf"):
            with span("gamma_pairs", qid):
                encoding.gamma_pairs(adf, layout)
        if sem == "grd":
            with span("grounded_set", qid):
                solset = semantics.grounded_set(adf, layout)
        else:
            base_sem = {"prf": "com", "stb": "2v"}.get(sem, sem)
            call = CONJOIN[base_sem]
            with span(call, qid):
                solset = getattr(semantics, call)(adf, layout)
        if sem in ("prf", "stb"):
            mode = "preferred" if sem == "prf" else "stable"
            with span("restrict_free_inputs", qid):
                solset = semantics.restrict_free_inputs(solset, adf, mode)
            if sem == "prf":
                with span("preferred", qid):
                    solset = semantics.preferred(solset, layout)
            else:
                with span("gamma_pairs", qid):
                    gammas = encoding.gamma_pairs(adf, layout)
                with span("stable", qid):
                    solset = semantics.stable(solset, gammas, layout)
        with span("count", qid):
            total = solutions.count(solset)
        listed = None
        if query.action == "sample":
            with span("sample_uniform", qid):
                listed = solutions.sample_uniform(solset, query.amount, query.sample_seed)
        elif query.action == "enumerate":
            with span("enumerate_solutions", qid):
                listed = list(solutions.enumerate_solutions(solset, query.amount))
    man = layout.manager
    return Replayed(
        count=total,
        lines=None if listed is None else [interp.format_line() for interp in listed],
        rounds=solset.iterations or 0,
        result_nodes=solset.bdd.size(),
        store_nodes=len(man._nodes),
        store_cache=len(man._cache),
        listed=0 if listed is None else len(listed),
    )


def untraced(query, text: str) -> float:
    """Seconds the same query takes through ``solve`` with no spans."""
    started = time.perf_counter()
    adf = formula.parse_adf(text)
    solset = semantics.solve(adf, query.semantics)
    solutions.count(solset)
    if query.action == "sample":
        solutions.sample_uniform(solset, query.amount, query.sample_seed)
    elif query.action == "enumerate":
        list(solutions.enumerate_solutions(solset, query.amount))
    return time.perf_counter() - started
