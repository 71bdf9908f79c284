"""The three workloads: their models, query lists and expected answers.

Every query is one ``adfsolve solve`` call on a generated ``.adf`` file.
Its expected answer comes from ``references``, never from the diagram
engine, and ``check`` compares the CLI's stdout with it.

* ``grid-build``: grid models from 5x5 to 8x8 over two model seeds;
  adm, com and 2v counted as ``GRID_QUERIES`` lists, grd listed on every
  size (its count is always 1, so the interpretation itself is what can
  be checked).  Greedy conjunction takes almost all in-process time and
  writes most new nodes.
* ``peel-select``: peel unions of 4 to 12 components over three model
  seeds; prf and stb counted.  Peeling and grounding rounds dominate.
* ``free-sample``: free-input blocks of 20 to 30 arguments; 2v, adm and
  com sampled and enumerated, plus one adm count beyond 64 bits.
  Reading the diagram and printing the answer dominate.

``smoke`` shrinks every workload to its smallest sizes.
"""

from __future__ import annotations

import json
import random
from collections.abc import Callable
from dataclasses import dataclass

from adfsolve.formula import Adf

import generators as gen
from references import GridReference, UnionReference

# free-sample reads: samples per sampling query, cap per enumeration query
SAMPLES = 4000
ENUMERATE_LIMIT = 10000


@dataclass(frozen=True)
class Query:
    """One CLI call: a model file, a semantics and an action."""

    model: str
    semantics: str
    action: str = "count"  # count | enumerate | sample
    amount: int | None = None  # enumeration limit or sample size
    sample_seed: int = 0
    json: bool = False

    def cli_args(self, path: str) -> list[str]:
        args = ["solve", "--sem", self.semantics]
        if self.action == "count":
            args.append("--count")
        elif self.action == "enumerate":
            args += ["--enumerate", "--limit", str(self.amount)]
        else:
            args += ["--sample", str(self.amount), "--seed", str(self.sample_seed)]
        if self.json:
            args.append("--json")
        return args + [path]

    def label(self) -> str:
        amount = "" if self.amount is None else f" {self.amount}"
        return f"{self.model} {self.semantics} {self.action}{amount}{' json' if self.json else ''}"


@dataclass(frozen=True)
class Expected:
    """The reference answer: the count and a membership test for listed solutions."""

    count: int
    names: tuple[str, ...]
    member: Callable[[tuple[str, ...]], bool] | None  # None for count-only queries


@dataclass
class Workload:
    models: dict[str, Adf]
    queries: list[tuple[Query, Expected]]


def _union_queries(model: str, adf: Adf, ref: UnionReference, specs) -> list:
    out = []
    for spec in specs:
        query = Query(model, **spec)
        sem = query.semantics
        out.append(
            (query, Expected(ref.count(sem), adf.arguments, lambda v, s=sem: ref.contains(s, v)))
        )
    return out


# grid-build: (rows, cols) -> semantics counted; grd is listed on every size
GRID_QUERIES = {
    (5, 5): ("adm", "com", "2v"),
    (6, 6): ("adm", "com", "2v"),
    (7, 7): ("com", "2v"),
    (8, 8): ("2v",),
}


def grid_build(seed: int, smoke: bool) -> Workload:
    rng = random.Random(seed)
    plan = {(3, 3): ("adm", "com", "2v")} if smoke else GRID_QUERIES
    models, queries = {}, []
    for _ in range(1 if smoke else 2):
        model_seed = rng.randrange(1 << 30)
        for (rows, cols), counted in plan.items():
            name = f"grid{rows}x{cols}-{model_seed}.adf"
            adf = gen.grid_adf(rows, cols, seed=model_seed)
            models[name] = adf
            ref = GridReference(adf)
            counts = ref.counts()
            if not counts["2v"] <= counts["com"] <= counts["adm"]:
                raise RuntimeError(f"reference counts break the inclusion chain on {name}")
            for sem in counted:
                queries.append((Query(name, sem), Expected(counts[sem], adf.arguments, None)))
            grounded = ref.grounded()
            queries.append(
                (
                    Query(name, "grd", "enumerate", 1),
                    Expected(1, adf.arguments, lambda v, g=grounded: v == g),
                )
            )
    return Workload(models, queries)


def peel_select(seed: int, smoke: bool) -> Workload:
    rng = random.Random(seed)
    prf_sizes, stb_sizes = ((2, 3), (2, 3)) if smoke else ((4, 6, 8), (6, 8, 10, 12))
    shapes: dict = {}
    models, queries = {}, []
    for _ in range(1 if smoke else 3):
        model_seed = rng.randrange(1 << 30)
        for m in sorted(set(prf_sizes) | set(stb_sizes)):
            name = f"peel{m}-{model_seed}.adf"
            adf, parts = gen.peel_adf(m, model_seed)
            models[name] = adf
            ref = UnionReference(parts, shapes)
            specs = [{"semantics": s} for s, sizes in (("prf", prf_sizes), ("stb", stb_sizes)) if m in sizes]
            queries += _union_queries(name, adf, ref, specs)
    return Workload(models, queries)


def free_sample(seed: int, smoke: bool) -> Workload:
    rng = random.Random(seed)
    samples, limit = (50, 100) if smoke else (SAMPLES, ENUMERATE_LIMIT)
    shapes: dict = {}
    models, queries = {}, []
    for blocks in (2,) if smoke else (4, 5, 6):
        name = f"free{blocks}-{seed}.adf"
        adf, parts = gen.free_adf(blocks, rng.randrange(1 << 30))
        models[name] = adf
        ref = UnionReference(parts, shapes)
        specs = [
            {"semantics": s, "action": "sample", "amount": samples, "sample_seed": rng.randrange(1 << 30)}
            for s in ("2v", "adm", "com")
        ]
        specs += [{"semantics": s, "action": "enumerate", "amount": limit} for s in ("2v", "adm", "com")]
        if blocks == (2 if smoke else 6):
            specs.append(dict(specs[2], json=True, sample_seed=rng.randrange(1 << 30)))
        queries += _union_queries(name, adf, ref, specs)
    if not smoke:
        # at least 112 admissible interpretations per block, so 10 blocks pass 2**64
        name = f"free10-{seed}.adf"
        adf, parts = gen.free_adf(10, rng.randrange(1 << 30))
        models[name] = adf
        queries += _union_queries(name, adf, UnionReference(parts, shapes), [{"semantics": "adm"}])
    return Workload(models, queries)


BUILDERS = {"grid-build": grid_build, "peel-select": peel_select, "free-sample": free_sample}


def parse_line(line: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    pairs = [token.rpartition(":") for token in line.split()]
    return tuple(p[0] for p in pairs), tuple(p[2] for p in pairs)


def listed_lines(query: Query, stdout: str) -> tuple[int | None, list[str]]:
    """The count the output states (JSON only) and the solution lines it lists."""
    if not query.json:
        return None, stdout.splitlines()
    payload = json.loads(stdout)
    lines = [
        " ".join(f"{name}:{value}" for name, value in solution.items())
        for solution in payload.get("solutions", [])
    ]
    return payload["count"], lines


def check(query: Query, expected: Expected, stdout: str) -> str | None:
    """None when the CLI output is the expected answer, else what is wrong."""
    try:
        if query.action == "count" and not query.json:
            got = int(stdout.strip())
            return None if got == expected.count else f"count {got}, expected {expected.count}"
        stated, lines = listed_lines(query, stdout)
    except ValueError as exc:  # json.JSONDecodeError is a ValueError
        return f"unreadable output: {exc}"
    except KeyError:
        return "JSON output has no count"
    if stated is not None and stated != expected.count:
        return f"count {stated}, expected {expected.count}"
    if query.action == "sample":
        wanted = query.amount
    else:
        wanted = min(query.amount, expected.count)
    if len(lines) != wanted:
        return f"{len(lines)} solutions listed, expected {wanted}"
    if query.action == "enumerate" and len(set(lines)) != len(lines):
        return "enumeration repeats a solution"
    for line in lines:
        names, values = parse_line(line)
        if names != expected.names:
            return "solution names differ from the model's arguments"
        if not expected.member(values):
            return f"not a solution: {line[:80]}"
    return None
