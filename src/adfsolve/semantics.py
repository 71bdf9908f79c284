"""Symbolic characterization of the solution sets of all semantics.

Every query produces a single diagram describing the *entire* set of
interpretations satisfying the semantics, never an explicit enumeration:

* two-valued models: conjunction of ``s <-> condition(s)`` over direct
  variables;
* admissible: validity plus ``(top_fn -> top) & (bot_fn -> bot)`` per
  argument over dual variables;
* complete: admissible plus ``(top & bot) -> (top_fn & bot_fn)``;
* grounded: iterate the characteristic operator from the all-unknown
  interpretation to its least fixed point;
* preferred: peel the complete set by number of unknowns, from fewest to
  most, discarding every weakening of what was already collected;
* stable: reduce the two-valued set to candidates minimal in their true
  arguments, then drop every candidate with a nonempty unfounded set of
  true arguments, found by one conjunction over the dual variables and
  one projection.

Per-argument clauses are conjoined by ``BddManager.conjoin``: one fold,
from the clause with the deepest top variable upward, so the accumulator
grows up the interleaved layout.  Preferred and stable share one peeling
primitive, ``peel_minimal``, which stops within ``n + 1`` rounds.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bdd import Bdd
from .encoding import (
    GammaPair,
    Interpretation,
    VarLayout,
    apply_gamma,
    formula_to_bdd,
    gamma_pairs,
)
from .formula import Adf

SEMANTICS = ("adm", "com", "grd", "prf", "2v", "stb")


@dataclass
class SolutionSet:
    """A semantics result: the set diagram plus how to read it.

    ``kind`` names the variables the diagram ranges over: ``direct`` for
    two-valued sets, ``dual`` for three-valued sets (always carrying the
    validity constraint).
    """

    bdd: Bdd
    layout: VarLayout
    kind: str
    tag: str
    iterations: int | None = None

    def variables(self) -> list[int]:
        if self.kind == "direct":
            return self.layout.direct_vars
        return self.layout.dual_vars


def two_valued_models(adf: Adf, layout: VarLayout) -> SolutionSet:
    """All interpretations where every argument equals its condition."""
    man = layout.manager
    clauses = [
        man.var(layout.direct(i)).iff(formula_to_bdd(condition, layout))
        for i, condition in enumerate(adf.conditions)
    ]
    return SolutionSet(man.conjoin(clauses), layout, "direct", "2v")


def admissible(adf: Adf, layout: VarLayout) -> SolutionSet:
    """All interpretations the characteristic operator only refines."""
    man = layout.manager
    clauses = []
    for i, pair in enumerate(gamma_pairs(adf, layout)):
        top = man.var(layout.top(i))
        bot = man.var(layout.bot(i))
        clauses.append(top | bot)
        clauses.append(pair.top_fn.implies(top) & pair.bot_fn.implies(bot))
    return SolutionSet(man.conjoin(clauses), layout, "dual", "adm")


def complete(adf: Adf, layout: VarLayout) -> SolutionSet:
    """All fixed points of the characteristic operator."""
    man = layout.manager
    clauses = []
    for i, pair in enumerate(gamma_pairs(adf, layout)):
        top = man.var(layout.top(i))
        bot = man.var(layout.bot(i))
        clauses.append(top | bot)
        clauses.append(
            pair.top_fn.implies(top)
            & pair.bot_fn.implies(bot)
            & (top & bot).implies(pair.top_fn & pair.bot_fn)
        )
    return SolutionSet(man.conjoin(clauses), layout, "dual", "com")


def grounded(adf: Adf, layout: VarLayout) -> Interpretation:
    """Least fixed point of the operator, by pointwise iteration."""
    pairs = gamma_pairs(adf, layout)
    current = Interpretation(layout.names, ("*",) * layout.n)
    for _ in range(layout.n + 1):
        refined = apply_gamma(pairs, current, layout)
        if refined == current:
            return current
        current = refined
    raise RuntimeError("grounded iteration did not reach a fixed point")


def interpretation_cube(interp: Interpretation, layout: VarLayout) -> Bdd:
    """Dual-variable diagram accepting exactly one interpretation."""
    man = layout.manager
    clauses = []
    for i, value in enumerate(interp.values):
        top = man.var(layout.top(i))
        bot = man.var(layout.bot(i))
        if value == "1":
            clauses.append(top & ~bot)
        elif value == "0":
            clauses.append(~top & bot)
        else:
            clauses.append(top & bot)
    return man.conjoin(clauses)


def grounded_set(adf: Adf, layout: VarLayout) -> SolutionSet:
    """The grounded interpretation as a singleton dual-variable set."""
    cube = interpretation_cube(grounded(adf, layout), layout)
    return SolutionSet(cube, layout, "dual", "grd")


def peel_minimal(work: Bdd, indicators: list[Bdd], over: list[int]) -> tuple[Bdd, int]:
    """Members of ``work`` minimal under bitwise inclusion over ``over``.

    Each round counts the indicators ``k`` at a member with the fewest
    positive literals, moves the members with exactly ``k`` indicators to
    the result and drops their upward closure from ``work``.  That slice
    is minimal when indicators grow strictly with positive literals
    (literals, or ``top & bot`` on valid dual pairs).  Every round takes
    a new ``k``, so it returns the members and at most
    ``len(indicators) + 1`` rounds.
    """
    man = work.manager
    found = man.false
    rounds = 0
    while not work.is_false:
        rounds += 1
        if rounds > len(indicators) + 1:
            raise RuntimeError("peeling exceeded its round bound")
        valuation = man.least_positive_valuation(work, over)
        k = sum(1 for f in indicators if f.evaluate(valuation))
        slice_ = work & man.exact_count_constraint(indicators, k)
        found = found | slice_
        work = work & ~man.upward_closure(slice_, over)
    return found, rounds


def preferred(complete_set: SolutionSet, layout: VarLayout) -> SolutionSet:
    """Maximally refined members of the complete set: refining clears dual bits."""
    man = layout.manager
    star = [man.var(layout.top(i)) & man.var(layout.bot(i)) for i in range(layout.n)]
    found, rounds = peel_minimal(complete_set.bdd, star, layout.dual_vars)
    return SolutionSet(found, layout, "dual", "prf", iterations=rounds)


def stable(
    two_valued_set: SolutionSet,
    gammas: list[GammaPair],
    layout: VarLayout,
) -> SolutionSet:
    """Two-valued models whose true arguments are all well-founded.

    The candidates are the models minimal in their true arguments.  A
    candidate with true set ``T`` is stable exactly when no nonempty
    ``U`` within ``T`` is *unfounded*: under ``sigma_U`` (``U`` unknown,
    the rest of ``T`` true, everything else false) the operator forces no
    argument of ``U`` true.  If the candidate is not stable, take ``G``
    the grounded interpretation of its reduct and ``U`` the arguments of
    ``T`` that ``G`` leaves not true: ``sigma_U`` is below ``G`` in the
    information order, so an argument of ``U`` forced true there would be
    true in the fixed point ``G``.  If it is stable, the reduct's grounding
    iteration makes all of ``U`` true; the first step that sets an
    argument of ``U`` starts from a state below ``sigma_U``, so that
    argument is forced true under ``sigma_U`` and ``U`` is not unfounded.
    """
    man = layout.manager
    literals = [man.var(layout.direct(i)) for i in range(layout.n)]
    candidates, rounds = peel_minimal(two_valued_set.bdd, literals, layout.direct_vars)

    # unstable: some sigma_U with U nonempty forces no argument of U true
    clauses, not_star = [candidates], []
    for i, s in enumerate(literals):
        top = man.var(layout.top(i))
        bot = man.var(layout.bot(i))
        star = top & bot
        clauses.append(s.implies(top) & (~s).implies(~top & bot))
        clauses.append(star.implies(~gammas[i].top_fn | gammas[i].bot_fn))
        not_star.append(~star)
    clauses.append(~man.conjoin(not_star))
    unstable = man.conjoin(clauses).exists(layout.dual_vars)
    return SolutionSet(candidates & ~unstable, layout, "direct", "stb", iterations=rounds)


def restrict_free_inputs(solset: SolutionSet, adf: Adf, mode: str) -> SolutionSet:
    """Prune values a free input can never take in maximal/stable answers.

    A free input (condition equal to the argument itself) is never
    unknown in a preferred interpretation and never true in a stable
    model, so the search sets can be narrowed up front without changing
    the answers.
    """
    layout = solset.layout
    man = layout.manager
    free = adf.free_inputs()
    if not free:
        return solset
    bdd = solset.bdd
    for name in free:
        i = layout.index(name)
        if mode == "preferred":
            bdd = bdd & ~(man.var(layout.top(i)) & man.var(layout.bot(i)))
        elif mode == "stable":
            bdd = bdd & man.nvar(layout.direct(i))
        else:
            raise ValueError(f"unknown restriction mode {mode!r}")
    return SolutionSet(bdd, layout, solset.kind, solset.tag, solset.iterations)


def embed_two_valued(solset: SolutionSet, layout: VarLayout) -> SolutionSet:
    """Re-express a direct-variable set on the dual variables."""
    man = layout.manager
    clauses = [solset.bdd]
    for i in range(layout.n):
        s = man.var(layout.direct(i))
        top = man.var(layout.top(i))
        bot = man.var(layout.bot(i))
        clauses.append(s.implies(top & ~bot) & (~s).implies(~top & bot))
    embedded = man.conjoin(clauses).exists(layout.direct_vars)
    return SolutionSet(embedded, layout, "dual", solset.tag, solset.iterations)


def solve(
    adf: Adf,
    semantics: str,
    restrict_inputs: bool = True,
    layout: VarLayout | None = None,
) -> SolutionSet:
    """Compute the full solution set of one semantics for one model."""
    if layout is None:
        layout = VarLayout.for_adf(adf)
    if semantics == "2v":
        return two_valued_models(adf, layout)
    if semantics == "adm":
        return admissible(adf, layout)
    if semantics == "com":
        return complete(adf, layout)
    if semantics == "grd":
        return grounded_set(adf, layout)
    if semantics == "prf":
        base = complete(adf, layout)
        if restrict_inputs:
            base = restrict_free_inputs(base, adf, "preferred")
        return preferred(base, layout)
    if semantics == "stb":
        base = two_valued_models(adf, layout)
        if restrict_inputs:
            base = restrict_free_inputs(base, adf, "stable")
        return stable(base, gamma_pairs(adf, layout), layout)
    raise ValueError(f"unknown semantics {semantics!r}")
