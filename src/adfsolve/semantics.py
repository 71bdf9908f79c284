"""Symbolic characterization of the solution sets of all semantics.

Every query produces a single diagram describing the *entire* set of
interpretations satisfying the semantics, never an explicit enumeration:

* two-valued models: conjunction of ``top <-> condition`` per argument,
  with the condition compiled over the top variables;
* admissible: ``v <=_i Gamma(v)``, in dual form validity plus
  ``(top_fn -> top) & (bot_fn -> bot)`` per argument;
* complete: ``v = Gamma(v)``, in dual form validity plus
  ``(top <-> top_fn) & (bot <-> bot_fn)`` per argument.  As
  ``top_fn | bot_fn`` holds on every valid encoding, this is admissible
  plus ``(top & bot) -> (top_fn & bot_fn)``;
* grounded: iterate the characteristic operator from the all-unknown
  interpretation to its least fixed point;
* preferred: the members of the complete set minimal in their true dual
  variables, i.e. those no other complete interpretation refines;
* stable: drop every two-valued model with a nonempty unfounded set of
  true arguments, found by one conjunction over the dual variables and
  one projection of the bot variables.

Per-argument clauses are conjoined by ``BddManager.conjoin``: one fold,
from the clause with the deepest top variable upward, so the accumulator
grows up the interleaved layout.  The preferred set is taken in one pass
by ``BddManager.minimal`` and the stable set by one unfounded-set check,
so ``iterations`` reads 1 for both.
"""

from __future__ import annotations

from collections.abc import Callable
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
    two-valued sets, over the top variables, and ``dual`` for three-valued
    sets over both variables of each pair (always carrying the validity
    constraint).
    """

    bdd: Bdd
    layout: VarLayout
    kind: str
    iterations: int | None = None

    def variables(self) -> list[int]:
        if self.kind == "direct":
            return self.layout.direct_vars
        return self.layout.dual_vars


def two_valued_models(adf: Adf, layout: VarLayout) -> SolutionSet:
    """All interpretations where every argument equals its condition."""
    man = layout.manager
    clauses = [
        man.var(layout.top(i)).iff(formula_to_bdd(condition, layout))
        for i, condition in enumerate(adf.conditions)
    ]
    return SolutionSet(man.conjoin(clauses), layout, "direct")


def _gamma_relation(
    adf: Adf, layout: VarLayout, related: Callable[[Bdd, Bdd], Bdd]
) -> SolutionSet:
    """Valid dual interpretations with ``related(x, x_fn)`` for x in top, bot."""
    man = layout.manager
    clauses = []
    for i, pair in enumerate(gamma_pairs(adf, layout)):
        top = man.var(layout.top(i))
        bot = man.var(layout.bot(i))
        clauses.append(top | bot)
        clauses.append(related(top, pair.top_fn) & related(bot, pair.bot_fn))
    return SolutionSet(man.conjoin(clauses), layout, "dual")


def admissible(adf: Adf, layout: VarLayout) -> SolutionSet:
    """All interpretations the characteristic operator only refines."""
    return _gamma_relation(adf, layout, lambda var, fn: fn.implies(var))


def complete(adf: Adf, layout: VarLayout) -> SolutionSet:
    """All fixed points of the characteristic operator."""
    return _gamma_relation(adf, layout, Bdd.iff)


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
    return SolutionSet(cube, layout, "dual")


def preferred(complete_set: SolutionSet, layout: VarLayout) -> SolutionSet:
    """Maximally refined members of the complete set: refining clears dual bits."""
    found = layout.manager.minimal(complete_set.bdd, layout.dual_vars)
    return SolutionSet(found, layout, "dual", iterations=1)


def stable(
    two_valued_set: SolutionSet,
    gammas: list[GammaPair],
    layout: VarLayout,
) -> SolutionSet:
    """Two-valued models whose true arguments are all well-founded.

    A two-valued model with true set ``T`` is stable exactly when no
    nonempty ``U`` within ``T`` is *unfounded*: under ``sigma_U`` (``U``
    unknown, the rest of ``T`` true, everything else false) the operator
    forces no argument of ``U`` true.  If the model is not stable, take
    ``G`` the grounded interpretation of its reduct and ``U`` the
    arguments of ``T`` that ``G`` leaves not true: ``sigma_U`` is below
    ``G`` in the information order, so an argument of ``U`` forced true
    there would be true in the fixed point ``G``.  If it is stable, the
    reduct's grounding iteration makes all of ``U`` true; the first step
    that sets an argument of ``U`` starts from a state below ``sigma_U``,
    so that argument is forced true under ``sigma_U`` and ``U`` is not
    unfounded.  ``sigma_U`` is the valid dual interpretation whose top is
    the model and whose bot is clear exactly on ``T`` minus ``U``, so
    projecting the bot variables away leaves the unstable models.
    """
    man = layout.manager
    tv = two_valued_set.bdd

    # unstable: some sigma_U with U nonempty forces no argument of U true
    clauses, not_star = [tv], []
    for i, gamma in enumerate(gammas):
        top = man.var(layout.top(i))
        bot = man.var(layout.bot(i))
        star = top & bot
        clauses.append(top | bot)
        clauses.append(star.implies(~gamma.top_fn | gamma.bot_fn))
        not_star.append(~star)
    clauses.append(~man.conjoin(not_star))
    unstable = man.conjoin(clauses).exists(map(layout.bot, range(layout.n)))
    return SolutionSet(tv & ~unstable, layout, "direct", iterations=1)


def restrict_free_inputs(solset: SolutionSet, adf: Adf, mode: str) -> SolutionSet:
    """Prune values a free input can never take in maximal/stable answers.

    A free input (condition equal to the argument itself) is never
    unknown in a preferred interpretation and never true in a stable
    model, so the search sets can be narrowed up front without changing
    the answers.
    """
    layout = solset.layout
    man = layout.manager
    free = [layout.index(name) for name in adf.free_inputs()]
    if mode == "preferred":
        clauses = [man.nvar(layout.top(i)) | man.nvar(layout.bot(i)) for i in free]
    elif mode == "stable":
        clauses = [man.nvar(layout.top(i)) for i in free]
    else:
        raise ValueError(f"unknown restriction mode {mode!r}")
    bdd = man.conjoin([solset.bdd] + clauses)
    return SolutionSet(bdd, layout, solset.kind, solset.iterations)


def embed_two_valued(solset: SolutionSet, layout: VarLayout) -> SolutionSet:
    """Re-express a two-valued set as dual pairs with ``bot = ~top``."""
    man = layout.manager
    clauses = [solset.bdd]
    for i in range(layout.n):
        clauses.append(man.var(layout.top(i)) ^ man.var(layout.bot(i)))
    return SolutionSet(man.conjoin(clauses), layout, "dual", solset.iterations)


def solve(
    adf: Adf,
    semantics: str,
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
        base = restrict_free_inputs(complete(adf, layout), adf, "preferred")
        return preferred(base, layout)
    if semantics == "stb":
        base = restrict_free_inputs(two_valued_models(adf, layout), adf, "stable")
        return stable(base, gamma_pairs(adf, layout), layout)
    raise ValueError(f"unknown semantics {semantics!r}")
