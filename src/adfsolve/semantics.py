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
* grounded: update the characteristic operator's dual valuation one
  argument at a time, from the all-ones one (every argument unknown) to
  its least fixed point, re-evaluating an argument only when one it
  reads has changed, and decode once at the end;
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

from collections import deque
from collections.abc import Callable

from .bdd import Bdd
from .encoding import (
    GammaPair,
    Interpretation,
    VarLayout,
    _check_layout,
    decode,
    encode_interpretation,
    formula_to_bdd,
    gamma_pairs,
)
from .formula import Adf, _Record

SEMANTICS = ("adm", "com", "grd", "prf", "2v", "stb")


class SolutionSet(_Record):
    """A semantics result: the set diagram plus how to read it.

    ``kind`` names the variables the diagram ranges over: ``direct`` for
    two-valued sets, over the top variables, and ``dual`` for three-valued
    sets over both variables of each pair (always carrying the validity
    constraint).  Unlike the other records its fields can be reassigned,
    so it is not hashable.
    """

    __slots__ = __match_args__ = ("bdd", "layout", "kind", "iterations")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, bdd: Bdd, layout: VarLayout, kind: str, iterations: int | None = None):
        self.bdd = bdd
        self.layout = layout
        self.kind = kind
        self.iterations = iterations

    def variables(self) -> list[int]:
        if self.kind == "direct":
            return self.layout.direct_vars
        return self.layout.dual_vars


def two_valued_models(adf: Adf, layout: VarLayout) -> SolutionSet:
    """All interpretations where every argument equals its condition."""
    _check_layout(adf, layout)
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
    """Least fixed point of the operator, reached by a worklist on dual valuations.

    Starting from every argument unknown, argument ``i``'s pair is
    evaluated again only when an argument its compiled pair reads has
    changed.  The operator is monotone, so each argument changes at most
    once and these updates reach the same least fixed point as iterating
    the whole operator, at a cost linear in the pairs and their supports.
    """
    pairs = gamma_pairs(adf, layout)
    # readers[j]: the arguments whose pair reads argument j's levels 2j, 2j + 1
    readers: list[list[int]] = [[] for _ in range(layout.n)]
    for i, pair in enumerate(pairs):
        for j in sorted({v // 2 for v in pair.top_fn.support() | pair.bot_fn.support()}):
            readers[j].append(i)
    current = [True] * (2 * layout.n)  # every argument unknown
    pending = deque(range(layout.n))
    queued = [True] * layout.n
    while pending:
        i = pending.popleft()
        queued[i] = False
        top, bot = layout.top(i), layout.bot(i)
        pair = pairs[i]
        step = pair.top_fn.evaluate(current), pair.bot_fn.evaluate(current)
        if step != (current[top], current[bot]):
            current[top], current[bot] = step
            for k in readers[i]:
                if not queued[k]:
                    queued[k] = True
                    pending.append(k)
    return decode(current, layout, "dual")


def grounded_set(adf: Adf, layout: VarLayout) -> SolutionSet:
    """The grounded interpretation as a singleton dual-variable set."""
    man = layout.manager
    point = encode_interpretation(grounded(adf, layout), layout, "dual")
    cube = man.conjoin(man.var(v) if bit else man.nvar(v) for v, bit in enumerate(point))
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

    "Not forced true" is the dual's ``bot_fn`` alone.  The exact clause
    is ``~top_fn | bot_fn``, but every valid dual point has a completion,
    so ``top_fn | bot_fn`` holds there; the validity clauses sit in the
    same fold, so the two clauses agree wherever the conjunction can hold.
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
        clauses.append(star.implies(gamma.bot_fn))
        not_star.append(~star)
    clauses.append(~man.conjoin(not_star))
    unstable = man.exists(man.conjoin(clauses), map(layout.bot, range(layout.n)))
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
