"""Independent semantic ground truth and randomized model sampling.

The grid oracle finds the minimum truth degree of a query over every model
of a theory on an equidistant rational subchain 0, 1/k, ..., 1.  For the
Lukasiewicz algebra with all input degrees on the grid this is exact: the
minimizing least model is itself grid-valued, so the oracle and the fixpoint
engine must agree to the bit.  It walks the grid depth first on integers
scaled by k and cuts every subtree in which some rule already fails, so it
visits far fewer than the (k+1)^n points while returning the same minimum.
It shares no code with the engine.  No such finite grid exists for the
product algebra, where the oracle instead provides one-sided soundness
bounds through seeded model sampling.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .algebra import Algebra
from .engine import DEFAULT_LIMITS, EngineLimits, least_model
from .lsets import FuzzySet, check_var, union
from .logic import Evaluation, Implication, Theory


class OffGridError(ValueError):
    """An input degree or variable does not fit the requested grid."""


class BudgetExceededError(RuntimeError):
    """The enumeration would exceed the configured evaluation budget."""


@dataclass(frozen=True)
class GridSpec:
    """Equidistant subchain 0, 1/k, ..., 1 over an explicit variable set."""

    denominator: int
    variables: tuple[str, ...]

    def __post_init__(self):
        if self.denominator < 1:
            raise ValueError("grid denominator must be positive")
        canon = tuple(sorted({check_var(v) for v in self.variables}))
        object.__setattr__(self, "variables", canon)


def _input_degrees(theory: Theory, query: Implication):
    for rule in theory.rules:
        yield from (d for _, d in rule.antecedent.items())
        yield from (d for _, d in rule.consequent.items())
    yield from (d for _, d in query.antecedent.items())
    yield from (d for _, d in query.consequent.items())


def semantic_degree_grid(
    theory: Theory,
    query: Implication,
    spec: GridSpec,
    *,
    budget: int = 100_000_000,
) -> Fraction:
    """Minimum truth degree of the query over all grid models of the theory.

    Exactness holds for the Lukasiewicz algebra with every input degree a
    multiple of 1/k.  `budget` bounds the nominal grid size (k+1)^n, not the
    number of points the pruned walk visits.

    The walk runs on degrees scaled by k.  For a set X under the evaluation e,
    s_X = min(k, min_x(k - X(x) + e(x))) is k times the subsethood S(X, e).
    A rule A => B holds iff s_A <= s_B, that is, iff s_A + B(b) - k <= e(b)
    for every b in B, and the query's truth is min(k, k - s_A + s_B).

    Variables are assigned depth first in `spec.variables` order, each from
    0 up to k.  Each rule is checked once on a path, as soon as the last
    variable it mentions has its value (a rule without variables before the
    walk).  A failed rule cuts the whole subtree: every evaluation in it
    breaks that rule, so only non-models are skipped and the minimum over
    the models stays the same.  The walk stops early at degree 0.
    """
    if theory.algebra is not Algebra.LUKASIEWICZ:
        raise OffGridError("the grid oracle is exact only for the lukasiewicz algebra")
    needed = set(theory.variables()) | query.variables()
    missing = needed - set(spec.variables)
    if missing:
        raise OffGridError(f"grid variables do not cover: {sorted(missing)}")
    k = spec.denominator
    for degree in _input_degrees(theory, query):
        if k % degree.denominator != 0:
            raise OffGridError(f"degree {degree} is not a multiple of 1/{k}")
    n = len(spec.variables)
    total = (k + 1) ** n
    if total > budget:
        raise BudgetExceededError(f"{total} grid evaluations exceed the budget of {budget}")

    position = {var: i for i, var in enumerate(spec.variables)}

    def terms(fuzzy_set: FuzzySet) -> list[tuple[int, int]]:
        """(position of x, k - k*X(x)) for each x in the support."""
        return [(position[x], k - int(k * d)) for x, d in fuzzy_set.items()]

    # checks[m]: the rules to check once m variables are assigned, those
    # whose last variable is the m-th
    checks: list[list] = [[] for _ in range(n + 1)]
    for rule in theory.rules:
        ante, cons = terms(rule.antecedent), terms(rule.consequent)
        last = max((i for i, _ in ante + cons), default=-1)
        checks[last + 1].append((ante, cons))
    query_ante, query_cons = terms(query.antecedent), terms(query.consequent)

    e = [0] * n

    def s(x_terms) -> int:
        low = k
        for i, c in x_terms:
            if c + e[i] < low:
                low = c + e[i]
        return low

    def holds(assigned: int) -> bool:
        return all(s(ante) <= s(cons) for ante, cons in checks[assigned])

    best = k  # truth degree 1, also the answer when no point is a model
    depth = 0  # variables assigned; e[depth - 1] is the deepest one
    ok = holds(0)
    while True:
        if ok and depth < n:  # descend: the next variable starts at 0
            e[depth] = 0
            depth += 1
            ok = holds(depth)
            continue
        if ok:  # a model: every variable assigned, every rule checked
            best = min(best, k - s(query_ante) + s(query_cons))
            if best == 0:
                break
        while depth and e[depth - 1] == k:  # backtrack past exhausted values
            depth -= 1
        if not depth:
            break
        e[depth - 1] += 1
        ok = holds(depth)
    return Fraction(best, k)


# ---------------------------------------------------------------------------
# Seeded model sampling
# ---------------------------------------------------------------------------

def random_degree(rng: random.Random, max_denominator: int = 8, allow_zero: bool = True) -> Fraction:
    den = rng.randint(1, max_denominator)
    num = rng.randint(0 if allow_zero else 1, den)
    return Fraction(num, den)


def random_evaluation(
    rng: random.Random,
    variables,
    max_denominator: int = 8,
    fill: float = 0.6,
) -> FuzzySet:
    entries = {}
    for var in variables:
        if rng.random() < fill:
            degree = random_degree(rng, max_denominator, allow_zero=False)
            entries[var] = degree
    return FuzzySet(entries)


@dataclass(frozen=True)
class SampledModels:
    """Models produced by seeded sampling; `skipped` counts cap exhaustions."""

    models: tuple[Evaluation, ...]
    skipped: int


def sample_models(
    alg: Algebra,
    theory: Theory,
    base: Evaluation,
    count: int,
    seed: int,
    *,
    limits: EngineLimits = DEFAULT_LIMITS,
    max_denominator: int = 8,
) -> SampledModels:
    """Seeded models of the theory, each containing `base`.

    Every sample closes a random rational superset of `base` over the
    theory's variable universe, so the postcondition that each returned
    evaluation is a model holds by construction.
    """
    rng = random.Random(seed)
    universe = sorted(set(theory.variables()) | set(base.support()))
    models: list[Evaluation] = []
    skipped = 0
    for _ in range(count):
        candidate = union(base, random_evaluation(rng, universe, max_denominator))
        trace = least_model(alg, theory, candidate, limits)
        if trace.reached_fixpoint:
            models.append(trace.final)
        else:
            skipped += 1
    return SampledModels(tuple(models), skipped)
