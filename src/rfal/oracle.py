"""Independent semantic ground truth and randomized model sampling.

The grid oracle enumerates every evaluation over an equidistant rational
subchain and takes the minimum truth degree over the models it finds.  For
the Lukasiewicz algebra with all input degrees on the grid this is exact:
the minimizing least model is itself grid-valued, so brute force and the
fixpoint engine must agree to the bit.  No such finite grid exists for the
product algebra, where the oracle instead provides one-sided soundness bounds
through seeded model sampling.

The random generators here are the shared test harness: everything is driven
by an explicit `random.Random` seed, so acceptance runs are reproducible
bit for bit.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .algebra import Algebra, ONE
from .engine import DEFAULT_LIMITS, EngineLimits, least_model
from .lsets import FuzzySet, check_var, is_contained, subsethood, union
from .logic import Evaluation, Implication, Theory, is_model, truth_degree


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
    multiple of 1/k.
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
    total = (k + 1) ** len(spec.variables)
    if total > budget:
        raise BudgetExceededError(f"{total} grid evaluations exceed the budget of {budget}")

    alg = theory.algebra
    best = ONE
    for combo in itertools.product(range(k + 1), repeat=len(spec.variables)):
        e = FuzzySet._raw(
            {var: Fraction(c, k) for var, c in zip(spec.variables, combo) if c}
        )
        if not is_model(alg, theory, e):
            continue
        t = truth_degree(alg, query, e)
        if t < best:
            best = t
            if best == 0:
                break
    return best


# ---------------------------------------------------------------------------
# Seeded random instances
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


def random_implication(rng: random.Random, variables, max_denominator: int = 8) -> Implication:
    return Implication(
        random_evaluation(rng, variables, max_denominator, fill=0.5),
        random_evaluation(rng, variables, max_denominator, fill=0.5),
    )


def random_theory(
    rng: random.Random,
    algebra: Algebra,
    variables,
    max_rules: int = 4,
    max_denominator: int = 8,
) -> Theory:
    rules = tuple(
        random_implication(rng, variables, max_denominator)
        for _ in range(rng.randint(1, max_rules))
    )
    return Theory(rules, algebra)


def random_grid_set(rng: random.Random, k: int, variables, fill: float = 0.5) -> FuzzySet:
    entries = {}
    for var in variables:
        if rng.random() < fill:
            num = rng.randint(1, k)
            entries[var] = Fraction(num, k)
    return FuzzySet(entries)


def random_grid_theory(rng: random.Random, k: int, variables, max_rules: int = 4) -> Theory:
    rules = tuple(
        Implication(random_grid_set(rng, k, variables), random_grid_set(rng, k, variables))
        for _ in range(rng.randint(1, max_rules))
    )
    return Theory(rules, Algebra.LUKASIEWICZ)


# ---------------------------------------------------------------------------
# Model sampling and closure-law checks
# ---------------------------------------------------------------------------

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


@dataclass(frozen=True)
class LawViolation:
    law: str
    detail: str


@dataclass(frozen=True)
class ClosureLawReport:
    algebra: Algebra
    samples: int
    violations: tuple[LawViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_closure_laws(
    alg: Algebra,
    theory: Theory,
    samples: int,
    seed: int,
    *,
    limits: EngineLimits = DEFAULT_LIMITS,
    max_denominator: int = 8,
) -> ClosureLawReport:
    """Empirical check that closing under the theory is a graded closure.

    For `samples` random evaluation pairs, verifies extensivity, graded
    monotony of inclusion degrees, and idempotency of the least-model map.
    Violations are returned with their witnesses rather than raised.
    """
    rng = random.Random(seed)
    universe = theory.variables()
    violations: list[LawViolation] = []

    def close(e: Evaluation) -> Evaluation | None:
        trace = least_model(alg, theory, e, limits)
        if not trace.reached_fixpoint:
            violations.append(LawViolation("termination", f"cap hit closing {e}"))
            return None
        return trace.final

    for _ in range(samples):
        e1 = random_evaluation(rng, universe, max_denominator)
        e2 = random_evaluation(rng, universe, max_denominator)
        c1, c2 = close(e1), close(e2)
        if c1 is None or c2 is None:
            continue
        if not is_contained(e1, c1):
            violations.append(LawViolation("extensivity", f"{e1} not contained in {c1}"))
        lhs = subsethood(alg, e1, e2)
        rhs = subsethood(alg, c1, c2)
        if lhs > rhs:
            violations.append(
                LawViolation("monotony", f"S({e1},{e2}) = {lhs} > S({c1},{c2}) = {rhs}")
            )
        again = close(c1)
        if again is not None and again != c1:
            violations.append(LawViolation("idempotency", f"closure of {c1} moved to {again}"))
    return ClosureLawReport(alg, samples, tuple(violations))
