"""Shared test harness: seeded random instances, engine-free models and the
witness check, closure-law checks, the brute-force grid reference, the
forward-chain certificate reference and the Fraction reference of the
synthesizer's forward pass.

Everything is driven by an explicit `random.Random` seed, so test and
acceptance runs are reproducible bit for bit.  Nothing here is used by the
command line.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from rfal import (
    Algebra,
    DEFAULT_LIMITS,
    EngineLimits,
    Evaluation,
    FuzzySet,
    GridSpec,
    Implication,
    Proof,
    ProofBuilder,
    SynthesisError,
    Theory,
    is_contained,
    is_model,
    least_model,
    scalar_multiple,
    subsethood,
    tnorm,
    truth_degree,
    union,
)
from rfal.algebra import ONE, ZERO
from rfal.engine import ClosureTrace


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
# Engine-free models and the witness check
# ---------------------------------------------------------------------------

def random_model(
    rng: random.Random,
    alg: Algebra,
    theory: Theory,
    base: Evaluation,
    variables,
    max_denominator: int = 8,
) -> Evaluation:
    """A model of the theory that contains `base`, built without the engine.

    Starts from `base` joined with a random evaluation of `variables`.  While
    some rule is not fully true, every variable of its consequent is set to 1,
    which makes that rule true.  A failing rule has a consequent variable
    below 1, so each pass raises one more variable to 1 for good, and the loop
    ends within one pass per variable.  The result is usually not the least
    model containing `base`.
    """
    model = union(base, random_evaluation(rng, variables, max_denominator))
    while True:
        failing = next((rule for rule in theory.rules if truth_degree(alg, rule, model) < ONE),
                       None)
        if failing is None:
            return model
        model = union(model, FuzzySet(dict.fromkeys(failing.consequent.support(), ONE)))


def is_witness(
    alg: Algebra, theory: Theory, query: Implication, degree: Fraction, witness: Evaluation
) -> bool:
    """The upper half of an exact degree, checked with `rfal.logic` alone.

    The witness W is a model of the theory that contains the query's
    antecedent A, and the query is true in it exactly to `degree`, so the
    theory semantically entails the query to at most `degree`.  An accepted
    certificate of `A => degree*B` gives the lower half.
    """
    return (is_contained(query.antecedent, witness) and is_model(alg, theory, witness)
            and truth_degree(alg, query, witness) == degree)


# ---------------------------------------------------------------------------
# Brute-force grid reference
# ---------------------------------------------------------------------------

def reference_grid_degree(theory: Theory, query: Implication, spec: GridSpec) -> Fraction:
    """Minimum truth degree of the query over all grid models, by brute force.

    Builds every one of the (k+1)^n evaluations and tests it with
    `is_model` and `truth_degree`; the reference the pruned oracle is
    compared against, so keep it to small grids.
    """
    alg, k = theory.algebra, spec.denominator
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
# Forward-chain certificate reference
# ---------------------------------------------------------------------------

def reference_forward_proof(
    alg: Algebra, theory: Theory, query: Implication, trace: ClosureTrace
) -> Proof:
    """Certificate of `A => d*B` by chaining every contribution forward.

    Keeps `A => grown` and chains each firing of `F => G` at degree c whose
    c*G is not yet in `grown` onto it, W = grown|c*G:

      mul   c*F => c*G       from the hypothesis F => G
      cut   grown => c*G     with the axiom grown => c*F
      cut   grown => W       with the axiom W => W
      cut   A => W           from A => grown (not for the first contribution)

    then lands on the conclusion with a closing axiom and cut.  It restates
    the whole closure per contribution and certifies firings the query never
    uses; the goal-directed `synthesize_proof` is checked against it.  Expects
    a fixpoint trace that starts from the query antecedent.
    """
    a = query.antecedent
    degree = subsethood(alg, query.consequent, trace.final)
    goal = scalar_multiple(alg, degree, query.consequent)
    builder = ProofBuilder(alg, theory)
    if is_contained(goal, a):
        builder.axiom(a, goal)
        return builder.build()
    accumulated = None  # A => grown, from the first contribution on
    grown = a
    for firings in trace.firing_log:
        for rule_index, c in firings:
            rule = theory.rules[rule_index]
            contribution = scalar_multiple(alg, c, rule.consequent)
            if not contribution or is_contained(contribution, grown):
                continue
            scaled = builder.mul(builder.hypothesis(rule_index), c)
            anchor = builder.axiom(grown, scalar_multiple(alg, c, rule.antecedent))
            landed = builder.cut(anchor, scaled)  # grown => c*G
            widened = union(grown, contribution)
            kept = builder.cut(landed, builder.axiom(widened, widened))  # grown => W
            accumulated = kept if accumulated is None else builder.cut(accumulated, kept)
            grown = widened
    builder.cut(accumulated, builder.axiom(grown, goal))
    return builder.build()


def reference_contributions(alg: Algebra, theory: Theory, trace: ClosureTrace):
    """The forward pass of `synthesize_proof` on Fractions, whatever the algebra.

    Walks the trace keeping `grown`, the closure so far, as a dict of
    Fractions.  Each firing of a rule `F => G` at a nonzero degree c other
    than the one it last fired at computes c*G with `tnorm`; it is a
    contribution if it raises some value of `grown`, and each value it raises
    joins that variable's history.  After each step the values raised must be
    the trace's.  Returns what `rfal.proofs._contributions` returns: the
    (rule index, c) pairs and, per variable, the contribution indices and the
    values raised as (numerator, denominator) pairs, so it can stand in for
    it.
    """
    contributions: list[tuple[int, Fraction]] = []
    history: dict[str, tuple[list[int], list[tuple[int, int]]]] = {}
    last_degree: dict[int, Fraction] = {}
    grown = dict(trace.start.items())
    for raised, firings in trace.walk():
        moved = set()
        for rule_index, c in firings:
            if not c or last_degree.get(rule_index) == c:
                continue
            last_degree[rule_index] = c
            k, raises = len(contributions), False
            for var, g, _, _ in theory.table[rule_index][1]:
                value = g if c == 1 else tnorm(alg, c, g)
                if value > grown.get(var, ZERO):
                    grown[var] = value
                    indices, values = history.setdefault(var, ([], []))
                    indices.append(k)
                    values.append((value.numerator, value.denominator))
                    moved.add(var)
                    raises = True
            if raises:
                contributions.append((rule_index, c))
        if not moved <= raised.keys() or any(grown.get(var) != q for var, q in raised.items()):
            raise SynthesisError("trace firing log is inconsistent with its steps")
    return contributions, history


# ---------------------------------------------------------------------------
# Closure-law checks
# ---------------------------------------------------------------------------

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
