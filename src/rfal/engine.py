"""Least-model fixpoint computation and provability degrees.

Each step fires the rules simultaneously against the same input evaluation
and joins the scaled consequents onto it, so the evaluations form an
inclusion-increasing chain.  Fixpoint detection is exact equality of
consecutive evaluations; there are no tolerances anywhere.

The loop is semi-naive.  A rule's firing degree changes only when a variable
of its antecedent changed, so after the first step, which fires every rule,
a step re-fires only the rules that watch a variable raised by the step
before; every other rule keeps its cached degree, and its scaled consequent
is already joined into the evaluation.  The evaluations and the (dense)
firing log are exactly those of firing every rule at every step.

Under Lukasiewicz and Goedel every value the loop computes is a multiple of
1/D, where D is the lcm of the denominators of the rules and of the start
evaluation: the residua 1 - a + b and b and the t-norms max(0, c + d - 1)
and min(c, d) never leave that grid.  So the loop runs on integers scaled by
D, where the residuum is D - a + b and the Lukasiewicz t-norm
max(0, c + d - D), and builds Fractions only at its boundary: one per
distinct value, and per step only for the variables that step raised.
Product keeps Fractions (with unit 1, through the same loop): b / a and c * d
multiply denominators, so its values have no common grid.

Past MAX_GRID_BITS the scaled integers cost more than the Fractions they
stand for, whose denominators stay far smaller than D.  On layered
1000-variable, 5000-rule Lukasiewicz theories whose degrees use the first N
primes as denominators, integers took 0.63-0.80 of the parent Fraction loop's
closure time at D of 3,900-7,500 bits, broke even at 8,700 bits (1.03) and
lost from 10,000 bits on (1.09, and 3.2 at 39,000 bits), while Fractions stay
near 1.0 throughout; so the bound sits at the break-even point.

Only variables occurring in the theory or the start evaluation can ever gain
a degree, and zero membership is represented by absence, so no explicit
variable universe needs to be materialized.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator

from .algebra import ONE, ZERO, Algebra, rational_to_json
from .lsets import FuzzySet, subsethood
from .logic import Evaluation, Implication, Theory


class UndecidedError(RuntimeError):
    """Raised when a decision is requested but the iteration cap was hit."""


@dataclass(frozen=True)
class EngineLimits:
    """Safety cap on fixpoint iteration.

    Termination is guaranteed for finite theories under the Lukasiewicz and
    product algebras, but with no constructive bound, so the cap keeps the
    program total on adversarial inputs.
    """

    max_iterations: int = 10_000

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")


DEFAULT_LIMITS = EngineLimits()

# Largest grid denominator D, in bits, that the loop scales to integers (see
# the module docstring for the sweep that sets it).
MAX_GRID_BITS = 8192

FiringLog = tuple[tuple[int, Fraction], ...]


@dataclass(frozen=True)
class ClosureTrace:
    """Record of one least-model run.

    `steps` holds the evaluations after each productive application; the
    stationary application that detects the fixpoint is not recorded.  When
    `reached_fixpoint` is false, the final evaluation is only a sound lower
    approximation of the least model.
    """

    start: Evaluation
    steps: tuple[Evaluation, ...]
    firing_log: tuple[FiringLog, ...]
    reached_fixpoint: bool

    @property
    def iterations(self) -> int:
        return len(self.steps)

    @property
    def final(self) -> Evaluation:
        return self.steps[-1] if self.steps else self.start

    def to_json(self) -> dict:
        return {
            "start": self.start.to_json(),
            "steps": [
                {
                    "evaluation": step.to_json(),
                    "firings": [
                        {"rule": index, "degree": rational_to_json(c)} for index, c in firings
                    ],
                }
                for step, firings in zip(self.steps, self.firing_log)
            ],
            "reached_fixpoint": self.reached_fixpoint,
            "iterations": self.iterations,
        }


def grid_denominator(alg: Algebra, theory: Theory, e: Evaluation) -> int | None:
    """The D whose multiples 1/D carry the closure as integers, or None.

    None under product, and when the lcm of the denominators of the rules
    and of `e` grows past MAX_GRID_BITS; the loop then runs on Fractions.
    """
    if alg is Algebra.PRODUCT:
        return None
    denominators = {degree.denominator for _, degree in e.items()}
    for rule in theory.rules:
        denominators.update(degree.denominator for _, degree in rule.antecedent.items())
        denominators.update(degree.denominator for _, degree in rule.consequent.items())
    grid = 1
    for den in denominators:
        grid = lcm(grid, den)
        if grid.bit_length() > MAX_GRID_BITS:
            return None
    return grid


class _Decoded(dict):
    """Memo of scaled value -> Fraction(value, grid)."""

    def __init__(self, grid: int):
        super().__init__()
        self.grid = grid

    def __missing__(self, value: int) -> Fraction:
        fraction = self[value] = Fraction(value, self.grid)
        return fraction


def _steps(alg: Algebra, theory: Theory, e: Evaluation) -> Iterator[tuple[Evaluation, FiringLog]]:
    """The productive steps from `e`, each with the degree of every rule."""
    grid = grid_denominator(alg, theory, e)
    if grid is None:
        unit, zero = ONE, ZERO

        def encode(pairs):
            return pairs
    else:
        unit, zero = grid, 0
        decoded = _Decoded(grid)
        multiplier = {}

        def encode(pairs):
            out = []
            for var, degree in pairs:
                num, den = degree.as_integer_ratio()
                m = multiplier.get(den)
                if m is None:
                    m = multiplier[den] = grid // den
                out.append((var, num * m))
            return out
    luk, prod = alg is Algebra.LUKASIEWICZ, alg is Algebra.PRODUCT
    rules = theory.rules
    table = [(encode(r.antecedent.items()), encode(r.consequent.items())) for r in rules]
    watchers: dict[str, list[int]] = {}
    for index, rule in enumerate(rules):
        for var in rule.antecedent.support():
            watchers.setdefault(var, []).append(index)
    values = dict(encode(e.items()))
    fractions = dict(e.items())
    firings: list = [None] * len(rules)  # every slot is set by the first sweep
    due: Iterable[int] = range(len(rules))
    while True:
        raised: dict = {}
        for index in due:
            antecedent, consequent = table[index]
            c = unit
            for var, a in antecedent:  # subsethood of the antecedent in `values`
                b = values.get(var, zero)
                if a > b:
                    if luk:
                        r = unit - a + b
                    elif prod:
                        r = b / a
                    else:
                        r = b
                    if r < c:
                        c = r
                        if not c:
                            break
            firings[index] = (index, c if grid is None else decoded[c])
            if not c:
                continue
            for var, d in consequent:  # tnorm of the firing degree and d
                if luk:
                    v = c + d - unit
                    if v <= 0:
                        continue
                elif prod:
                    v = c * d
                else:
                    v = c if c < d else d
                old = raised.get(var)
                if v > (values.get(var, zero) if old is None else old):
                    raised[var] = v
        if not raised:
            return
        values.update(raised)
        fractions = dict(fractions)
        for var, v in raised.items():
            fractions[var] = v if grid is None else decoded[v]
        yield FuzzySet._raw(fractions), tuple(firings)
        due = {index for var in raised for index in watchers.get(var, ())}


def least_model(
    alg: Algebra,
    theory: Theory,
    e: Evaluation,
    limits: EngineLimits = DEFAULT_LIMITS,
) -> ClosureTrace:
    """Iterate closure steps from `e` until stationary or the cap is hit.

    For finite theories under Lukasiewicz or product the fixpoint is always
    reached, and it is the least model of the theory containing `e`.  After
    the cap-th productive step one more sweep decides whether it was the last.
    """
    steps: list[Evaluation] = []
    log: list[FiringLog] = []
    for evaluation, firings in _steps(alg, theory, e):
        if len(steps) >= limits.max_iterations:
            return ClosureTrace(e, tuple(steps), tuple(log), False)
        steps.append(evaluation)
        log.append(firings)
    return ClosureTrace(e, tuple(steps), tuple(log), True)


def provability_degree(
    alg: Algebra,
    theory: Theory,
    query: Implication,
    limits: EngineLimits = DEFAULT_LIMITS,
) -> tuple[Fraction, ClosureTrace]:
    """Degree to which the query is provable from the theory.

    Computed as the inclusion degree of the consequent in the least model of
    the antecedent.  If the trace did not reach a fixpoint the returned value
    is only a lower bound (flagged by `trace.reached_fixpoint`).
    """
    trace = least_model(alg, theory, query.antecedent, limits)
    return subsethood(alg, query.consequent, trace.final), trace

