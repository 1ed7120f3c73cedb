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

Only variables occurring in the theory or the start evaluation can ever gain
a degree, and zero membership is represented by absence, so no explicit
variable universe needs to be materialized.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .algebra import Algebra, rational_to_json, tnorm
from .lsets import FuzzySet, is_contained, subsethood
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


def _steps(alg: Algebra, theory: Theory, e: Evaluation) -> Iterator[tuple[Evaluation, FiringLog]]:
    """The productive steps from `e`, each with the degree of every rule."""
    rules = theory.rules
    watchers: dict[str, list[int]] = {}
    for index, rule in enumerate(rules):
        for var in rule.antecedent.support():
            watchers.setdefault(var, []).append(index)
    firings: list = [None] * len(rules)  # every slot is set by the first sweep
    due: Iterable[int] = range(len(rules))
    current = e
    while True:
        merged = dict(current.items())
        raised = set()
        for index in due:
            rule = rules[index]
            c = subsethood(alg, rule.antecedent, current)
            firings[index] = (index, c)
            if c == 0:
                continue
            for var, degree in rule.consequent.items():
                value = tnorm(alg, c, degree)
                if value > merged.get(var, 0):
                    merged[var] = value
                    raised.add(var)
        if not raised:
            return
        current = FuzzySet._raw(merged)
        yield current, tuple(firings)
        due = sorted({index for var in raised for index in watchers.get(var, ())})


def closure_step(alg: Algebra, theory: Theory, e: Evaluation) -> Evaluation:
    """One simultaneous application of all rules: e joined with every S(A,e)*B."""
    for evaluation, _ in _steps(alg, theory, e):
        return evaluation
    return e


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


def decide_provable(
    alg: Algebra,
    theory: Theory,
    query: Implication,
    limits: EngineLimits = DEFAULT_LIMITS,
) -> bool:
    """Whether the query is provable outright (degree exactly 1)."""
    trace = least_model(alg, theory, query.antecedent, limits)
    if not trace.reached_fixpoint:
        raise UndecidedError(
            f"undecided under the iteration cap ({limits.max_iterations}); "
            f"the {alg.value} algebra does not guarantee finite convergence"
        )
    return is_contained(query.consequent, trace.final)
