"""Hilbert-style proof certificates: a strict checker and a trace synthesizer.

The deductive system has one axiom scheme and two rules:

  axiom  every formula whose consequent is fully contained in its antecedent
  cut    from A => B and B|C => D infer A|C => D   (| is fuzzy-set union)
  mul    from A => B infer cA => cB for a rational scalar c

The checker is the minimal trusted core.  `derive` is the only definition of
what each primitive step infers, with every set operation recomputed exactly;
`check_proof` and `ProofBuilder` both go through it, so the builder cannot
emit a step that the checker rejects.

A certificate stores only what the checker cannot derive.  Axiom steps carry
their formula (`ante`, `cons`); `hyp`, `cut` and `mul` steps carry only
`rule`, `premises`, `hyp_index` and `scalar`.  A derived step may still state
its formula, as older certificates do; the stated formula must then equal the
derived one.  The certificate's `conclusion` must equal the last derived
formula.

The synthesizer turns an engine trace into a certificate of `A => d*B`, with
d the provability degree, using primitive steps only.  It walks the rule
contributions backward from the goal `d*B`, keeping the frontier `X` that
the goal still needs, and certifies only the contributions that raise some
part of it: why-provenance (Buneman, Khanna & Tan, ICDT 2001) built into the
proof shape.  A certificate has at most 3 + #hyp + #mul + 3m steps, for m
certified contributions.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (ZERO, Algebra, as_unit_degree, brief, rational_from_json, rational_to_json,
                      tnorm)
from .engine import ClosureTrace
from .lsets import FuzzySet, is_contained, scalar_multiple, subsethood, union
from .logic import Implication, Theory, serialize_theory

AXIOM = "axiom"
HYP = "hyp"
CUT = "cut"
MUL = "mul"

BAD_AXIOM = "BAD_AXIOM"
NOT_IN_THEORY = "NOT_IN_THEORY"
BAD_CUT = "BAD_CUT"
BAD_MUL = "BAD_MUL"
BAD_INDEX = "BAD_INDEX"
HASH_MISMATCH = "HASH_MISMATCH"
BAD_CONCLUSION = "BAD_CONCLUSION"


class ProofFormatError(ValueError):
    """Malformed certificate JSON (distinct from a checker REJECT)."""


class SynthesisError(ValueError):
    """The synthesizer refuses the request (e.g. a non-fixpoint trace)."""


@dataclass(frozen=True)
class ProofStep:
    formula: Implication | None  # None: a derived step that states no formula
    rule: str
    premises: tuple[int, ...] = ()
    hyp_index: int | None = None
    scalar: Fraction | None = None


@dataclass(frozen=True)
class Proof:
    theory_hash: str
    steps: tuple[ProofStep, ...]
    conclusion: Implication

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        if not self.steps:
            raise ValueError("a proof must contain at least one step")

    def to_json(self) -> dict:
        steps = []
        for step in self.steps:
            obj = step.formula.to_json() if step.rule == AXIOM else {}
            obj["rule"] = step.rule
            if step.premises:
                obj["premises"] = list(step.premises)
            if step.hyp_index is not None:
                obj["hyp_index"] = step.hyp_index
            if step.scalar is not None:
                obj["scalar"] = rational_to_json(step.scalar)
            steps.append(obj)
        return {
            "theory_hash": self.theory_hash,
            "steps": steps,
            "conclusion": self.conclusion.to_json(),
        }

    @classmethod
    def from_json(cls, obj) -> "Proof":
        try:
            if not isinstance(obj, dict):
                raise ValueError(f"malformed proof object: {type(obj).__name__}")
            digest = obj["theory_hash"]
            if not isinstance(digest, str):
                raise ValueError("theory_hash must be a string")
            steps = []
            for raw in obj["steps"]:
                if not isinstance(raw, dict):
                    raise ValueError(f"malformed step object: {brief(raw)}")
                rule = raw.get("rule")
                if rule not in (AXIOM, HYP, CUT, MUL):
                    raise ValueError(f"unknown step rule: {brief(rule)}")
                stated = rule == AXIOM or "ante" in raw or "cons" in raw
                formula = Implication.from_json(raw) if stated else None
                premises = tuple(raw.get("premises", ()))
                if not all(isinstance(i, int) and not isinstance(i, bool) for i in premises):
                    raise ValueError("premises must be integers")
                hyp_index = raw.get("hyp_index")
                if hyp_index is not None and (not isinstance(hyp_index, int) or isinstance(hyp_index, bool)):
                    raise ValueError("hyp_index must be an integer")
                scalar = raw.get("scalar")
                if scalar is not None:
                    scalar = rational_from_json(scalar)
                steps.append(ProofStep(formula, rule, premises, hyp_index, scalar))
            conclusion = Implication.from_json(obj["conclusion"])
            return cls(digest, tuple(steps), conclusion)
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise ProofFormatError(f"malformed proof certificate: {exc}") from exc

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2)

    @classmethod
    def loads(cls, text: str) -> "Proof":
        try:
            obj = json.loads(text, object_pairs_hook=_unique_keys)
        except (ValueError, RecursionError) as exc:
            raise ProofFormatError(f"certificate is not valid JSON: {exc}") from exc
        return cls.from_json(obj)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """JSON object hook: a repeated key is refused, not silently overwritten."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"duplicate key {brief(key)}")
            seen.add(key)
    return obj


@dataclass(frozen=True)
class Verdict:
    accepted: bool
    step: int | None = None
    reason: str | None = None

    def to_json(self) -> dict:
        if self.accepted:
            return {"verdict": "ACCEPT"}
        return {"verdict": "REJECT", "step": self.step, "reason": self.reason}


ACCEPT = Verdict(True)


def theory_hash(theory: Theory) -> str:
    """SHA-256 of the canonical theory serialization."""
    return hashlib.sha256(serialize_theory(theory).encode("utf-8")).hexdigest()


def cut_conclusion(first: Implication, second: Implication) -> Implication | None:
    """Deterministic cut matching shared by the checker and the builder.

    With first = A => B and second = X => D, the step is valid when B is fully
    contained in X; then X decomposes as B|C for the minimal cover C (the part
    of X strictly above B) and the conclusion is A|C => D.  No search over
    decompositions is performed.
    """
    b, x = first.consequent, second.antecedent
    if not is_contained(b, x):
        return None
    cover = {var: degree for var, degree in x.items() if degree > b.degree(var)}
    return Implication(union(first.antecedent, FuzzySet._raw(cover)), second.consequent)


def derive(
    alg: Algebra, theory: Theory, earlier: Sequence[Implication], step: ProofStep
) -> Implication | str:
    """The formula that `step` derives from the earlier formulas, or its reject reason.

    This is the only definition of the primitive rules: the checker and the
    builder both call it.  An axiom states its formula; a derived step may
    state one too, and must then state exactly the derived formula.
    """
    if step.rule == AXIOM:
        if step.formula is None or not is_contained(step.formula.consequent, step.formula.antecedent):
            return BAD_AXIOM
        return step.formula
    if step.rule == HYP:
        k = step.hyp_index
        if k is None or not 0 <= k < len(theory):
            return BAD_INDEX
        derived, mismatch = theory.rule(k), NOT_IN_THEORY
    elif step.rule == CUT:
        if len(step.premises) != 2 or not all(0 <= i < len(earlier) for i in step.premises):
            return BAD_INDEX
        i, j = step.premises
        derived, mismatch = cut_conclusion(earlier[i], earlier[j]), BAD_CUT
        if derived is None:
            return BAD_CUT
    elif step.rule == MUL:
        if len(step.premises) != 1 or not 0 <= step.premises[0] < len(earlier):
            return BAD_INDEX
        try:
            c = as_unit_degree(step.scalar)
        except (TypeError, ValueError):
            return BAD_MUL
        premise = earlier[step.premises[0]]
        derived, mismatch = Implication(
            scalar_multiple(alg, c, premise.antecedent),
            scalar_multiple(alg, c, premise.consequent),
        ), BAD_MUL
    else:
        return BAD_INDEX
    if step.formula is not None and step.formula != derived:
        return mismatch
    return derived


def check_proof(alg: Algebra, theory: Theory, proof: Proof) -> Verdict:
    """ACCEPT iff every step is a valid primitive inference over the theory
    and the last one derives the stated conclusion."""
    if proof.theory_hash != theory_hash(theory):
        return Verdict(False, None, HASH_MISMATCH)
    formulas: list[Implication] = []
    for index, step in enumerate(proof.steps):
        derived = derive(alg, theory, formulas, step)
        if isinstance(derived, str):
            return Verdict(False, index, derived)
        formulas.append(derived)
    if formulas[-1] != proof.conclusion:
        return Verdict(False, len(formulas) - 1, BAD_CONCLUSION)
    return ACCEPT


class ProofBuilder:
    """Append-only builder: every step goes through `derive`, as in the checker.

    Steps keep their derived formula in memory.  Identical steps are
    deduplicated, so reusing a hypothesis or an axiom costs nothing.
    """

    def __init__(self, alg: Algebra, theory: Theory):
        self._alg = alg
        self._theory = theory
        self._steps: list[ProofStep] = []
        self._formulas: list[Implication] = []
        self._index: dict[ProofStep, int] = {}

    def _push(self, step: ProofStep) -> int:
        found = self._index.get(step)
        if found is not None:
            return found
        derived = derive(self._alg, self._theory, self._formulas, step)
        if isinstance(derived, str):
            raise SynthesisError(f"the checker would reject this {step.rule} step: {derived}")
        self._steps.append(
            ProofStep(derived, step.rule, step.premises, step.hyp_index, step.scalar))
        self._formulas.append(derived)
        index = len(self._steps) - 1
        self._index[step] = index
        return index

    def axiom(self, antecedent: FuzzySet, consequent: FuzzySet) -> int:
        return self._push(ProofStep(Implication(antecedent, consequent), AXIOM))

    def hypothesis(self, rule_index: int) -> int:
        return self._push(ProofStep(None, HYP, hyp_index=rule_index))

    def mul(self, premise: int, scalar: Fraction) -> int:
        return self._push(ProofStep(None, MUL, (premise,), scalar=scalar))

    def cut(self, first: int, second: int) -> int:
        return self._push(ProofStep(None, CUT, (first, second)))

    def formula(self, index: int) -> Implication:
        return self._formulas[index]

    def build(self) -> Proof:
        if not self._steps:
            raise SynthesisError("no steps have been added")
        return Proof(theory_hash(self._theory), tuple(self._steps), self._formulas[-1])


def synthesize_proof(
    alg: Algebra,
    theory: Theory,
    query: Implication,
    trace: ClosureTrace,
) -> Proof:
    """Certificate of `A => d*B` with d the provability degree of A => B.

    A forward pass over the trace collects the contributions: the firings of
    a rule `F => G` at degree c that raise some value of `grown`, the closure
    of A so far.  It keeps `grown` as one dict of values, and beside it the
    history of each variable: the indices of the contributions that raised
    it and the values they raised it to.  So W_k, the closure before
    contribution k, is never stored: its value at v is the last value raised
    by a contribution before k (a bisection in v's history), or A's degree
    when there is none.  A firing at degree 0, or at the degree its rule last
    fired at, is skipped: firing degrees never decrease, so its c*G is
    already inside `grown`.  After each step `grown` must equal the trace's
    evaluation; it did before the step, so it suffices that the step's
    firings raised only variables the trace says it raised, to the values it
    raised them to.

    A backward pass then keeps one formula `X => d*B`, starting from the
    axiom `d*B => d*B`, and states only what the query still needs.  A
    contribution whose W_k already contains X is skipped.  Otherwise:

      mul   c*F => c*G           from the hypothesis F => G, unless c = 1
      cut   c*F|X' => X          with the axiom X|c*G => X, unless c*G lies in X
      cut   c*F|X' => d*B        onto X => d*B

    where X' is the part of X above c*G; the new X is c*F|X', which lies
    inside W_k.  At c = 1 the hypothesis itself is c*F => c*G, so it takes
    the place of the mul.  A closing axiom `A => X` and cut land on the
    conclusion.  So a certificate of m contributions has at most
    3 + #hyp + #mul + 3m steps, with each hypothesis written once.  Refuses
    traces that did not reach a fixpoint, since a lower bound cannot be
    certified as the degree.
    """
    if not trace.reached_fixpoint:
        raise SynthesisError("cannot certify a degree from a capped (non-fixpoint) trace")
    if trace.start != query.antecedent:
        raise SynthesisError("the trace must start from the query antecedent")

    a = query.antecedent
    degree = subsethood(alg, query.consequent, trace.final)
    goal = scalar_multiple(alg, degree, query.consequent)

    builder = ProofBuilder(alg, theory)
    if is_contained(goal, a):
        builder.axiom(a, goal)
        return builder.build()

    table = theory.table
    contributions: list[tuple[int, Fraction]] = []  # (rule index, c)
    history: dict[str, tuple[list[int], list[Fraction]]] = {}
    last_degree: dict[int, Fraction] = {}
    grown = dict(a.items())
    for raised, firings in trace.walk():
        moved = set()
        for rule_index, c in firings:
            if not c or last_degree.get(rule_index) == c:
                continue
            last_degree[rule_index] = c
            k, raises = len(contributions), False
            for var, g, _, _ in table[rule_index][1]:  # c*G, entry by entry
                value = g if c == 1 else tnorm(alg, c, g)
                if value > grown.get(var, ZERO):
                    grown[var] = value
                    indices, values = history.setdefault(var, ([], []))
                    indices.append(k)
                    values.append(value)
                    moved.add(var)
                    raises = True
            if raises:
                contributions.append((rule_index, c))
        if not moved <= raised.keys() or any(grown.get(var) != q for var, q in raised.items()):
            raise SynthesisError("trace firing log is inconsistent with its steps")

    def before(k: int, var: str) -> Fraction:
        """The value of `var` in W_k, the closure before contribution k."""
        entry = history.get(var)
        if entry is not None:
            indices, values = entry
            i = bisect_left(indices, k)
            if i:
                return values[i - 1]
        return a.degree(var)

    x = goal
    current = builder.axiom(goal, goal)  # X => d*B
    for k in reversed(range(len(contributions))):
        if all(q <= before(k, var) for var, q in x.items()):
            continue
        rule_index, c = contributions[k]
        hypothesis = builder.hypothesis(rule_index)
        scaled = hypothesis if c == 1 else builder.mul(hypothesis, c)  # c*F => c*G
        contribution = builder.formula(scaled).consequent
        if not is_contained(contribution, x):
            scaled = builder.cut(scaled, builder.axiom(union(x, contribution), x))
        current = builder.cut(scaled, current)
        x = builder.formula(current).antecedent
    builder.cut(builder.axiom(a, x), current)
    return builder.build()
