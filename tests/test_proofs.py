import random
import tracemalloc
from fractions import Fraction

import pytest

from rfal import (
    Algebra,
    FuzzySet,
    Implication,
    Proof,
    ProofFormatError,
    ProofStep,
    SynthesisError,
    Theory,
    check_proof,
    least_model,
    parse_theory,
    provability_degree,
    scalar_multiple,
    serialize_theory,
    synthesize_proof,
    theory_hash,
    truth_degree,
    union,
)
from rfal.proofs import (
    AXIOM,
    BAD_AXIOM,
    BAD_CONCLUSION,
    BAD_CUT,
    BAD_INDEX,
    BAD_MUL,
    CUT,
    HASH_MISMATCH,
    HYP,
    MUL,
    NOT_IN_THEORY,
)
from rfal.engine import ClosureTrace
from rfal.oracle import sample_models

from conftest import (
    DEEP_ANTE_CERTIFICATE,
    DUPLICATE_KEY_CERTIFICATE,
    PADDED_RATIONAL_CERTIFICATE,
    fs,
    imp,
)
from harness import random_implication, random_theory, reference_forward_proof

L, P, G = Algebra.LUKASIEWICZ, Algebra.PRODUCT, Algebra.GOEDEL


def step(formula, rule, premises=(), hyp_index=None, scalar=None):
    return ProofStep(formula, rule, tuple(premises), hyp_index, scalar)


def proof_of(theory, steps):
    return Proof(theory_hash(theory), tuple(steps), steps[-1].formula)


class TestChecker:
    def test_single_axiom_accepted(self):
        theory = Theory((), L)
        p = proof_of(theory, [step(imp({"p": "1/2", "q": "3/10"}, {"q": "3/10"}), AXIOM)])
        assert check_proof(L, theory, p).accepted

    def test_cut_chain_from_the_worked_theory(self, worked_lukasiewicz):
        # hypothesis, weakening axiom, then a cut that lands on {p:1} => {q:2/5}
        steps = [
            step(imp({"p": "1"}, {"q": "4/5"}), HYP, hyp_index=0),
            step(imp({"q": "4/5"}, {"q": "2/5"}), AXIOM),
            step(imp({"p": "1"}, {"q": "2/5"}), CUT, premises=(0, 1)),
        ]
        verdict = check_proof(L, worked_lukasiewicz, proof_of(worked_lukasiewicz, steps))
        assert verdict.accepted

    def test_axiom_violation(self):
        theory = Theory((), L)
        p = proof_of(theory, [step(imp({"p": "1/2"}, {"p": "3/4"}), AXIOM)])
        verdict = check_proof(L, theory, p)
        assert (verdict.accepted, verdict.step, verdict.reason) == (False, 0, BAD_AXIOM)

    def test_hypothesis_must_match_verbatim(self, worked_lukasiewicz):
        p = proof_of(
            worked_lukasiewicz,
            [step(imp({"p": "1"}, {"q": "3/5"}), HYP, hyp_index=0)],
        )
        assert check_proof(L, worked_lukasiewicz, p).reason == NOT_IN_THEORY

    def test_hypothesis_index_out_of_range(self, worked_lukasiewicz):
        p = proof_of(
            worked_lukasiewicz,
            [step(imp({"p": "1"}, {"q": "4/5"}), HYP, hyp_index=7)],
        )
        assert check_proof(L, worked_lukasiewicz, p).reason == BAD_INDEX

    def test_premises_must_be_earlier_steps(self, worked_lukasiewicz):
        steps = [
            step(imp({"p": "1"}, {"q": "4/5"}), HYP, hyp_index=0),
            step(imp({"p": "1"}, {"q": "2/5"}), CUT, premises=(0, 2)),
        ]
        verdict = check_proof(L, worked_lukasiewicz, proof_of(worked_lukasiewicz, steps))
        assert (verdict.step, verdict.reason) == (1, BAD_INDEX)

    def test_cut_conclusion_must_keep_the_cover(self, worked_lukasiewicz):
        # the antecedent of the second premise exceeds the chained consequent
        # at r, so a conclusion that drops r is not a cut instance
        steps = [
            step(imp({"p": "1"}, {"q": "4/5"}), HYP, hyp_index=0),
            step(imp({"q": "4/5", "r": "1/2"}, {"q": "2/5"}), AXIOM),
            step(imp({"p": "1"}, {"q": "2/5"}), CUT, premises=(0, 1)),
        ]
        verdict = check_proof(L, worked_lukasiewicz, proof_of(worked_lukasiewicz, steps))
        assert (verdict.step, verdict.reason) == (2, BAD_CUT)
        kept = steps[:2] + [
            step(imp({"p": "1", "r": "1/2"}, {"q": "2/5"}), CUT, premises=(0, 1))
        ]
        assert check_proof(L, worked_lukasiewicz, proof_of(worked_lukasiewicz, kept)).accepted

    def test_cut_requires_contained_consequent(self, worked_lukasiewicz):
        steps = [
            step(imp({"p": "1"}, {"q": "4/5"}), HYP, hyp_index=0),
            step(imp({"q": "3/5"}, {"q": "3/5"}), AXIOM),
            step(imp({"p": "1"}, {"q": "3/5"}), CUT, premises=(0, 1)),
        ]
        verdict = check_proof(L, worked_lukasiewicz, proof_of(worked_lukasiewicz, steps))
        assert (verdict.step, verdict.reason) == (2, BAD_CUT)

    def test_bad_cut_shape(self, worked_lukasiewicz):
        # consequent of the first premise is not contained in the antecedent
        # of the second, so no cover exists
        steps = [
            step(imp({"p": "1"}, {"q": "4/5"}), HYP, hyp_index=0),
            step(imp({"q": "3/5"}, {"r": "9/10"}), HYP, hyp_index=1),
            step(imp({"p": "1"}, {"r": "9/10"}), CUT, premises=(1, 0)),
        ]
        verdict = check_proof(L, worked_lukasiewicz, proof_of(worked_lukasiewicz, steps))
        assert (verdict.step, verdict.reason) == (2, BAD_CUT)

    def test_mul_requires_exact_recomputation(self, worked_lukasiewicz):
        good = Implication(
            scalar_multiple(L, Fraction(1, 2), fs(p="1")),
            scalar_multiple(L, Fraction(1, 2), fs(q="4/5")),
        )
        steps = [
            step(imp({"p": "1"}, {"q": "4/5"}), HYP, hyp_index=0),
            step(good, MUL, premises=(0,), scalar=Fraction(1, 2)),
        ]
        assert check_proof(L, worked_lukasiewicz, proof_of(worked_lukasiewicz, steps)).accepted
        tampered = [
            steps[0],
            step(
                Implication(good.antecedent, fs(q="1/2")),
                MUL,
                premises=(0,),
                scalar=Fraction(1, 2),
            ),
        ]
        verdict = check_proof(L, worked_lukasiewicz, proof_of(worked_lukasiewicz, tampered))
        assert (verdict.step, verdict.reason) == (1, BAD_MUL)

    def test_hash_mismatch(self, worked_lukasiewicz, worked_product):
        p = proof_of(worked_product, [step(imp({"p": "1"}, {"p": "1"}), AXIOM)])
        verdict = check_proof(L, worked_lukasiewicz, p)
        assert (verdict.accepted, verdict.step, verdict.reason) == (False, None, HASH_MISMATCH)

    def test_proof_must_be_nonempty_and_consistent(self, worked_lukasiewicz):
        with pytest.raises(ValueError):
            Proof(theory_hash(worked_lukasiewicz), (), imp({}, {}))
        # a conclusion that differs from the last formula is the checker's call
        mismatched = Proof(
            theory_hash(worked_lukasiewicz),
            (step(imp({"p": "1"}, {"p": "1"}), AXIOM),),
            imp({}, {}),
        )
        verdict = check_proof(L, worked_lukasiewicz, mismatched)
        assert (verdict.accepted, verdict.step, verdict.reason) == (False, 0, BAD_CONCLUSION)


class TestSynthesis:
    def test_worked_lukasiewicz_round_trip(self, worked_lukasiewicz):
        query = imp({"p": "1"}, {"r": "1"})
        degree, trace = provability_degree(L, worked_lukasiewicz, query)
        proof = synthesize_proof(L, worked_lukasiewicz, query, trace)
        assert proof.conclusion == Implication(
            query.antecedent, scalar_multiple(L, degree, query.consequent)
        )
        assert proof.conclusion == imp({"p": "1"}, {"r": "9/10"})
        assert check_proof(L, worked_lukasiewicz, proof).accepted

    def test_worked_product_round_trip(self, worked_product):
        query = imp({"p": "1/4"}, {"q": "1"})
        degree, trace = provability_degree(P, worked_product, query)
        proof = synthesize_proof(P, worked_product, query, trace)
        assert proof.conclusion == imp({"p": "1/4"}, {"q": "2/5"})
        assert check_proof(P, worked_product, proof).accepted

    def test_axiom_query_needs_one_step(self):
        theory = Theory((), L)
        query = imp({"p": "1", "q": "1/2"}, {"q": "1/2"})
        degree, trace = provability_degree(L, theory, query)
        assert degree == 1
        proof = synthesize_proof(L, theory, query, trace)
        assert len(proof.steps) == 1
        assert proof.steps[0].rule == AXIOM
        assert proof.conclusion == query
        assert check_proof(L, theory, proof).accepted

    def test_refuses_capped_traces(self, worked_lukasiewicz):
        from rfal import EngineLimits

        query = imp({"p": "1"}, {"r": "1"})
        _, trace = provability_degree(L, worked_lukasiewicz, query, EngineLimits(1))
        with pytest.raises(SynthesisError):
            synthesize_proof(L, worked_lukasiewicz, query, trace)

    def test_refuses_mismatched_start(self, worked_lukasiewicz):
        trace = least_model(L, worked_lukasiewicz, fs(p="1"))
        with pytest.raises(SynthesisError):
            synthesize_proof(L, worked_lukasiewicz, imp({"q": "1"}, {"r": "1"}), trace)

    @pytest.mark.parametrize("tamper", ["raised value", "fired degree"])
    def test_refuses_a_trace_whose_firings_disagree_with_its_steps(self, worked_lukasiewicz,
                                                                  tamper):
        # from {p:1} the first round fires rule 1 at 2/5 and raises r to 3/10;
        # a trace that states a higher value or degree there is refused
        query = imp({"p": "1"}, {"r": "1"})
        _, trace = provability_degree(L, worked_lukasiewicz, query)
        first, *rest = trace.rounds
        assert first.raised["r"] == Fraction(3, 10) and (1, Fraction(2, 5)) in first.firings
        if tamper == "raised value":
            first = first._replace(raised={**first.raised, "r": Fraction(1, 2)})
        else:
            first = first._replace(firings=tuple(
                (index, Fraction(1, 2) if index == 1 else c) for index, c in first.firings))
        tampered = ClosureTrace(L, worked_lukasiewicz, trace.start, [first, *rest], trace.final,
                                True)
        synthesize_proof(L, worked_lukasiewicz, query, trace)  # the untouched trace is fine
        with pytest.raises(SynthesisError, match="inconsistent"):
            synthesize_proof(L, worked_lukasiewicz, query, tampered)

    def test_memory_stays_flat_on_a_long_alternating_ascent(self):
        # p and q climb on alternate steps for 2,000 steps beside 1,000 facts
        # that the first step settles.  Synthesis keeps one closure and a
        # history of raises, not the closure before every contribution, which
        # here would be 4,000 copies of 1,002 values (over 200 MiB).
        text = "\n".join(["algebra lukasiewicz", "{} => {p:2/2000}", "{p:1999/2000} => {q:1}",
                          "{q:1999/2000} => {p:1}"] + [f"{{}} => {{a{i}:1}}" for i in range(1000)])
        theory = parse_theory(text)
        query = imp({}, {"p": "1"})
        degree, trace = provability_degree(L, theory, query)
        assert degree == 1 and trace.reached_fixpoint
        tracemalloc.start()
        try:
            proof = synthesize_proof(L, theory, query, trace)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20, f"{peak / 2**20:.1f} MiB"
        assert len(proof.steps) == 4002
        assert check_proof(L, theory, proof).accepted

    def test_round_trip_on_random_instances(self):
        rng = random.Random(51)
        for _ in range(60):
            alg = rng.choice((L, P))
            theory = random_theory(rng, alg, ("p", "q", "r"), max_rules=3)
            query = random_implication(rng, ("p", "q", "r"))
            degree, trace = provability_degree(alg, theory, query)
            proof = synthesize_proof(alg, theory, query, trace)
            assert check_proof(alg, theory, proof).accepted
            assert proof.conclusion == Implication(
                query.antecedent, scalar_multiple(alg, degree, query.consequent)
            )

    def test_steps_are_bounded_by_the_chain_per_contribution(self):
        # opening axiom, closing axiom and cut, plus at most three steps per
        # used contribution besides its mul and its (deduplicated) hypothesis;
        # each used contribution is the first premise of one cut: its mul, or
        # at degree 1 its hypothesis
        rng = random.Random(91)
        for _ in range(300):
            alg = rng.choice((L, P))
            theory = random_theory(rng, alg, ("p", "q", "r", "s"), max_rules=6)
            query = random_implication(rng, ("p", "q", "r", "s"))
            _, trace = provability_degree(alg, theory, query)
            proof = synthesize_proof(alg, theory, query, trace)
            assert check_proof(alg, theory, proof).accepted
            rules = [s.rule for s in proof.steps]
            used = sum(s.rule == CUT and rules[s.premises[0]] in (HYP, MUL) for s in proof.steps)
            assert len(rules) <= 3 + rules.count(HYP) + rules.count(MUL) + 3 * used

    def test_no_step_multiplies_by_one(self):
        # a mul by 1 derives its premise's own formula, so a contribution at
        # degree 1 cites its hypothesis directly
        rng = random.Random(92)
        direct = 0
        for _ in range(300):
            alg = rng.choice((L, P, G))
            theory = random_theory(rng, alg, ("p", "q", "r", "s"), max_rules=6)
            query = random_implication(rng, ("p", "q", "r", "s"))
            degree, trace = provability_degree(alg, theory, query)
            proof = synthesize_proof(alg, theory, query, trace)
            assert not any(s.rule == MUL and s.scalar == 1 for s in proof.steps)
            direct += any(s.rule == CUT and proof.steps[s.premises[0]].rule == HYP
                          for s in proof.steps)
            restored = Proof.loads(proof.dumps())
            assert check_proof(alg, theory, restored).accepted
            assert restored.conclusion == Implication(
                query.antecedent, scalar_multiple(alg, degree, query.consequent))
        assert direct > 50

    def test_a_rule_the_query_does_not_use_is_not_certified(self, worked_lukasiewicz):
        # {p:1} => {s:1} fires in the first step, but r does not depend on s
        theory = Theory(
            worked_lukasiewicz.rules + (imp({"p": "1"}, {"s": "1"}),), L
        )
        query = imp({"p": "1"}, {"r": "1"})
        _, trace = provability_degree(L, theory, query)
        assert any(index == 2 and c == 1 for index, c in trace.firing_log[0])
        proof = synthesize_proof(L, theory, query, trace)
        restored = Proof.loads(proof.dumps())
        assert check_proof(L, theory, restored).accepted
        assert restored.conclusion == imp({"p": "1"}, {"r": "9/10"})
        assert sorted(s.hyp_index for s in proof.steps if s.rule == HYP) == [0, 1]

    def test_matches_the_forward_chain_reference(self):
        # same conclusion as the forward chain, never more steps, and
        # accepted after a round trip through the wire format
        rng = random.Random(93)
        shorter = 0
        for _ in range(240):
            alg = rng.choice((L, P, G))
            variables = ("p", "q", "r", "s", "t")[: rng.randint(2, 5)]
            theory = random_theory(rng, alg, variables, max_rules=8)
            query = random_implication(rng, variables)
            _, trace = provability_degree(alg, theory, query)
            proof = synthesize_proof(alg, theory, query, trace)
            reference = reference_forward_proof(alg, theory, query, trace)
            assert check_proof(alg, theory, reference).accepted
            assert check_proof(alg, theory, Proof.loads(proof.dumps())).accepted
            assert proof.conclusion == reference.conclusion
            assert len(proof.steps) <= len(reference.steps)
            shorter += len(proof.steps) < len(reference.steps)
        assert shorter >= 60

    def test_accepted_conclusions_hold_in_sampled_models(self):
        rng = random.Random(52)
        for i in range(15):
            alg = rng.choice((L, P))
            theory = random_theory(rng, alg, ("p", "q", "r"), max_rules=3)
            query = random_implication(rng, ("p", "q", "r"))
            _, trace = provability_degree(alg, theory, query)
            proof = synthesize_proof(alg, theory, query, trace)
            assert check_proof(alg, theory, proof).accepted
            sampled = sample_models(alg, theory, FuzzySet(), count=30, seed=3000 + i)
            for model in sampled.models:
                assert truth_degree(alg, proof.conclusion, model) == 1

    def test_every_step_of_an_accepted_proof_is_semantically_sound(self):
        # the deductive system only ever derives formulas that hold fully in
        # every model, so each intermediate step must evaluate to 1 as well
        rng = random.Random(54)
        for i in range(10):
            alg = rng.choice((L, P))
            theory = random_theory(rng, alg, ("p", "q", "r"), max_rules=3)
            query = random_implication(rng, ("p", "q", "r"))
            _, trace = provability_degree(alg, theory, query)
            proof = synthesize_proof(alg, theory, query, trace)
            assert check_proof(alg, theory, proof).accepted
            sampled = sample_models(alg, theory, FuzzySet(), count=15, seed=4000 + i)
            for model in sampled.models:
                for pstep in proof.steps:
                    assert truth_degree(alg, pstep.formula, model) == 1


class TestMutationFuzzing:
    """Semantically invalidating one-degree mutations must always be caught."""

    def _synthesized(self, seed):
        rng = random.Random(seed)
        alg = rng.choice((L, P))
        theory = random_theory(rng, alg, ("p", "q", "r"), max_rules=3)
        query = random_implication(rng, ("p", "q", "r"))
        _, trace = provability_degree(alg, theory, query)
        return alg, theory, synthesize_proof(alg, theory, query, trace)

    @staticmethod
    def _replace(proof, index, formula):
        old = proof.steps[index]
        steps = list(proof.steps)
        steps[index] = ProofStep(formula, old.rule, old.premises, old.hyp_index, old.scalar)
        return Proof(proof.theory_hash, tuple(steps), steps[-1].formula)

    def test_invalidated_axioms_are_rejected_at_the_step(self):
        attempts = 0
        for seed in range(60):
            alg, theory, proof = self._synthesized(6000 + seed)
            for index, old in enumerate(proof.steps):
                if old.rule != AXIOM:
                    continue
                ante, cons = old.formula.antecedent, old.formula.consequent
                target = next(
                    (v for v, _ in cons.items() if ante.degree(v) < 1), None
                )
                if target is None:
                    continue
                # midpoint between the antecedent bound and 1 breaks containment
                broken = (ante.degree(target) + 1) / 2
                bumped = union(cons, FuzzySet({target: broken}))
                verdict = check_proof(
                    alg, theory, self._replace(proof, index, Implication(ante, bumped))
                )
                assert (verdict.accepted, verdict.step, verdict.reason) == (
                    False,
                    index,
                    BAD_AXIOM,
                )
                attempts += 1
                break
        assert attempts >= 20

    def test_perturbed_mul_formulas_are_rejected_at_the_step(self):
        attempts = 0
        for seed in range(160):  # about one certificate in eight here has a mul
            alg, theory, proof = self._synthesized(7000 + seed)
            for index, old in enumerate(proof.steps):
                if old.rule != MUL or not old.formula.consequent:
                    continue
                var, degree = old.formula.consequent.items()[0]
                halved = dict(old.formula.consequent.items())
                halved[var] = degree / 2
                mutated = Implication(
                    old.formula.antecedent, FuzzySet(halved)
                )
                verdict = check_proof(alg, theory, self._replace(proof, index, mutated))
                assert (verdict.accepted, verdict.step, verdict.reason) == (
                    False,
                    index,
                    BAD_MUL,
                )
                attempts += 1
                break
        assert attempts >= 15

    def test_tampered_scalar_is_rejected(self, worked_lukasiewicz):
        query = imp({"p": "9/10"}, {"r": "1"})  # the first rule fires at 9/10
        _, trace = provability_degree(L, worked_lukasiewicz, query)
        proof = synthesize_proof(L, worked_lukasiewicz, query, trace)
        index, old = next(
            (i, s)
            for i, s in enumerate(proof.steps)
            if s.rule == MUL and s.formula.consequent
        )
        steps = list(proof.steps)
        steps[index] = ProofStep(
            old.formula, old.rule, old.premises, old.hyp_index, old.scalar / 2
        )
        mutated = Proof(proof.theory_hash, tuple(steps), steps[-1].formula)
        verdict = check_proof(L, worked_lukasiewicz, mutated)
        assert not verdict.accepted
        assert verdict.reason == BAD_MUL


class TestProofJson:
    def test_round_trip(self, worked_lukasiewicz):
        query = imp({"p": "1"}, {"r": "1"})
        _, trace = provability_degree(L, worked_lukasiewicz, query)
        proof = synthesize_proof(L, worked_lukasiewicz, query, trace)
        # loaded derived steps state no formula, so compare the wire text
        restored = Proof.loads(proof.dumps())
        assert restored.dumps() == proof.dumps()
        assert check_proof(L, worked_lukasiewicz, restored).accepted

    def test_schema_keys(self, worked_lukasiewicz):
        query = imp({"p": "1"}, {"r": "1"})
        _, trace = provability_degree(L, worked_lukasiewicz, query)
        obj = synthesize_proof(L, worked_lukasiewicz, query, trace).to_json()
        assert set(obj) == {"theory_hash", "steps", "conclusion"}
        rules = {s["rule"] for s in obj["steps"]}
        assert rules <= {"axiom", "hyp", "cut", "mul"}
        for s in obj["steps"]:
            axiom = s["rule"] == "axiom"
            assert ("ante" in s, "cons" in s) == (axiom, axiom)
            if s["rule"] == "hyp":
                assert "hyp_index" in s
            if s["rule"] == "mul":
                assert len(s["premises"]) == 1 and "scalar" in s
            if s["rule"] == "cut":
                assert len(s["premises"]) == 2

    def test_malformed_certificates(self):
        for bad in ("not json", '{"theory_hash": 3, "steps": [], "conclusion": {}}',
                    '{"steps": []}',
                    '{"theory_hash": "x", "steps": [1], "conclusion": {}}',
                    '{"theory_hash": "x", "steps": {"a": 1}, "conclusion": {}}',
                    '{"theory_hash": "x", "steps": "xx", "conclusion": {}}',
                    "[" * 100_000, DEEP_ANTE_CERTIFICATE, PADDED_RATIONAL_CERTIFICATE,
                    DUPLICATE_KEY_CERTIFICATE):
            with pytest.raises(ProofFormatError) as caught:
                Proof.loads(bad)
            assert len(str(caught.value)) < 300


def test_theory_hash_is_pinned():
    # unsorted entries, a decimal literal, a zero entry and a graded rule;
    # the digest was recorded when serialization still wrote the rules'
    # `Implication` views, so every certificate written since keeps its hash
    text = ("algebra lukasiewicz\n{q:0.8, p:1} => {s:0, r:2/4}\n"
            "({r:3/5} => {t:9/10, s:1}) @ 1/2\n{} => {p:1/3}\n")
    theory = parse_theory(text)
    assert serialize_theory(theory) == (
        "algebra lukasiewicz\n{p:1, q:4/5} => {r:1/2}\n{r:3/5} => {s:1/2, t:2/5}\n{} => {p:1/3}\n")
    assert theory_hash(theory) == "5364a38d957535c69c12a0127965f27f7aa89b9463483cbbb2b600b58ab64957"
    assert theory._rules is None  # no rule view was built


def test_theory_hash_tracks_content(worked_lukasiewicz, worked_product):
    assert theory_hash(worked_lukasiewicz) != theory_hash(worked_product)
    clone = Theory(worked_lukasiewicz.rules, worked_lukasiewicz.algebra)
    assert theory_hash(clone) == theory_hash(worked_lukasiewicz)
