import random
import tracemalloc
from fractions import Fraction

import pytest

from rfal import (
    Algebra,
    EngineLimits,
    FuzzySet,
    Implication,
    Theory,
    is_contained,
    is_model,
    least_model,
    parse_implication,
    parse_theory,
    provability_degree,
    residuum,
    scalar_multiple,
    subsethood,
    tnorm,
    truth_degree,
    union,
)
from rfal import engine

from conftest import IDLE_RULES_PROBE, SETTLED_VARIABLES_PROBE, fs, imp
from harness import random_evaluation, random_implication, random_model, random_theory

L, P, G = Algebra.LUKASIEWICZ, Algebra.PRODUCT, Algebra.GOEDEL


class TestClosureStep:
    """The first step of `least_model`, read off a run capped at one step."""

    def test_worked_lukasiewicz_first_step(self, worked_lukasiewicz):
        # independent recomputation of the union of scaled consequents
        e = fs(p="1")
        fire1 = subsethood(L, fs(p="1"), e)
        fire2 = subsethood(L, fs(q="3/5"), e)
        assert (fire1, fire2) == (Fraction(1), Fraction(2, 5))
        expected = union(
            e,
            scalar_multiple(L, fire1, fs(q="4/5")),
            scalar_multiple(L, fire2, fs(r="9/10")),
        )
        assert expected == fs(p="1", q="4/5", r="3/10")
        assert least_model(L, worked_lukasiewicz, e, EngineLimits(1)).final == expected

    def test_model_is_stationary(self, worked_lukasiewicz):
        e = fs(p="1", q="4/5", r="9/10")
        assert is_model(L, worked_lukasiewicz, e)
        trace = least_model(L, worked_lukasiewicz, e, EngineLimits(1))
        assert (trace.iterations, trace.reached_fixpoint, trace.final) == (0, True, e)

    def test_empty_theory_is_identity(self):
        theory = Theory((), P)
        e = fs(p="1/3")
        trace = least_model(P, theory, e, EngineLimits(1))
        assert (trace.iterations, trace.reached_fixpoint, trace.final) == (0, True, e)


class TestLeastModel:
    def test_worked_lukasiewicz_fixpoint(self, worked_lukasiewicz):
        trace = least_model(L, worked_lukasiewicz, fs(p="1"))
        assert trace.reached_fixpoint
        assert trace.iterations == 2
        assert trace.final == fs(p="1", q="4/5", r="9/10")
        assert trace.steps[0] == fs(p="1", q="4/5", r="3/10")

    def test_worked_product_fixpoint(self, worked_product):
        trace = least_model(P, worked_product, fs(p="1/4"))
        assert trace.reached_fixpoint
        assert trace.iterations == 1
        assert trace.final == fs(p="1/4", q="2/5")

    def test_empty_everything(self):
        trace = least_model(L, Theory((), L), FuzzySet())
        assert trace.reached_fixpoint
        assert trace.iterations == 0
        assert trace.final == FuzzySet()

    def test_chain_is_increasing(self, worked_lukasiewicz):
        trace = least_model(L, worked_lukasiewicz, fs(p="1"))
        chain = (trace.start,) + trace.steps
        for earlier, later in zip(chain, chain[1:]):
            assert is_contained(earlier, later)

    def test_fixpoint_is_a_model_containing_start(self):
        rng = random.Random(31)
        for _ in range(150):
            alg = rng.choice((L, P))
            theory = random_theory(rng, alg, ("p", "q", "r"))
            start = random_evaluation(rng, ("p", "q", "r"))
            trace = least_model(alg, theory, start)
            assert trace.reached_fixpoint
            assert is_contained(start, trace.final)
            assert is_model(alg, theory, trace.final)

    def test_leastness_against_sampled_models(self):
        # the models are built without the engine, so they are not closures
        rng = random.Random(32)
        for _ in range(25):
            alg = rng.choice((L, P, G))
            theory = random_theory(rng, alg, ("p", "q", "r"))
            start = random_evaluation(rng, ("p", "q"))
            closure = least_model(alg, theory, start).final
            for _ in range(20):
                model = random_model(rng, alg, theory, start, ("p", "q", "r"))
                assert is_model(alg, theory, model)
                assert is_contained(closure, model)

    def test_cap_yields_lower_approximation(self, worked_lukasiewicz):
        trace = least_model(L, worked_lukasiewicz, fs(p="1"), EngineLimits(1))
        assert not trace.reached_fixpoint
        assert trace.iterations == 1
        assert is_contained(trace.final, fs(p="1", q="4/5", r="9/10"))

    def test_fixpoint_on_the_capth_step_is_detected(self):
        # p climbs 1/4, 1/2, 3/4, 1: the fourth productive step is the last
        theory = Theory((imp({"p": "3/4"}, {"p": "1"}),), L)
        for cap, reached in ((3, False), (4, True), (5, True)):
            trace = least_model(L, theory, FuzzySet(), EngineLimits(cap))
            assert trace.reached_fixpoint is reached
            assert trace.iterations == min(cap, 4)
        assert trace.final == fs(p="1")

    def test_firing_log_records_every_rule(self, worked_lukasiewicz):
        trace = least_model(L, worked_lukasiewicz, fs(p="1"))
        assert trace.firing_log[0] == ((0, Fraction(1)), (1, Fraction(2, 5)))
        assert trace.firing_log[1] == ((0, Fraction(1)), (1, Fraction(1)))

    def test_goedel_converges_on_finite_theories(self):
        theory = Theory(
            (imp({}, {"p": "2/5"}), imp({"p": "1/2"}, {"q": "1"})), G
        )
        trace = least_model(G, theory, FuzzySet())
        assert trace.reached_fixpoint
        assert trace.final == fs(p="2/5", q="2/5")


class TestProvabilityDegree:
    def test_worked_lukasiewicz(self, worked_lukasiewicz):
        degree, trace = provability_degree(L, worked_lukasiewicz, imp({"p": "1"}, {"r": "1"}))
        assert degree == Fraction(9, 10)
        assert trace.reached_fixpoint

    def test_worked_product(self, worked_product):
        degree, trace = provability_degree(P, worked_product, imp({"p": "1/4"}, {"q": "1"}))
        assert degree == Fraction(2, 5)
        assert trace.reached_fixpoint

    def test_axiom_instances_have_degree_one(self):
        rng = random.Random(33)
        for _ in range(50):
            alg = rng.choice((L, P))
            b = random_evaluation(rng, ("p", "q"))
            a = union(b, random_evaluation(rng, ("p", "q", "r")))
            degree, _ = provability_degree(alg, Theory((), alg), Implication(a, b))
            assert degree == 1

    def test_capped_degree_is_a_lower_bound(self, worked_lukasiewicz):
        query = imp({"p": "1"}, {"r": "1"})
        capped, trace = provability_degree(L, worked_lukasiewicz, query, EngineLimits(1))
        assert not trace.reached_fixpoint
        full, _ = provability_degree(L, worked_lukasiewicz, query)
        assert capped <= full


class TestDecideProvable:
    """Provable outright means degree exactly 1 at a reached fixpoint."""

    def test_examples(self, worked_lukasiewicz):
        degree, trace = provability_degree(L, worked_lukasiewicz, imp({"p": "1"}, {"r": "9/10"}))
        assert degree == 1 and trace.reached_fixpoint
        degree, trace = provability_degree(L, worked_lukasiewicz, imp({"p": "1"}, {"r": "1"}))
        assert degree != 1 and trace.reached_fixpoint

    def test_empty_consequent_is_always_provable(self):
        rng = random.Random(34)
        for _ in range(30):
            alg = rng.choice((L, P))
            theory = random_theory(rng, alg, ("p", "q"))
            a = random_evaluation(rng, ("p", "q"))
            degree, trace = provability_degree(alg, theory, Implication(a, FuzzySet()))
            assert degree == 1 and trace.reached_fixpoint

    def test_undecided_under_cap(self, worked_lukasiewicz):
        query = imp({"p": "1"}, {"r": "1"})
        _, trace = provability_degree(L, worked_lukasiewicz, query, EngineLimits(1))
        assert trace.reached_fixpoint is False

    def test_agrees_with_degree_one(self):
        # degree 1 is exactly containment of the consequent in the least model
        rng = random.Random(35)
        for _ in range(100):
            alg = rng.choice((L, P))
            theory = random_theory(rng, alg, ("p", "q", "r"))
            query = random_implication(rng, ("p", "q", "r"))
            degree, trace = provability_degree(alg, theory, query)
            assert trace.reached_fixpoint
            assert is_contained(query.consequent, trace.final) == (degree == 1)


class TestDegreeLaws:
    """Exact laws of provability degrees, checked on random instances."""

    def test_c_shift(self):
        rng = random.Random(36)
        for _ in range(150):
            alg = rng.choice((L, P))
            theory = random_theory(rng, alg, ("p", "q", "r"), max_rules=3)
            a = random_evaluation(rng, ("p", "q", "r"), fill=0.5)
            b = random_evaluation(rng, ("p", "q", "r"), fill=0.5)
            den = rng.randint(1, 8)
            c = Fraction(rng.randint(0, den), den)
            plain, _ = provability_degree(alg, theory, Implication(a, b))
            shifted, _ = provability_degree(
                alg, theory, Implication(a, scalar_multiple(alg, c, b))
            )
            assert residuum(alg, c, plain) == shifted

    def test_finite_union(self):
        rng = random.Random(37)
        for _ in range(120):
            alg = rng.choice((L, P))
            theory = random_theory(rng, alg, ("p", "q", "r"), max_rules=3)
            a = random_evaluation(rng, ("p", "q", "r"), fill=0.5)
            family = [
                random_evaluation(rng, ("p", "q", "r"), fill=0.5)
                for _ in range(rng.randint(0, 3))
            ]
            lhs = Fraction(1)
            for b in family:
                lhs = min(lhs, provability_degree(alg, theory, Implication(a, b))[0])
            rhs, _ = provability_degree(alg, theory, Implication(a, union(*family)))
            assert lhs == rhs

    def test_tnorm_transitivity(self):
        rng = random.Random(38)
        for _ in range(120):
            alg = rng.choice((L, P))
            theory = random_theory(rng, alg, ("p", "q", "r"), max_rules=3)
            a, b, c = (random_evaluation(rng, ("p", "q", "r"), fill=0.5) for _ in range(3))
            ab, _ = provability_degree(alg, theory, Implication(a, b))
            bc, _ = provability_degree(alg, theory, Implication(b, c))
            ac, _ = provability_degree(alg, theory, Implication(a, c))
            assert tnorm(alg, ab, bc) <= ac


class TestSemanticInvariants:
    def test_soundness_over_sampled_models(self):
        rng = random.Random(39)
        for _ in range(20):
            alg = rng.choice((L, P, G))
            theory = random_theory(rng, alg, ("p", "q", "r"))
            query = random_implication(rng, ("p", "q", "r"))
            degree, _ = provability_degree(alg, theory, query)
            for _ in range(50):
                model = random_model(rng, alg, theory, FuzzySet(), ("p", "q", "r"))
                assert truth_degree(alg, query, model) >= degree

    def test_tightness_at_the_fixpoint_witness(self):
        rng = random.Random(40)
        for _ in range(80):
            alg = rng.choice((L, P))
            theory = random_theory(rng, alg, ("p", "q", "r"))
            query = random_implication(rng, ("p", "q", "r"))
            degree, trace = provability_degree(alg, theory, query)
            assert truth_degree(alg, query, trace.final) == degree

    def test_order_independence(self):
        rng = random.Random(41)
        for _ in range(60):
            alg = rng.choice((L, P))
            theory = random_theory(rng, alg, ("p", "q", "r"), max_rules=4)
            query = random_implication(rng, ("p", "q", "r"))
            degree, trace = provability_degree(alg, theory, query)
            rules = list(theory.rules)
            rng.shuffle(rules)
            permuted = Theory(tuple(rules), alg)
            degree2, trace2 = provability_degree(alg, permuted, query)
            assert degree == degree2
            assert trace.final == trace2.final


class TestStress:
    def test_long_product_amplification_chain_converges(self):
        # a self-feeding rule amplifies a tiny degree geometrically; the run
        # must still land on an exact fixpoint in modest time
        theory = Theory((imp({"p": "1/2"}, {"p": "9/10"}),), P)
        start = FuzzySet({"p": Fraction(1, 10**9)})
        trace = least_model(P, theory, start)
        assert trace.reached_fixpoint
        assert trace.final == fs(p="9/10")
        assert trace.iterations < 100

    @pytest.mark.parametrize("alg, rules, steps", [
        # lukasiewicz n = 9835: 1/n per step up to 1
        (L, [({}, {"p": "1/9835"}), ({"p": "9834/9835"}, {"p": "1"})], 9835),
        # product m = 50, e = 6: times 50/49 per step from 10^-6
        (P, [({}, {"p": "1/1000000"}), ({"p": "49/50"}, {"p": "1"})], 685),
    ])
    def test_slow_ascents_close_in_few_rounds(self, alg, rules, steps):
        theory = Theory(tuple(imp(a, b) for a, b in rules), alg)
        trace = least_model(alg, theory, FuzzySet())
        assert (trace.final, trace.iterations, trace.reached_fixpoint) == (fs(p="1"), steps, True)
        assert len(trace.rounds) <= 6

    @pytest.mark.parametrize("alg, rules, cap, steps, sweeps", [
        # lukasiewicz n = 100,000 under a cap of 10^6
        (L, [({}, {"p": "1/100000"}), ({"p": "99999/100000"}, {"p": "1"})], 10**6, 100_000, 8),
        # product: times 200/199 per step from 10^-6
        (P, [({}, {"p": "1/1000000"}), ({"p": "199/200"}, {"p": "1"})], 10_000, 2758, 10),
    ])
    def test_a_jumped_round_takes_a_few_sweeps(self, monkeypatch, alg, rules, cap, steps,
                                               sweeps):
        # the run's end is predicted and proved by two probes; doubling and
        # bisection took 38 sweeps on the first and 29 on the second
        calls = []
        for name in ("_fire", "_fire_pairs"):
            def counted(*args, fire=getattr(engine, name), **kwargs):
                calls.append(fire)
                return fire(*args, **kwargs)
            monkeypatch.setattr(engine, name, counted)
        theory = Theory(tuple(imp(a, b) for a, b in rules), alg)
        trace = least_model(alg, theory, FuzzySet(), EngineLimits(cap))
        assert (trace.final, trace.iterations, trace.reached_fixpoint) == (fs(p="1"), steps, True)
        assert len(calls) <= sweeps

    def test_many_idle_rules_do_not_grow_the_trace_per_step(self):
        # on this probe a round that kept every rule's degree would hold
        # 80 million of them, over 600 MB
        theory = parse_theory(IDLE_RULES_PROBE)
        query = parse_implication("{} => {p:1}")
        tracemalloc.start()
        try:
            degree, trace = provability_degree(L, theory, query)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (degree, trace.iterations, len(trace.rounds)) == (Fraction(1, 2), 10_000, 10_000)
        assert not trace.reached_fixpoint
        assert peak < 64 * 2**20

    def test_settled_variables_do_not_grow_the_trace_per_step(self):
        # on this probe a round that kept the whole evaluation would hold
        # 10 million values, over 150 MB
        theory = parse_theory(SETTLED_VARIABLES_PROBE)
        query = parse_implication("{} => {p:1}")
        tracemalloc.start()
        try:
            degree, trace = provability_degree(L, theory, query)
            before = trace.penultimate
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (degree, trace.iterations, trace.reached_fixpoint) == (Fraction(1, 2), 10_000, False)
        assert (len(trace.final), len(before)) == (1002, 1002)
        assert trace.final.degree("q") - before.degree("q") == Fraction(1, 10_000)
        assert peak < 32 * 2**20

    def test_wide_random_theory_converges(self):
        rng = random.Random(43)
        variables = tuple(f"v{i}" for i in range(8))
        for alg in (L, P):
            theory = random_theory(rng, alg, variables, max_rules=20, max_denominator=12)
            start = random_evaluation(rng, variables, max_denominator=12)
            trace = least_model(alg, theory, start)
            assert trace.reached_fixpoint
            assert is_model(alg, theory, trace.final)


class TestTraceShape:
    def test_stationarity_of_reported_fixpoint(self):
        rng = random.Random(42)
        for _ in range(60):
            alg = rng.choice((L, P))
            theory = random_theory(rng, alg, ("p", "q", "r"))
            start = random_evaluation(rng, ("p", "q", "r"))
            trace = least_model(alg, theory, start)
            assert trace.reached_fixpoint
            again = least_model(alg, theory, trace.final, EngineLimits(1))
            assert (again.iterations, again.reached_fixpoint, again.final) == (0, True, trace.final)

    def test_json_export_shape(self, worked_lukasiewicz):
        trace = least_model(L, worked_lukasiewicz, fs(p="1"))
        obj = trace.to_json()
        assert obj["reached_fixpoint"] is True
        assert obj["iterations"] == 2
        assert len(obj["steps"]) == 2
        assert obj["steps"][0]["firings"][0] == {"rule": 0, "degree": {"num": 1, "den": 1}}

    def test_limits_must_be_positive(self):
        with pytest.raises(ValueError):
            EngineLimits(0)
