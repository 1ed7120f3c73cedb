"""Acceptance suite: the exit criteria for the whole package.

Each test prints one pass/fail line (visible with `pytest -s` or in captured
output).  Every engine run on a lukasiewicz or product theory must reach an
exact fixpoint under the default iteration cap; a cap hit anywhere in this
module is a failure.
"""

import random
import time
from fractions import Fraction

from rfal import (
    Algebra,
    FuzzySet,
    GridSpec,
    Implication,
    Theory,
    is_contained,
    is_model,
    least_model,
    provability_degree,
    residuum,
    sample_models,
    scalar_multiple,
    semantic_degree_grid,
    check_proof,
    synthesize_proof,
    tnorm,
    truth_degree,
    union,
)
from rfal.cli import goedel_gap_rows
from rfal.oracle import random_evaluation

from conftest import fs, imp
from harness import (
    check_closure_laws,
    random_grid_set,
    random_grid_theory,
    random_implication,
    random_theory,
)

L, P = Algebra.LUKASIEWICZ, Algebra.PRODUCT


def report(name, detail):
    print(f"[acceptance] {name}: PASS ({detail})")


def run_degree(alg, theory, query):
    """Provability degree that treats a cap hit as an acceptance failure."""
    degree, trace = provability_degree(alg, theory, query)
    assert trace.reached_fixpoint, f"iteration cap hit on {alg.value}: {theory.rules}"
    return degree, trace


def test_pavelka_completeness_on_the_grid():
    # engine degree equals brute-force semantic degree, exactly, on 200
    # random lukasiewicz theories and queries over the 1/6 grid
    started = time.monotonic()
    rng = random.Random(101)
    variables = ("a", "b", "c", "d")
    spec = GridSpec(6, variables)
    checked = 0
    for _ in range(200):
        theory = random_grid_theory(rng, 6, variables, max_rules=4)
        query = Implication(
            random_grid_set(rng, 6, variables), random_grid_set(rng, 6, variables)
        )
        engine, _ = run_degree(L, theory, query)
        oracle = semantic_degree_grid(theory, query, spec)
        assert engine == oracle, (theory.rules, query, engine, oracle)
        checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 300
    report("pavelka-completeness-grid", f"{checked}/200 exact matches, {elapsed:.1f}s")


def completeness_on_the_grid(seed, k, variables, max_rules, cases):
    """Engine degree equals the grid oracle's on seeded lukasiewicz theories."""
    started = time.monotonic()
    rng = random.Random(seed)
    spec = GridSpec(k, variables)
    for _ in range(cases):
        theory = random_grid_theory(rng, k, variables, max_rules=max_rules)
        query = Implication(
            random_grid_set(rng, k, variables), random_grid_set(rng, k, variables)
        )
        engine, _ = run_degree(L, theory, query)
        oracle = semantic_degree_grid(theory, query, spec)
        assert engine == oracle, (theory.rules, query, engine, oracle)
    return time.monotonic() - started


def test_pavelka_completeness_on_a_finer_grid():
    # 100 theories of up to 8 rules over 4 variables on the 1/12 grid
    elapsed = completeness_on_the_grid(111, 12, ("a", "b", "c", "d"), 8, 100)
    report("pavelka-completeness-grid-k12", f"100/100 exact matches, {elapsed:.1f}s")


def test_pavelka_completeness_on_five_variables():
    # 50 theories of up to 8 rules over 5 variables on the 1/8 grid
    elapsed = completeness_on_the_grid(112, 8, ("a", "b", "c", "d", "e"), 8, 50)
    report("pavelka-completeness-grid-5vars", f"50/50 exact matches, {elapsed:.1f}s")


def test_pavelka_completeness_on_six_variables():
    # 80 theories of up to 8 rules over 6 variables on the 1/6 grid
    elapsed = completeness_on_the_grid(113, 6, ("a", "b", "c", "d", "e", "f"), 8, 80)
    report("pavelka-completeness-grid-6vars", f"80/80 exact matches, {elapsed:.1f}s")


def test_pavelka_completeness_on_a_4000_grid():
    # two variables, 4001^2 nominal grid points; the walk computes one
    # interval of q per feasible value of p
    started = time.monotonic()
    theory = Theory((imp({}, {"p": "1/2"}),), L)
    query = imp({"p": "1/2"}, {"q": "1/4"})
    oracle = semantic_degree_grid(theory, query, GridSpec(4000, ("p", "q")))
    engine, _ = run_degree(L, theory, query)
    assert engine == oracle == Fraction(3, 4)
    report("pavelka-completeness-grid-k4000", f"1/1 exact match, {time.monotonic() - started:.1f}s")


def test_degree_law_suites():
    # c-shift equality, finite-union equality, and transitivity inequality,
    # 1000 random instances each, per algebra
    variables = ("p", "q", "r")
    results = []
    for alg, seed in ((L, 202), (P, 203)):
        rng = random.Random(seed)
        for _ in range(1000):
            theory = random_theory(rng, alg, variables, max_rules=3, max_denominator=6)
            a = random_evaluation(rng, variables, max_denominator=6, fill=0.5)
            b = random_evaluation(rng, variables, max_denominator=6, fill=0.5)
            den = rng.randint(1, 6)
            c = Fraction(rng.randint(0, den), den)
            plain, _ = run_degree(alg, theory, Implication(a, b))
            shifted, _ = run_degree(alg, theory, Implication(a, scalar_multiple(alg, c, b)))
            assert residuum(alg, c, plain) == shifted
        results.append(f"{alg.value} c-shift 1000")

        rng = random.Random(seed + 10)
        for _ in range(1000):
            theory = random_theory(rng, alg, variables, max_rules=3, max_denominator=6)
            a = random_evaluation(rng, variables, max_denominator=6, fill=0.5)
            family = [
                random_evaluation(rng, variables, max_denominator=6, fill=0.5)
                for _ in range(rng.randint(0, 3))
            ]
            lhs = Fraction(1)
            for b in family:
                lhs = min(lhs, run_degree(alg, theory, Implication(a, b))[0])
            rhs, _ = run_degree(alg, theory, Implication(a, union(*family)))
            assert lhs == rhs
        results.append(f"{alg.value} union 1000")

        rng = random.Random(seed + 20)
        for _ in range(1000):
            theory = random_theory(rng, alg, variables, max_rules=3, max_denominator=6)
            a, b, c_set = (
                random_evaluation(rng, variables, max_denominator=6, fill=0.5)
                for _ in range(3)
            )
            ab, _ = run_degree(alg, theory, Implication(a, b))
            bc, _ = run_degree(alg, theory, Implication(b, c_set))
            ac, _ = run_degree(alg, theory, Implication(a, c_set))
            assert tnorm(alg, ab, bc) <= ac
        results.append(f"{alg.value} transitivity 1000")
    report("degree-law-suites", "; ".join(results))


def test_certificate_round_trip():
    # synthesized proofs are accepted and conclude with the exact degree,
    # 200 random (theory, query) pairs per algebra
    variables = ("p", "q", "r")
    counts = []
    for alg, seed in ((L, 301), (P, 302)):
        rng = random.Random(seed)
        for _ in range(200):
            theory = random_theory(rng, alg, variables, max_rules=4, max_denominator=6)
            query = random_implication(rng, variables, max_denominator=6)
            degree, trace = run_degree(alg, theory, query)
            proof = synthesize_proof(alg, theory, query, trace)
            verdict = check_proof(alg, theory, proof)
            assert verdict.accepted, (verdict, theory.rules, query)
            assert proof.conclusion == Implication(
                query.antecedent, scalar_multiple(alg, degree, query.consequent)
            )
        counts.append(f"{alg.value} 200/200")
    report("certificate-round-trip", "; ".join(counts))


def test_product_soundness_sampling():
    # every sampled model respects the engine degree, with equality attained
    # at the fixpoint witness; 100 product theories, 1000 samples each
    rng = random.Random(404)
    variables = ("p", "q", "r")
    total_models = 0
    for index in range(100):
        theory = random_theory(rng, P, variables, max_rules=3, max_denominator=6)
        query = random_implication(rng, variables, max_denominator=6)
        degree, trace = run_degree(P, theory, query)
        assert truth_degree(P, query, trace.final) == degree
        sampled = sample_models(P, theory, query.antecedent, 1000, seed=5000 + index)
        assert sampled.skipped == 0
        for model in sampled.models:
            assert truth_degree(P, query, model) >= degree
        total_models += len(sampled.models)
    report("product-soundness-sampling", f"100 theories, {total_models} models, 0 violations")


def test_termination_under_the_default_cap():
    # a fresh batch of fixpoint runs across both guaranteed-terminating
    # algebras; reaching the cap anywhere is a failure
    rng = random.Random(505)
    variables = ("p", "q", "r", "s")
    runs = 0
    for _ in range(400):
        alg = rng.choice((L, P))
        theory = random_theory(rng, alg, variables, max_rules=4, max_denominator=8)
        start = random_evaluation(rng, variables, max_denominator=8)
        trace = least_model(alg, theory, start)
        assert trace.reached_fixpoint
        assert trace.iterations < 10_000
        runs += 1
    report("termination-under-cap", f"{runs}/400 runs reached an exact fixpoint")


def test_closure_operator_laws():
    # extensivity, graded monotony, idempotency: 50 random theories per
    # algebra, 20 sampled evaluation pairs each (1000 evaluations per algebra)
    for alg, seed in ((L, 606), (P, 607)):
        rng = random.Random(seed)
        evaluations = 0
        for index in range(50):
            theory = random_theory(rng, alg, ("p", "q", "r"), max_rules=3, max_denominator=6)
            rep = check_closure_laws(alg, theory, samples=20, seed=7000 + index)
            assert rep.ok, rep.violations
            evaluations += rep.samples
        assert evaluations == 1000
    report("closure-operator-laws", "0 violations over 1000 evaluations per algebra")


def test_goedel_gap_demo():
    started = time.monotonic()
    rows = goedel_gap_rows(50)
    elapsed = time.monotonic() - started
    degrees = dict(rows)
    assert degrees[2] == Fraction(1, 4)
    assert degrees[10] == Fraction(9, 20)
    values = [d for _, d in rows]
    assert all(d < Fraction(1, 2) for d in values)
    assert all(earlier < later for earlier, later in zip(values, values[1:]))
    assert elapsed < 1.0
    report("goedel-gap-demo", f"k=2..50 strictly increasing below 1/2, {elapsed:.3f}s")


def test_worked_examples_oracle_first():
    # the two end-to-end regression degrees are established by independent
    # means before the engine is pinned against them

    # lukasiewicz chain: brute force over the 1/10 grid comes first
    worked_l = Theory(
        (imp({"p": "1"}, {"q": "4/5"}), imp({"q": "3/5"}, {"r": "9/10"})), L
    )
    query_l = imp({"p": "1"}, {"r": "1"})
    oracle_degree = semantic_degree_grid(worked_l, query_l, GridSpec(10, ("p", "q", "r")))
    assert oracle_degree == Fraction(9, 10)
    engine_degree, _ = run_degree(L, worked_l, query_l)
    assert engine_degree == oracle_degree == Fraction(9, 10)

    # product theory: no finite grid exists, so the oracle evidence is a
    # hand-built witness model plus sampled lower bounds
    worked_p = Theory((imp({"p": "1/2"}, {"q": "4/5"}),), P)
    query_p = imp({"p": "1/4"}, {"q": "1"})
    firing = residuum(P, Fraction(1, 2), Fraction(1, 4))
    witness = union(fs(p="1/4"), FuzzySet({"q": tnorm(P, firing, Fraction(4, 5))}))
    assert witness == fs(p="1/4", q="2/5")
    assert is_model(P, worked_p, witness)
    assert is_contained(query_p.antecedent, witness)
    assert truth_degree(P, query_p, witness) == Fraction(2, 5)
    sampled = sample_models(P, worked_p, query_p.antecedent, 1000, seed=808)
    assert sampled.skipped == 0
    assert all(truth_degree(P, query_p, e) >= Fraction(2, 5) for e in sampled.models)
    engine_degree, _ = run_degree(P, worked_p, query_p)
    assert engine_degree == Fraction(2, 5)
    report("worked-examples-oracle-first", "lukasiewicz 9/10 and product 2/5 reproduced")
