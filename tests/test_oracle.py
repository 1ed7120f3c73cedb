import ast
import itertools
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from rfal import (
    Algebra,
    BudgetExceededError,
    GridSpec,
    Implication,
    OffGridError,
    Theory,
    is_contained,
    is_model,
    least_model,
    parse_theory,
    provability_degree,
    semantic_degree_grid,
    subsethood,
)
from rfal import oracle

from conftest import fs, imp
from harness import (
    check_closure_laws,
    is_witness,
    random_grid_set,
    random_grid_theory,
    random_model,
    random_theory,
    reference_grid_degree,
)

L, P, G = Algebra.LUKASIEWICZ, Algebra.PRODUCT, Algebra.GOEDEL


class TestGridOracle:
    def test_worked_example_brute_force(self, worked_lukasiewicz):
        spec = GridSpec(10, ("p", "q", "r"))
        degree = semantic_degree_grid(worked_lukasiewicz, imp({"p": "1"}, {"r": "1"}), spec)
        assert degree == Fraction(9, 10)

    def test_tautology(self):
        theory = Theory((), L)
        for k in (1, 2, 5):
            spec = GridSpec(k, ("p",))
            assert semantic_degree_grid(theory, imp({"p": "1"}, {"p": "1"}), spec) == 1

    def test_converse_of_a_rule_is_refutable(self):
        theory = Theory((imp({"p": "1"}, {"q": "1"}),), L)
        spec = GridSpec(2, ("p", "q"))
        degree = semantic_degree_grid(theory, imp({"q": "1"}, {"p": "1"}), spec)
        assert degree == 0

    def test_off_grid_degree_is_an_error(self, worked_lukasiewicz):
        spec = GridSpec(3, ("p", "q", "r"))  # 4/5 is not a multiple of 1/3
        with pytest.raises(OffGridError):
            semantic_degree_grid(worked_lukasiewicz, imp({"p": "1"}, {"r": "1"}), spec)

    def test_missing_variable_is_an_error(self, worked_lukasiewicz):
        spec = GridSpec(10, ("p", "q"))
        with pytest.raises(OffGridError):
            semantic_degree_grid(worked_lukasiewicz, imp({"p": "1"}, {"r": "1"}), spec)

    def test_non_lukasiewicz_is_refused(self, worked_product):
        spec = GridSpec(10, ("p", "q"))
        with pytest.raises(OffGridError):
            semantic_degree_grid(worked_product, imp({"p": "1/2"}, {"q": "1"}), spec)

    def test_budget_guard(self, worked_lukasiewicz):
        spec = GridSpec(10, ("p", "q", "r"))
        with pytest.raises(BudgetExceededError):
            semantic_degree_grid(
                worked_lukasiewicz, imp({"p": "1"}, {"r": "1"}), spec, budget=100
            )

    def test_walk_deeper_than_the_recursion_limit(self):
        # 1,500 variables, one per level: a recursive walk would overflow
        # the interpreter stack before reaching the first leaf
        names = [f"v{i:04d}" for i in range(1500)]
        theory = Theory(tuple(imp({a: "1"}, {b: "1"}) for a, b in zip(names, names[1:])), L)
        spec = GridSpec(1, names)
        degree = semantic_degree_grid(theory, imp({}, {names[-1]: "1"}), spec, budget=2 ** 1500)
        assert degree == 0

    def test_reads_the_rule_table_only(self):
        theory = parse_theory("algebra lukasiewicz\n{p:1} => {q:4/5}\n{q:3/5} => {r:9/10}\n")
        spec = GridSpec(10, ("p", "q", "r"))
        assert semantic_degree_grid(theory, imp({"p": "1"}, {"r": "1"}), spec) == Fraction(9, 10)
        assert theory._rules is None

    def test_names_the_first_degree_off_the_grid(self):
        theory = parse_theory("algebra lukasiewicz\n{p:1} => {q:1/2}\n{q:1/3} => {r:1/5}\n")
        spec = GridSpec(2, ("p", "q", "r"))
        with pytest.raises(OffGridError, match=r"^degree 1/3 is not a multiple of 1/2$"):
            semantic_degree_grid(theory, imp({"p": "1/4"}, {"r": "1"}), spec)
        spec = GridSpec(6, ("p", "q", "r"))
        with pytest.raises(OffGridError, match=r"^degree 1/5 is not a multiple of 1/6$"):
            semantic_degree_grid(theory, imp({"p": "1/4"}, {"r": "1"}), spec)
        with pytest.raises(OffGridError, match=r"^degree 1/4 is not a multiple of 1/30$"):
            semantic_degree_grid(theory, imp({"p": "1/4"}, {"r": "1"}), GridSpec(30, spec.variables))

    def test_refining_the_grid_never_raises_the_degree(self):
        rng = random.Random(61)
        vars_ = ("p", "q")
        for _ in range(15):
            theory = random_grid_theory(rng, 3, vars_, max_rules=2)
            query = Implication(random_grid_set(rng, 3, vars_), random_grid_set(rng, 3, vars_))
            coarse = semantic_degree_grid(theory, query, GridSpec(3, vars_))
            fine = semantic_degree_grid(theory, query, GridSpec(6, vars_))
            assert fine <= coarse

    def test_matches_engine_on_shared_grid(self):
        rng = random.Random(62)
        vars_ = ("p", "q", "r")
        for _ in range(25):
            theory = random_grid_theory(rng, 4, vars_, max_rules=3)
            query = Implication(random_grid_set(rng, 4, vars_), random_grid_set(rng, 4, vars_))
            oracle = semantic_degree_grid(theory, query, GridSpec(4, vars_))
            engine, trace = provability_degree(L, theory, query)
            assert trace.reached_fixpoint
            assert oracle == engine


class TestWalkRules:
    """The two facts the grid walk rests on, checked on bare integers.

    Degrees are scaled by k.  A rule whose last variable is x compares
    min(alpha, a + v) with min(beta, b + v) at x = v, where alpha and beta
    stand for its other antecedent and consequent terms and a, b for x's own.
    """

    def test_interval_rule(self):
        # the rule holds at v iff (alpha <= beta or v <= beta - a) and
        # (a <= b or v >= alpha - b); (k+1)^5 cases for each k = 1..7
        cases = 0
        for k in range(1, 8):
            grid = range(k + 1)
            for alpha, beta, a, b in itertools.product(grid, repeat=4):
                for v in grid:
                    holds = min(alpha, a + v) <= min(beta, b + v)
                    closed_form = ((alpha <= beta or v <= beta - a)
                                   and (a <= b or v >= alpha - b))
                    assert holds == closed_form, (k, alpha, beta, a, b, v)
                    cases += 1
        assert cases == 61_775

    def test_endpoint_rule(self):
        # the query's truth min(k, k - s_A + s_B) is least over any interval
        # [lo, hi] of values at lo or at hi, and at lo when x is not in the
        # query's antecedent (a = k)
        for k in range(1, 8):
            grid = range(k + 1)
            for alpha, beta, a, b in itertools.product(grid, repeat=4):
                truth = [min(k, k - min(alpha, a + v) + min(beta, b + v)) for v in grid]
                for lo in grid:
                    least = truth[lo]
                    for hi in range(lo, k + 1):
                        least = min(least, truth[hi])
                        assert least == min(truth[lo], truth[hi]), (k, alpha, beta, a, b, lo, hi)
                        assert a < k or least == truth[lo], (k, alpha, beta, b, lo, hi)


class TestPrunedWalkAgainstBruteForce:
    @staticmethod
    def instance(rng, k, variables, rule_count):
        def implication():
            return Implication(random_grid_set(rng, k, variables), random_grid_set(rng, k, variables))

        return Theory(tuple(implication() for _ in range(rule_count)), L), implication()

    def test_degrees_equal_the_reference_enumerator(self):
        # every k = 1..6 with 1..4 variables and 0..6 rules; small grids get
        # more cases, so the brute-force reference stays near 45,000 points
        rng = random.Random(71)
        seen = Counter()
        for k in range(1, 7):
            for n in range(1, 5):
                variables = ("a", "b", "c", "d")[:n]
                spec = GridSpec(k, variables)
                for _ in range(max(4, min(60, 2500 // (k + 1) ** n))):
                    theory, query = self.instance(rng, k, variables, rng.randint(0, 6))
                    degree = semantic_degree_grid(theory, query, spec)
                    assert degree == reference_grid_degree(theory, query, spec), (
                        k, theory.rules, query, degree,
                    )
                    seen["cases"] += 1
                    seen["degree 0"] += degree == 0
                    seen["degree 1"] += degree == 1
                    seen["empty antecedent"] += any(not r.antecedent for r in theory.rules)
                    seen["empty consequent"] += any(not r.consequent for r in theory.rules)
                    seen["rule without variables"] += any(
                        not r.variables() for r in theory.rules
                    )
                    seen["unused spec variable"] += bool(
                        set(variables) - set(theory.variables()) - query.variables()
                    )
                    seen["variable on both sides of a rule"] += any(
                        set(r.antecedent.support()) & set(r.consequent.support())
                        for r in theory.rules
                    )
                    seen["last spec variable outside the query"] += (
                        spec.variables[-1] not in query.variables()
                    )
        assert seen["cases"] >= 1000
        assert all(seen.values()), seen


class TestGridSpec:
    def test_variables_are_canonicalized(self):
        spec = GridSpec(4, ("q", "p", "q"))
        assert spec.variables == ("p", "q")

    def test_denominator_must_be_positive(self):
        with pytest.raises(ValueError):
            GridSpec(0, ("p",))


def test_the_oracle_imports_nothing_from_the_engine():
    # the grid oracle is ground truth for the engine only while it shares no
    # code with it
    modules = set()
    for node in ast.walk(ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ("rfal" if node.level else "", node.module)))
            modules.add(module)
            modules.update(f"{module}.{alias.name}" for alias in node.names)
    assert "rfal.logic" in modules
    assert not [m for m in modules if m == "rfal.engine" or m.startswith("rfal.engine.")]


class TestSampleModels:
    """`random_model` builds models without the engine."""

    def test_every_sample_is_a_model_containing_base(self, worked_product):
        rng = random.Random(2)
        base = fs(p="1/4")
        closure = least_model(P, worked_product, base).final
        models = [random_model(rng, P, worked_product, base, ("p", "q")) for _ in range(50)]
        for model in models:
            assert is_contained(base, model)
            assert is_model(P, worked_product, model)
        assert any(model != closure for model in models)
        for _ in range(150):  # and on random theories under every algebra
            alg = rng.choice((L, P, G))
            theory = random_theory(rng, alg, ("p", "q", "r"))
            model = random_model(rng, alg, theory, base, ("p", "q", "r"))
            assert is_contained(base, model)
            assert is_model(alg, theory, model)

    def test_fixed_seed_is_reproducible(self, worked_lukasiewicz):
        def draw(seed):
            rng = random.Random(seed)
            return [random_model(rng, L, worked_lukasiewicz, fs(p="1/2"), ("p", "q", "r"))
                    for _ in range(30)]

        assert draw(7) == draw(7)
        assert draw(7) != draw(8)


def test_the_witness_check_needs_each_of_its_three_conditions(worked_product):
    # each rejected evaluation holds the query to exactly 2/5 and fails one
    # condition: it misses the antecedent {p:1/4}, or it breaks the rule
    query, degree = imp({"p": "1/4"}, {"q": "1"}), Fraction(2, 5)
    assert is_witness(P, worked_product, query, degree, fs(p="1/4", q="2/5"))
    assert not is_witness(P, worked_product, query, Fraction(1, 2), fs(p="1/4", q="2/5"))
    assert not is_witness(P, worked_product, query, degree, fs(p="1/8", q="1/5"))
    assert not is_witness(P, worked_product, query, degree, fs(p="1/2", q="2/5"))


class TestClosureLaws:
    def test_no_violations_on_worked_theories(self, worked_lukasiewicz, worked_product):
        for alg, theory in ((L, worked_lukasiewicz), (P, worked_product)):
            report = check_closure_laws(alg, theory, samples=200, seed=3)
            assert report.ok, report.violations
            assert report.samples == 200

    def test_idempotency_on_the_worked_fixpoint(self, worked_lukasiewicz):
        closure = least_model(L, worked_lukasiewicz, fs(p="1")).final
        again = least_model(L, worked_lukasiewicz, closure)
        assert again.iterations == 0
        assert again.final == closure

    def test_monotony_witness_pair(self, worked_lukasiewicz):
        e1, e2 = fs(p="1"), fs(p="1/2")
        c1 = least_model(L, worked_lukasiewicz, e1).final
        c2 = least_model(L, worked_lukasiewicz, e2).final
        assert subsethood(L, e1, e2) <= subsethood(L, c1, c2)
