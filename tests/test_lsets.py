import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rfal import (
    Algebra,
    FuzzySet,
    is_contained,
    residuum,
    scalar_multiple,
    subsethood,
    tnorm,
    union,
)

from conftest import fs

L, P, G = Algebra.LUKASIEWICZ, Algebra.PRODUCT, Algebra.GOEDEL

unit = st.fractions(min_value=0, max_value=1, max_denominator=16)
names = st.sampled_from(("p", "q", "r", "s"))
sets = st.dictionaries(names, unit, max_size=4).map(FuzzySet)
algebras = st.sampled_from(list(Algebra))


class TestFuzzySet:
    def test_zero_entries_are_dropped(self):
        s = FuzzySet({"p": Fraction(0), "q": Fraction(1, 2)})
        assert "p" not in s
        assert s.degree("p") == 0
        assert s.degree("q") == Fraction(1, 2)
        assert len(s) == 1

    @pytest.mark.parametrize("entries", [
        [("p", 0), ("p", 1)],
        [("p", 1), ("p", 0)],
        [("p", 0), ("p", 0)],
    ])
    def test_a_zero_degree_still_names_its_variable(self, entries):
        with pytest.raises(ValueError, match="duplicate variable: p"):
            FuzzySet(entries)

    def test_items_are_sorted(self):
        s = fs(q="1/2", a="1", m="1/4")
        assert [var for var, _ in s.items()] == ["a", "m", "q"]

    def test_rejects_bad_variable_names(self):
        for bad in ("", "1p", "p-q", "p q"):
            with pytest.raises(ValueError):
                FuzzySet({bad: Fraction(1, 2)})

    def test_rejects_float_degrees(self):
        with pytest.raises(TypeError):
            FuzzySet({"p": 0.5})

    def test_equality_and_hash(self):
        a = fs(p="1/2", q="1")
        b = FuzzySet([("q", Fraction(1)), ("p", Fraction(1, 2)), ("r", 0)])
        assert a == b
        assert hash(a) == hash(b)
        assert a != fs(p="1/2")

    def test_text_form(self):
        assert fs(q="1", p="7/10").to_text() == "{p:7/10, q:1}"
        assert FuzzySet().to_text() == "{}"

    def test_json_round_trip(self):
        s = fs(p="1/2", q="1")
        assert FuzzySet.from_json(s.to_json()) == s


class TestUnion:
    def test_pointwise_max(self):
        assert union(fs(p="1/2"), fs(p="3/4", q="1/4")) == fs(p="3/4", q="1/4")

    def test_empty_union(self):
        assert union() == FuzzySet()

    def test_idempotent(self):
        a = fs(p="1/2", q="1")
        assert union(a, a) == a


class TestScalarMultiple:
    def test_lukasiewicz_drops_to_zero(self):
        got = scalar_multiple(L, Fraction(1, 2), fs(p="1", q="3/10"))
        assert got == fs(p="1/2")

    def test_product(self):
        assert scalar_multiple(P, Fraction(1, 2), fs(p="4/5")) == fs(p="2/5")

    def test_one_is_neutral(self):
        a = fs(p="1/3", q="1")
        for alg in Algebra:
            assert scalar_multiple(alg, Fraction(1), a) == a


class TestSubsethood:
    def test_lukasiewicz_example(self):
        assert subsethood(L, fs(p="4/5"), fs(p="1/2")) == Fraction(7, 10)

    def test_empty_antecedent(self):
        assert subsethood(P, FuzzySet(), fs(p="1/9")) == 1

    def test_product_derived_example(self):
        a = fs(p="1/2", q="1")
        b = fs(p="1/4", q="1")
        # independent pointwise oracle: minimum of the two residua
        expected = min(
            residuum(P, Fraction(1, 2), Fraction(1, 4)),
            residuum(P, Fraction(1), Fraction(1)),
        )
        assert expected == Fraction(1, 2)
        assert subsethood(P, a, b) == Fraction(1, 2)

    @given(algebras, sets, sets)
    def test_full_containment_iff_degree_one(self, alg, a, b):
        assert (subsethood(alg, a, b) == 1) == is_contained(a, b)

    @given(algebras, sets, sets, sets)
    def test_tnorm_transitivity(self, alg, a, b, c):
        lhs = tnorm(alg, subsethood(alg, a, b), subsethood(alg, b, c))
        assert lhs <= subsethood(alg, a, c)


class TestIsContained:
    def test_examples(self):
        assert is_contained(fs(p="1/2"), fs(p="1/2", q="1"))
        assert not is_contained(fs(p="3/4"), fs(p="1/2"))
        assert is_contained(FuzzySet(), fs(p="1/9"))


@given(algebras, unit, sets, sets)
def test_scalar_multiple_distributes_over_union(alg, c, a, b):
    lhs = scalar_multiple(alg, c, union(a, b))
    rhs = union(scalar_multiple(alg, c, a), scalar_multiple(alg, c, b))
    assert lhs == rhs


def test_directed_union_subsethood_at_finite_scale():
    # S(A, union(B)) equals the maximum of S(A, B) over a directed family
    rng = random.Random(11)
    vars_ = ("p", "q", "r")
    for _ in range(300):
        a = FuzzySet(
            {v: Fraction(rng.randint(1, 6), 6) for v in vars_ if rng.random() < 0.7}
        )
        seeds = [
            FuzzySet(
                {v: Fraction(rng.randint(1, 6), 6) for v in vars_ if rng.random() < 0.6}
            )
            for _ in range(3)
        ]
        # closing under pairwise unions makes the family directed
        family = list(seeds)
        for i in range(len(seeds)):
            for j in range(i + 1, len(seeds)):
                family.append(union(seeds[i], seeds[j]))
        family.append(union(*seeds))
        total = union(*family)
        for alg in (L, P):
            assert subsethood(alg, a, total) == max(
                subsethood(alg, a, b) for b in family
            )
