import random
from fractions import Fraction

import pytest

from rfal import (
    Algebra,
    as_unit_degree,
    decimal_expansion,
    format_degree,
    parse_rational,
    rational_from_json,
    rational_to_json,
    residuum,
    tnorm,
)

ALGEBRAS = list(Algebra)
L, P, G = Algebra.LUKASIEWICZ, Algebra.PRODUCT, Algebra.GOEDEL


def rationals(seed, count, max_den=12):
    rng = random.Random(seed)
    for _ in range(count):
        den = rng.randint(1, max_den)
        yield Fraction(rng.randint(0, den), den)


def triples(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        out = []
        for _ in range(3):
            den = rng.randint(1, 12)
            out.append(Fraction(rng.randint(0, den), den))
        yield tuple(out)


class TestTnorm:
    def test_lukasiewicz_example(self):
        assert tnorm(L, Fraction(7, 10), Fraction(4, 5)) == Fraction(1, 2)

    def test_product_example(self):
        assert tnorm(P, Fraction(1, 2), Fraction(4, 5)) == Fraction(2, 5)

    def test_goedel_is_minimum(self):
        assert tnorm(G, Fraction(1, 2), Fraction(4, 5)) == Fraction(1, 2)

    @pytest.mark.parametrize("alg", ALGEBRAS)
    def test_one_is_neutral(self, alg):
        for a in rationals(1, 200):
            assert tnorm(alg, a, Fraction(1)) == a
            assert tnorm(alg, Fraction(1), a) == a

    @pytest.mark.parametrize("alg", ALGEBRAS)
    def test_commutative_and_associative(self, alg):
        for a, b, c in triples(2, 500):
            assert tnorm(alg, a, b) == tnorm(alg, b, a)
            assert tnorm(alg, tnorm(alg, a, b), c) == tnorm(alg, a, tnorm(alg, b, c))

    @pytest.mark.parametrize("alg", ALGEBRAS)
    def test_monotone_in_each_argument(self, alg):
        for a, b, c in triples(3, 500):
            lo, hi = min(b, c), max(b, c)
            assert tnorm(alg, a, lo) <= tnorm(alg, a, hi)
            assert tnorm(alg, lo, a) <= tnorm(alg, hi, a)


class TestResiduum:
    def test_lukasiewicz_example(self):
        assert residuum(L, Fraction(7, 10), Fraction(1, 2)) == Fraction(4, 5)

    def test_product_example(self):
        assert residuum(P, Fraction(1, 2), Fraction(1, 4)) == Fraction(1, 2)

    def test_goedel_drops_to_consequent(self):
        assert residuum(G, Fraction(1, 2), Fraction(1, 4)) == Fraction(1, 4)

    @pytest.mark.parametrize("alg", ALGEBRAS)
    def test_zero_antecedent_gives_one(self, alg):
        for b in rationals(4, 100):
            assert residuum(alg, Fraction(0), b) == 1

    @pytest.mark.parametrize("alg", ALGEBRAS)
    def test_one_iff_leq(self, alg):
        for a, b, _ in triples(5, 500):
            assert (residuum(alg, a, b) == 1) == (a <= b)

    @pytest.mark.parametrize("alg", ALGEBRAS)
    def test_antitone_left_isotone_right(self, alg):
        for a, b, c in triples(6, 500):
            lo, hi = min(a, b), max(a, b)
            assert residuum(alg, lo, c) >= residuum(alg, hi, c)
            assert residuum(alg, c, lo) <= residuum(alg, c, hi)


@pytest.mark.parametrize("alg", ALGEBRAS)
def test_adjointness_on_random_corpus(alg):
    # tnorm(a,b) <= c iff a <= residuum(b,c), 10^4 triples per algebra
    for a, b, c in triples(7, 10_000):
        assert (tnorm(alg, a, b) <= c) == (a <= residuum(alg, b, c))


@pytest.mark.parametrize("alg", ALGEBRAS)
def test_rational_closedness(alg):
    for a, b, _ in triples(8, 2_000):
        for value in (tnorm(alg, a, b), residuum(alg, a, b)):
            assert isinstance(value, Fraction)
            assert 0 <= value <= 1
            # Fraction keeps lowest terms by construction
            from math import gcd
            assert gcd(value.numerator, value.denominator) == 1


class TestDegreeBoundary:
    def test_floats_are_refused(self):
        with pytest.raises(TypeError):
            as_unit_degree(0.5)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            as_unit_degree(Fraction(3, 2))
        with pytest.raises(ValueError):
            as_unit_degree(-1)

    def test_parse_forms(self):
        assert parse_rational("7/10") == Fraction(7, 10)
        assert parse_rational("0.7") == Fraction(7, 10)
        assert parse_rational("1") == 1
        assert parse_rational("0") == 0
        assert parse_rational("0.125") == Fraction(1, 8)

    def test_parse_rejects_garbage(self):
        for bad in ("", "-1/2", "1/0", "1.5", "2", "a/b", "0.7.1"):
            with pytest.raises(ValueError):
                parse_rational(bad)

    def test_json_round_trip(self):
        for q in rationals(9, 200):
            assert rational_from_json(rational_to_json(q)) == q

    def test_json_rejects_malformed(self):
        for bad in ({"num": 1}, {"num": 1, "den": 0}, {"num": "1", "den": 2},
                    {"num": 3, "den": 2}, [1, 2]):
            with pytest.raises(ValueError):
                rational_from_json(bad)


class TestDecimalExpansion:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (Fraction(9, 10), "0.9"),
            (Fraction(1, 3), "0.(3)"),
            (Fraction(7, 12), "0.58(3)"),
            (Fraction(1), "1"),
            (Fraction(0), "0"),
            (Fraction(1, 7), "0.(142857)"),
            (Fraction(1, 1000003), "0.00000099999700000899997300008099975700072899781300..."),
        ],
    )
    def test_known_expansions(self, value, expected):
        assert decimal_expansion(value) == expected

    def test_format_degree(self):
        assert format_degree(Fraction(9, 10)) == "9/10 = 0.9"
        assert format_degree(Fraction(1)) == "1"
