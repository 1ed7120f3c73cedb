import hashlib
import random
import re
import sys
from fractions import Fraction

import pytest

from rfal import (
    Algebra,
    FuzzySet,
    Implication,
    ParseError,
    Theory,
    is_model,
    parse_implication,
    parse_rational,
    parse_set,
    parse_theory,
    serialize_theory,
    truth_degree,
)
from rfal import logic
from rfal.logic import file_header_algebra

from conftest import fs, imp
from harness import random_theory

L, P, G = Algebra.LUKASIEWICZ, Algebra.PRODUCT, Algebra.GOEDEL


class TestTruthDegree:
    def test_lukasiewicz_example(self):
        f = imp({"p": "1"}, {"q": "1"})
        e = fs(p="1", q="1/2")
        assert truth_degree(L, f, e) == Fraction(1, 2)

    def test_reflexive_formula_is_always_true(self):
        a = fs(p="2/3", q="1/6")
        f = Implication(a, a)
        for alg in Algebra:
            for e in (FuzzySet(), fs(p="1/3"), fs(p="1", q="1", r="1")):
                assert truth_degree(alg, f, e) == 1

    def test_product_derived_example(self):
        # S(A,e) = 1/2 and S(B,e) = 1/2, so the implication holds fully
        f = imp({"p": "1/2"}, {"q": "4/5"})
        e = fs(p="1/4", q="2/5")
        assert truth_degree(P, f, e) == 1

    def test_monotone_in_both_sides_under_inclusion(self):
        # growing the antecedent never lowers the truth degree; growing the
        # consequent never raises it (both via residuum monotony through S)
        rng = random.Random(21)
        vars_ = ("p", "q", "r")

        def rand_set(fill):
            return FuzzySet(
                {v: Fraction(rng.randint(1, 8), 8) for v in vars_ if rng.random() < fill}
            )

        for _ in range(300):
            alg = rng.choice((L, P))
            small = rand_set(0.5)
            from rfal import union

            big = union(small, rand_set(0.5))
            other = rand_set(0.5)
            e = rand_set(0.9)
            assert truth_degree(alg, Implication(big, other), e) >= truth_degree(
                alg, Implication(small, other), e
            )
            assert truth_degree(alg, Implication(other, big), e) <= truth_degree(
                alg, Implication(other, small), e
            )


class TestIsModel:
    def test_examples(self):
        theory = Theory((imp({"p": "1"}, {"q": "1/2"}),), L)
        assert is_model(L, theory, fs(p="1", q="1/2"))
        assert not is_model(L, theory, fs(p="1"))

    def test_all_ones_evaluation_is_a_model(self):
        rng = random.Random(22)
        for _ in range(50):
            alg = rng.choice(list(Algebra))
            theory = random_theory(rng, alg, ("p", "q", "r"))
            top = FuzzySet({v: 1 for v in theory.variables()})
            assert is_model(alg, theory, top)


class TestParser:
    def test_basic_file(self):
        theory = parse_theory("algebra lukasiewicz\n{p:1} => {q:0.8}\n")
        assert theory.algebra is L
        assert theory.rules == (imp({"p": "1"}, {"q": "4/5"}),)

    def test_graded_rule_desugars(self):
        theory = parse_theory("algebra lukasiewicz\n({p:1} => {q:1}) @ 3/4\n")
        assert theory.rules == (imp({"p": "1"}, {"q": "3/4"}),)

    def test_graded_rule_respects_algebra(self):
        # 1/2 * 4/5 is 3/10 under lukasiewicz but 2/5 under product
        text = "algebra %s\n({p:1} => {q:4/5}) @ 1/2\n"
        lk = parse_theory(text % "lukasiewicz")
        pr = parse_theory(text % "product")
        assert lk.rules[0].consequent == fs(q="3/10")
        assert pr.rules[0].consequent == fs(q="2/5")

    def test_degree_out_of_range(self):
        with pytest.raises(ParseError, match="degree out of range"):
            parse_theory("algebra lukasiewicz\n{p:1.5} => {}\n")

    def test_duplicate_variable(self):
        with pytest.raises(ParseError, match="duplicate variable"):
            parse_theory("algebra lukasiewicz\n{p:1/2, p:1} => {}\n")

    @pytest.mark.parametrize("text", ["{p:0, p:1}", "{p:1, p:0}", "{p:0,\tp:0}"])
    def test_a_variable_named_at_degree_zero_is_still_named(self, text):
        # the zero entry is dropped from the set, but not from the names seen
        with pytest.raises(ParseError, match="duplicate variable 'p'") as err:
            parse_set(text)
        assert (err.value.line, err.value.column) == (1, text.rindex("p") + 1)

    def test_zero_then_nonzero_duplicate_in_a_theory(self):
        with pytest.raises(ParseError, match="duplicate variable 'q'") as err:
            parse_theory("algebra lukasiewicz\n{p:1} => {q:0, r:1/2, q:1}\n")
        assert (err.value.line, err.value.column) == (2, 23)

    def test_unknown_algebra(self):
        with pytest.raises(ParseError, match="unknown algebra"):
            parse_theory("algebra boolean\n")

    def test_missing_header(self):
        with pytest.raises(ParseError, match="algebra"):
            parse_theory("{p:1} => {q:1}\n")

    def test_lexical_error_reports_position(self):
        with pytest.raises(ParseError) as err:
            parse_theory("algebra lukasiewicz\n{p:} => {}\n")
        assert err.value.line == 2
        assert err.value.column is not None

    def test_comments_and_blank_lines(self):
        theory = parse_theory(
            "# a comment\n\nalgebra product  # trailing\n{p:1/2} => {q:4/5}  # rule\n\n"
        )
        assert theory.algebra is P
        assert len(theory.rules) == 1

    def test_zero_degree_entries_vanish(self):
        theory = parse_theory("algebra goedel\n{p:0, q:1} => {}\n")
        assert theory.rules[0].antecedent == fs(q="1")

    def test_trailing_junk_rejected(self):
        with pytest.raises(ParseError):
            parse_theory("algebra product\n{p:1} => {q:1} extra\n")

    def test_algebra_override_applies_before_desugaring(self):
        text = "algebra lukasiewicz\n({p:1} => {q:4/5}) @ 1/2\n"
        theory = parse_theory(text, algebra_override=P)
        assert theory.algebra is P
        assert theory.rules[0].consequent == fs(q="2/5")

    def test_file_header_algebra_peek(self):
        assert file_header_algebra("# x\nalgebra product\n") == "product"
        assert file_header_algebra("{p:1} => {}\n") is None


class TestSerializer:
    def test_product_theory(self):
        theory = Theory((imp({"p": "1/2"}, {"q": "4/5"}),), P)
        assert serialize_theory(theory) == "algebra product\n{p:1/2} => {q:4/5}\n"

    def test_empty_theory_is_header_only(self):
        assert serialize_theory(Theory((), L)) == "algebra lukasiewicz\n"

    def test_round_trip_is_canonical(self):
        text = "algebra lukasiewicz\n  {  q:0.8 , p : 1 }=>{r:2/4}\n"
        theory = parse_theory(text)
        canonical = serialize_theory(theory)
        assert canonical == "algebra lukasiewicz\n{p:1, q:4/5} => {r:1/2}\n"
        assert serialize_theory(parse_theory(canonical)) == canonical

    def test_round_trip_on_generated_corpus(self):
        rng = random.Random(23)
        for _ in range(120):
            alg = rng.choice(list(Algebra))
            theory = random_theory(rng, alg, ("p", "q", "r", "s"), max_rules=5)
            assert parse_theory(serialize_theory(theory)) == theory

    def test_round_trip_keeps_equality_with_unsorted_entries(self):
        # the parser keeps each side's entries in line order, the serializer
        # and `Theory(rules)` sort them: equality and hashing ignore the order
        text = "algebra lukasiewicz\n{q:0.8, p:1} => {s:0, r:2/4}\n{} => {t:1/3, p:1}\n"
        theory = parse_theory(text)
        assert [v for v, *_ in theory.table[0][0]] == ["q", "p"]
        built = Theory((imp({"p": "1", "q": "4/5"}, {"r": "1/2"}),
                        imp({}, {"p": "1", "t": "1/3"})), L)
        assert parse_theory(serialize_theory(theory)) == theory == built
        assert hash(theory) == hash(built)
        assert theory != parse_theory(text.replace("2/4", "3/4"))
        assert theory != parse_theory(text, P)
        assert repr(theory) == repr(built)
        models = {e: is_model(L, theory, e) for e in (
            fs(p="1", q="4/5", r="1/2", t="1/3"), fs(p="1", t="1/3"), fs(p="1"),
            fs(p="1", q="1", t="1/3"))}
        assert list(models.values()) == [True, True, False, False]
        assert all(is_model(L, built, e) == holds for e, holds in models.items())


class TestQueryParsing:
    def test_implication(self):
        f = parse_implication("{p:1} => {r:1}")
        assert f == imp({"p": "1"}, {"r": "1"})

    def test_empty_sides(self):
        assert parse_implication("{} => {}") == Implication(FuzzySet(), FuzzySet())

    def test_malformed_query(self):
        with pytest.raises(ParseError):
            parse_implication("{p:} =>")

    def test_graded_sugar_is_not_a_query(self):
        with pytest.raises(ParseError):
            parse_implication("({p:1} => {q:1}) @ 1/2")

    def test_set_literal(self):
        assert parse_set("{p:1/2, q:1}") == fs(p="1/2", q="1")
        with pytest.raises(ParseError):
            parse_set("{p:1} junk")


# One digit past the int-string conversion limit, where the interpreter has one.
LONG_DIGITS = max(getattr(sys, "get_int_max_str_digits", lambda: 0)(), 4300) + 1


@pytest.mark.parametrize(
    "literal",
    ["", "-1/2", "1/0", "1.5", "2", "0.7.1", "0.", ".5", "²", "١/٢", "7/10", "0.125",
     "0", "1", "02/4", pytest.param("0." + "3" * LONG_DIGITS, id="over-int-limit")],
)
def test_degree_literal_has_one_grammar(literal):
    # the standalone parser and the set scanner accept the same literals
    # with the same value, and the scanner's refusals carry a position
    try:
        expected = parse_rational(literal)
    except ValueError:
        with pytest.raises(ParseError) as err:
            parse_set("{p:%s}" % literal)
        assert err.value.column is not None
    else:
        assert parse_set("{p:%s}" % literal).degree("p") == expected


def test_parser_never_crashes_on_garbage():
    # random mutations of a valid file either parse or raise ParseError with
    # a position; nothing else may escape
    rng = random.Random(24)
    base = "algebra lukasiewicz\n{p:1} => {q:0.8}\n({q:3/5} => {r:9/10}) @ 1/2\n"
    alphabet = "{}(),:=>@/. abcdefgp0123456789\n#²é١"
    for _ in range(500):
        text = list(base)
        for _ in range(rng.randint(1, 4)):
            position = rng.randrange(len(text))
            if rng.random() < 0.5:
                text[position] = rng.choice(alphabet)
            else:
                text.insert(position, rng.choice(alphabet))
        mutated = "".join(text)
        try:
            theory = parse_theory(mutated)
        except ParseError as err:
            assert err.line is not None and err.column is not None
        else:
            # successful parses must serialize canonically and round-trip
            assert parse_theory(serialize_theory(theory)) == theory


# Outcomes of PINNED_MUTATIONS seeded mutations of PINNED_BODY, recorded at
# the commit before the single-regex set scanner: any change in what the
# parser accepts, how it reads it, or where and why it refuses shows here.
# Re-recorded once, when a variable named at degree 0 became a duplicate if
# named again: mutation 968's `{ p : 1/2 ,\tq:0, q:1.25 }` changed from
# "degree out of range" at 4:20 to "duplicate variable 'q'" at 4:18.
PINNED_HEADER = "algebra lukasiewicz\n"
PINNED_BODY = (
    "{p:1} => {q:0.8}\n"
    "({q:3/5} => {r:9/10}) @ 1/2\n"
    "{ p : 1/2 ,\tq:0.25 } => {r:1, s:0}\n"
    "({a:1}=>{b:1/3,c:0.75})@0.5 # note\n"
)
PINNED_MUTATIONS = 2000
PINNED_DIGEST = "026456ed61d589c4bd8dee6e18538fd750fa6c9b06af2ca7b810b835f97c5884"


def _outcome(text: str) -> str:
    try:
        theory = parse_theory(text)
    except ParseError as err:
        # the interpreter words its integer-size refusal differently across
        # versions; the position and the fact of refusal are what is pinned
        message = err.message
        if "integer string conversion" in message:
            message = "integer string conversion limit"
        return f"error {err.line}:{err.column}: {message}"
    return serialize_theory(theory)


def test_parser_outcomes_are_pinned():
    rng = random.Random(25)
    alphabet = "{}(),:=>@/. \tabpqr0123456789\n#²é١３"
    inserts = ("9" * 4400, "1" * 60, "/0", ":2", ", p:1/2", ", q:1", "0.", " @ 1/2", "\t")
    digest = hashlib.sha256()
    for _ in range(PINNED_MUTATIONS):
        text = list(PINNED_BODY)
        for _ in range(rng.randint(1, 4)):
            position = rng.randrange(len(text))
            roll = rng.random()
            if roll < 0.4:
                text[position] = rng.choice(alphabet)
            elif roll < 0.8:
                text.insert(position, rng.choice(alphabet))
            else:
                text.insert(position, rng.choice(inserts))
        digest.update(_outcome(PINNED_HEADER + "".join(text)).encode() + b"\0")
    assert digest.hexdigest() == PINNED_DIGEST


# Degree literals of the random texts: zero, decimal and Unicode-digit ones,
# and two (the last) that name no degree.
_LITERALS = ("1", "0", "0.5", "0.25", "1.0", "0.000", "1/2", "3/4", "2/8", "0/3", "5/10",
             "\u0661/\u0662", "\uff13/\uff14", "0.\u0667", "7/5", "1/0")


def _blank(rng: random.Random) -> str:
    return rng.choice(("", " ", "\t", " \t "))


def _random_set_literal(rng: random.Random) -> str:
    """A set literal spaced with blanks and tabs, now and then with a
    duplicate variable or a literal that names no degree."""
    names = rng.sample("pqrst", rng.randint(0, 3))
    if names and rng.random() < 0.05:
        names.append(names[0])
    weights = [10] * 14 + [1, 1]
    entries = [f"{_blank(rng)}{name}{_blank(rng)}:{_blank(rng)}"
               f"{rng.choices(_LITERALS, weights)[0]}" for name in names]
    return _blank(rng) + "{" + ",".join(entries) + _blank(rng) + "}"


def _random_theory_text(rng: random.Random) -> str:
    """A theory text mixing plain and graded rule lines, comments, tabs,
    blank lines, zero degrees, decimal and Unicode-digit literals, and now
    and then a duplicate variable or a literal that names no degree."""
    literals, blank, set_literal = _LITERALS, lambda: _blank(rng), lambda: _random_set_literal(rng)
    lines = [rng.choice(("", "# a comment", "\t")) for _ in range(rng.randint(0, 2))]
    lines.append(f"{blank()}algebra {rng.choice(('lukasiewicz', 'product', 'goedel'))}")
    for _ in range(rng.randint(0, 12)):
        roll = rng.random()
        if roll < 0.1:
            lines.append(rng.choice(("", "\t", "  # just a comment")))
            continue
        rule = f"{set_literal()}{blank()}=>{set_literal()}"
        if roll < 0.3:
            rule = f"({rule}){blank()}@{blank()}{rng.choice(literals[:13])}"
        lines.append(rule + blank() + rng.choice(("", "", "# note", "#{p:1} => {q:1}")))
    return "\n".join(lines) + rng.choice(("", "\n"))


def _parse_or_error(text: str):
    try:
        return parse_theory(text)
    except ParseError as err:
        return (err.message, err.line, err.column)


def test_rule_line_path_reads_what_the_scanner_reads(monkeypatch):
    # the same texts parsed with and without the one-regex rule-line path:
    # equal theories, equal tables up to entry order, equal denominators, or
    # the same error at the same position; and each plain rule line, read
    # as a query, gives its table row entry for entry
    rng = random.Random(13)
    texts = [_random_theory_text(rng) for _ in range(600)]
    rule_lines = sum(logic._RULE_LINE.fullmatch(line) is not None
                     for text in texts for line in text.splitlines())
    fast = [_parse_or_error(text) for text in texts]
    monkeypatch.setattr(logic, "_RULE_LINE", re.compile(r"(?!)"))
    scanned = [_parse_or_error(text) for text in texts]
    parsed = errors = queries = 0
    for text, a, b in zip(texts, fast, scanned):
        if isinstance(b, tuple):
            assert a == b, text
            errors += 1
            continue
        assert a == b, text
        assert [[sorted(side) for side in sides] for sides in a.table] == \
            [[sorted(side) for side in sides] for sides in b.table], text
        assert a.denominators == b.denominators, text
        lines = [line.partition("#")[0] for line in text.splitlines()]
        rule_texts = [line for line in lines if line.strip(" \t")][1:]  # after the header
        for line, (antecedent, consequent) in zip(rule_texts, a.table):
            if line.lstrip(" \t").startswith("("):
                continue  # a graded rule is no query
            query = parse_implication(line)
            assert logic._entries(query.antecedent) == tuple(sorted(antecedent)), line
            assert logic._entries(query.consequent) == tuple(sorted(consequent)), line
            queries += 1
        parsed += 1
    assert parsed > 200 and errors > 100 and rule_lines > 2000 and queries > 1000


def _implication_or_error(text: str):
    try:
        return parse_implication(text)
    except ParseError as err:
        return (err.message, err.line, err.column)


def test_formula_path_reads_what_the_scanner_reads(monkeypatch):
    # the same query texts parsed with and without the one-regex formula
    # path: equal implications with interned names, or the same error at the
    # same position.  A trailing `#` is no comment in a query, and a graded
    # rule is no query, so both are refused by the scanner either way
    rng = random.Random(17)
    tails = ("", "", "", " ", "\t", "#", "# note", " #{p:1}", " x", "=>{}")
    texts = []
    for _ in range(600):
        formula = f"{_random_set_literal(rng)}{_blank(rng)}=>{_random_set_literal(rng)}"
        if rng.random() < 0.05:
            formula = f"({formula}) @ 1/2"
        texts.append(formula + rng.choice(tails))
    matched = sum(logic._FORMULA.fullmatch(text) is not None for text in texts)
    fast = [_implication_or_error(text) for text in texts]
    monkeypatch.setattr(logic, "_FORMULA", re.compile(r"(?!)"))
    scanned = [_implication_or_error(text) for text in texts]
    parsed = 0
    for text, a, b in zip(texts, fast, scanned):
        assert a == b, text
        if isinstance(a, Implication):
            assert all(sys.intern(var) is var for side in (a.antecedent, a.consequent)
                       for var in side), text
            parsed += 1
    assert matched > 250 and parsed > 200 and len(texts) - parsed > 250
