"""Formulas, theories, exact truth semantics, and the theory file format.

A formula is an implication between two finite rational fuzzy sets of
propositional variables.  Theory files are line oriented:

    # comment
    algebra lukasiewicz
    {p:1} => {q:0.8}
    ({q:3/5} => {r:9/10}) @ 1/2

The graded form `(A => B) @ d` is sugar for the plain rule whose consequent is
the d-multiple of B under the theory's algebra; a single such rule subsumes
the whole family of weaker graded variants.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import _RATIONAL_TEXT, Algebra, ONE, ZERO, brief, rational_from_match, residuum
from .lsets import _VAR_NAME, FuzzySet, scalar_multiple, subsethood

Evaluation = FuzzySet


class ParseError(ValueError):
    """Syntax or range error in theory/formula text, with source position."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.message = message
        self.line = line
        self.column = column
        where = f"line {line}, column {column}: " if line is not None else ""
        super().__init__(where + message)


@dataclass(frozen=True)
class Implication:
    """The abbreviated if-then formula `antecedent => consequent`."""

    antecedent: FuzzySet
    consequent: FuzzySet

    def variables(self) -> set[str]:
        return set(self.antecedent.support()) | set(self.consequent.support())

    def to_text(self) -> str:
        return f"{self.antecedent.to_text()} => {self.consequent.to_text()}"

    def to_json(self) -> dict:
        return {"ante": self.antecedent.to_json(), "cons": self.consequent.to_json()}

    @classmethod
    def from_json(cls, obj) -> "Implication":
        if not isinstance(obj, dict) or "ante" not in obj or "cons" not in obj:
            raise ValueError(f"malformed implication object: {brief(obj)}")
        return cls(FuzzySet.from_json(obj["ante"]), FuzzySet.from_json(obj["cons"]))

    def __str__(self) -> str:
        return self.to_text()


@dataclass(frozen=True)
class Theory:
    """Finite ordered list of rules plus the algebra they are read under.

    Rule order is preserved for deterministic output; entailment does not
    depend on it.
    """

    rules: tuple[Implication, ...]
    algebra: Algebra
    name: str | None = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "rules", tuple(self.rules))

    def variables(self) -> tuple[str, ...]:
        seen: set[str] = set()
        for rule in self.rules:
            seen |= rule.variables()
        return tuple(sorted(seen))

    def __len__(self) -> int:
        return len(self.rules)


def truth_degree(alg: Algebra, formula: Implication, e: Evaluation) -> Fraction:
    """Degree to which the formula is true under the evaluation."""
    return residuum(
        alg,
        subsethood(alg, formula.antecedent, e),
        subsethood(alg, formula.consequent, e),
    )


def is_model(alg: Algebra, theory: Theory, e: Evaluation) -> bool:
    """True when every rule holds to degree 1 under the evaluation."""
    return all(truth_degree(alg, rule, e) == ONE for rule in theory.rules)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_ALGEBRA_NAMES = {alg.value: alg for alg in Algebra}


class _Scanner:
    """Single-line cursor with 1-based position reporting."""

    def __init__(self, text: str, line_no: int = 1, literals: dict | None = None):
        self.text = text
        self.line_no = line_no
        self.pos = 0
        # degree literal text -> the degree it names (see _literal_degree),
        # shared by the scanners of one parse call
        self.literals = {} if literals is None else literals

    def error(self, message: str, pos: int | None = None) -> ParseError:
        column = (self.pos if pos is None else pos) + 1
        return ParseError(message, self.line_no, column)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def match(self, literal: str) -> bool:
        self.skip_ws()
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def expect(self, literal: str) -> None:
        if not self.match(literal):
            raise self.error(f"expected {literal!r}")

    def scan_name(self) -> str:
        self.skip_ws()
        m = _VAR_NAME.match(self.text, self.pos)
        if m is None:
            raise self.error("expected an identifier")
        self.pos = m.end()
        return sys.intern(m[0])

    def scan_degree(self) -> Fraction:
        self.skip_ws()
        m = _RATIONAL_TEXT.match(self.text, self.pos)
        if m is None:
            raise self.error("expected a degree")
        try:
            value = rational_from_match(m)
        except ValueError as exc:
            raise self.error(str(exc)) from None
        self.pos = m.end()
        return value


# A whole set literal, spaced with blanks and tabs only, and one of its
# entries, built from the one identifier and degree grammars.
_DEGREE = re.sub(r"\(\?P<\w+>", "(?:", _RATIONAL_TEXT.pattern)  # its groups made plain
_BARE_ENTRY = rf"{_VAR_NAME.pattern}[ \t]*:[ \t]*{_DEGREE}"
_SET_LITERAL = re.compile(
    rf"[ \t]*\{{[ \t]*(?:{_BARE_ENTRY}(?:[ \t]*,[ \t]*{_BARE_ENTRY})*[ \t]*)?\}}"
)
_SET_ENTRY = re.compile(rf"({_VAR_NAME.pattern})[ \t]*:[ \t]*({_DEGREE})")


def _scan_set(sc: _Scanner) -> FuzzySet:
    """A set literal at the cursor.

    The common case is matched whole by one regex and its entries read with
    one `findall`.  Anything that regex rejects, a duplicate variable, or a
    degree literal that names no degree goes to the character scanner, which
    reports the error with its position.
    """
    m = _SET_LITERAL.match(sc.text, sc.pos)
    if m is None:
        return _scan_set_by_character(sc)
    literals = sc.literals
    entries: dict[str, Fraction] = {}
    zeros = False
    for name, literal in _SET_ENTRY.findall(m[0]):
        if name in entries:
            return _scan_set_by_character(sc)
        degree = literals.get(literal)
        if degree is None:
            degree = literals[literal] = _literal_degree(literal)
            if degree is None:
                return _scan_set_by_character(sc)
        entries[sys.intern(name)] = degree
        if degree is ZERO:
            zeros = True
    sc.pos = m.end()
    return FuzzySet._raw(_drop_zeros(entries) if zeros else entries)


def _drop_zeros(entries: dict[str, Fraction]) -> dict[str, Fraction]:
    """A set literal's entries without its zero degrees.

    The scanners keep a zero entry until the literal ends, so a variable
    named at degree 0 and again later is still a duplicate.
    """
    return {name: degree for name, degree in entries.items() if degree}


def _literal_degree(literal: str) -> Fraction | None:
    """The degree a literal names, with every zero as ZERO; None if it names none."""
    try:
        degree = rational_from_match(_RATIONAL_TEXT.fullmatch(literal))
    except ValueError:
        return None
    return degree if degree else ZERO


def _scan_set_by_character(sc: _Scanner) -> FuzzySet:
    sc.expect("{")
    entries: dict[str, Fraction] = {}
    if sc.match("}"):
        return FuzzySet._raw(entries)
    while True:
        sc.skip_ws()
        name_pos = sc.pos
        name = sc.scan_name()
        if name in entries:
            raise sc.error(f"duplicate variable {name!r} in set literal", name_pos)
        sc.expect(":")
        entries[name] = sc.scan_degree()
        if sc.match("}"):
            return FuzzySet._raw(_drop_zeros(entries))
        sc.expect(",")


def _scan_implication(sc: _Scanner) -> Implication:
    antecedent = _scan_set(sc)
    sc.expect("=>")
    consequent = _scan_set(sc)
    return Implication(antecedent, consequent)


def _scan_rule(sc: _Scanner, algebra: Algebra) -> Implication:
    if sc.peek() == "(":
        sc.expect("(")
        plain = _scan_implication(sc)
        sc.expect(")")
        sc.expect("@")
        degree = sc.scan_degree()
        return Implication(plain.antecedent, scalar_multiple(algebra, degree, plain.consequent))
    return _scan_implication(sc)


def _lines(text: str):
    """A scanner for every line that is not blank after its `#` comment."""
    literals: dict = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        sc = _Scanner(raw.partition("#")[0], line_no, literals)
        if not sc.at_end():
            yield sc


def _scan_header(sc: _Scanner) -> Algebra:
    """The algebra named by an `algebra NAME` header line."""
    keyword_pos = sc.pos
    m = _VAR_NAME.match(sc.text, sc.pos)
    if m is None or m[0] != "algebra":
        raise sc.error("expected the 'algebra' header line", keyword_pos)
    sc.pos = m.end()
    name_pos = sc.pos
    name = sc.scan_name()
    if name not in _ALGEBRA_NAMES:
        raise sc.error(f"unknown algebra name {name!r}", name_pos)
    if not sc.at_end():
        raise sc.error("unexpected text after the algebra header")
    return _ALGEBRA_NAMES[name]


def parse_theory(text: str, algebra_override: Algebra | None = None) -> Theory:
    """Parse a theory file.

    `algebra_override`, when given, replaces the header algebra before any
    graded rule is desugared, so the override affects rule degrees too.
    """
    algebra: Algebra | None = None
    rules: list[Implication] = []
    for sc in _lines(text):
        if algebra is None:
            declared = _scan_header(sc)
            algebra = algebra_override or declared
            continue
        rules.append(_scan_rule(sc, algebra))
        if not sc.at_end():
            raise sc.error("unexpected text after the rule")
    if algebra is None:
        raise ParseError("missing 'algebra' header line", 1, 1)
    return Theory(tuple(rules), algebra)


def file_header_algebra(text: str) -> str | None:
    """Name declared on the header line, or None; used for override warnings."""
    for sc in _lines(text):
        try:
            return _scan_header(sc).value
        except ParseError:
            break
    return None


def parse_implication(text: str) -> Implication:
    """Parse a single `SET => SET` formula (no graded sugar)."""
    sc = _Scanner(text)
    formula = _scan_implication(sc)
    if not sc.at_end():
        raise sc.error("unexpected text after the formula")
    return formula


def parse_set(text: str) -> FuzzySet:
    """Parse a single set literal like `{p:1/2, q:1}`."""
    sc = _Scanner(text)
    result = _scan_set(sc)
    if not sc.at_end():
        raise sc.error("unexpected text after the set")
    return result


def serialize_theory(theory: Theory) -> str:
    """Canonical text form; parsing it back reproduces the theory exactly."""
    lines = [f"algebra {theory.algebra.value}"]
    lines.extend(rule.to_text() for rule in theory.rules)
    return "\n".join(lines) + "\n"
