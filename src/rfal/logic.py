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

A theory is stored as its rule table: for each rule, the entries of its
antecedent and consequent as `(variable, degree, numerator, denominator)`,
zero degrees left out, together with the set of denominators they use.  The
engine, proofs, the oracle, `is_model` and serialization read the table as it
is; the `Implication` view of a rule, which a proof step states and the
public `Theory.rules` lists, is built on first access.

The parser has two readers.  `parse_theory` reads a plain rule line, `SET =>
SET` with an optional comment, in one step: one regex, built from the
set-literal grammar, matches the whole line, and one `findall` per set reads
its entries into the table, each distinct degree literal being decoded once
per parse.  `parse_implication` reads a query the same way, with the same
regex less its comment part.  The character scanner reads everything else:
the header, graded rules, any line or query with a duplicate variable or a
literal that names no degree, and every set literal (`parse_set`).  So every
error is reported by the scanner, with its position, and the scanner is the
reference both regexes are tested against.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
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


# One entry of a rule table: (variable, degree, numerator, denominator).
Entry = tuple[str, Fraction, int, int]


def _entries(fuzzy_set: FuzzySet) -> tuple[Entry, ...]:
    return tuple((var, q, q.numerator, q.denominator) for var, q in fuzzy_set.items())


def _view(entries) -> FuzzySet:
    return FuzzySet._raw({var: q for var, q, _, _ in entries})


class Theory:
    """Finite ordered list of rules plus the algebra they are read under.

    `table` holds each rule as (antecedent entries, consequent entries) and
    `denominators` the denominators of all of them.  `rule(i)` is rule i as
    an `Implication`, built from the table on first access, or the rule the
    theory was constructed from; `rules` lists them all.  Rule order is
    preserved for deterministic output; entailment does not depend on it.
    The entries of a side keep the order they were read in, so equality
    compares each side as a set of entries.
    """

    __slots__ = ("table", "denominators", "algebra", "_rules")

    def __init__(self, rules, algebra: Algebra):
        rules = tuple(rules)
        self.table = tuple((_entries(r.antecedent), _entries(r.consequent)) for r in rules)
        self.denominators = frozenset(entry[3] for sides in self.table for side in sides
                                      for entry in side)
        self.algebra, self._rules = algebra, dict(enumerate(rules))

    @classmethod
    def _from_table(cls, table, denominators, algebra: Algebra) -> "Theory":
        theory = object.__new__(cls)
        theory.table, theory.denominators = tuple(table), frozenset(denominators)
        theory.algebra, theory._rules = algebra, None
        return theory

    def rule(self, index: int) -> Implication:
        if self._rules is None:  # no view built yet
            self._rules = {}
        view = self._rules.get(index)
        if view is None:
            antecedent, consequent = self.table[index]
            view = self._rules[index] = Implication(_view(antecedent), _view(consequent))
        return view

    @property
    def rules(self) -> tuple[Implication, ...]:
        return tuple(self.rule(index) for index in range(len(self.table)))

    def variables(self) -> tuple[str, ...]:
        return tuple(sorted({entry[0] for sides in self.table for side in sides
                             for entry in side}))

    def __len__(self) -> int:
        return len(self.table)

    def _key(self) -> tuple:
        return tuple((frozenset(antecedent), frozenset(consequent))
                     for antecedent, consequent in self.table)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Theory):
            return NotImplemented
        return self.algebra is other.algebra and self._key() == other._key()

    def __hash__(self) -> int:
        return hash((self._key(), self.algebra))

    def __repr__(self) -> str:
        rules = tuple(_rule_text(rule) for rule in self.table)
        return f"Theory(rules={rules!r}, algebra={self.algebra!r})"


def truth_degree(alg: Algebra, formula: Implication, e: Evaluation) -> Fraction:
    """Degree to which the formula is true under the evaluation."""
    return residuum(
        alg,
        subsethood(alg, formula.antecedent, e),
        subsethood(alg, formula.consequent, e),
    )


def is_model(alg: Algebra, theory: Theory, e: Evaluation) -> bool:
    """True when every rule holds to degree 1 under the evaluation: the
    subsethood of its antecedent in `e` is at most that of its consequent."""
    def inclusion(side) -> Fraction:
        return min((residuum(alg, q, e.degree(var)) for var, q, _, _ in side), default=ONE)

    return all(inclusion(antecedent) <= inclusion(consequent)
               for antecedent, consequent in theory.table)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_ALGEBRA_NAMES = {alg.value: alg for alg in Algebra}


class _Scanner:
    """Single-line cursor with 1-based position reporting: the character
    scanner, which reads every line and query the rule-line and formula
    regexes do not (the header, graded rules, refused ones) and every set
    literal."""

    def __init__(self, text: str, line_no: int = 1):
        self.text = text
        self.line_no = line_no
        self.pos = 0

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


def _scan_set(sc: _Scanner) -> FuzzySet:
    """A set literal at the cursor."""
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
            # a zero entry is kept until the literal ends, so a variable
            # named at degree 0 and again later is still a duplicate
            return FuzzySet._raw({name: q for name, q in entries.items() if q})
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
    for line_no, raw in enumerate(text.splitlines(), start=1):
        sc = _Scanner(raw.partition("#")[0], line_no)
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


# A whole set literal, spaced with blanks and tabs only, and one of its
# entries, built from the one identifier and degree grammars.
_DEGREE = re.sub(r"\(\?P<\w+>", "(?:", _RATIONAL_TEXT.pattern)  # its groups made plain
_BARE_ENTRY = rf"{_VAR_NAME.pattern}[ \t]*:[ \t]*{_DEGREE}"
_SET_LITERAL = rf"[ \t]*\{{[ \t]*(?:{_BARE_ENTRY}(?:[ \t]*,[ \t]*{_BARE_ENTRY})*[ \t]*)?\}}"
_SET_ENTRY = re.compile(rf"({_VAR_NAME.pattern})[ \t]*:[ \t]*({_DEGREE})")


def _literal_degree(literal: str) -> Fraction | None:
    """The degree a literal names, with every zero as ZERO; None if it names none."""
    try:
        degree = rational_from_match(_RATIONAL_TEXT.fullmatch(literal))
    except ValueError:
        return None
    return degree if degree else ZERO


# A whole formula `SET => SET`, and a whole plain rule line: a formula with
# an optional comment.
_FORMULA = re.compile(rf"({_SET_LITERAL})[ \t]*=>({_SET_LITERAL})[ \t]*")
_RULE_LINE = re.compile(rf"{_FORMULA.pattern}(?:#.*)?")


def _rule_side(pairs, degrees: dict, denominators: set) -> tuple[Entry, ...] | None:
    """The table entries of one set literal the rule-line regex matched, from
    its `findall` pairs; None when the scanner must read the line.

    `degrees` maps each degree literal of the parse to its (degree,
    numerator, denominator), or to None when it names no degree; the
    denominator of a nonzero literal joins `denominators` when it is first
    read.
    """
    entries = []
    zeros = False
    for name, literal in pairs:
        degree = degrees.get(literal, degrees)  # the memo itself marks a new literal
        if degree is degrees:
            q = _literal_degree(literal)
            degree = degrees[literal] = None if q is None else (q, q.numerator, q.denominator)
            if q:
                denominators.add(q.denominator)
        if degree is None:
            return None
        entries.append((sys.intern(name), *degree))
        if degree[0] is ZERO:
            zeros = True
    if len(entries) > 1 and len({entry[0] for entry in entries}) < len(entries):
        return None  # a duplicate variable
    if zeros:
        return tuple(entry for entry in entries if entry[1] is not ZERO)
    return tuple(entries)


def parse_theory(text: str, algebra_override: Algebra | None = None) -> Theory:
    """Parse a theory file.

    `algebra_override`, when given, replaces the header algebra before any
    graded rule is desugared, so the override affects rule degrees too.
    """
    algebra: Algebra | None = None
    table: list = []
    denominators: set[int] = set()
    degrees: dict = {}  # the rule-line memo (see _rule_side)
    rule_line, set_entries = _RULE_LINE.fullmatch, _SET_ENTRY.findall
    for line_no, raw in enumerate(text.splitlines(), start=1):
        if algebra is not None:
            m = rule_line(raw)
            if m is not None:
                sides = (_rule_side(set_entries(raw, 0, m.end(1)), degrees, denominators),
                         _rule_side(set_entries(raw, m.start(2), m.end(2)), degrees, denominators))
                if None not in sides:
                    table.append(sides)
                    continue
        sc = _Scanner(raw.partition("#")[0], line_no)
        if sc.at_end():
            continue
        if algebra is None:
            declared = _scan_header(sc)
            algebra = algebra_override or declared
            continue
        rule = _scan_rule(sc, algebra)
        if not sc.at_end():
            raise sc.error("unexpected text after the rule")
        sides = (_entries(rule.antecedent), _entries(rule.consequent))
        denominators.update(entry[3] for side in sides for entry in side)
        table.append(sides)
    if algebra is None:
        raise ParseError("missing 'algebra' header line", 1, 1)
    return Theory._from_table(table, denominators, algebra)


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
    m = _FORMULA.fullmatch(text)
    if m is not None:
        degrees, denominators = {}, set()
        sides = [_rule_side(_SET_ENTRY.findall(text, m.start(i), m.end(i)), degrees,
                            denominators) for i in (1, 2)]
        if None not in sides:
            return Implication(_view(sides[0]), _view(sides[1]))
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


def _side_text(side) -> str:
    """A side's entries as a set literal, sorted by variable: `FuzzySet.to_text`."""
    return "{" + ", ".join([f"{var}:{n}" if d == 1 else f"{var}:{n}/{d}"
                            for var, _, n, d in sorted(side)]) + "}"


def _rule_text(rule) -> str:
    antecedent, consequent = rule
    return f"{_side_text(antecedent)} => {_side_text(consequent)}"


def serialize_theory(theory: Theory) -> str:
    """Canonical text form; parsing it back reproduces the theory exactly.

    Each rule is written from its table entries as its `Implication.to_text`
    would write it, so the text, and the hash certificates are checked
    against, stays the same."""
    lines = [f"algebra {theory.algebra.value}"]
    lines.extend(_rule_text(rule) for rule in theory.table)
    return "\n".join(lines) + "\n"
