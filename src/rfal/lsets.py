"""Finite rational fuzzy sets over propositional variables.

Zero membership is represented by absence, so supports stay finite and
comparisons are canonical.  Every stored degree is a nonzero Fraction in the
unit interval, and all iteration runs in sorted variable order so results are
bit-deterministic.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

from .algebra import (
    Algebra,
    ONE,
    ZERO,
    as_unit_degree,
    brief,
    rational_from_json,
    rational_to_json,
    residuum,
    tnorm,
)

# The identifier rule: the only definition of its grammar.
_VAR_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def check_var(name) -> str:
    """Validate and intern a variable identifier."""
    if not isinstance(name, str) or _VAR_NAME.fullmatch(name) is None:
        raise ValueError(f"invalid variable name: {brief(name)}")
    return sys.intern(name)


class FuzzySet:
    """Immutable finite-support map from variable names to nonzero degrees."""

    __slots__ = ("_map", "_items", "_hash")

    def __init__(self, entries: Mapping[str, object] | Iterable[tuple[str, object]] = ()):
        pairs = entries.items() if isinstance(entries, Mapping) else entries
        cleaned: dict[str, Fraction] = {}
        zeros = False
        for name, raw in pairs:
            var = check_var(name)
            if var in cleaned:
                raise ValueError(f"duplicate variable: {var}")
            degree = cleaned[var] = as_unit_degree(raw)
            if not degree:
                zeros = True
        if zeros:  # a zero degree still names its variable once
            cleaned = {var: degree for var, degree in cleaned.items() if degree}
        self._finish(cleaned)

    def _finish(self, mapping: dict[str, Fraction]) -> None:
        self._map = mapping
        self._items = tuple(sorted(mapping.items()))
        self._hash = None

    @classmethod
    def _raw(cls, mapping: dict[str, Fraction]) -> "FuzzySet":
        # Trusted fast path: mapping must already be validated and zero-free.
        obj = object.__new__(cls)
        obj._finish(mapping)
        return obj

    def degree(self, var: str) -> Fraction:
        return self._map.get(var, ZERO)

    def items(self) -> tuple[tuple[str, Fraction], ...]:
        return self._items

    def support(self) -> tuple[str, ...]:
        return tuple(var for var, _ in self._items)

    def __contains__(self, var) -> bool:
        return var in self._map

    def __iter__(self) -> Iterator[str]:
        return iter(self.support())

    def __len__(self) -> int:
        return len(self._map)

    def __bool__(self) -> bool:
        return bool(self._map)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FuzzySet):
            return NotImplemented
        return self._map == other._map

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._items)
        return self._hash

    def __repr__(self) -> str:
        return f"FuzzySet({self.to_text()})"

    def __str__(self) -> str:
        return self.to_text()

    def to_text(self) -> str:
        if not self._items:
            return "{}"
        return "{" + ", ".join(f"{var}:{degree}" for var, degree in self._items) + "}"

    def to_json(self) -> dict:
        return {var: rational_to_json(degree) for var, degree in self._items}

    @classmethod
    def from_json(cls, obj) -> "FuzzySet":
        if not isinstance(obj, dict):
            raise ValueError(f"malformed fuzzy-set object: {brief(obj)}")
        # every degree, then every name, is validated once; zeros are dropped
        degrees = [rational_from_json(value) for value in obj.values()]
        names = [check_var(var) for var in obj]
        return cls._raw({var: q for var, q in zip(names, degrees) if q})


def union(*sets: FuzzySet) -> FuzzySet:
    """Pointwise join; the union of no sets is the empty set."""
    merged: dict[str, Fraction] = {}
    for s in sets:
        for var, degree in s.items():
            cur = merged.get(var)
            if cur is None or degree > cur:
                merged[var] = degree
    return FuzzySet._raw(merged)


def scalar_multiple(alg: Algebra, c: Fraction, a: FuzzySet) -> FuzzySet:
    """The c-multiple of a set: apply tnorm(c, .) pointwise, dropping zeros."""
    if c == 1:  # 1 is the unit of every t-norm
        return a
    out: dict[str, Fraction] = {}
    for var, degree in a.items():
        value = tnorm(alg, c, degree)
        if value != 0:
            out[var] = value
    return FuzzySet._raw(out)


def subsethood(alg: Algebra, a: FuzzySet, b: FuzzySet) -> Fraction:
    """Degree to which `a` is included in `b`.

    The infimum runs over the support of `a` only: elsewhere a(u) = 0 and
    residuum(0, .) = 1 contributes nothing, which keeps the infinite variable
    universe computable.
    """
    best = ONE
    for var, degree in a.items():
        r = residuum(alg, degree, b.degree(var))
        if r < best:
            best = r
            if best == 0:
                break
    return best


def is_contained(a: FuzzySet, b: FuzzySet) -> bool:
    """Bivalent containment: a(u) <= b(u) everywhere."""
    return all(degree <= b.degree(var) for var, degree in a.items())
