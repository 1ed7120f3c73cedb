"""Independent semantic ground truth.

The grid oracle finds the minimum truth degree of a query over every model
of a theory on an equidistant rational subchain 0, 1/k, ..., 1.  For the
Lukasiewicz algebra with all input degrees on the grid this is exact: the
minimizing least model is itself grid-valued, so the oracle and the fixpoint
engine must agree to the bit.  It walks the grid depth first on integers
scaled by k, read from the theory's rule table, and rests on two rules:

- Interval rule: with the earlier variables fixed, the values of the next
  variable x that satisfy every rule whose last variable is x form one
  interval, whose ends have a closed form.  Each rule compares two minima of
  terms, and only x's own terms move with x, so the rule fails exactly on a
  prefix and a suffix of the grid.  The walk visits only that interval; every
  point it skips breaks a rule, so no model is missed.
- Endpoint rule: at the last variable every value of its interval gives a
  model, and the query's truth there is monotone in that value, so it is
  least at one of the two ends, the only values evaluated (the lower end
  alone when that variable is not in the query's antecedent).

So it visits far fewer than the (k+1)^n points while returning the same
minimum.  It shares no code with the engine.  The walk refuses the product
and goedel algebras.  Under them a degree d of A => B is checked from outside
the engine in two halves: a witness W, a model with A inside it and
S(B, W) = d, bounds it from above (`is_model` and `truth_degree`), and an
accepted certificate of A => d*B bounds it from below.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import Algebra
from .lsets import check_var
from .logic import Implication, Theory, _entries


class OffGridError(ValueError):
    """An input degree or variable does not fit the requested grid."""


class BudgetExceededError(RuntimeError):
    """The enumeration would exceed the configured evaluation budget."""


@dataclass(frozen=True)
class GridSpec:
    """Equidistant subchain 0, 1/k, ..., 1 over an explicit variable set."""

    denominator: int
    variables: tuple[str, ...]

    def __post_init__(self):
        if self.denominator < 1:
            raise ValueError("grid denominator must be positive")
        canon = tuple(sorted({check_var(v) for v in self.variables}))
        object.__setattr__(self, "variables", canon)


def semantic_degree_grid(
    theory: Theory,
    query: Implication,
    spec: GridSpec,
    *,
    budget: int = 100_000_000,
) -> Fraction:
    """Minimum truth degree of the query over all grid models of the theory.

    Exactness holds for the Lukasiewicz algebra with every input degree a
    multiple of 1/k.  `budget` bounds the nominal grid size (k+1)^n, not the
    number of points the walk visits.

    The walk runs on degrees scaled by k and reads the rule table's integers.
    For a set X under the evaluation e, s_X = min(k, min_x(t_x + e(x))), with
    the term t_x = k - k*X(x), is k times the subsethood S(X, e).  A rule
    A => B holds iff s_A <= s_B, and the query's truth is min(k, k - s_A + s_B).

    Variables are assigned depth first in `spec.variables` order.  Each rule
    belongs to the depth of the last variable x it mentions.  With the earlier
    variables fixed, let alpha and beta be the minima of k and the rule's
    other antecedent and consequent terms, and a and b the terms of x in the
    antecedent and the consequent (k where x does not occur).  At x = v the
    rule reads min(alpha, a + v) <= min(beta, b + v), which holds iff

        (alpha <= beta or v <= beta - a) and (a <= b or v >= alpha - b):

    the left side is at most beta iff alpha <= beta or a + v <= beta, and at
    most b + v iff alpha <= b + v or a <= b.  So the values of x that satisfy
    every rule of its depth form one interval [lo, hi], lo a max and hi a min
    over those rules.  The walk visits only that interval and backtracks when
    it is empty; every point it skips breaks some rule, so the minimum over
    the models stays the same.

    At the last depth every value in [lo, hi] gives a model.  There s_B - s_A
    is monotone in v: each side is v plus a constant up to its own bend and
    constant after it, so the difference has slope 0 except between the two
    bends, where its slope is +1 or -1 throughout.  The truth degree, a
    monotone function of that difference, is therefore least at lo or at hi,
    and only those two values are evaluated.  When x is not in the query's
    antecedent, s_A is fixed and s_B cannot fall as v grows, so lo alone is
    evaluated.  The walk stops early at degree 0.  It shares no code with the
    engine.
    """
    if theory.algebra is not Algebra.LUKASIEWICZ:
        raise OffGridError("the grid oracle is exact only for the lukasiewicz algebra")
    needed = set(theory.variables()) | query.variables()
    missing = needed - set(spec.variables)
    if missing:
        raise OffGridError(f"grid variables do not cover: {sorted(missing)}")
    k = spec.denominator
    query_sides = (_entries(query.antecedent), _entries(query.consequent))
    if any(k % d for d in theory.denominators.union(
            entry[3] for side in query_sides for entry in side)):
        degree = next(entry[1] for sides in (*theory.table, query_sides) for side in sides
                      for entry in side if k % entry[3])  # the first off the grid
        raise OffGridError(f"degree {degree} is not a multiple of 1/{k}")
    n = len(spec.variables)
    total = (k + 1) ** n
    if total > budget:
        raise BudgetExceededError(f"{total} grid evaluations exceed the budget of {budget}")
    if not n:
        return Fraction(1)  # no variables: every rule and the query hold

    position = {var: i for i, var in enumerate(spec.variables)}

    def terms(entries) -> list[tuple[int, int]]:
        """(position of x, k - k*X(x)) for each entry of a set."""
        return [(position[var], k - num * (k // den)) for var, _, num, den in entries]

    def split(ante, cons, x):
        """The terms (position, t) of the variables other than the x-th in the
        antecedent, x's term there, and the same for the consequent."""
        return ([term for term in ante if term[0] != x], next((t for i, t in ante if i == x), k),
                [term for term in cons if term[0] != x], next((t for i, t in cons if i == x), k))

    # checks[m]: the rules whose last variable is the m-th
    checks: list[list] = [[] for _ in range(n)]
    for sides in theory.table:
        ante, cons = map(terms, sides)
        if ante or cons:  # a rule without variables always holds
            x = max(i for i, _ in ante + cons)
            checks[x].append(split(ante, cons, x))
    last = n - 1
    q_ante, q_a, q_cons, q_b = split(*map(terms, query_sides), last)

    e = [0] * n
    top = [0] * n  # top[m]: the last value of the m-th variable's interval

    def low(side) -> int:
        s = k
        for i, t in side:
            if t + e[i] < s:
                s = t + e[i]
        return s

    best = k  # truth degree 1
    depth = 0  # e[depth] is the next variable to assign
    while True:
        lo, hi = 0, k
        for ante, a, cons, b in checks[depth]:
            alpha, beta = low(ante), low(cons)
            if alpha > beta and beta - a < hi:
                hi = beta - a
            if a > b and alpha - b > lo:
                lo = alpha - b
        if lo <= hi:
            if depth < last:  # descend into the interval's first value
                e[depth], top[depth] = lo, hi
                depth += 1
                continue
            # every v in [lo, hi] gives a model; the truth, here not yet
            # capped at k, is least at an end
            alpha, beta = low(q_ante), low(q_cons)
            truth = k - min(alpha, q_a + lo) + min(beta, q_b + lo)
            if hi > lo and q_a < k:  # else s_A is fixed and s_B only grows
                truth = min(truth, k - min(alpha, q_a + hi) + min(beta, q_b + hi))
            if truth < best:
                best = truth
                if best == 0:
                    break
        depth -= 1  # backtrack past exhausted intervals
        while depth >= 0 and e[depth] == top[depth]:
            depth -= 1
        if depth < 0:
            break
        e[depth] += 1
        depth += 1
    return Fraction(best, k)

