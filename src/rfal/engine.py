"""Least-model fixpoint computation and provability degrees.

Each step fires the rules simultaneously against the same input evaluation
and joins the scaled consequents onto it, so the evaluations form an
inclusion-increasing chain.  Fixpoint detection is exact equality of
consecutive evaluations; there are no tolerances anywhere.

The loop is semi-naive.  A rule's firing degree changes only when a variable
of its antecedent changed, so after the first step, which fires every rule,
a step re-fires only the rules that watch a variable raised by the step
before; every other rule keeps its cached degree, and its scaled consequent
is already joined into the evaluation.  So the evaluations are exactly those
of firing every rule at every step, and so is the firing log once each rule's
degree is carried forward to the steps that did not re-fire it.

The loop reads the theory's rule table (see `rfal.logic`), never its
`Implication` views.  Under Lukasiewicz and Goedel every value the loop
computes is a multiple of 1/D, where D is the lcm of the denominators of the
rules and of the start evaluation: the residua 1 - a + b and b and the
t-norms max(0, c + d - 1) and min(c, d) never leave that grid.  The table
records its denominators when it is parsed or built, so finding D takes one
lcm over the distinct denominators, not a walk over every rule.  The loop
runs on integers scaled by D, where the residuum is D - a + b and the
Lukasiewicz t-norm max(0, c + d - D), and builds Fractions only at its
boundary: one per distinct value, and per step only for the variables that
step raised.

Product has no such grid: b / a and c * d multiply denominators.  Its loop
runs on (numerator, denominator) pairs of ints, each in lowest terms with a
positive denominator, so that equal values are equal pairs.  Comparisons
cross-multiply, and a product or quotient divides out the two cross gcds,
as `Fraction` does, so each gcd runs on factors rather than on their
products.  A firing degree of 1 leaves the consequent's pair as it is.
Pairs become Fractions only at the round boundary, as the scaled integers
do.  On the two 1000-variable, 5000-rule product theories of the query
benchmark's seed 1 (Python 3.11, 2 cores, best of 12) a `degree` closure
went from 47-70 ms on Fractions to 12-17 ms on pairs.

Past MAX_GRID_BITS the scaled integers cost more than the Fractions they
stand for, whose denominators stay far smaller than D.  On layered
1000-variable, 5000-rule Lukasiewicz theories whose degrees use the first N
primes as denominators, integers took 0.63-0.80 of the parent Fraction loop's
closure time at D of 3,900-7,500 bits, broke even at 8,700 bits (1.03) and
lost from 10,000 bits on (1.09, and 3.2 at 39,000 bits), while Fractions stay
near 1.0 throughout; so the bound sits at the break-even point.

Slow ascents are jumped.  Under Lukasiewicz and product the step count can
grow with 1/epsilon (`{} => {p:1/n}`, `{p:(n-1)/n} => {p:1}` takes n steps),
which is exponential in the size of the input.  While the firing pattern
holds, every step is the same map: it adds the same rise to the same
variables (Lukasiewicz) or multiplies them by the same ratio (product).  So
when two steps in a row raise the same variables by the same rise, the loop
looks for the longest run of steps from the current point s that follow the
line s + j*rise (under product s*rise^j) and takes it as one round.  An
ordinary step pays for the trigger with one comparison of its raised
variables with those of the step before, and computes its rise only when
they are the same; the rule loop itself does no extra work.

A probe fires the due rules once, at the point j steps along the line, with
the same function as an ordinary step.  It holds when that step raises the
same variables by the same rise, and every due firing degree lies on the line
through its degrees at j = 0 and j = 1.  Checking only j = 0, 1 and the last
step of a run is exact.  Along the line every firing degree is the minimum of
1 and of terms affine in j (log-affine under product), so it is concave in j,
and a concave function with three collinear values is affine between the
outer two.  With every firing degree affine, each raised value is the maximum
of its old value and of terms affine in j, so the rise is convex in j, and a
convex function that is equal at three points is constant between the outer
two.  The due rules stay the same along the run, since they watch the raised
variables, and every other rule keeps its firing degree.  So a probe at j
holds exactly when every step up to j follows the line, and if it holds at g
and fails at g + 1 the run is exactly g + 1 steps long: two probes prove an
end.  Goedel never jumps: its residuum is b until b reaches a and 1 from there
on, so its firing degrees are not concave, and its values never leave the
finitely many degrees of the theory and the start, so its runs are short
anyway.

The end is predicted, then proved.  A run of an ascent ends where a rising
antecedent variable x of a due rule reaches its degree a, since its term of
the firing degree leaves the minimum there (the point where the fixed strategy
switches, in the sense of Gawlitza and Seidl's strategy iteration, ESOP 2007).
That is the least j with x + j*rise >= a, ceil((a - x) / rise) by one integer
division per entry, under product the least j with x*rise^j >= a, found by
binary lifting over the squares rise^(2^i).  With j the least such point over
the due rules, probing j and then j + 1 (when j holds) or j - 1 (when it
fails) pins the end when the run ends there, as it does when it goes exactly
through a (run of j + 1 steps) or past it (j steps).  A run can end for
another reason first: a consequent overtakes a variable the line does not
raise, another antecedent term becomes the minimum, or a second rule takes
over a variable.  Then the two probes still bound the end, and doubling from
the last probe that held (from j = 1 when both failed) up to the first probe
that fails, then bisection, find it; doubling rather than bisecting down from
a failed prediction keeps the later probes within twice the run's length.
Either way the run is the same one, so rounds, traces and certificates do not
depend on the prediction.  On `{} => {p:1/n}`, `{p:(n-1)/n} => {p:1}` a
closure takes 7 sweeps (n = 100,000 under a cap of 10^6, 38 by doubling and
bisection), and on the product ascent `{} => {p:1/10^6}`,
`{p:199/200} => {p:1}` it takes 8 (29 before).

The cap counts logical steps, a jump of J steps counting J, and runs are
clipped so that they never pass it; so an existing cap keeps its meaning.
Counting rounds instead would also lift the bound on number sizes: under
product a jump of J steps computes rise^J, so a small input with a cap on
rounds could ask for integers of billions of bits.  With the cap on steps, the
prediction is clipped to the room left below the cap, and the lifting builds
no square rise^(2^i) with 2^i past that room, so no probe or square reaches
past the cap.  A jump whose end the prediction pins builds numbers no longer
than those of the steps it stands for, and doubling passes the end of a run by
at most a factor of two; only the lifting and the two probes of a missed
prediction reach further, and never past the cap.  Unclipped, a product ascent whose crossing
lies millions of steps past the cap would probe there, on numbers of hundreds
of millions of bits.

The loop keeps one evaluation, encoded, and decodes it once, when it stops.
The trace stores the start, that final evaluation and the rounds, and a round
stores only what its first step changed: the values it raised and the
degrees of the rules its sweep fired.  So a run's memory grows with what
changed, not with rules or variables times steps.  One walk replays the
rounds from the start and yields the values each step raised, from the line,
and the degrees of the rules it fired: a later step of a round re-fires that
round's rules, by subsethood on the evaluation before that step.  Proof
synthesis reads the walk; the dense per-step views are built from it on
first access.

Only variables occurring in the theory or the start evaluation can ever gain
a degree, and zero membership is represented by absence, so no explicit
variable universe needs to be materialized.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, NamedTuple

from .algebra import ONE, ZERO, Algebra, rational_to_json, residuum
from .lsets import FuzzySet, subsethood
from .logic import Evaluation, Implication, Theory


class UndecidedError(RuntimeError):
    """Raised when a decision is requested but the iteration cap was hit."""


@dataclass(frozen=True)
class EngineLimits:
    """Safety cap on fixpoint iteration.

    Termination is guaranteed for finite theories under the Lukasiewicz and
    product algebras, but with no constructive bound, so the cap keeps the
    program total on adversarial inputs.
    """

    max_iterations: int = 10_000

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")


DEFAULT_LIMITS = EngineLimits()

# Largest grid denominator D, in bits, that the loop scales to integers (see
# the module docstring for the sweep that sets it).
MAX_GRID_BITS = 8192

FiringLog = tuple[tuple[int, Fraction], ...]


class Round(NamedTuple):
    """`count` consecutive steps along one line.

    The first step raises each variable of `raised` to its value there, and
    `firings` holds the degrees of the rules it fired, in rule order: every
    rule in the first round, after that the rules watching a variable the
    step before raised.  Every other variable and rule kept its value.  Each
    later step re-fires the same rules and raises every variable in `rise`
    once more: it adds the rise (Lukasiewicz) or multiplies by it (product).
    """

    raised: dict[str, Fraction]
    firings: FiringLog
    count: int = 1
    rise: dict[str, Fraction] | None = None


class ClosureTrace:
    """Record of one least-model run of `theory` under `alg` from `start`,
    stored as rounds of steps, each holding only the values its first step
    raised; `final` is the evaluation after the last step.

    `walk` replays the rounds from `start` and yields the values each step
    raised with the degrees of the rules it fired.  `steps` holds the
    evaluations after each productive application and `firing_log` the
    degree of every rule at each of them; both are dense per-step views,
    built from the walk on first access, with each degree carried forward
    until its rule fires again.  The stationary application that detects the fixpoint is not
    recorded.  When `reached_fixpoint` is false, the final evaluation is only
    a sound lower approximation of the least model.
    """

    def __init__(self, alg: Algebra, theory: Theory, start: Evaluation, rounds,
                 final: Evaluation, reached_fixpoint: bool):
        self.start, self.rounds, self.final = start, tuple(rounds), final
        self.reached_fixpoint = reached_fixpoint
        self.iterations = sum(r.count for r in self.rounds)
        self._alg, self._theory = alg, theory

    @property
    def penultimate(self) -> Evaluation:
        """The evaluation before the last step (`start` when there is none)."""
        if not self.rounds:
            return self.start
        *before, last = self.rounds
        if last.count > 1:
            values = dict(self.final.items())
            self._move(values, last.rise, -1)
            return FuzzySet._raw(values)
        values = dict(self.start.items())
        for r in before:
            values.update(r.raised)
            if r.count > 1:
                self._move(values, r.rise, r.count - 1)
        return FuzzySet._raw(values)

    def _move(self, values: dict, rise: dict, times: int) -> None:
        """Move `values` in place `times` steps along the line of `rise`."""
        product = self._alg is Algebra.PRODUCT
        for var, r in rise.items():
            values[var] = values[var] * r ** times if product else values[var] + times * r

    def walk(self) -> Iterator[tuple[dict[str, Fraction], FiringLog]]:
        """The values each step raised and the degrees of the rules it fired.

        A round's first step raised its `raised`; each later step moves the
        `rise` variables one step along the line and re-fires the round's
        rules against the evaluation the step before it gave.  The yielded
        dicts are the trace's own or fresh ones; callers must not change them.
        """
        values = dict(self.start.items())

        def degree(index):  # subsethood of the rule's antecedent in `values`
            return min((residuum(self._alg, q, values.get(var, ZERO))
                        for var, q in self._theory.rule(index).antecedent.items()), default=ONE)

        for r in self.rounds:
            values.update(r.raised)
            yield r.raised, r.firings
            for _ in range(r.count - 1):
                fired = tuple((index, degree(index)) for index, _ in r.firings)
                self._move(values, r.rise, 1)
                yield {var: values[var] for var in r.rise}, fired

    @functools.cached_property
    def steps(self) -> tuple[Evaluation, ...]:
        values, steps = dict(self.start.items()), []
        for raised, _ in self.walk():
            values.update(raised)
            steps.append(FuzzySet._raw(dict(values)))
        return tuple(steps)

    @functools.cached_property
    def firing_log(self) -> tuple[FiringLog, ...]:
        log, degrees = [], [None] * len(self._theory)  # the first step fires every rule
        for _, fired in self.walk():
            for index, c in fired:
                degrees[index] = c
            log.append(tuple(enumerate(degrees)))
        return tuple(log)

    def to_json(self) -> dict:
        return {
            "start": self.start.to_json(),
            "steps": [
                {
                    "evaluation": step.to_json(),
                    "firings": [
                        {"rule": index, "degree": rational_to_json(c)} for index, c in firings
                    ],
                }
                for step, firings in zip(self.steps, self.firing_log)
            ],
            "reached_fixpoint": self.reached_fixpoint,
            "iterations": self.iterations,
        }


def grid_denominator(alg: Algebra, theory: Theory, e: Evaluation) -> int | None:
    """The D whose multiples 1/D carry the closure as integers, or None.

    D is the lcm of the denominators the theory records and of those of
    `e`.  None under product, and when D grows past MAX_GRID_BITS; the loop
    then runs on (numerator, denominator) pairs or on Fractions.
    """
    if alg is Algebra.PRODUCT:
        return None
    grid = 1
    for den in theory.denominators.union(degree.denominator for _, degree in e.items()):
        grid = lcm(grid, den)
        if grid.bit_length() > MAX_GRID_BITS:
            return None
    return grid


def _fire(due, values, out, table, unit, zero, luk):
    """Fire the `due` rules against `values` under Lukasiewicz or Goedel, on
    integers scaled by the grid or on Fractions; each one's degree goes into
    its slot of `out`, and the variables they raise come back with new
    values.  `table` holds each rule's (variable, degree) pairs."""
    raised: dict = {}
    for index in due:
        antecedent, consequent = table[index]
        c = unit
        for var, a in antecedent:  # subsethood of the antecedent in `values`
            b = values.get(var, zero)
            if a > b:
                r = unit - a + b if luk else b
                if r < c:
                    c = r
                    if not c:
                        break
        out[index] = c
        if not c:
            continue
        for var, d in consequent:  # tnorm of the firing degree and d
            if luk:
                v = c + d - unit
                if v <= 0:
                    continue
            else:
                v = c if c < d else d
            old = raised.get(var)
            if v > (values.get(var, zero) if old is None else old):
                raised[var] = v
    return raised


def _fire_pairs(due, values, out, table):
    """`_fire` under product, on normalised (numerator, denominator) pairs
    compared by cross-multiplication; `table` is the theory's rule table."""
    raised: dict = {}
    for index in due:
        antecedent, consequent = table[index]
        cn = cd = 1
        for var, _, an, ad in antecedent:  # subsethood of the antecedent in `values`
            b = values.get(var)
            if b is None:
                cn = 0
                break
            bn, bd = b
            x, y = bn * ad, an * bd  # b/a = x/y
            if x < y and x * cd < cn * y:  # b < a, and b/a < c
                g, h = gcd(bn, an), gcd(ad, bd)
                cn, cd = (bn // g) * (ad // h), (bd // h) * (an // g)
        out[index] = (cn, cd) if cn else (0, 1)
        if not cn:
            continue
        for var, _, dn, dd in consequent:  # the product of the firing degree and d
            if cd == 1:  # the firing degree is 1, the unit
                vn, vd = dn, dd
            else:
                g, h = gcd(cn, dd), gcd(dn, cd)
                vn, vd = (cn // g) * (dn // h), (cd // h) * (dd // g)
            old = raised.get(var) or values.get(var)
            if old is None or vn * old[1] > old[0] * vd:
                raised[var] = (vn, vd)
    return raised


def _times(x, y):
    """The product of two normalised (numerator, denominator) pairs."""
    (a, b), (c, d) = x, y
    g, h = gcd(a, d), gcd(c, b)
    return (a // g) * (c // h), (b // h) * (d // g)


def _pair_advance(x, r, j):
    """x·r^j on pairs: x moved j steps along a product line."""
    return _times(x, (r[0] ** j, r[1] ** j))


def _pair_ratio(y, x):
    """y / x on pairs; 0 when x is 0."""
    return _times(y, (x[1], x[0])) if x[0] else x


def _pair_crossing(x, r, entry, limit):
    """The least j with x·r^j >= a on pairs, r > 1, for the antecedent `entry`
    of degree a; `limit` when that j is larger.  Binary lifting over the
    squares r^(2^i), none of them with 2^i > limit."""
    _, _, an, ad = entry
    lhs, rhs = x[0] * ad, an * x[1]  # x·r^j >= a iff lhs·rn^j >= rhs·rd^j
    squares = [r]
    while 2 ** len(squares) <= limit and lhs * squares[-1][0] < rhs * squares[-1][1]:
        squares.append((squares[-1][0] ** 2, squares[-1][1] ** 2))
    below = 0  # the largest j found so far with x·r^j < a
    for i in reversed(range(len(squares))):
        (rn, rd), step = squares[i], 1 << i
        if below + step < limit and (left := lhs * rn) < (right := rhs * rd):
            lhs, rhs, below = left, right, below + step
    return below + 1 if lhs < rhs else 0


def _advance(x, r, j):
    """x + j·r: x moved j steps along a Lukasiewicz line."""
    return x + j * r


def _crossing(x, r, entry, limit):
    """The least j with x + j·r >= a, for the antecedent `entry` of degree a;
    `limit` when that j is larger."""
    return min(-((x - entry[1]) // r), limit)


def _difference(y, x):
    """y - x: the rise from x to y on a Lukasiewicz line."""
    return y - x


def least_model(
    alg: Algebra,
    theory: Theory,
    e: Evaluation,
    limits: EngineLimits = DEFAULT_LIMITS,
) -> ClosureTrace:
    """Iterate closure steps from `e` until stationary or the cap is hit.

    For finite theories under Lukasiewicz or product the fixpoint is always
    reached, and it is the least model of the theory containing `e`.  The cap
    counts logical steps, a jump of J steps counting J, and rounds never run
    past it.  After the cap-th step one more sweep decides whether it was the
    last.  The loop keeps only the encoded evaluation; a round decodes the
    values its first step raised, and the final evaluation is decoded once.
    """
    cap = limits.max_iterations
    table = theory.table
    if alg is Algebra.PRODUCT:
        rules = table
        fire = functools.partial(_fire_pairs, table=rules)
        advance, ratio, crossing = _pair_advance, _pair_ratio, _pair_crossing
        decode = functools.lru_cache(None)(lambda pair: Fraction(*pair))
        values = {var: (q.numerator, q.denominator) for var, q in e.items()}
    else:
        grid = grid_denominator(alg, theory, e)
        if grid is None:
            unit, zero = ONE, ZERO
            decode = lambda value: value
            rules = [([(v, q) for v, q, _, _ in a], [(v, q) for v, q, _, _ in c])
                     for a, c in table]
            values = dict(e.items())
        else:
            unit, zero = grid, 0
            decode = functools.lru_cache(None)(lambda value: Fraction(value, grid))
            multiplier = {den: grid // den for den in theory.denominators}
            rules = [([(v, n * multiplier[d]) for v, _, n, d in a],
                      [(v, n * multiplier[d]) for v, _, n, d in c]) for a, c in table]
            values = {var: q.numerator * (grid // q.denominator) for var, q in e.items()}
        fire = functools.partial(_fire, table=rules, unit=unit, zero=zero,
                                 luk=alg is Algebra.LUKASIEWICZ)
        advance, ratio, crossing = _advance, _difference, _crossing
    watchers: dict[str, list[int]] = {}
    for index, (antecedent, _) in enumerate(table):
        for entry in antecedent:
            watchers.setdefault(entry[0], []).append(index)
    firings: list = [None] * len(table)  # every slot is set by the first sweep

    def along(start, rise, j):
        """`start` moved j steps along the line of `rise`."""
        point = dict(start)
        for var, r in rise.items():
            point[var] = advance(start[var], r, j)
        return point

    def run_length(due, start, rise, room):
        """How many steps from `start`, at most `room` (2 or more), follow the
        line of `rise`.  The step from `start` is known to follow it, and
        `firings` holds its degrees."""
        degrees0 = [firings[index] for index in due]
        trial = [None] * len(table)

        def probe(j):
            """Whether the step from start + j·rise raises by `rise`, and the
            degrees of the due rules in it."""
            point = along(start, rise, j)
            raised = fire(due, point, trial)
            steady = raised.keys() == rise.keys() and all(
                advance(point[var], r, 1) == raised[var] for var, r in rise.items())
            return steady, [trial[index] for index in due]

        steady, degrees1 = probe(1)
        if not steady:
            return 1
        # each degree on the line through its values in the first two steps:
        # c0 + j·slope, or under product c0·slope^j
        slopes = [ratio(c1, c0) for c0, c1 in zip(degrees0, degrees1)]

        def follows(j):  # the steps from start + i·rise follow the line for every i <= j
            steady, degrees = probe(j)
            return steady and all(c == advance(c0, slope, j)
                                  for c0, slope, c in zip(degrees0, slopes, degrees))

        # the steps follow for every j <= good and not for j = bad.  The run
        # most likely ends at the first point j where a rising antecedent
        # variable of a due rule reaches its degree, so that the last step to
        # follow is j or j - 1: probe j, then its neighbour.  When neither
        # pins the end, double until a probe fails, then bisect
        good, bad = 1, room
        end = room - 1
        for index in due:
            for entry in rules[index][0]:
                r = rise.get(entry[0])
                if r is not None:
                    j = crossing(start[entry[0]], r, entry, end)
                    if j > 0:
                        end = j
        for j in (end, end + 1, end - 1):
            if good < j < bad:
                if follows(j):
                    good = j
                else:
                    bad = j
        doubling = True
        while good < bad - 1:
            j = min(2 * good, bad - 1) if doubling else (good + bad) // 2
            if follows(j):
                good = j
            else:
                bad, doubling = j, False
        return good + 1

    rounds: list[Round] = []
    due: Iterable[int] = range(len(table))
    jumps = alg is not Algebra.GOEDEL
    taken = 0
    previous: dict = {}  # the variables the step before raised
    line = None  # their rise, when that step raised the same ones as the step before it
    while True:
        raised = fire(due, values, firings)
        if not raised or taken >= cap:
            final = FuzzySet._raw({var: decode(v) for var, v in values.items()})
            return ClosureTrace(alg, theory, e, rounds, final, not raised)
        log = tuple([(index, decode(firings[index])) for index in sorted(due)])
        rise = None
        if jumps and raised.keys() == previous.keys():
            rise = {var: ratio(v, values[var]) for var, v in raised.items()}
        count = 1
        if rise is not None and rise == line and cap - taken > 1:
            count = run_length(due, values, rise, cap - taken)
        rounds.append(Round({var: decode(v) for var, v in raised.items()}, log, count,
                            {var: decode(r) for var, r in rise.items()} if count > 1 else None))
        if count > 1:
            values = along(values, rise, count)
        else:
            values.update(raised)
        taken += count
        previous, line = raised, rise
        due = {index for var in raised for index in watchers.get(var, ())}


def provability_degree(
    alg: Algebra,
    theory: Theory,
    query: Implication,
    limits: EngineLimits = DEFAULT_LIMITS,
) -> tuple[Fraction, ClosureTrace]:
    """Degree to which the query is provable from the theory.

    Computed as the inclusion degree of the consequent in the least model of
    the antecedent.  If the trace did not reach a fixpoint the returned value
    is only a lower bound (flagged by `trace.reached_fixpoint`).
    """
    trace = least_model(alg, theory, query.antecedent, limits)
    return subsethood(alg, query.consequent, trace.final), trace

