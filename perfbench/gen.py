"""Seeded instance generators and the references each answer is checked against.

Everything here is stdlib only and independent of `rfal`: the benchmark
holds its own copy of the rules it generated, its own exact least-model
iteration and the closed forms of the slow ascents, so an answer is never
checked against the code path that produced it.

Theories are built forward from the query antecedent: variables sit in
layers, layer 0 is the antecedent and every rule reads from earlier layers
and writes to its own.  Every antecedent variable is therefore reachable.
Uniform random draws are degenerate instead (product closures of 0
iterations because residuum(a, 0) = 0, lukasiewicz closures saturated at 1).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

ONE = Fraction(1)
ZERO = Fraction(0)
LUK = "lukasiewicz"
PROD = "product"

# Degrees in [1/2, 1] with small denominators.  Antecedent degrees reach 1 so
# firings are often partial; consequent degrees stay below 1 so closures do
# not saturate.
ANTE_DEGREES = sorted({Fraction(n, d) for d in (2, 4, 5, 8, 10) for n in range(d // 2, d + 1)})
CONS_DEGREES = [d for d in ANTE_DEGREES if d < 1]

# The engine's default iteration cap (`EngineLimits.max_iterations`).
DEFAULT_CAP = 10_000

Rule = tuple[dict, dict]


@dataclass
class Request:
    """One closed-loop request: one or two CLI operations on one query."""

    label: str
    theory: str                 # theory file name inside the work directory
    algebra: str
    rules: list[Rule]           # the generated rules, for the references
    antecedent: dict
    consequent: dict
    ops: tuple[str, ...]
    expect_iterations: int | None = None   # ascent closed form

    @property
    def query(self) -> str:
        return f"{fmt_set(self.antecedent)} => {fmt_set(self.consequent)}"


def fmt_set(entries: dict) -> str:
    return "{" + ", ".join(f"{v}:{d}" for v, d in sorted(entries.items())) + "}"


def theory_text(algebra: str, rules: list[Rule]) -> str:
    lines = [f"algebra {algebra}"]
    lines.extend(f"{fmt_set(a)} => {fmt_set(c)}" for a, c in rules)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Reference semantics: a plain re-statement of the least-model iteration
# ---------------------------------------------------------------------------

def tnorm(algebra: str, a: Fraction, b: Fraction) -> Fraction:
    if algebra == LUK:
        return max(ZERO, a + b - 1)
    return a * b


def residuum(algebra: str, a: Fraction, b: Fraction) -> Fraction:
    if a <= b:
        return ONE
    return 1 - a + b if algebra == LUK else b / a


def inclusion(algebra: str, a: dict, b: dict) -> Fraction:
    return min((residuum(algebra, d, b.get(v, ZERO)) for v, d in a.items()), default=ONE)


def least_model(algebra: str, rules: list[Rule], start: dict) -> tuple[dict, int]:
    """Least model containing `start` and the number of productive steps."""
    current, steps = dict(start), 0
    while True:
        grown = dict(current)
        for ante, cons in rules:
            c = inclusion(algebra, ante, current)
            if c == 0:
                continue
            for v, d in cons.items():
                x = tnorm(algebra, c, d)
                if x > grown.get(v, ZERO):
                    grown[v] = x
        if grown == current:
            return current, steps
        current, steps = grown, steps + 1


def product_ascent_steps(a: int, b: int, e: int) -> int:
    """Closed-form iteration count of `{} => {p:10^-e}`, `{p:a/b} => {p:1}`.

    After step j < m the value is 10^-e (b/a)^(j-1); m is the first step at
    which it reaches r = a/b, and one more step lifts p to 1 (none when the
    value at m is already exactly 1).
    """
    scale = 10 ** e
    num, den = 1, 1          # (a/b)^j kept as integers
    j = 0
    while True:
        j += 1
        num, den = num * a, den * b
        if num * scale <= den:           # 10^-e (b/a)^(j-1) >= a/b
            break
    at_m = Fraction(b ** (j - 1), a ** (j - 1) * scale)
    return j if at_m == 1 else j + 1


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def ladder(rng: random.Random, lo: int, hi: int, k: int) -> list[int]:
    """k integers spread evenly over [lo, hi), each jittered within a fifth of
    its step, so that every seed gives a different instance set with the same
    cost profile."""
    step = (hi - lo) / k
    return [lo + int(step * (i + 0.4 + 0.2 * rng.random())) for i in range(k)]


def _var_names(n: int) -> list[str]:
    width = len(str(n - 1))
    return [f"x{i:0{width}d}" for i in range(n)]


def layered_rules(rng: random.Random, nvars: int, nrules: int, layers: int, width0: int = 3):
    """Rules over `nvars` variables in `layers` layers after the start layer.

    Each rule reads from the layer before its own, so layer l is final after
    step l and the closure of layer 0 takes `layers` productive steps.
    Returns (rules, layer list); layer 0 is the query antecedent.
    """
    names = _var_names(nvars)
    rng.shuffle(names)
    levels = [names[:width0]]
    rest = names[width0:]
    per = len(rest) // layers
    for i in range(layers):
        levels.append(rest[i * per:] if i == layers - 1 else rest[i * per:(i + 1) * per])
    rules: list[Rule] = []
    for r in range(nrules):
        level = 1 + r % layers
        ante: dict = {}
        for _ in range(rng.choice((1, 2))):
            ante[rng.choice(levels[level - 1])] = rng.choice(ANTE_DEGREES)
        cons: dict = {}
        for _ in range(rng.choice((1, 2))):
            cons[rng.choice(levels[level])] = rng.choice(CONS_DEGREES)
        rules.append((ante, cons))
    return rules, levels


def layered_requests(rng, prefix, algebra, nvars, nrules, layers, nqueries, ops):
    rules, levels = layered_rules(rng, nvars, nrules, layers)
    antecedent = {v: ONE for v in levels[0]}
    tail = levels[-1] + levels[-2]
    name = f"{prefix}.rfal"
    return name, theory_text(algebra, rules), [
        Request(f"{prefix}-q{i}", name, algebra, rules, antecedent,
                {v: ONE for v in rng.sample(tail, 2)}, ops)
        for i in range(nqueries)
    ]


def gen_query(rng: random.Random):
    """Wide theories: parsing and the per-iteration rule sweep dominate.

    Per algebra, one 200/1000 theory with two queries and two 1000/5000
    theories with three queries each.  A lukasiewicz 1000/5000 call is about
    1.5 times a product one, so request latencies fall into three classes:
    small, product-large and lukasiewicz-large, 4 : 6 : 6 per pass.  Over the
    whole passes the loop runs, the median request lies inside the product
    class and the 11th slowest inside the lukasiewicz one, each several
    requests away from a class boundary, so neither flips between classes
    when the host is slower and fewer passes fit.  Two large theories per
    algebra halve the seed-to-seed spread of their cost.
    """
    files, requests = {}, []
    for algebra in (LUK, PROD):
        for nvars, nrules, nq, copies in ((200, 1000, 2, 1), (1000, 5000, 3, 2)):
            for c in range(copies):
                prefix = f"{algebra[:4]}-{nvars}x{nrules}" + (f"-{c}" if copies > 1 else "")
                name, text, reqs = layered_requests(
                    rng, prefix, algebra, nvars, nrules, 6, nq, ("degree",))
                files[name] = text
                requests += reqs
    return files, requests


def gen_certify(rng: random.Random):
    """Layered theories of about 100..200 rules, both algebras.

    Three classes of request cost, each a ladder of rule counts: 8 product
    theories over 100..130, 9 product theories over 165..185 and 8
    lukasiewicz theories over 180..200 (a lukasiewicz request costs about
    1.5 times a product one of the same size).  Over whole passes of these
    25 requests the median is the middle theory of the middle class and the
    11th slowest lies inside the top class, so neither rests on one random
    theory's cost or moves with the number of passes.
    """
    files, requests = {}, []
    sizes = ([(n, PROD) for n in ladder(rng, 100, 130, 8)]
             + [(n, PROD) for n in ladder(rng, 165, 185, 9)]
             + [(n, LUK) for n in ladder(rng, 180, 200, 8)])
    for i, (nrules, algebra) in enumerate(sizes):
        name, text, reqs = layered_requests(
            rng, f"cert{i:02d}-{algebra[:4]}-{nrules}", algebra, nrules // 8, nrules, 4, 1,
            ("prove", "check-proof"))
        files[name] = text
        requests += reqs
    return files, requests


GRID_K = 6
GRID_VARS = ("p", "q", "r", "s")


def _grid_degree(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(GRID_K // 2, GRID_K), GRID_K)


def gen_grid(rng: random.Random):
    """The acceptance-suite shape: lukasiewicz, 4 variables, k = 6, 4 rules.

    33 theories, an odd count, so the median request is one theory's own
    median; each is built forward p -> q -> r -> s with one extra rule.  Instances whose
    degree is 0 (the oracle stops early) or 1 are redrawn, so every oracle
    call enumerates all (k+1)^4 grid points.
    """
    files, requests = {}, []
    for i in range(33):
        while True:
            rules: list[Rule] = []
            reached = ["p"]
            for target in GRID_VARS[1:]:
                rules.append(({rng.choice(reached): _grid_degree(rng)}, {target: _grid_degree(rng)}))
                reached.append(target)
            rules.append(({rng.choice(reached): _grid_degree(rng)},
                          {rng.choice(GRID_VARS[1:]): _grid_degree(rng)}))
            antecedent = {"p": _grid_degree(rng)}
            consequent = {v: ONE for v in rng.sample(GRID_VARS[2:], rng.choice((1, 2)))}
            model, _ = least_model(LUK, rules, antecedent)
            degree = inclusion(LUK, consequent, model)
            if 0 < degree < 1:
                break
        name = f"grid{i:02d}.rfal"
        files[name] = theory_text(LUK, rules)
        requests.append(Request(f"grid{i:02d}", name, LUK, rules, antecedent, consequent,
                                ("oracle", "degree")))
    return files, requests


def _ascent_request(label, algebra, rules, iterations):
    name = f"{label}.rfal"
    return name, theory_text(algebra, rules), Request(
        label, name, algebra, rules, {}, {"p": ONE}, ("degree",), expect_iterations=iterations)


def _luk_ascent(n: int):
    return _ascent_request(f"luk-n{n}", LUK,
                           [({}, {"p": Fraction(1, n)}), ({"p": Fraction(n - 1, n)}, {"p": ONE})], n)


def gen_ascent(rng: random.Random):
    """Few-rule slow ascents: iteration count and bignum arithmetic dominate.

    Lukasiewicz `{} => {p:1/n}`, `{p:(n-1)/n} => {p:1}` with 17 values of n
    on a ladder over 3000..10000 (at most 9835, below the default cap), and
    product `{} => {p:10^-e}`, `{p:(m-1)/m} => {p:1}` with 8 values of m on
    a ladder over 10..100 and e cycling down from 6 to 3 (up to ~5,000-bit
    denominators).  Every product ascent takes under half the time of the
    cheapest lukasiewicz one, so of the 25 requests per pass the median is
    always the fifth lukasiewicz ascent, whose neighbours on the ladder cost
    within a tenth of it.  The n = 10000 case is `cap_boundary_probe`, run
    once outside the loop.
    """
    files, requests = {}, []
    ascents = [_luk_ascent(n) for n in ladder(rng, 3000, DEFAULT_CAP, 17)]
    for i, m in enumerate(ladder(rng, 10, 100, 8)):
        e = 6 - i % 4
        ascents.append(_ascent_request(
            f"prod-m{m}-e{e}", PROD,
            [({}, {"p": Fraction(1, 10 ** e)}), ({"p": Fraction(m - 1, m)}, {"p": ONE})],
            product_ascent_steps(m - 1, m, e)))
    for name, text, req in ascents:
        files[name] = text
        requests.append(req)
    return files, requests


def cap_boundary_probe():
    """The lukasiewicz ascent with n = 10000, which reaches p = 1 exactly at
    the default cap: (file name, theory text, request)."""
    return _luk_ascent(DEFAULT_CAP)


GENERATORS = {
    "query": gen_query,
    "certify": gen_certify,
    "grid": gen_grid,
    "ascent": gen_ascent,
}
