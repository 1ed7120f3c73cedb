"""Dual-route cross-checks.

Each test here pits a load-bearing implementation choice against an
independent, obviously-correct (if slow) alternative: the deterministic cut
matcher against an existential search over all decompositions, the
simultaneous fixpoint iteration against sequential rule-at-a-time iteration,
the semi-naive closure loop, in each of its encodings, with its jumps along
slow ascents, and on rule tables both built from `Implication`s and parsed
from text, against a dense loop that fires every rule at every step,
and the engine against exhaustive enumeration of every tiny theory.
"""

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import pytest

from rfal import (
    Algebra,
    EngineLimits,
    FuzzySet,
    GridSpec,
    Implication,
    Theory,
    is_model,
    least_model,
    parse_theory,
    provability_degree,
    scalar_multiple,
    semantic_degree_grid,
    serialize_theory,
    subsethood,
    tnorm,
    truth_degree,
    union,
)
from rfal.engine import MAX_GRID_BITS, grid_denominator
from rfal.proofs import cut_conclusion
from rfal.oracle import random_evaluation

from conftest import imp
from harness import random_theory

L, P, G = Algebra.LUKASIEWICZ, Algebra.PRODUCT, Algebra.GOEDEL

POOL = (Fraction(1, 2), Fraction(1),)
VARIABLES = ("p", "q")


def all_sets(variables=VARIABLES, pool=POOL):
    options = (None,) + pool
    for entries in itertools.product(options, repeat=len(variables)):
        yield FuzzySet({v: d for v, d in zip(variables, entries) if d is not None})


def has_textbook_cut_witness(first, second, step):
    """Search every candidate C for the scheme: from A => B and B|C => D
    infer A|C => D."""
    if step.consequent != second.consequent:
        return False
    for c_set in all_sets():
        if (
            union(first.consequent, c_set) == second.antecedent
            and union(first.antecedent, c_set) == step.antecedent
        ):
            return True
    return False


class TestCutMatcherSoundness:
    def test_every_accepted_cut_has_a_textbook_witness(self):
        # exhaustive over implication pairs on two variables with degrees
        # from {1/2, 1}: whenever the deterministic matcher produces a
        # conclusion, brute-force search must find a decomposition witness
        sets = list(all_sets())
        accepted = 0
        for a1, c1, a2, c2 in itertools.product(sets, repeat=4):
            first, second = Implication(a1, c1), Implication(a2, c2)
            conclusion = cut_conclusion(first, second)
            if conclusion is None:
                continue
            accepted += 1
            assert has_textbook_cut_witness(first, second, conclusion), (
                first,
                second,
                conclusion,
            )
        assert accepted > 1000  # the matcher is not vacuous

    def test_matcher_is_deterministic_restriction_not_extension(self):
        # candidate steps with a textbook witness may still be rejected (the
        # matcher fixes one decomposition), but the accepted conclusion always
        # coincides with the witnessed one when the chained consequent is
        # contained in the second antecedent
        sets = list(all_sets())
        rejected_with_witness = 0
        for a1, c1, a2, c2, cs in itertools.product(sets, repeat=5):
            first, second = Implication(a1, c1), Implication(a2, c2)
            candidate = Implication(union(a1, cs), c2)
            if union(c1, cs) != a2:
                continue  # cs is not a decomposition witness
            conclusion = cut_conclusion(first, second)
            if conclusion != candidate:
                rejected_with_witness += 1
        # determinism costs completeness; the engine's synthesizer only ever
        # emits the matcher's own conclusions, so this is by design
        assert rejected_with_witness > 0


def chaotic_closure(alg, theory, e, max_rounds=10_000):
    """Sequential rule-at-a-time iteration; same least fixpoint, different
    route than the simultaneous step the engine uses."""
    current = e
    for _ in range(max_rounds):
        changed = False
        for rule in theory.rules:
            firing = subsethood(alg, rule.antecedent, current)
            merged = union(current, scalar_multiple(alg, firing, rule.consequent))
            if merged != current:
                current = merged
                changed = True
        if not changed:
            return current
    raise AssertionError("chaotic iteration did not converge")


class TestFixpointRouteAgreement:
    def test_simultaneous_and_sequential_iteration_agree(self):
        rng = random.Random(71)
        variables = ("p", "q", "r")
        for _ in range(300):
            alg = rng.choice((L, P, G))
            theory = random_theory(rng, alg, variables, max_rules=4, max_denominator=6)
            start = random_evaluation(rng, variables, max_denominator=6)
            trace = least_model(alg, theory, start)
            assert trace.reached_fixpoint
            assert chaotic_closure(alg, theory, start) == trace.final


def dense_step(alg, theory, e):
    """Fire every rule against `e`; the step and its full firing log."""
    merged = dict(e.items())
    changed = False
    firings = []
    for index, rule in enumerate(theory.rules):
        c = subsethood(alg, rule.antecedent, e)
        firings.append((index, c))
        if c == 0:
            continue
        for var, degree in rule.consequent.items():
            value = tnorm(alg, c, degree)
            if value > merged.get(var, 0):
                merged[var] = value
                changed = True
    return FuzzySet(merged), tuple(firings), changed


@dataclass(frozen=True)
class DenseTrace:
    """Every step's evaluation and every rule's degree at it."""

    start: FuzzySet
    steps: tuple
    firing_log: tuple
    reached_fixpoint: bool

    @property
    def iterations(self):
        return len(self.steps)

    @property
    def final(self):
        return self.steps[-1] if self.steps else self.start

    @property
    def penultimate(self):
        return self.steps[-2] if len(self.steps) > 1 else self.start


def assert_same_run(theory, trace, reference):
    """The engine's trace equals the dense reference field by field, and each
    of its rounds stores only the values its first step raised and the
    degrees of the rules that step fired: every rule at first, after that
    those watching a variable the step before raised."""
    assert trace.steps == reference.steps
    assert trace.firing_log == reference.firing_log
    assert trace.iterations == reference.iterations
    assert trace.reached_fixpoint is reference.reached_fixpoint
    assert trace.final == reference.final
    assert trace.penultimate == reference.penultimate
    chain = (reference.start,) + reference.steps
    done = 0
    for r in trace.rounds:
        due = range(len(theory.rules))
        if done:
            raised = {var for var, d in chain[done].items() if d != chain[done - 1].degree(var)}
            due = [i for i in due if raised.intersection(theory.rules[i].antecedent.support())]
        assert [index for index, _ in r.firings] == list(due)
        assert r.raised == {var: d for var, d in chain[done + 1].items()
                            if d != chain[done].degree(var)}
        done += r.count


def as_built_and_parsed(theory):
    """The theory as built from `Implication`s, and its rule table as the
    parser builds it from the theory's text."""
    return theory, parse_theory(serialize_theory(theory))


def dense_least_model(alg, theory, e, limits=EngineLimits()):
    """The least-model loop with no rule index: every rule at every step."""
    steps, log = [], []
    current = e
    while True:
        nxt, firings, changed = dense_step(alg, theory, current)
        if not changed:
            return DenseTrace(e, tuple(steps), tuple(log), True)
        if len(steps) >= limits.max_iterations:
            return DenseTrace(e, tuple(steps), tuple(log), False)
        steps.append(nxt)
        log.append(firings)
        current = nxt


class TestSemiNaiveAgainstDenseLoop:
    def test_traces_agree_field_by_field(self):
        rng = random.Random(74)
        variables = tuple(f"v{i}" for i in range(8))
        capped = 0
        for _ in range(150):
            alg = rng.choice((L, P, G))
            width = rng.randint(1, len(variables))
            theory = random_theory(rng, alg, variables[:width], max_rules=20, max_denominator=8)
            start = random_evaluation(rng, variables[:width], max_denominator=8, fill=0.3)
            for limits in (EngineLimits(), EngineLimits(1), EngineLimits(2), EngineLimits(3)):
                reference = dense_least_model(alg, theory, start, limits)
                for subject in as_built_and_parsed(theory):
                    trace = least_model(alg, subject, start, limits)
                    assert_same_run(subject, trace, reference)
                capped += not trace.reached_fixpoint
        assert capped > 50  # the caps cut real runs short


def test_serialization_from_the_table_matches_the_views():
    # seeded random theories of the dense-loop cross-check's shape, each
    # under all three algebras, built from `Implication`s and parsed from
    # text whose entries are shuffled: the table-based text is the one the
    # rule views write
    rng = random.Random(74)
    variables = tuple(f"v{i}" for i in range(8))
    for _ in range(150):
        width = rng.randint(1, len(variables))
        rules = random_theory(rng, L, variables[:width], max_rules=20, max_denominator=8).rules
        lines = []
        for rule in rules:
            sides = [list(rule.antecedent.items()), list(rule.consequent.items())]
            for side in sides:
                rng.shuffle(side)
            lines.append(" => ".join("{" + ", ".join(f"{v}:{q}" for v, q in side) + "}"
                                     for side in sides))
        for alg in (L, P, G):
            built = Theory(rules, alg)
            parsed = parse_theory("\n".join([f"algebra {alg.value}"] + lines))
            for theory in (built, parsed):
                views = "\n".join(rule.to_text() for rule in theory.rules)
                assert serialize_theory(theory) == f"algebra {alg.value}\n" + views + "\n"
            assert parsed == built


def slow_ascent(rng, alg):
    """A theory on 1-4 variables that climbs slowly: a seed rule
    `{} => {v:1/N}`, self-loops and 2-cycles whose antecedent degrees lie
    near 1, and now and then a second antecedent variable or a consequent
    degree below 1."""
    def near_one(low=2, high=30):
        m = rng.randint(low, high)
        return Fraction(m - 1, m)

    variables = [f"v{i}" for i in range(rng.randint(1, 4))]
    seed = FuzzySet({rng.choice(variables): Fraction(1, rng.randint(2, 60))})
    rules = [Implication(FuzzySet(), seed)]
    for var in variables:
        other = rng.choice(variables)
        antecedent = {var: near_one()}
        if other != var and rng.random() < 0.2:
            antecedent[other] = near_one()
        head = rng.choice(variables) if rng.random() < 0.3 else var
        rules.append(Implication(FuzzySet(antecedent),
                                 FuzzySet({head: 1 if rng.random() < 0.7 else near_one(8, 40)})))
        if other != var:  # a 2-cycle through `other`
            rules.append(Implication(FuzzySet({var: near_one()}), FuzzySet({other: 1})))
            rules.append(Implication(FuzzySet({other: near_one()}), FuzzySet({var: 1})))
    rng.shuffle(rules)
    return Theory(tuple(rules), alg), FuzzySet()


class TestJumpsAgainstDenseLoop:
    def test_slow_ascents_agree_field_by_field(self):
        rng = random.Random(76)
        jumped = inside = 0
        for case in range(450):
            alg = (L, P, G)[case % 3]
            theory, start = slow_ascent(rng, alg)
            full = least_model(alg, theory, start)
            jumped += len(full.rounds) < full.iterations
            caps = [EngineLimits(), EngineLimits(1), EngineLimits(2), EngineLimits(3)]
            done = 0
            for r in full.rounds:  # a cap that cuts the first long round short
                if r.count > 2:
                    caps.append(EngineLimits(done + rng.randint(1, r.count - 1)))
                    inside += 1
                    break
                done += r.count
            for limits in caps:
                reference = dense_least_model(alg, theory, start, limits)
                for subject in as_built_and_parsed(theory):
                    assert_same_run(subject, least_model(alg, subject, start, limits), reference)
        assert jumped >= 100 and inside >= 100

    @pytest.mark.parametrize("alg, rules", [
        # p and q climb by 1/200 and 1/100 per step.  On the line through
        # those rises, p's own rule stops raising it at p = 41/200 and the
        # two-variable rule takes over only from about step 59, so p's rise
        # is 1/200 at both ends of that stretch and smaller inside it: only
        # the firing degrees tell the two ends apart
        (L, [({}, {"p": "1/200"}), ({}, {"q": "1/100"}), ({"q": "99/100"}, {"q": "1"}),
             ({"p": "1/5"}, {"p": "41/200"}), ({"q": "3/4", "p": "9/20"}, {"p": "91/200"})]),
        # the same shape under product, with constant ratios in place of rises
        (P, [({}, {"p": "1/200"}), ({}, {"q": "1/3459"}), ({"q": "7/10"}, {"q": "1"}),
             ({"p": "1/10"}, {"p": "19/150"}), ({"p": "1/2", "q": "19/100"}, {"p": "19/30"})]),
    ])
    def test_a_dip_between_two_setters_ends_the_run(self, alg, rules):
        theory = Theory(tuple(imp(a, b) for a, b in rules), alg)
        reference = dense_least_model(alg, theory, FuzzySet())
        for subject in as_built_and_parsed(theory):
            trace = least_model(alg, subject, FuzzySet())
            assert_same_run(subject, trace, reference)
            assert len(trace.rounds) < trace.iterations

    @pytest.mark.parametrize("alg, rules, cap", [
        # p climbs by 1/100 towards the 99/100 of its own rule, but from
        # p = 1/2 on that rule also overtakes q, which the line does not raise
        (L, [({}, {"p": "1/100"}), ({"p": "99/100"}, {"p": "1"}),
             ({}, {"q": "1/2"}), ({"p": "99/100"}, {"q": "1"})], None),
        # the rule's term for s stays at 3/4 and becomes the minimum once p's
        # term passes it, so p stops at 3/4
        (L, [({}, {"p": "1/100"}), ({}, {"s": "1/2"}), ({"p": "99/100", "s": "3/4"}, {"p": "1"})],
         None),
        # the cap cuts the ascent at p = 1/2
        (L, [({}, {"p": "1/100"}), ({"p": "99/100"}, {"p": "1"})], 50),
        # the same three under product, times 10/9 per step towards 9/10
        (P, [({}, {"p": "1/100"}), ({"p": "9/10"}, {"p": "1"}),
             ({}, {"q": "1/5"}), ({"p": "9/10"}, {"q": "1"})], None),
        (P, [({}, {"p": "1/100"}), ({}, {"s": "1/4"}), ({"p": "9/10", "s": "3/4"}, {"p": "1"})],
         None),
        (P, [({}, {"p": "1/100"}), ({"p": "9/10"}, {"p": "1"})], 20),
    ], ids=["luk-overtake", "luk-switch", "luk-cap", "prod-overtake", "prod-switch", "prod-cap"])
    def test_runs_that_end_before_the_predicted_crossing(self, alg, rules, cap):
        theory = Theory(tuple(imp(a, b) for a, b in rules), alg)
        own = EngineLimits(cap) if cap else EngineLimits()
        trace = least_model(alg, theory, FuzzySet(), own)
        done = 0
        for r in trace.rounds:
            if r.count > 2:
                break
            done += r.count
        else:
            pytest.fail("no long round")
        # the first long run ends with p still below the degree its rule
        # asks of it, so the end predicted at that crossing is a miss
        assert trace.steps[done + r.count - 1].degree("p") < Fraction(rules[-1][0]["p"])
        inside = EngineLimits(done + r.count // 2)
        for limits in (own, EngineLimits(), EngineLimits(1), EngineLimits(2), EngineLimits(3),
                       inside):
            reference = dense_least_model(alg, theory, FuzzySet(), limits)
            for subject in as_built_and_parsed(theory):
                assert_same_run(subject, least_model(alg, subject, FuzzySet(), limits), reference)


def grid_side(alg, theory, start):
    """(lcm of every denominator in the theory and start, the grid the engine
    must pick: that lcm, or None under product or past MAX_GRID_BITS)."""
    sets = [start] + [s for rule in theory.rules for s in (rule.antecedent, rule.consequent)]
    d = lcm(*(degree.denominator for s in sets for _, degree in s.items()))
    return d, (None if alg is P or d.bit_length() > MAX_GRID_BITS else d)


def random_case(rng, alg, variables, pool, start_pool):
    """A theory over `variables` with degrees over the denominators in `pool`,
    a quarter of its rules with empty antecedents, and a start evaluation
    whose denominators come from `start_pool`."""
    def degree(dens):
        den = rng.choice(dens)
        return Fraction(rng.randint(1, den), den)

    def fuzzy_set(dens, low, high):
        chosen = rng.sample(variables, min(len(variables), rng.randint(low, high)))
        return FuzzySet({var: degree(dens) for var in chosen})

    rules = tuple(
        Implication(
            FuzzySet() if rng.random() < 0.25 else fuzzy_set(pool, 1, 2), fuzzy_set(pool, 1, 2)
        )
        for _ in range(rng.randint(1, 8))
    )
    return Theory(rules, alg), fuzzy_set(start_pool, 0, 3)


class TestScaledEncodingsAgainstDenseLoop:
    """Scaled integers on the 1/D grid (Lukasiewicz and Goedel up to
    MAX_GRID_BITS), Fractions (any larger D) and (numerator, denominator)
    pairs (product) against the dense Fraction loop."""

    def test_traces_agree_on_both_sides_of_the_bound(self):
        rng = random.Random(75)
        variables = ("p", "q", "r", "s", "t")
        sides = set()
        empty_antecedents = foreign_start = capped = 0
        for case in range(180):
            alg = (L, P, G)[case % 3]
            if case % 2:  # denominators far apart, D around the bound
                pool = [rng.getrandbits(rng.randint(MAX_GRID_BITS // 3, MAX_GRID_BITS)) | 1
                        for _ in range(3)]
                start_pool = [rng.getrandbits(MAX_GRID_BITS // 4) | 1]
            else:
                pool = list(range(1, 13))
                start_pool = [13, 17, 19, 23]
            theory, start = random_case(rng, alg, variables, pool, start_pool)
            d, grid = grid_side(alg, theory, start)
            subjects = as_built_and_parsed(theory)
            assert [grid_denominator(alg, subject, start) for subject in subjects] == [grid, grid]
            sides.add((alg, d.bit_length() <= MAX_GRID_BITS))
            empty_antecedents += any(not rule.antecedent for rule in theory.rules)
            foreign_start += any(degree.denominator in start_pool for _, degree in start.items())
            for limits in (EngineLimits(), EngineLimits(1), EngineLimits(2), EngineLimits(3)):
                reference = dense_least_model(alg, theory, start, limits)
                for subject in subjects:
                    trace = least_model(alg, subject, start, limits)
                    assert_same_run(subject, trace, reference)
                capped += not trace.reached_fixpoint
        assert sides == {(alg, below) for alg in (L, P, G) for below in (True, False)}
        assert empty_antecedents > 50 and foreign_start > 50 and capped > 50


class TestExhaustiveTinyScale:
    def test_single_variable_theories_exhaustively(self):
        # every implication over one variable with degrees in {0, 1/2, 1},
        # every ordered theory of up to two rules, every query: engine and
        # brute-force oracle agree exactly
        singles = list(all_sets(("p",), POOL))
        implications = [Implication(a, b) for a in singles for b in singles]
        spec = GridSpec(2, ("p",))
        theories = [()] + [(r,) for r in implications] + [
            (r1, r2) for r1 in implications for r2 in implications
        ]
        checked = 0
        for rules in theories:
            theory = Theory(tuple(rules), L)
            for query in implications:
                engine, trace = provability_degree(L, theory, query)
                assert trace.reached_fixpoint
                assert engine == semantic_degree_grid(theory, query, spec)
                checked += 1
        assert checked == (1 + 9 + 81) * 9

    def test_two_variable_single_rule_theories_exhaustively(self):
        sets = list(all_sets(VARIABLES, POOL))
        implications = [Implication(a, b) for a in sets for b in sets]
        spec = GridSpec(2, VARIABLES)
        rng = random.Random(72)
        queries = rng.sample(implications, 12)
        for rule in implications:
            theory = Theory((rule,), L)
            for query in queries:
                engine, trace = provability_degree(L, theory, query)
                assert trace.reached_fixpoint
                assert engine == semantic_degree_grid(theory, query, spec)

    def test_goedel_engine_agrees_with_goedel_grid_models(self):
        # goedel operations never leave the degree pool, so brute force over
        # pool-valued evaluations is exact for pool-valued theories here
        sets = list(all_sets(("p", "q"), POOL))
        implications = [Implication(a, b) for a in sets for b in sets]
        rng = random.Random(73)
        pool_points = [FuzzySet({v: d for v, d in zip(("p", "q"), combo) if d is not None})
                       for combo in itertools.product((None,) + POOL, repeat=2)]
        for _ in range(120):
            theory = Theory(tuple(rng.sample(implications, rng.randint(1, 2))), G)
            query = rng.choice(implications)
            engine, trace = provability_degree(G, theory, query)
            assert trace.reached_fixpoint
            # brute force: minimum truth degree of the query over pool models
            brute = min(
                (truth_degree(G, query, e) for e in pool_points if is_model(G, theory, e)),
                default=Fraction(1),
            )
            assert engine == brute, (theory.rules, query, engine, brute)
