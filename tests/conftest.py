import json
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings

from rfal import Algebra, FuzzySet, Implication, Theory

settings.register_profile(
    "deterministic",
    derandomize=True,
    max_examples=120,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("deterministic")

# A step whose antecedent is a list nested 900 deep (still within the JSON
# decoder's recursion limit under the test runner), and a degree object with
# one extra 3,000-character field: neither may be echoed whole.
DEEP_ANTE_CERTIFICATE = json.dumps(
    {"theory_hash": "x", "steps": [{"ante": "@", "cons": {}, "rule": "axiom"}], "conclusion": {}}
).replace('"@"', "[" * 900 + "]" * 900)
PADDED_RATIONAL_CERTIFICATE = json.dumps(
    {
        "theory_hash": "x",
        "steps": [{"ante": {"p": {"num": 1, "den": 2, "pad": "x" * 3000}}, "cons": {}, "rule": "axiom"}],
        "conclusion": {},
    }
)

# A well-formed one-axiom certificate, except that its antecedent names p
# twice: read naively, the second degree would silently win.
DUPLICATE_KEY_CERTIFICATE = (
    '{"theory_hash": "x", "steps": [{"ante": {"p": {"num": 1, "den": 2}, '
    '"p": {"num": 1, "den": 3}}, "cons": {}, "rule": "axiom"}], '
    '"conclusion": {"ante": {"p": {"num": 1, "den": 3}}, "cons": {}}}'
)


# p and q climb on alternate steps, so no two steps match and all 10,000
# steps of the default cap run as rounds of one step: 88 bytes of text.
# `{} => {p:1}` has degree 1/2 at the cap.
ALTERNATING_ASCENT = ["algebra lukasiewicz", "{} => {p:2/20000}", "{p:19999/20000} => {q:1}",
                      "{q:19999/20000} => {p:1}"]

# The alternating ascent with 8,000 rules that never fire beside it: 182 KB.
IDLE_RULES_PROBE = "\n".join(
    ALTERNATING_ASCENT + [f"{{x{i}:1}} => {{y{i}:1}}" for i in range(8000)])

# The alternating ascent with 1,000 facts `{} => {ai:1}` that the first step
# settles: 15 KB.  A round that kept the whole evaluation would hold 10,000
# copies of its 1,002 values.
SETTLED_VARIABLES_PROBE = "\n".join(
    ALTERNATING_ASCENT + [f"{{}} => {{a{i}:1}}" for i in range(1000)])


def fs(entries=None, **kwargs):
    """Build a fuzzy set from string degrees: fs(p='1/2', q='1')."""
    merged = dict(entries or {})
    merged.update(kwargs)
    return FuzzySet({var: Fraction(d) if isinstance(d, str) else d for var, d in merged.items()})


def imp(antecedent, consequent):
    return Implication(fs(antecedent), fs(consequent))


@pytest.fixture
def worked_lukasiewicz():
    """Two-rule chain whose closure of {p:1} ends at {p:1, q:4/5, r:9/10}."""
    return Theory(
        (imp({"p": "1"}, {"q": "4/5"}), imp({"q": "3/5"}, {"r": "9/10"})),
        Algebra.LUKASIEWICZ,
    )


@pytest.fixture
def worked_product():
    """One-rule theory whose closure of {p:1/4} ends at {p:1/4, q:2/5}."""
    return Theory((imp({"p": "1/2"}, {"q": "4/5"}),), Algebra.PRODUCT)
