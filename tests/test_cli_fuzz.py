"""`main` on drawn theories, queries, flags, certificates and RFAL_MAX_ITER.

Whatever it is given, `main` must end in one of the documented exit codes,
0 to 3, and never raise.
"""

import contextlib
import io
import json

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from rfal.cli import main

VARIABLES = ["p", "q", "r"]
# In-range literals, among them a decimal and one small enough that a product
# ascent climbs through wide integers, drawn four times as often as the
# out-of-range ones and the zero denominator.
LITERALS = ["0", "1", "1/2", "2/3", "99/100", "0.75", "1/10000000000"] * 4 + ["3/2", "1/0"]
JUNK = ["", "# a comment", "=>", "{p:1", "{p:1} => {q:1} extra", "algebra", "{p:x} => {}",
        "{p:1, p:1/2} => {q:1}", "(({p:1} => {q:1})) @ 1/2", "é"]



def weighted(*choices):
    """Draw from each (weight, strategy) choice in proportion to its weight."""
    return st.sampled_from([s for weight, s in choices for _ in range(weight)]).flatmap(
        lambda strategy: strategy)


fuzzy_set = st.dictionaries(st.sampled_from(VARIABLES), st.sampled_from(LITERALS), max_size=3).map(
    lambda entries: "{" + ", ".join(f"{var}:{degree}" for var, degree in entries.items()) + "}")
implication = st.builds("{} => {}".format, fuzzy_set, fuzzy_set)
graded = st.builds("({}) @ {}".format, implication, st.sampled_from(LITERALS))
junk = st.sampled_from(JUNK)
header = st.sampled_from(["algebra lukasiewicz", "algebra product", "algebra goedel"] * 3
                         + ["algebra fuzzy", ""])
theory_text = st.builds(lambda first, rules: "\n".join([first, *rules]), header,
                        st.lists(weighted((6, implication), (2, graded), (1, junk)), max_size=4))
query = weighted((6, implication), (1, junk))

# Each flag with its small values, drawn three times as often as its invalid
# ones; for the two counts that have a bound, a value just past it is one.
OPTIONS = {flag: valid * 3 + invalid for flag, (valid, invalid) in {
    "--max-iter": (["1", "2", "3", "50", "2200"], ["0", "x"]),
    "--grid-k": (["1", "2", "4", "10"], ["0", "x"]),
    "--samples": (["0", "1", "3"], ["-1", "100001", "x"]),
    "--k-max": (["2", "5", "20"], ["1", "10001", "x"]),
    "--seed": (["0", "1", "-3"], ["x"]),
    "--budget": (["1", "10", "1000"], ["0"]),
    "--algebra": (["lukasiewicz", "product", "goedel"], ["fuzzy"]),
    "--format": (["text", "json"], ["yaml"]),
}.items()}
SHARED = ["--max-iter", "--algebra", "--format"]
# each command with the flags it takes
COMMANDS = {
    "degree": SHARED, "closure": SHARED, "prove": SHARED, "check-proof": SHARED,
    "oracle": SHARED + ["--grid-k", "--samples", "--seed", "--budget"],
    "demo-goedel": SHARED + ["--k-max"],
}
choices = st.fixed_dictionaries(
    {}, optional={flag: st.sampled_from(values) for flag, values in OPTIONS.items()})

WRONG_CERTIFICATE = json.dumps({
    "theory_hash": "0" * 64,
    "steps": [{"ante": {}, "cons": {"p": {"num": 1, "den": 1}}, "rule": "axiom"}],
    "conclusion": {"ante": {}, "cons": {"p": {"num": 1, "den": 1}}},
}).encode()
# None stands for a certificate freshly proved for the drawn query
certificate = st.one_of(st.none(), st.none(), st.just(WRONG_CERTIFICATE), st.binary(max_size=40),
                        st.sampled_from([b"{}", b"[]", b'{"steps": 1}', b"\xff\xfe"]))
env_max_iter = st.sampled_from([None] * 4 + ["1", "3", "50", "", "0", "abc"])


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("fuzz")
    return folder / "theory.rfal", folder / "proof.json", folder / "out.txt"


def quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@settings(max_examples=300, deadline=5000)
@given(text=theory_text, query=query, command=st.sampled_from(sorted(COMMANDS)),
       flags=choices, trace=st.booleans(), output=st.booleans(), cert=certificate,
       env=env_max_iter)
def test_main_ends_in_a_documented_exit(files, text, query, command, flags, trace, output,
                                        cert, env):
    theory, proof, out = files
    theory.write_text(text, encoding="utf-8")
    proof.unlink(missing_ok=True)
    out.unlink(missing_ok=True)
    argv = [command]
    for flag, value in sorted(flags.items()):
        if flag in COMMANDS[command]:
            argv += [flag, value]
    if command != "demo-goedel":
        argv += ["--theory", str(theory)]
    if command == "closure":
        argv += ["--trace"] * trace + [query.partition(" => ")[0]]
    elif command == "check-proof":
        argv.append(str(proof))
    elif command != "demo-goedel":
        argv.append(query)
    argv += ["--output", str(out)] * output
    with pytest.MonkeyPatch.context() as patch:
        if env is None:
            patch.delenv("RFAL_MAX_ITER", raising=False)
        else:
            patch.setenv("RFAL_MAX_ITER", env)
        if command == "check-proof":
            if cert is None:
                quiet_main(["prove", "--theory", str(theory), "--output", str(proof), query])
            else:
                proof.write_bytes(cert)
        code = quiet_main(argv)
    event(f"{command} exits {code}")
    assert code in {0, 1, 2, 3}
