import gc
import json
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest

from rfal import parse_implication, parse_theory, provability_degree, synthesize_proof
from rfal.algebra import rational_from_json, rational_to_json
from rfal import cli
from rfal.cli import main
from rfal.proofs import Proof

from conftest import (
    DEEP_ANTE_CERTIFICATE,
    DUPLICATE_KEY_CERTIFICATE,
    IDLE_RULES_PROBE,
    PADDED_RATIONAL_CERTIFICATE,
    SETTLED_VARIABLES_PROBE,
)

WORKED = "algebra lukasiewicz\n{p:1} => {q:0.8}\n{q:3/5} => {r:9/10}\n"
PRODUCT = "algebra product\n{p:1/2} => {q:4/5}\n"
# reaches p = 1 in 2,293 steps, through degrees with integers of up to 15,188 bits
PRODUCT_ASCENT = "algebra product\n{p:99/100} => {p:1}\n{} => {p:1/10000000000}\n"
NO_DIGIT_LIMIT = pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                    reason="this interpreter has no limit on writing integers")


@pytest.fixture
def worked_file(tmp_path):
    path = tmp_path / "worked.rfal"
    path.write_text(WORKED)
    return path


@pytest.fixture
def product_file(tmp_path):
    path = tmp_path / "product.rfal"
    path.write_text(PRODUCT)
    return path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDegree:
    def test_text_output(self, capsys, worked_file):
        code, out, _ = run(capsys, "degree", "--theory", str(worked_file), "{p:1} => {r:1}")
        assert code == 0
        assert out.splitlines() == ["9/10 = 0.9", "iterations: 2", "fixpoint: yes"]

    def test_json_schema(self, capsys, worked_file):
        code, out, _ = run(
            capsys, "degree", "--theory", str(worked_file), "--format", "json",
            "{p:1} => {r:1}",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload == {"degree": {"num": 9, "den": 10}, "iterations": 2, "fixpoint": True}

    def test_trivial_query(self, capsys, worked_file):
        code, out, _ = run(capsys, "degree", "--theory", str(worked_file), "{} => {}")
        assert code == 0
        assert out.splitlines()[0] == "1"

    def test_repeating_decimal_notation(self, capsys, tmp_path):
        path = tmp_path / "third.rfal"
        path.write_text("algebra lukasiewicz\n{} => {p:1/3}\n")
        code, out, _ = run(capsys, "degree", "--theory", str(path), "{} => {p:1}")
        assert code == 0
        assert out.splitlines()[0] == "1/3 = 0.(3)"

    def test_malformed_query_exits_one_with_position(self, capsys, worked_file):
        code, _, err = run(capsys, "degree", "--theory", str(worked_file), "{p:} =>")
        assert code == 1
        assert "column" in err

    @pytest.mark.parametrize(
        "rule,column",
        [("{p:²} => {}", 4), ("{é:1} => {}", 2), ("{p:1%s} => {}" % ("0" * 4300), 4)],
        ids=["superscript-digit", "non-ascii-name", "over-int-limit"],
    )
    def test_lexical_errors_in_a_theory_are_positioned(self, capsys, tmp_path, rule, column):
        path = tmp_path / "bad.rfal"
        path.write_text(f"algebra lukasiewicz\n{rule}\n", encoding="utf-8")
        code, _, err = run(capsys, "degree", "--theory", str(path), "{} => {}")
        assert code == 1
        assert f"line 2, column {column}:" in err
        assert "Traceback" not in err

    def test_cap_exits_two(self, capsys, worked_file, tmp_path):
        code, out, err = run(
            capsys, "degree", "--theory", str(worked_file), "--max-iter", "1",
            "{p:1} => {r:1}",
        )
        assert code == 2
        assert "lower bound" in err
        assert "still climbing: q +4/5 per step, r +3/10 per step" in err
        assert "fixpoint: no" in out
        # the rise is read off the last two recorded steps
        path = tmp_path / "ascent.rfal"
        path.write_text("algebra lukasiewicz\n{} => {p:1/10001}\n{p:10000/10001} => {p:1}\n")
        code, _, err = run(capsys, "degree", "--theory", str(path), "--max-iter", "3", "{} => {p:1}")
        assert code == 2
        assert "still climbing: p +1/10001 per step\n" in err

    def test_a_long_ascent_closes_under_a_large_cap(self, capsys, tmp_path):
        # 100,000 steps at 1/100000 each; the cap counts every one of them
        path = tmp_path / "ascent.rfal"
        path.write_text("algebra lukasiewicz\n{} => {p:1/100000}\n{p:99999/100000} => {p:1}\n")
        code, out, _ = run(capsys, "degree", "--theory", str(path), "--max-iter", "100000",
                           "{} => {p:1}")
        assert (code, out.splitlines()) == (0, ["1", "iterations: 100000", "fixpoint: yes"])
        # the default cap of 10,000 cuts the long run short; the rise named is
        # that of the last step it allowed
        code, out, err = run(capsys, "degree", "--theory", str(path), "{} => {p:1}")
        assert (code, out.splitlines()) == (2, ["1/10 = 0.1", "iterations: 10000", "fixpoint: no"])
        assert err.endswith("lower bound only; still climbing: p +1/100000 per step\n")

    @pytest.mark.parametrize("algebra", ["lukasiewicz", "product"])
    def test_an_ascent_that_ends_far_past_the_cap_exits_two_quickly(self, capsys, tmp_path,
                                                                    algebra):
        # p reaches 999999/1000000 only after about 10^6 steps (lukasiewicz)
        # or 1.4 * 10^7 (product), far past the default cap of 10,000; a probe
        # at that crossing would build product numbers of 2.8 * 10^8 bits
        path = tmp_path / "ascent.rfal"
        path.write_text(f"algebra {algebra}\n{{}} => {{p:1/1000000}}\n"
                        "{p:999999/1000000} => {p:1}\n")
        started = time.perf_counter()
        code, _, _ = run(capsys, "degree", "--theory", str(path), "{} => {p:1}")
        assert code == 2
        assert time.perf_counter() - started < 1

    def test_a_capped_run_beside_many_settled_variables(self, capsys, tmp_path):
        # 1,000 variables settle in the first step while p and q climb on
        # alternate steps up to the cap; the rise is read off the last two
        path = tmp_path / "probe.rfal"
        path.write_text(SETTLED_VARIABLES_PROBE)
        code, out, err = run(capsys, "degree", "--theory", str(path), "{} => {p:1}")
        assert (code, out.splitlines()) == (2, ["1/2 = 0.5", "iterations: 10000", "fixpoint: no"])
        assert err.endswith("lower bound only; still climbing: q +1/10000 per step\n")

    @NO_DIGIT_LIMIT
    def test_refuses_a_degree_it_cannot_write(self, capsys, tmp_path):
        theory = tmp_path / "ascent.rfal"
        theory.write_text(PRODUCT_ASCENT)
        target = tmp_path / "degree.txt"
        for fmt in ("text", "json"):
            code, out, err = run(capsys, "degree", "--theory", str(theory), "--max-iter", "2200",
                                 "--format", fmt, "--output", str(target), "{} => {p:1}")
            assert (code, out) == (2, "")
            assert err == ("refusing to write: the degree needs a 14578-bit integer, "
                           "over the 4300-digit limit for writing integers\n")
            assert not target.exists()

    @NO_DIGIT_LIMIT
    def test_refusal_follows_the_live_digit_limit(self, tmp_path):
        # 500 steps of the product ascent reach a degree with 3,309-bit
        # integers: over a 640-digit limit, and written when there is none
        theory = tmp_path / "ascent.rfal"
        theory.write_text(PRODUCT_ASCENT)
        argv = [sys.executable, "-m", "rfal", "degree", "--theory", str(theory),
                "--max-iter", "500", "{} => {p:1}"]
        runs = {digits: subprocess.run(argv, capture_output=True, text=True,
                                       env={**os.environ, "PYTHONINTMAXSTRDIGITS": digits})
                for digits in ("640", "0")}
        limited, unlimited = runs["640"], runs["0"]
        assert (limited.returncode, limited.stdout) == (2, "")
        assert limited.stderr == ("refusing to write: the degree needs a 3309-bit integer, "
                                  "over the 640-digit limit for writing integers\n")
        lines = unlimited.stdout.splitlines()
        degree = Fraction(lines[0].partition(" = ")[0])
        assert (unlimited.returncode, lines[1:]) == (2, ["iterations: 500", "fixpoint: no"])
        assert max(degree.numerator, degree.denominator).bit_length() == 3309
        assert unlimited.stderr == (
            "warning: iteration cap reached; the degree is a lower bound only; still climbing: "
            "p +(a fraction with a 3309-bit denominator) per step\n")

    def test_env_var_mirrors_max_iter(self, capsys, worked_file, monkeypatch):
        monkeypatch.setenv("RFAL_MAX_ITER", "1")
        code, _, _ = run(capsys, "degree", "--theory", str(worked_file), "{p:1} => {r:1}")
        assert code == 2

    def test_flag_beats_env_var(self, capsys, worked_file, monkeypatch):
        monkeypatch.setenv("RFAL_MAX_ITER", "1")
        code, _, _ = run(
            capsys, "degree", "--theory", str(worked_file), "--max-iter", "100",
            "{p:1} => {r:1}",
        )
        assert code == 0

    def test_missing_file_exits_one(self, capsys, tmp_path):
        code, _, err = run(capsys, "degree", "--theory", str(tmp_path / "nope"), "{} => {}")
        assert code == 1
        assert err

    def test_output_file(self, capsys, worked_file, tmp_path):
        target = tmp_path / "result.txt"
        code, out, _ = run(
            capsys, "degree", "--theory", str(worked_file), "--output", str(target),
            "{p:1} => {r:1}",
        )
        assert code == 0
        assert out == ""
        assert target.read_text().splitlines()[0] == "9/10 = 0.9"

    def test_algebra_override_warns(self, capsys, product_file):
        code, out, err = run(
            capsys, "degree", "--theory", str(product_file), "--algebra", "lukasiewicz",
            "{p:1/4} => {q:1}",
        )
        assert code == 0
        assert "overrides the file header" in err
        assert out.splitlines()[0] == "11/20 = 0.55"

    def test_goedel_degree_writes_nothing_to_stderr(self, capsys, tmp_path):
        # a finite theory's least model witnesses its degree under goedel as
        # under the other algebras, so no note qualifies the degree
        path = tmp_path / "g.rfal"
        path.write_text("algebra goedel\n{p:1/2} => {q:2/3}\n")
        code, out, err = run(capsys, "degree", "--theory", str(path), "{p:1/4} => {q:1}")
        assert (code, err) == (0, "")
        assert out.splitlines()[0] == "1/4 = 0.25"


class TestClosure:
    def test_text(self, capsys, worked_file):
        code, out, _ = run(capsys, "closure", "--theory", str(worked_file), "{p:1}")
        assert code == 0
        assert out.splitlines()[0] == "closure: {p:1, q:4/5, r:9/10}"

    def test_trace_json(self, capsys, worked_file):
        code, out, _ = run(capsys, "closure", "--theory", str(worked_file), "--trace", "{p:1}")
        assert code == 0
        trace = json.loads(out)
        assert trace["reached_fixpoint"] is True
        assert trace["iterations"] == 2
        assert [s["firings"][1]["degree"] for s in trace["steps"]] == [
            {"num": 2, "den": 5},
            {"num": 1, "den": 1},
        ]


    @NO_DIGIT_LIMIT
    @pytest.mark.parametrize("flags, what, bits", [
        (["--max-iter", "2200"], "closure", 14578),
        (["--trace"], "trace", 15188),
    ])
    def test_refuses_a_closure_it_cannot_write(self, capsys, tmp_path, flags, what, bits):
        theory = tmp_path / "ascent.rfal"
        theory.write_text(PRODUCT_ASCENT)
        target = tmp_path / "closure.txt"
        for fmt in ("text", "json"):
            code, out, err = run(capsys, "closure", "--theory", str(theory), *flags,
                                 "--format", fmt, "--output", str(target), "{}")
            assert (code, out) == (2, "")
            assert err == (f"refusing to write: the {what} needs a {bits}-bit integer, "
                           "over the 4300-digit limit for writing integers\n")
            assert not target.exists()

    def test_refuses_a_trace_over_the_entry_budget(self, capsys, tmp_path):
        # 10,000 steps of 8,003 rules: the dense trace would hold 80 million
        # entries, so it is refused before any of it is built
        theory = tmp_path / "probe.rfal"
        theory.write_text(IDLE_RULES_PROBE)
        target = tmp_path / "trace.json"
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "closure", "--theory", str(theory), "--trace",
                                 "--output", str(target), "{}")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, "")
        assert err == ("refusing to write: the trace has 80050000 entries, "
                       "over the 200000-entry limit for --trace\n")
        assert not target.exists()
        assert peak < 64 * 2**20

    def test_writes_a_long_trace_within_the_budget(self, capsys, tmp_path):
        # the lukasiewicz n = 9,835 ascent: 9,835 steps of 3 entries each
        theory = tmp_path / "ascent.rfal"
        theory.write_text("algebra lukasiewicz\n{} => {p:1/9835}\n{p:9834/9835} => {p:1}\n")
        code, out, _ = run(capsys, "closure", "--theory", str(theory), "--trace", "{}")
        trace = json.loads(out)
        assert (code, trace["iterations"], len(trace["steps"])) == (0, 9835, 9835)
        assert trace["steps"][-1]["evaluation"] == {"p": {"num": 1, "den": 1}}
        entries = sum(len(s["evaluation"]) + len(s["firings"]) for s in trace["steps"])
        assert entries == 3 * 9835 <= cli.MAX_TRACE_ENTRIES

    def test_cap_warning_names_at_most_three_variables(self, capsys, tmp_path):
        path = tmp_path / "wide.rfal"
        path.write_text("algebra lukasiewicz\n{} => {d:1/2, c:1/2, b:1/2, a:1/2}\n{a:1/2} => {e:1}\n")
        code, out, err = run(capsys, "closure", "--theory", str(path), "--max-iter", "1", "{}")
        assert code == 2
        assert out.splitlines()[0] == "closure: {a:1/2, b:1/2, c:1/2, d:1/2, e:1/2}"
        assert err == (
            "warning: iteration cap reached; the closure is a lower bound only; still climbing: "
            "a +1/2 per step, b +1/2 per step, c +1/2 per step and 2 more\n"
        )


class TestProveAndCheck:
    def test_round_trip(self, capsys, worked_file, tmp_path):
        cert = tmp_path / "proof.json"
        code, _, err = run(
            capsys, "prove", "--theory", str(worked_file), "--output", str(cert),
            "{p:1} => {r:1}",
        )
        assert code == 0
        assert "conclusion {p:1} => {r:9/10}" in err
        code, out, _ = run(capsys, "check-proof", "--theory", str(worked_file), str(cert))
        assert code == 0
        assert out.strip() == "ACCEPT"

    def test_an_indented_certificate_is_accepted(self, capsys, worked_file, tmp_path):
        # `prove` writes the compact layout; the indented one written before
        # it reads the same, since JSON ignores the whitespace between tokens
        cert = tmp_path / "proof.json"
        assert run(capsys, "prove", "--theory", str(worked_file), "--output", str(cert),
                   "{p:1/2} => {r:1}")[0] == 0
        text = cert.read_text()
        assert text.count("\n") == 1 and " " not in text
        cert.write_text(json.dumps(json.loads(text), indent=2) + "\n")
        code, out, _ = run(capsys, "check-proof", "--theory", str(worked_file), str(cert))
        assert code == 0
        assert out.strip() == "ACCEPT"

    def test_files_saved_with_a_bom_are_read(self, capsys, worked_file, tmp_path):
        # an editor's UTF-8 byte order mark is not part of the theory or the certificate
        theory = tmp_path / "bom.rfal"
        theory.write_bytes(b"\xef\xbb\xbf" + WORKED.encode())
        code, out, _ = run(capsys, "degree", "--theory", str(theory), "{p:1} => {r:1}")
        assert code == 0
        assert out.splitlines()[0] == "9/10 = 0.9"
        cert = tmp_path / "proof.json"
        assert run(capsys, "prove", "--theory", str(worked_file), "--output", str(cert),
                   "{p:1} => {r:1}")[0] == 0
        cert.write_bytes(b"\xef\xbb\xbf" + cert.read_bytes())
        code, out, _ = run(capsys, "check-proof", "--theory", str(theory), str(cert))
        assert code == 0
        assert out.strip() == "ACCEPT"

    def test_tampered_scalar_is_rejected_with_exit_three(self, capsys, worked_file, tmp_path):
        cert = tmp_path / "proof.json"
        # from p = 1/2 both rules fire below 1, so each needs a mul
        run(capsys, "prove", "--theory", str(worked_file), "--output", str(cert),
            "{p:1/2} => {r:1}")
        obj = json.loads(cert.read_text())
        steps = obj["steps"]
        tampered = next(i for i, step in enumerate(steps)
                        if step["rule"] == "mul" and step["scalar"]["num"] != 0)
        steps[tampered]["scalar"] = {"num": 1, "den": 97}
        cert.write_text(json.dumps(obj))
        code, out, _ = run(capsys, "check-proof", "--theory", str(worked_file), str(cert))
        # a lowered scalar shrinks both sides of the mul, so its own cut
        # (the first with it as a premise) still holds, with a smaller
        # antecedent; the mul states no formula, so the wrong scalar surfaces
        # at the next cut of the chain, the first that uses the own cut
        own = next(i for i, step in enumerate(steps)
                   if step["rule"] == "cut" and tampered in step["premises"])
        following = next(i for i, step in enumerate(steps)
                         if step["rule"] == "cut" and own in step["premises"])
        assert code == 3
        assert out.strip() == f"REJECT at step {following}: BAD_CUT"

    def test_raised_scalar_is_rejected_at_the_muls_own_cut(self, capsys, product_file, tmp_path):
        cert = tmp_path / "proof.json"
        run(capsys, "prove", "--theory", str(product_file), "--output", str(cert),
            "{p:1/4} => {q:1}")
        obj = json.loads(cert.read_text())
        steps = obj["steps"]
        tampered = next(i for i, step in enumerate(steps) if step["rule"] == "mul")
        assert steps[tampered]["scalar"] == {"num": 1, "den": 2}
        steps[tampered]["scalar"] = {"num": 1, "den": 1}
        cert.write_text(json.dumps(obj))
        code, out, _ = run(capsys, "check-proof", "--theory", str(product_file), str(cert))
        # a raised scalar raises the mul's consequent above what its cut uses
        own = next(i for i, step in enumerate(steps)
                   if step["rule"] == "cut" and tampered in step["premises"])
        assert code == 3
        assert out.strip() == f"REJECT at step {own}: BAD_CUT"

    def test_check_json_verdict(self, capsys, worked_file, tmp_path):
        cert = tmp_path / "proof.json"
        run(capsys, "prove", "--theory", str(worked_file), "--output", str(cert),
            "{p:1} => {r:1}")
        code, out, _ = run(
            capsys, "check-proof", "--theory", str(worked_file), "--format", "json", str(cert)
        )
        assert code == 0
        assert json.loads(out) == {"verdict": "ACCEPT"}

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="this interpreter has no limit on writing integers")
    def test_prove_refuses_a_certificate_it_cannot_write(self, capsys, tmp_path):
        # the product ascent to p = 1 takes 2,293 steps, and its certificate
        # states degrees whose integers run past the interpreter's
        # 4300-digit limit for writing them
        theory = tmp_path / "ascent.rfal"
        theory.write_text("algebra product\n{p:99/100} => {p:1}\n{} => {p:1/10000000000}\n")
        cert = tmp_path / "proof.json"
        code, out, err = run(capsys, "prove", "--theory", str(theory), "--output", str(cert),
                             "{} => {p:1}")
        assert (code, out) == (2, "")
        assert err == ("refusing to certify: the certificate needs a 15188-bit integer, "
                       "over the 4300-digit limit for writing integers\n")
        assert not cert.exists()
        code, out, _ = run(capsys, "degree", "--theory", str(theory), "{} => {p:1}")
        assert (code, out.splitlines()[0]) == (0, "1")

    def test_prove_refuses_capped_run(self, capsys, worked_file):
        code, _, err = run(
            capsys, "prove", "--theory", str(worked_file), "--max-iter", "1",
            "{p:1} => {r:1}",
        )
        assert code == 2
        assert "refusing to certify" in err
        assert "lower bound; still climbing: q +4/5 per step, r +3/10 per step" in err

    def test_malformed_certificate_exits_one(self, capsys, worked_file, tmp_path):
        cert = tmp_path / "broken.json"
        for text, message in (
            ("{not json", "certificate is not valid JSON"),
            (DEEP_ANTE_CERTIFICATE, "malformed fuzzy-set object: [[["),
            (PADDED_RATIONAL_CERTIFICATE, "malformed rational object: {"),
            (DUPLICATE_KEY_CERTIFICATE, "duplicate key 'p'"),
        ):
            cert.write_text(text)
            code, _, err = run(capsys, "check-proof", "--theory", str(worked_file), str(cert))
            assert code == 1
            assert message in err
            assert "Traceback" not in err
            assert all(len(line.encode()) < 300 for line in err.splitlines())


class TestCertificateWireFormat:
    """Derived steps may omit their formula; a stated one must be the derived one."""

    QUERY = "{p:1/2} => {r:1}"  # both rules fire below 1, so each needs a mul

    def _prove(self, capsys, worked_file, tmp_path):
        cert = tmp_path / "proof.json"
        code, _, _ = run(capsys, "prove", "--theory", str(worked_file), "--output", str(cert),
                         self.QUERY)
        assert code == 0
        return cert, json.loads(cert.read_text())

    def _check(self, capsys, worked_file, cert, obj):
        cert.write_text(json.dumps(obj))
        return run(capsys, "check-proof", "--theory", str(worked_file), str(cert))

    @classmethod
    def _full_format(cls, obj):
        """The certificate with every step stating its formula, as older
        certificates do."""
        theory = parse_theory(WORKED)
        query = parse_implication(cls.QUERY)
        _, trace = provability_degree(theory.algebra, theory, query)
        proof = synthesize_proof(theory.algebra, theory, query, trace)
        steps = [{**s.formula.to_json(), **wire} for s, wire in zip(proof.steps, obj["steps"])]
        return {**obj, "steps": steps}

    def test_full_format_certificate_is_accepted(self, capsys, worked_file, tmp_path):
        cert, obj = self._prove(capsys, worked_file, tmp_path)
        full = self._full_format(obj)
        assert all("ante" in step and "cons" in step for step in full["steps"])
        code, out, _ = self._check(capsys, worked_file, cert, full)
        assert (code, out.strip()) == (0, "ACCEPT")

    @pytest.mark.parametrize("rule, reason", [
        ("hyp", "NOT_IN_THEORY"), ("mul", "BAD_MUL"), ("cut", "BAD_CUT"),
    ])
    def test_tampered_stated_formula_is_rejected_at_its_step(
        self, capsys, worked_file, tmp_path, rule, reason
    ):
        cert, obj = self._prove(capsys, worked_file, tmp_path)
        full = self._full_format(obj)
        index, step = next(
            (i, s) for i, s in enumerate(full["steps"]) if s["rule"] == rule and s["cons"]
        )
        var = next(iter(step["cons"]))
        step["cons"][var] = rational_to_json(rational_from_json(step["cons"][var]) / 2)
        code, out, _ = self._check(capsys, worked_file, cert, full)
        assert (code, out.strip()) == (3, f"REJECT at step {index}: {reason}")

    def test_raised_conclusion_is_rejected(self, capsys, worked_file, tmp_path):
        # the same verdict whether or not the last step states its formula
        cert, obj = self._prove(capsys, worked_file, tmp_path)
        assert obj["conclusion"]["cons"] == {"r": {"num": 3, "den": 5}}
        last = len(obj["steps"]) - 1
        for certificate in (obj, self._full_format(obj)):
            conclusion = {**certificate["conclusion"], "cons": {"r": {"num": 1, "den": 1}}}
            raised = {**certificate, "conclusion": conclusion}
            code, out, _ = self._check(capsys, worked_file, cert, raised)
            assert (code, out.strip()) == (3, f"REJECT at step {last}: BAD_CONCLUSION")

    def test_axiom_without_formula_exits_one(self, capsys, worked_file, tmp_path):
        cert, obj = self._prove(capsys, worked_file, tmp_path)
        axiom = next(s for s in obj["steps"] if s["rule"] == "axiom")
        del axiom["ante"], axiom["cons"]
        code, _, err = self._check(capsys, worked_file, cert, obj)
        assert code == 1
        assert "malformed implication object" in err
        assert "Traceback" not in err


class TestOracle:
    def test_grid_mode(self, capsys, worked_file):
        code, out, _ = run(
            capsys, "oracle", "--theory", str(worked_file), "--grid-k", "10",
            "{p:1} => {r:1}",
        )
        assert code == 0
        assert "grid degree (k=10): 9/10" in out

    def test_grid_mode_reads_the_rule_table_only(self, capsys, monkeypatch, worked_file):
        parsed = []

        def parse_and_keep(*args, **kwargs):
            parsed.append(parse_theory(*args, **kwargs))
            return parsed[-1]

        monkeypatch.setattr(cli, "parse_theory", parse_and_keep)
        code, out, _ = run(capsys, "oracle", "--theory", str(worked_file), "--grid-k", "10",
                           "{p:1} => {r:1}")
        assert (code, out) == (0, "grid degree (k=10): 9/10 = 0.9\n")
        assert len(parsed) == 1 and parsed[0]._rules is None

    def test_requires_a_mode(self, capsys, worked_file):
        code, out, err = run(capsys, "oracle", "--theory", str(worked_file), "{} => {}")
        assert (code, out) == (1, "")
        assert err.startswith("usage: rfal oracle ")
        assert "error: the following arguments are required: --grid-k" in err
        assert "Traceback" not in err

    def test_budget_exceeded_exits_one(self, capsys, worked_file):
        code, _, err = run(
            capsys, "oracle", "--theory", str(worked_file), "--grid-k", "10",
            "--budget", "5", "{p:1} => {r:1}",
        )
        assert code == 1
        assert "budget" in err


class TestDemoGoedel:
    def test_rows_and_caption(self, capsys):
        code, out, _ = run(capsys, "demo-goedel", "--k-max", "10")
        assert code == 0
        lines = out.splitlines()
        assert lines[1].split() == ["2", "1/4"]
        assert lines[9].split() == ["10", "9/20"]
        assert "semantically entails it to degree 1" in out

    def test_json_rows(self, capsys):
        code, out, _ = run(capsys, "demo-goedel", "--k-max", "4", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["rows"][0] == {"k": 2, "degree": {"num": 1, "den": 4}}
        degrees = [Fraction(r["degree"]["num"], r["degree"]["den"]) for r in payload["rows"]]
        assert all(d < Fraction(1, 2) for d in degrees)
        assert degrees == sorted(degrees)

    def test_k_max_over_the_bound_is_refused(self, capsys):
        code, out, err = run(capsys, "demo-goedel", "--k-max", str(cli.MAX_GOEDEL_K + 1))
        assert (code, out) == (1, "")
        assert err == "error: k_max must be at most 10000, got 10001\n"


class TestUsageErrors:
    def test_unknown_subcommand_exits_one(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1

    def test_missing_theory_flag_exits_one(self, capsys):
        assert run(capsys, "degree", "{} => {}")[0] == 1

    @pytest.mark.parametrize("argv, flag", [
        (["oracle", "--grid-k", "10", "--samples", "3"], "--samples"),
        (["oracle", "--grid-k", "10", "--seed", "1"], "--seed"),
        (["oracle", "--grid-k", "10", "--max-iter", "5"], "--max-iter"),
        (["check-proof", "--max-iter", "5"], "--max-iter"),
    ])
    def test_flags_a_command_does_not_take_are_usage_errors(self, capsys, worked_file, argv,
                                                            flag):
        # oracle has no sampling mode; only the commands that run a closure
        # take --max-iter
        target = "{p:1} => {r:1}" if argv[0] == "oracle" else str(worked_file)
        code, out, err = run(capsys, *argv, "--theory", str(worked_file), target)
        assert (code, out) == (1, "")
        usage, message = err.split("\nerror: ")
        assert usage.startswith("usage: rfal ")
        assert flag in message
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, code, message", [
        (["oracle", "--grid-k", "7"], 1, "not a multiple of 1/7"),
        (["oracle", "--algebra", "product", "--grid-k", "10"], 1,
         "exact only for the lukasiewicz"),
        (["demo-goedel", "--k-max", "5", "--max-iter", "1"], 2, "did not converge"),
    ])
    def test_refusals_exit_with_their_code(self, capsys, worked_file, argv, code, message):
        if argv[0] == "oracle":
            argv = [*argv, "--theory", str(worked_file), "{p:1} => {r:1}"]
        exit_code, _, err = run(capsys, *argv)
        assert exit_code == code
        assert message in err
        assert "Traceback" not in err


class TestLayerNames:
    def test_each_command_calls_the_wrapped_names_once(self, capsys, monkeypatch, tmp_path,
                                                        worked_file):
        # The benchmark's traced run times each layer by wrapping, from
        # outside, the names `rfal.cli` imported and the two `Proof` methods
        # it calls.  A command that stopped calling one of them would read 0 s
        # for its layer.
        calls: dict = {}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("parse_theory", "parse_implication", "provability_degree",
                     "synthesize_proof", "check_proof", "semantic_degree_grid"):
            monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
        monkeypatch.setattr(Proof, "dumps", counted("Proof.dumps", Proof.dumps))
        loads = Proof.__dict__["loads"].__func__
        monkeypatch.setattr(Proof, "loads", classmethod(counted("Proof.loads", loads)))
        cert = tmp_path / "proof.json"
        query = "{p:1} => {r:1}"
        theory = ["--theory", str(worked_file)]
        expected = [
            (["degree", *theory, query],
             {"parse_theory": 1, "parse_implication": 1, "provability_degree": 1}),
            (["prove", *theory, "--output", str(cert), query],
             {"parse_theory": 1, "parse_implication": 1, "provability_degree": 1,
              "synthesize_proof": 1, "Proof.dumps": 1}),
            (["check-proof", *theory, str(cert)],
             {"parse_theory": 1, "Proof.loads": 1, "check_proof": 1}),
            (["oracle", *theory, "--grid-k", "10", query],
             {"parse_theory": 1, "parse_implication": 1, "semantic_degree_grid": 1}),
        ]
        for argv, names in expected:
            calls.clear()
            assert run(capsys, *argv)[0] == 0
            assert calls == names, argv[0]


class TestCyclicCollector:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_main_pauses_and_restores_the_callers_setting(
            self, capsys, monkeypatch, tmp_path, worked_file, product_file, enabled):
        cert = tmp_path / "proof.json"
        assert run(capsys, "prove", "--theory", str(worked_file), "--output", str(cert),
                   "{p:1} => {r:1}")[0] == 0
        during = []

        def watched(*args):
            during.append(gc.isenabled())
            return provability_degree(*args)

        monkeypatch.setattr(cli, "provability_degree", watched)
        calls = [
            (0, ["degree", "--theory", str(worked_file), "{p:1} => {r:1}"]),
            (1, ["degree", "--theory", str(tmp_path / "nope"), "{} => {}"]),
            (1, ["degree", "--theory", str(worked_file), "{p:1} => {r:"]),
            (1, ["frobnicate"]),
            (2, ["degree", "--theory", str(worked_file), "--max-iter", "1", "{p:1} => {r:1}"]),
            (3, ["check-proof", "--theory", str(product_file), str(cert)]),
        ]
        was = gc.isenabled()
        try:
            gc.enable() if enabled else gc.disable()
            for code, argv in calls:
                assert run(capsys, *argv)[0] == code
                assert gc.isenabled() is enabled
        finally:
            gc.enable() if was else gc.disable()
        assert during == [False, False]

    def test_a_command_leaves_few_cycles_behind(self, capsys, tmp_path):
        theory = tmp_path / "probe.rfal"
        theory.write_text(IDLE_RULES_PROBE)
        gc.collect()
        code, _, _ = run(capsys, "degree", "--theory", str(theory), "{} => {p:1}")
        assert code == 2
        assert gc.collect() < 200


def test_console_entry_point_runs(tmp_path):
    theory = tmp_path / "t.rfal"
    theory.write_text(WORKED)
    result = subprocess.run(
        [sys.executable, "-m", "rfal", "degree", "--theory", str(theory), "{p:1} => {r:1}"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.splitlines()[0] == "9/10 = 0.9"


def test_one_process_answers_like_fresh_ones(capsys, monkeypatch, worked_file):
    # the argument parser is built once per process: later calls, after a
    # usage error and --help too, must answer exactly as a fresh process does
    monkeypatch.setenv("COLUMNS", "80")
    query = "{p:1} => {r:1}"
    calls = [
        ["degree", "--theory", str(worked_file), query],
        ["degree", query],
        ["degree", "--help"],
        ["oracle", "--grid-k", "6", "--theory", str(worked_file), query],
        ["degree", "--theory", str(worked_file), query],
    ]
    for argv in calls:
        code = main(argv)
        captured = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "rfal", *argv], capture_output=True, text=True,
            env={**os.environ, "COLUMNS": "80"},
        )
        assert (code, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr)
