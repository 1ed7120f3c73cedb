"""Command-line front end.

Subcommands: degree, closure, prove, check-proof, oracle, demo-goedel.
Each writes its result through one writer, which renders it in full before
writing anything.  Exit codes are part of the stable interface:

    0  success
    1  parse or input error (position-reported where applicable)
    2  iteration cap hit (result is a lower bound); a trace over its entry
       budget; or any output that needs an integer past the interpreter's
       digit limit (`sys.get_int_max_str_digits()`), so nothing is written
    3  proof certificate rejected

`RFAL_MAX_ITER` mirrors `--max-iter`; the flag wins when both are set.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from .algebra import Algebra, format_degree, rational_to_json
from .engine import (
    DEFAULT_LIMITS,
    ClosureTrace,
    EngineLimits,
    UndecidedError,
    least_model,
    provability_degree,
)
from .logic import (
    Implication,
    ParseError,
    Theory,
    file_header_algebra,
    parse_implication,
    parse_set,
    parse_theory,
    truth_degree,
)
from .lsets import FuzzySet
from .oracle import (
    BudgetExceededError,
    GridSpec,
    sample_models,
    semantic_degree_grid,
)
from .proofs import Proof, SynthesisError, check_proof, synthesize_proof

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_LOWER_BOUND = 2
EXIT_REJECT = 3

# Most entries, evaluation entries and firings together, that `closure
# --trace` writes: about 25 MB of JSON.  The dense trace has one entry per
# rule per step, so a small theory with many rules and a long run would
# otherwise write gigabytes.
MAX_TRACE_ENTRIES = 200_000

# Largest `demo-goedel --k-max`.  Each row is a closure of its own, and the
# count has no other budget: 10,000 rows take about a second.
MAX_GOEDEL_K = 10_000


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 is reserved for the
    # lower-bound contract, so usage problems are reported as input errors.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)


@functools.cache  # built once per process; parse_args leaves it unchanged
def _build_parser() -> _Parser:
    parser = _Parser(prog="rfal", description="Exact inference for graded if-then rules.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--algebra", choices=[a.value for a in Algebra],
                        help="override the theory file's algebra header")
    common.add_argument("--max-iter", type=int, default=None,
                        help="fixpoint iteration cap (default 10000; env RFAL_MAX_ITER)")
    common.add_argument("--format", choices=["text", "json"], default="text")
    common.add_argument("--output", type=Path, default=None,
                        help="write the result here instead of stdout")

    themed = argparse.ArgumentParser(add_help=False, parents=[common])
    themed.add_argument("--theory", type=Path, required=True, help="theory file")

    p = sub.add_parser("degree", parents=[themed],
                       help="provability degree of a query implication")
    p.add_argument("query", help="implication, e.g. '{p:1} => {r:1}'")
    p.set_defaults(func=_cmd_degree)

    p = sub.add_parser("closure", parents=[themed],
                       help="least model containing a starting evaluation")
    p.add_argument("start", help="starting evaluation, e.g. '{p:1}'")
    p.add_argument("--trace", action="store_true", help="emit the full JSON trace")
    p.set_defaults(func=_cmd_closure)

    p = sub.add_parser("prove", parents=[themed],
                       help="emit a checkable proof certificate for a query")
    p.add_argument("query")
    p.set_defaults(func=_cmd_prove)

    p = sub.add_parser("check-proof", parents=[themed],
                       help="verify a proof certificate against a theory")
    p.add_argument("proof", type=Path, help="certificate JSON file")
    p.set_defaults(func=_cmd_check_proof)

    p = sub.add_parser("oracle", parents=[themed],
                       help="brute-force semantic degree and soundness sampling")
    p.add_argument("query")
    p.add_argument("--grid-k", type=int, default=None,
                   help="grid denominator for exact lukasiewicz enumeration")
    p.add_argument("--samples", type=int, default=None,
                   help="number of sampled models for the soundness check")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=100_000_000,
                   help="maximum nominal grid size (k+1)^n, not the number of "
                        "points the pruned walk visits")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("demo-goedel", parents=[common],
                       help="finite-truncation gap table under the goedel algebra")
    p.add_argument("--k-max", type=int, default=50)
    p.set_defaults(func=_cmd_demo_goedel)

    return parser


def _limits(args) -> EngineLimits:
    if args.max_iter is not None:
        return EngineLimits(args.max_iter)
    env = os.environ.get("RFAL_MAX_ITER")
    if env is not None:
        try:
            return EngineLimits(int(env))
        except ValueError as exc:
            raise ParseError(f"RFAL_MAX_ITER must be a positive integer: {env!r}") from exc
    return DEFAULT_LIMITS


def _load_theory(args) -> Theory:
    text = args.theory.read_text(encoding="utf-8-sig")
    override = Algebra(args.algebra) if args.algebra else None
    if override is not None:
        declared = file_header_algebra(text)
        if declared is not None and declared != override.value:
            print(
                f"warning: --algebra {override.value} overrides the file header "
                f"'algebra {declared}'",
                file=sys.stderr,
            )
    theory = parse_theory(text, algebra_override=override)
    if theory.algebra is Algebra.GOEDEL:
        print(
            "note: the goedel algebra is not complete for graded provability; "
            "reported degrees may undershoot semantic entailment",
            file=sys.stderr,
        )
    return theory


def _write(args, refusal: str, payload, lines=None, render=None) -> bool:
    """Render a command's result in full, then write it to `--output` or stdout.

    The text is `render()` if given, else the JSON `payload` (under `--format
    json`, or when there are no `lines`), else the lines `lines()` builds.
    When rendering fails, the payload (built first if it is a function) is
    walked: if its widest integer is past the interpreter's digit limit,
    `sys.get_int_max_str_digits()`, nothing is written, `refusal` names the
    integer's width on stderr and False is returned.  Other errors propagate.
    """
    try:
        if render is not None:
            text = render()
        elif lines is None or args.format == "json":
            text = json.dumps(payload, indent=2)
        else:
            text = "\n".join(lines())
    except ValueError:
        widest = _widest(payload() if callable(payload) else payload)
        try:
            str(widest)
        except ValueError:
            print(f"{refusal} needs a {widest.bit_length()}-bit integer, over the "
                  f"{sys.get_int_max_str_digits()}-digit limit for writing integers",
                  file=sys.stderr)
            return False
        raise
    if args.output is not None:
        args.output.write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    return True


def _widest(value) -> int:
    """The largest integer in a JSON value, or 0 when it holds none."""
    if isinstance(value, (dict, list)):
        return max(map(_widest, value.values() if isinstance(value, dict) else value), default=0)
    return value if isinstance(value, int) else 0


def _warn_capped(trace: ClosureTrace, message: str) -> None:
    """Print `message` and the variables that rose in a capped trace's last step.

    At most three are named, in sorted order.  A rise whose denominator is too
    long to print is described by its size.
    """
    before = trace.penultimate
    rises = []
    for var, degree in trace.final.items():
        rise = degree - before.degree(var)
        if rise:
            bits = rise.denominator.bit_length()
            text = str(rise) if bits <= 192 else f"(a fraction with a {bits}-bit denominator)"
            rises.append(f"{var} +{text} per step")
    more = f" and {len(rises) - 3} more" if len(rises) > 3 else ""
    print(f"{message}; still climbing: " + ", ".join(rises[:3]) + more, file=sys.stderr)


def _report(args, trace: ClosureTrace, what: str, payload: dict, line=None) -> int:
    """Write a `degree` or `closure` result, then exit 2 with a warning if the
    iteration cap stopped the run.  `line()` builds the text line that the
    iteration count and fixpoint flag follow; both join the JSON payload too.
    Without `line` the payload is the `--trace` JSON, which carries both.
    """
    lines, refused = None, "trace"
    if line is not None:
        payload.update(iterations=trace.iterations, fixpoint=trace.reached_fixpoint)
        fixpoint = "yes" if trace.reached_fixpoint else "no"
        lines = lambda: [line(), f"iterations: {trace.iterations}", f"fixpoint: {fixpoint}"]
        refused = what
    if not _write(args, f"refusing to write: the {refused}", payload, lines):
        return EXIT_LOWER_BOUND
    if not trace.reached_fixpoint:
        _warn_capped(trace, f"warning: iteration cap reached; the {what} is a lower bound only")
        return EXIT_LOWER_BOUND
    return EXIT_OK


def _cmd_degree(args) -> int:
    theory = _load_theory(args)
    query = parse_implication(args.query)
    degree, trace = provability_degree(theory.algebra, theory, query, _limits(args))
    return _report(args, trace, "degree", {"degree": rational_to_json(degree)},
                   lambda: format_degree(degree))


def _cmd_closure(args) -> int:
    theory = _load_theory(args)
    start = parse_set(args.start)
    trace = least_model(theory.algebra, theory, start, _limits(args))
    if not args.trace:
        return _report(args, trace, "closure", {"closure": trace.final.to_json()},
                       lambda: f"closure: {trace.final.to_text()}")
    entries, support = 0, set(trace.start.support())
    for r in trace.rounds:  # a round's steps share the support of its first
        support.update(r.raised)
        entries += r.count * (len(support) + len(theory))
    if entries > MAX_TRACE_ENTRIES:
        print(f"refusing to write: the trace has {entries} entries, over the "
              f"{MAX_TRACE_ENTRIES}-entry limit for --trace", file=sys.stderr)
        return EXIT_LOWER_BOUND
    return _report(args, trace, "closure", trace.to_json())


def _cmd_prove(args) -> int:
    theory = _load_theory(args)
    query = parse_implication(args.query)
    degree, trace = provability_degree(theory.algebra, theory, query, _limits(args))
    if not trace.reached_fixpoint:
        _warn_capped(trace, "refusing to certify: iteration cap reached without a fixpoint, "
                            "so the degree is only a lower bound")
        return EXIT_LOWER_BOUND
    proof = synthesize_proof(theory.algebra, theory, query, trace)
    # the certificate is written by `Proof.dumps`, and walked only if refused
    if not _write(args, "refusing to certify: the certificate", proof.to_json,
                  render=proof.dumps):
        return EXIT_LOWER_BOUND
    print(f"proof: {len(proof.steps)} steps, degree {degree}, "
          f"conclusion {proof.conclusion.to_text()}", file=sys.stderr)
    return EXIT_OK


def _cmd_check_proof(args) -> int:
    theory = _load_theory(args)
    proof = Proof.loads(args.proof.read_text(encoding="utf-8-sig"))
    verdict = check_proof(theory.algebra, theory, proof)
    where = "theory hash" if verdict.step is None else f"step {verdict.step}"
    text = "ACCEPT" if verdict.accepted else f"REJECT at {where}: {verdict.reason}"
    if not _write(args, "refusing to write: the verdict", verdict.to_json(), lambda: [text]):
        return EXIT_LOWER_BOUND
    return EXIT_OK if verdict.accepted else EXIT_REJECT


def _cmd_oracle(args) -> int:
    theory = _load_theory(args)
    query = parse_implication(args.query)
    if args.grid_k is None and args.samples is None:
        print("error: oracle needs --grid-k and/or --samples", file=sys.stderr)
        return EXIT_PARSE
    limits = _limits(args)
    sections: dict = {}

    if args.grid_k is not None:
        variables = tuple(sorted(set(theory.variables()) | query.variables()))
        spec = GridSpec(args.grid_k, variables)
        degree = semantic_degree_grid(theory, query, spec, budget=args.budget)
        sections["grid"] = {
            "degree": rational_to_json(degree),
            "denominator": args.grid_k,
            "variables": list(spec.variables),
        }

    if args.samples is not None:
        sampled = sample_models(theory.algebra, theory, query.antecedent,
                                args.samples, args.seed, limits=limits)
        engine_degree, trace = provability_degree(theory.algebra, theory, query, limits)
        truths = [truth_degree(theory.algebra, query, e) for e in sampled.models]
        violations = sum(1 for t in truths if t < engine_degree)
        minimum = min(truths, default=None)
        witness = truth_degree(theory.algebra, query, trace.final)
        sections["sampling"] = {
            "engine_degree": rational_to_json(engine_degree),
            "samples": len(sampled.models),
            "skipped": sampled.skipped,
            "violations": violations,
            "min_truth_degree": rational_to_json(minimum) if minimum is not None else None,
            "witness_truth_degree": rational_to_json(witness),
        }

    def lines():
        if args.grid_k is not None:
            yield f"grid degree (k={args.grid_k}): {format_degree(degree)}"
        if args.samples is not None:
            yield f"engine degree: {format_degree(engine_degree)}"
            yield f"samples: {len(sampled.models)} (skipped {sampled.skipped})"
            yield f"soundness violations: {violations}"
            if minimum is not None:
                yield f"minimum sampled truth degree: {format_degree(minimum)}"
            yield f"truth degree at the fixpoint witness: {format_degree(witness)}"

    if not _write(args, "refusing to write: the sampling result", sections, lines):
        return EXIT_LOWER_BOUND
    if args.samples is not None and not trace.reached_fixpoint:
        _warn_capped(trace, "warning: engine hit the iteration cap; sampling against a lower bound")
    return EXIT_OK


def goedel_gap_rows(k_max: int, limits: EngineLimits = DEFAULT_LIMITS) -> list[tuple[int, Fraction]]:
    """Provability degrees of `{} => {q:1}` for truncated half-threshold theories.

    The k-th truncation asserts p to degree 1/2 - 1/(2k) outright and promotes
    q to 1 once p reaches 1/2.  Each row is computed by running the engine
    under the goedel algebra, not from a closed form.
    """
    if k_max < 2:
        raise ValueError("k_max must be at least 2")
    if k_max > MAX_GOEDEL_K:
        raise ValueError(f"k_max must be at most {MAX_GOEDEL_K}, got {k_max}")
    half, full = Fraction(1, 2), Fraction(1)
    query = Implication(FuzzySet(), FuzzySet({"q": full}))
    rows: list[tuple[int, Fraction]] = []
    for k in range(2, k_max + 1):
        threshold = half - Fraction(1, 2 * k)
        theory = Theory(
            (
                Implication(FuzzySet(), FuzzySet({"p": threshold})),
                Implication(FuzzySet({"p": half}), FuzzySet({"q": full})),
            ),
            Algebra.GOEDEL,
        )
        degree, trace = provability_degree(Algebra.GOEDEL, theory, query, limits)
        if not trace.reached_fixpoint:
            raise UndecidedError(f"truncation k={k} did not converge")
        rows.append((k, degree))
    return rows


_GOEDEL_CAPTION = (
    "Every finite truncation proves the query only to a degree strictly below "
    "1/2, climbing toward 1/2 as k grows, yet the full infinite family of "
    "premises semantically entails it to degree 1: under the goedel algebra, "
    "graded provability does not reach graded semantic entailment."
)


def _cmd_demo_goedel(args) -> int:
    rows = goedel_gap_rows(args.k_max, _limits(args))
    payload = {
        "rows": [{"k": k, "degree": rational_to_json(d)} for k, d in rows],
        "caption": _GOEDEL_CAPTION,
    }

    def lines():
        width = max(len(str(k)) for k, _ in rows)
        yield f"{'k'.rjust(width)}  degree"
        yield from (f"{str(k).rjust(width)}  {d}" for k, d in rows)
        yield ""
        yield _GOEDEL_CAPTION

    if not _write(args, "refusing to write: the table", payload, lines):
        return EXIT_LOWER_BOUND
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # A command builds many containers and leaves almost no cycles behind, so
    # the cyclic collector's passes over them would find nothing to free.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (UndecidedError, SynthesisError) as exc:  # before ValueError: SynthesisError is one
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LOWER_BOUND
    except (ValueError, OSError, BudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
