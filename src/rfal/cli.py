"""Command-line front end.

Subcommands: degree, closure, prove, check-proof, oracle, demo-goedel.
Exit codes are part of the stable interface:

    0  success
    1  parse or input error (position-reported where applicable)
    2  iteration cap hit (result is a lower bound), or a certificate, result
       or trace refused
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
from .proofs import Proof, SynthesisError, check_proof, synthesize_proof, widest_integer

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_LOWER_BOUND = 2
EXIT_REJECT = 3

# Most entries, evaluation entries and firings together, that `closure
# --trace` writes: about 25 MB of JSON.  The dense trace has one entry per
# rule per step, so a small theory with many rules and a long run would
# otherwise write gigabytes.
MAX_TRACE_ENTRIES = 200_000


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
    text = args.theory.read_text(encoding="utf-8")
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


def _emit(args, text: str) -> None:
    if args.output is not None:
        args.output.write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _still_climbing(trace: ClosureTrace) -> str:
    """The variables that rose in a capped trace's last step, with their rise.

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
    return "still climbing: " + ", ".join(rises[:3]) + more


def _unwritable(widest: int) -> str | None:
    """Why an output whose largest integer is `widest` cannot be written, or
    None when it can."""
    # the interpreter refuses to write an integer past this many digits;
    # below 3·digits bits an integer is under 8^digits, so within the limit
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if digits and widest.bit_length() >= 3 * digits and widest >= 10 ** digits:
        return (f"needs a {widest.bit_length()}-bit integer, over the {digits}-digit "
                "limit for writing integers")
    return None


def _widest(degrees) -> int:
    return max((max(q.numerator, q.denominator) for q in degrees), default=1)


def _cmd_degree(args) -> int:
    theory = _load_theory(args)
    query = parse_implication(args.query)
    degree, trace = provability_degree(theory.algebra, theory, query, _limits(args))
    problem = _unwritable(_widest([degree]))
    if problem:
        print(f"refusing to write: the degree {problem}", file=sys.stderr)
        return EXIT_LOWER_BOUND
    payload = {
        "degree": rational_to_json(degree),
        "iterations": trace.iterations,
        "fixpoint": trace.reached_fixpoint,
    }
    if args.format == "json":
        _emit(args, json.dumps(payload, indent=2))
    else:
        lines = [
            format_degree(degree),
            f"iterations: {trace.iterations}",
            f"fixpoint: {'yes' if trace.reached_fixpoint else 'no'}",
        ]
        _emit(args, "\n".join(lines))
    if not trace.reached_fixpoint:
        print("warning: iteration cap reached; the degree is a lower bound only; "
              + _still_climbing(trace), file=sys.stderr)
        return EXIT_LOWER_BOUND
    return EXIT_OK


def _cmd_closure(args) -> int:
    theory = _load_theory(args)
    start = parse_set(args.start)
    trace = least_model(theory.algebra, theory, start, _limits(args))
    if args.trace:
        entries, support = 0, set(trace.start.support())
        for r in trace.rounds:  # a round's steps share the support of its first
            support.update(r.raised)
            entries += r.count * (len(support) + len(theory))
        if entries > MAX_TRACE_ENTRIES:
            print(f"refusing to write: the trace has {entries} entries, over the "
                  f"{MAX_TRACE_ENTRIES}-entry limit for --trace", file=sys.stderr)
            return EXIT_LOWER_BOUND
        what = "trace"
        degrees = [q for step in (trace.start,) + trace.steps for _, q in step.items()]
        degrees += [c for firings in trace.firing_log for _, c in firings]
    else:
        what, degrees = "closure", [q for _, q in trace.final.items()]
    problem = _unwritable(_widest(degrees))
    if problem:
        print(f"refusing to write: the {what} {problem}", file=sys.stderr)
        return EXIT_LOWER_BOUND
    if args.trace:
        _emit(args, json.dumps(trace.to_json(), indent=2))
    elif args.format == "json":
        payload = {
            "closure": trace.final.to_json(),
            "iterations": trace.iterations,
            "fixpoint": trace.reached_fixpoint,
        }
        _emit(args, json.dumps(payload, indent=2))
    else:
        lines = [
            f"closure: {trace.final.to_text()}",
            f"iterations: {trace.iterations}",
            f"fixpoint: {'yes' if trace.reached_fixpoint else 'no'}",
        ]
        _emit(args, "\n".join(lines))
    if not trace.reached_fixpoint:
        print("warning: iteration cap reached; the closure is a lower bound only; "
              + _still_climbing(trace), file=sys.stderr)
        return EXIT_LOWER_BOUND
    return EXIT_OK


def _cmd_prove(args) -> int:
    theory = _load_theory(args)
    query = parse_implication(args.query)
    degree, trace = provability_degree(theory.algebra, theory, query, _limits(args))
    if not trace.reached_fixpoint:
        print("refusing to certify: iteration cap reached without a fixpoint, "
              "so the degree is only a lower bound; " + _still_climbing(trace), file=sys.stderr)
        return EXIT_LOWER_BOUND
    proof = synthesize_proof(theory.algebra, theory, query, trace)
    problem = _unwritable(widest_integer(proof))
    if problem:
        print(f"refusing to certify: the certificate {problem}", file=sys.stderr)
        return EXIT_LOWER_BOUND
    _emit(args, proof.dumps())
    print(f"proof: {len(proof.steps)} steps, degree {degree}, "
          f"conclusion {proof.conclusion.to_text()}", file=sys.stderr)
    return EXIT_OK


def _cmd_check_proof(args) -> int:
    theory = _load_theory(args)
    proof = Proof.loads(args.proof.read_text(encoding="utf-8"))
    verdict = check_proof(theory.algebra, theory, proof)
    if args.format == "json":
        _emit(args, json.dumps(verdict.to_json(), indent=2))
    elif verdict.accepted:
        _emit(args, "ACCEPT")
    else:
        where = "theory hash" if verdict.step is None else f"step {verdict.step}"
        _emit(args, f"REJECT at {where}: {verdict.reason}")
    return EXIT_OK if verdict.accepted else EXIT_REJECT


def _cmd_oracle(args) -> int:
    theory = _load_theory(args)
    query = parse_implication(args.query)
    if args.grid_k is None and args.samples is None:
        print("error: oracle needs --grid-k and/or --samples", file=sys.stderr)
        return EXIT_PARSE
    limits = _limits(args)
    sections: dict = {}
    text_lines: list[str] = []

    if args.grid_k is not None:
        variables = tuple(sorted(set(theory.variables()) | query.variables()))
        spec = GridSpec(args.grid_k, variables)
        degree = semantic_degree_grid(theory, query, spec, budget=args.budget)
        sections["grid"] = {
            "degree": rational_to_json(degree),
            "denominator": args.grid_k,
            "variables": list(spec.variables),
        }
        text_lines.append(f"grid degree (k={args.grid_k}): {format_degree(degree)}")

    if args.samples is not None:
        sampled = sample_models(theory.algebra, theory, query.antecedent,
                                args.samples, args.seed, limits=limits)
        engine_degree, trace = provability_degree(theory.algebra, theory, query, limits)
        truths = [truth_degree(theory.algebra, query, e) for e in sampled.models]
        violations = sum(1 for t in truths if t < engine_degree)
        minimum = min(truths, default=None)
        witness = truth_degree(theory.algebra, query, trace.final)
        problem = _unwritable(_widest(q for q in (engine_degree, minimum, witness) if q is not None))
        if problem:
            print(f"refusing to write: the sampling result {problem}", file=sys.stderr)
            return EXIT_LOWER_BOUND
        if not trace.reached_fixpoint:
            print("warning: engine hit the iteration cap; sampling against a lower bound; "
                  + _still_climbing(trace), file=sys.stderr)
        sections["sampling"] = {
            "engine_degree": rational_to_json(engine_degree),
            "samples": len(sampled.models),
            "skipped": sampled.skipped,
            "violations": violations,
            "min_truth_degree": rational_to_json(minimum) if minimum is not None else None,
            "witness_truth_degree": rational_to_json(witness),
        }
        text_lines.append(f"engine degree: {format_degree(engine_degree)}")
        text_lines.append(f"samples: {len(sampled.models)} (skipped {sampled.skipped})")
        text_lines.append(f"soundness violations: {violations}")
        if minimum is not None:
            text_lines.append(f"minimum sampled truth degree: {format_degree(minimum)}")
        text_lines.append(f"truth degree at the fixpoint witness: {format_degree(witness)}")

    if args.format == "json":
        _emit(args, json.dumps(sections, indent=2))
    else:
        _emit(args, "\n".join(text_lines))
    return EXIT_OK


def goedel_gap_rows(k_max: int, limits: EngineLimits = DEFAULT_LIMITS) -> list[tuple[int, Fraction]]:
    """Provability degrees of `{} => {q:1}` for truncated half-threshold theories.

    The k-th truncation asserts p to degree 1/2 - 1/(2k) outright and promotes
    q to 1 once p reaches 1/2.  Each row is computed by running the engine
    under the goedel algebra, not from a closed form.
    """
    if k_max < 2:
        raise ValueError("k_max must be at least 2")
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
    if args.format == "json":
        payload = {
            "rows": [{"k": k, "degree": rational_to_json(d)} for k, d in rows],
            "caption": _GOEDEL_CAPTION,
        }
        _emit(args, json.dumps(payload, indent=2))
    else:
        width = max(len(str(k)) for k, _ in rows)
        lines = [f"{'k'.rjust(width)}  degree"]
        lines.extend(f"{str(k).rjust(width)}  {d}" for k, d in rows)
        lines.append("")
        lines.append(_GOEDEL_CAPTION)
        _emit(args, "\n".join(lines))
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
