"""Seeded closed-loop benchmark of the `rfal` command line.

Run from the repository root:

    python3 perfbench/run.py --workload query --seed 1 --seconds 20 --trace 0

One client runs the workload's requests back to back, each operation an
in-process `rfal.cli.main(argv)` call with `--format json --output FILE`
against theory files generated from the seed.  Every answer is checked
against a reference the benchmark holds itself.  Human-readable lines go to
stdout first; the last line is one JSON object with `correct`, `attempted`,
`failed` and `metrics` (end-to-end metrics with `--trace 0`, per-layer
metrics with `--trace 1`).  Timed end-to-end metrics are scaled to a
reference host speed (speed.py).  The exit code is 1 when an answer is wrong
and 2 when the package cannot be loaded.  See perfbench/README.md for the
metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import gen
from spans import LAYERS, Counters, Tracer, self_times
from speed import REFERENCE_S, Speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
# The request mixes are built so that the median and the 11th slowest
# request fall inside one latency class each once two passes have run.
MIN_PASSES = 2

# Answers of `degree` on the pinned canary instances (see `canary_digest`),
# as computed at the commit that introduced this benchmark.
CANARY_SEED = 20150226
CANARY_DIGEST = "7c6ec0403a9867bbf1322711068e080525318bbd8fc1272ce95f60b0f1fc1a59"


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def import_cli():
    """Fresh import of `rfal.cli` from this checkout's `src`."""
    for name in [n for n in sys.modules if n == "rfal" or n.startswith("rfal.")]:
        del sys.modules[name]
    cli = importlib.import_module("rfal.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"rfal was imported from {cli.__file__}, not from {SRC}")
    return cli


def set_up(workload: str, seed: int, workdir: Path, speed: Speed):
    """Import, generate and write the theory files, SETUP_REPEATS times.

    Returns the CLI module, the requests, the set-up times (raw, scaled to
    reference speed) and the digests of the written files (one per
    repetition; all equal when generation is deterministic).
    """
    times, digests = [], []
    for _ in range(SETUP_REPEATS):
        cal = speed.sample()
        start = perf_counter()
        cli = import_cli()
        files, requests = gen.GENERATORS[workload](random.Random(seed))
        for name, text in files.items():
            (workdir / name).write_text(text, encoding="utf-8")
        times.append((perf_counter() - start, cal))
        digest = hashlib.sha256()
        for name in sorted(files):
            digest.update((workdir / name).read_bytes())
        digests.append(digest.hexdigest())
    speed.sample()
    times = [(t, t * speed.scale(cal)) for t, cal in times]
    # Generators list requests by family and size.  Visiting them in golden-
    # ratio order spreads every stretch of the loop over all sizes, so a run
    # that stops part-way through a pass keeps the workload's mix.
    order = sorted(range(len(requests)), key=lambda i: (i * 0.6180339887498949) % 1.0)
    return cli, [requests[i] for i in order], times, digests


# ---------------------------------------------------------------------------
# One operation
# ---------------------------------------------------------------------------

def op_argv(op: str, req: gen.Request, workdir: Path) -> tuple[list[str], Path]:
    out = workdir / f"{req.label}.{op}.json"
    argv = [op, "--theory", str(workdir / req.theory), "--format", "json", "--output", str(out)]
    if op == "check-proof":
        argv.append(str(workdir / f"{req.label}.prove.json"))
    elif op == "oracle":
        argv += ["--grid-k", str(gen.GRID_K), req.query]
    else:
        argv.append(req.query)
    return argv, out


def call(main, argv) -> tuple[object, float, str]:
    """Run one CLI call with stdout and stderr captured; returns (exit, seconds, output)."""
    sink = io.StringIO()
    gc.collect()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = perf_counter()
        try:
            code = main(argv)
        except Exception as exc:  # a traceback is a defect: count it, keep measuring
            code = f"raised {type(exc).__name__}: {exc}"
        seconds = perf_counter() - start
    return code, seconds, sink.getvalue()


def file_size(path: Path) -> int:
    return path.stat().st_size if path.exists() else 0


def io_bytes(argv: list[str], out: Path) -> int:
    """Bytes the operation read (theory, certificate) and wrote (output)."""
    read = [Path(argv[2])] + ([Path(argv[-1])] if argv[0] == "check-proof" else [])
    return sum(file_size(p) for p in read + [out])


class Ledger:
    """Every execution of every operation, and the first answer of each."""

    def __init__(self):
        self.runs: list[dict] = []
        self.first: dict[tuple[str, str], object] = {}
        self.stderr: dict[tuple[str, str], str] = {}

    def record(self, req: gen.Request, op: str, code, seconds: float, out: Path, stderr: str,
               cal: int | None = None):
        # Certificates are compared by size here and checked in full once,
        # after the timed loop; the small JSON answers are compared whole.
        if op == "prove":
            answer = file_size(out)
        else:
            answer = out.read_text(encoding="utf-8") if out.exists() else None
        key = (req.label, op)
        stable = self.first.setdefault(key, answer) == answer
        self.stderr.setdefault(key, stderr)
        self.runs.append({"req": req, "op": op, "code": code, "s": seconds, "stable": stable,
                          "cal": cal})


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------

def timed_loop(cli, requests, workdir: Path, seconds: float, ledger: Ledger, speed: Speed):
    """Untraced run: whole passes over the requests, back to back, until
    `seconds` have gone by and MIN_PASSES have run.  Whole passes keep the
    workload's mix exact, so a latency percentile always falls at the same
    place in it.  A calibration
    sample is taken between requests every `speed.CAL_EVERY_S`.  Returns
    (seconds, calibration index) per request."""
    latencies = []
    speed.sample()
    start = perf_counter()
    while len(latencies) < MIN_PASSES * len(requests) or perf_counter() - start < seconds:
        for req in requests:
            if speed.due():
                speed.sample()
            cal = len(speed.samples) - 1
            total = 0.0
            for op in req.ops:
                argv, out = op_argv(op, req, workdir)
                code, s, err = call(cli.main, argv)
                ledger.record(req, op, code, s, out, err, cal)
                total += s
            latencies.append((total, cal))
    speed.sample()
    return latencies


def traced_loop(cli, requests, workdir: Path, seconds: float, ledger: Ledger):
    """Traced run: whole passes, each operation once untraced and once traced.

    The order of the pair alternates between neighbouring requests, between
    the ops of a request and between passes, so neither side always runs
    warm.  Returns the tracer, the counters, the number of passes and the
    summed untraced and traced seconds.
    """
    tracer, counters = Tracer(), Counters()
    tnorm = sys.modules["rfal.algebra"].tnorm
    plain_s = traced_s = 0.0
    start, passes = perf_counter(), 0
    while passes == 0 or perf_counter() - start < seconds:
        for i, req in enumerate(requests):
            for j, op in enumerate(req.ops):
                argv, out = op_argv(op, req, workdir)
                for traced in ((False, True) if (i + j + passes) % 2 == 0 else (True, False)):
                    if traced:
                        saved = tracer.install(cli, sys.modules["rfal.proofs"].Proof)
                        root = len(tracer.spans)
                        try:
                            code, s, err = call(tracer.root(op, cli.main), argv)
                        finally:
                            tracer.uninstall(saved)
                        counters.add_op(tracer, root, io_bytes(argv, out), tnorm)
                        traced_s += s
                    else:
                        code, s, err = call(cli.main, argv)
                        plain_s += s
                    ledger.record(req, op, code, s, out, err)
        passes += 1
    return tracer, counters, passes, plain_s, traced_s


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------

def _degree(obj) -> Fraction:
    return Fraction(obj["num"], obj["den"])


def _rat(q: Fraction) -> dict:
    return {"num": q.numerator, "den": q.denominator}


def witness_ok(req: gen.Request, model: dict, degree: Fraction) -> bool:
    """The model is a model of the theory via `rfal.logic`, containing the
    antecedent, and the query's truth degree in it is `degree`."""
    lsets, logic = sys.modules["rfal.lsets"], sys.modules["rfal.logic"]
    alg = sys.modules["rfal.algebra"].Algebra(req.algebra)
    theory = logic.Theory(
        [logic.Implication(lsets.FuzzySet(a), lsets.FuzzySet(c)) for a, c in req.rules], alg)
    query = logic.Implication(lsets.FuzzySet(req.antecedent), lsets.FuzzySet(req.consequent))
    e = lsets.FuzzySet(model)
    return (logic.is_model(alg, theory, e) and lsets.is_contained(query.antecedent, e)
            and logic.truth_degree(alg, query, e) == degree)


def check_request(req: gen.Request, workdir: Path, codes: dict, models: dict, shape: dict):
    """Verdict per operation of one request: 'ok' or a reason.

    `codes` maps each op to the exit codes seen; `models` caches reference
    closures per theory; `shape` collects the generator's shape statistics.
    """
    def read(op):
        return json.loads((workdir / f"{req.label}.{op}.json").read_text(encoding="utf-8"))

    verdicts = {}
    bad_exit = {op for op, seen in codes.items() if seen != {0}}
    shape["rules"].append(len(req.rules))
    if req.expect_iterations is not None:                       # ascent: closed form
        answer = read("degree")
        got = (_degree(answer["degree"]), answer["iterations"], answer["fixpoint"])
        shape["iterations"].append(answer["iterations"])
        shape["support"].append(1)
        if got == (1, req.expect_iterations, True) and not bad_exit:
            return {"degree": "ok"}
        return {"degree": f"got {got} exit {codes['degree']}, want (1, {req.expect_iterations}, True)"}

    if req.theory not in models:
        models[req.theory] = gen.least_model(req.algebra, req.rules, req.antecedent)
    model, iterations = models[req.theory]
    want = gen.inclusion(req.algebra, req.consequent, model)
    shape["iterations"].append(iterations)
    shape["support"].append(len(model))
    witness = witness_ok(req, model, want)
    for op in req.ops:
        verdicts[op] = "ok" if witness else "reference closure is not a witness model"
    if "degree" in req.ops:
        answer = read("degree")
        if (_degree(answer["degree"]), answer["fixpoint"]) != (want, True):
            verdicts["degree"] = f"degree {answer['degree']} fixpoint {answer['fixpoint']}, want {want}"
    if "oracle" in req.ops:
        got = _degree(read("oracle")["grid"]["degree"])
        if got != want:
            verdicts["oracle"] = f"grid degree {got}, want {want}"
    if "prove" in req.ops:
        cert = json.loads((workdir / f"{req.label}.prove.json").read_text(encoding="utf-8"))
        shape["proof_steps"].append(len(cert["steps"]))
        scaled = {v: gen.tnorm(req.algebra, want, d) for v, d in req.consequent.items()}
        conclusion = {"ante": {v: _rat(d) for v, d in req.antecedent.items()},
                      "cons": {v: _rat(d) for v, d in scaled.items() if d}}
        if cert["conclusion"] != conclusion:
            verdicts["prove"] = f"conclusion {cert['conclusion']}, want {conclusion}"
        if read("check-proof") != {"verdict": "ACCEPT"}:
            verdicts["check-proof"] = f"verdict {read('check-proof')}"
    for op in bad_exit:
        verdicts[op] = f"exit codes {sorted(map(str, codes[op]))}"
    return verdicts


def cap_probe(cli, workdir: Path) -> tuple[str, str | None]:
    """One off-the-clock `degree` call on the n = 10000 lukasiewicz ascent.

    At the commit that introduced this benchmark it reaches p = 1 exactly at
    the default cap and exits 2 without a fixpoint (ROADMAP item 4).  It runs
    outside the loop, so it is neither attempted nor failed, but every ascent
    run reports it; any answer other than that defect or the closed form
    makes the run incorrect.  Returns (report line, problem or None).
    """
    name, text, req = gen.cap_boundary_probe()
    (workdir / name).write_text(text, encoding="utf-8")
    argv, out = op_argv("degree", req, workdir)
    code, _, _ = call(cli.main, argv)
    try:
        answer = json.loads(out.read_text(encoding="utf-8"))
        got = (_degree(answer["degree"]), answer["iterations"], answer["fixpoint"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        got = f"unreadable output: {exc!r}"
    n = req.expect_iterations
    head = f"cap-boundary probe {req.label} (off the clock, not counted): exit {code}, got {got}"
    if code == 0 and got == (1, n, True):
        return head + "; the closed form, the cap defect is fixed", None
    if code == 2 and got == (1, n, False):
        return head + "; KNOWN DEFECT: p = 1 at the cap without a fixpoint (ROADMAP item 4)", None
    return head, f"{req.label} degree: got {got} exit {code}, want (1, {n}, True) or the known defect"


def canary_digest(cli, workdir: Path) -> str:
    """Digest of `degree` answers on pinned 200/1000 theories of both algebras."""
    rng = random.Random(CANARY_SEED)
    digest = hashlib.sha256()
    for algebra in (gen.LUK, gen.PROD):
        name, text, reqs = gen.layered_requests(
            rng, f"canary-{algebra}", algebra, 200, 1000, 6, 3, ("degree",))
        (workdir / name).write_text(text, encoding="utf-8")
        for req in reqs:
            argv, out = op_argv("degree", req, workdir)
            code, _, _ = call(cli.main, argv)
            degree = _degree(json.loads(out.read_text(encoding="utf-8"))["degree"]) if code == 0 else None
            digest.update(f"{req.query} exit {code} degree {degree}\n".encode())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Statistics and the record of the run
# ---------------------------------------------------------------------------

def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it: (value, percentile)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def environment(workload: str, seed: int, trace: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "rfal").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without starting git; None outside git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        loose = ROOT / ".git" / ref[5:]
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rfal" / "cli.py").is_file():
        print(f"error: no rfal sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        return run(args, workdir)
    except ImportError as exc:
        print(f"error: cannot import rfal: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def verify(args, cli, requests, workdir: Path, ledger: Ledger, file_digests):
    """Check every answer and the self-checks, after the clock.

    Returns the verdict per (request label, op), the problems that make the
    run incorrect, the generator shape statistics and report lines (the
    cap-boundary probe on `ascent`).
    """
    codes: dict = {}
    for r in ledger.runs:
        codes.setdefault((r["req"].label, r["op"]), set()).add(r["code"])
    models: dict = {}
    shape = {"rules": [], "iterations": [], "support": [], "proof_steps": []}
    verdicts = {}
    for req in requests:
        per_op = {op: codes[(req.label, op)] for op in req.ops}
        try:
            checked = check_request(req, workdir, per_op, models, shape)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            checked = {op: f"unreadable output: {exc!r}" for op in req.ops}
        for op, verdict in checked.items():
            verdicts[(req.label, op)] = verdict
    problems = [f"{label} {op}: {v}" for (label, op), v in verdicts.items() if v != "ok"]
    unstable = sorted({(r["req"].label, r["op"]) for r in ledger.runs if not r["stable"]})
    problems += [f"{label} {op}: answer changed between passes" for label, op in unstable]
    if len(set(file_digests)) != 1:
        problems.append("the same seed wrote different theory files")
    if args.workload == "query":
        canary = canary_digest(cli, workdir)
        if canary != CANARY_DIGEST:
            problems.append(f"canary answer digest {canary} != {CANARY_DIGEST}")
    notes = []
    if args.workload == "ascent":
        note, problem = cap_probe(cli, workdir)
        notes.append(note)
        problems += [problem] if problem else []
    return verdicts, problems, shape, notes


def plain_metrics(ledger, ok_runs, latencies, setup_times, peak_rss_mb, requests, workdir,
                  speed):
    """End-to-end metrics of the untraced run, plus the printed extras.

    Times are scaled to reference host speed (see speed.py); the raw
    figures are printed alongside.
    """
    raw = [t for t, _ in latencies]
    scaled = [t * speed.scale(cal) for t, cal in latencies]
    req_tail, req_pct = tail(scaled)
    outputs = [sum(file_size(workdir / f"{req.label}.{op}.json") for op in req.ops)
               for req in requests]
    metrics = {
        "setup_s": (statistics.median(s for _, s in setup_times), "s"),
        "ops_per_s": (ok_runs / sum(r["s"] * speed.scale(r["cal"]) for r in ledger.runs), "1/s"),
        "req_p50_ms": (1e3 * statistics.median(scaled), "ms"),
        "req_tail_ms": (1e3 * req_tail, "ms"),
        "output_kb": (statistics.fmean(outputs) / 1e3, "kB"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    cal = speed.samples
    lines = [f"requests {len(latencies)}; req_tail_ms is p{req_pct:.1f}",
             f"calibration: {len(cal)} samples, median {1e3 * statistics.median(cal):.1f} ms, "
             f"range {1e3 * min(cal):.1f}-{1e3 * max(cal):.1f} ms; reference {1e3 * REFERENCE_S:.1f} ms",
             f"raw (unscaled): setup_s {statistics.median(t for t, _ in setup_times):.4f} s, "
             f"ops_per_s {ok_runs / sum(r['s'] for r in ledger.runs):.4f} 1/s, "
             f"req_p50_ms {1e3 * statistics.median(raw):.3f} ms, req_tail_ms {1e3 * tail(raw)[0]:.3f} ms"]
    by_op: dict[str, list[float]] = {}
    for r in ledger.runs:
        by_op.setdefault(r["op"], []).append(r["s"] * speed.scale(r["cal"]))
    for op, samples in by_op.items():
        name = "check" if op == "check-proof" else op
        value, pct = tail(samples)
        lines.append(f"{name}_p50_ms {1e3 * statistics.median(samples):.3f} ms, "
                     f"{name}_tail_ms {1e3 * value:.3f} ms (p{pct:.1f}), n={len(samples)}")
    certs = sum(file_size(workdir / f"{req.label}.prove.json")
                for req in requests if "prove" in req.ops)
    lines.append(f"cert_mb {certs / 1e6:.3f} MB per pass")
    return metrics, lines


def traced_metrics(args, tracer, counters, passes, plain_s, traced_s):
    """Per-layer metrics of the traced run; writes the spans out."""
    metrics = counters.metrics(passes)
    metrics["trace.overhead_pct"] = (100.0 * (traced_s / plain_s - 1.0), "%")
    shares = self_times(tracer.spans)
    total = sum(shares.values())
    lines = [f"traced passes {passes}; self time by layer: " + ", ".join(
        f"{layer} {100 * shares[layer] / total:.1f}%" for layer in LAYERS)
        + f"; dominant: {max(shares, key=shares.get)}"]
    (OUT / f"{args.workload}-s{args.seed}.spans.json").write_text(
        json.dumps({"columns": ["op", "name", "parent", "start", "end"], "spans": tracer.spans}),
        encoding="utf-8")
    return metrics, lines


def run(args, workdir: Path) -> int:
    env = environment(args.workload, args.seed, args.trace)
    speed = Speed()
    cli, requests, setup_times, file_digests = set_up(args.workload, args.seed, workdir, speed)
    gc.collect()
    gc.freeze()          # keep the generated inputs out of the collections ops trigger

    ledger = Ledger()
    if args.trace:
        traced = traced_loop(cli, requests, workdir, args.seconds, ledger)
    else:
        latencies = timed_loop(cli, requests, workdir, args.seconds, ledger, speed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    verdicts, problems, shape, notes = verify(args, cli, requests, workdir, ledger, file_digests)
    verdict_of = [verdicts[(r["req"].label, r["op"])] for r in ledger.runs]
    attempted = len(ledger.runs)
    failed = sum(1 for v, r in zip(verdict_of, ledger.runs) if v != "ok" or not r["stable"])
    correct = not problems

    def mean(xs):
        return statistics.fmean(xs) if xs else 0.0
    lines = [f"perfbench {json.dumps(env)}",
             f"requests per pass: {len(requests)}; operations attempted {attempted}, "
             f"failed {failed}, failed_ratio {failed / attempted:.4f}",
             "shape: mean iterations {:.1f}, rules {:.1f}, closure support {:.1f}, "
             "proof steps {:.1f}".format(mean(shape["iterations"]), mean(shape["rules"]),
                                         mean(shape["support"]), mean(shape["proof_steps"]))]
    lines += notes
    lines += [f"FAIL {problem[:300]}" for problem in problems]
    lines += [f"  stderr of {label} {op}: {err.strip()[:200]}"
              for (label, op), err in ledger.stderr.items() if verdicts[(label, op)] != "ok"]
    if args.trace:
        metrics, more = traced_metrics(args, *traced)
    else:
        ok_runs = attempted - failed
        metrics, more = plain_metrics(ledger, ok_runs, latencies, setup_times, peak_rss_mb,
                                      requests, workdir, speed)
    lines += more
    lines += [f"{name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = {"env": env, **result, "problems": problems, "report": lines}
    (OUT / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
