"""Spans around the public calls a CLI operation makes, and per-layer counters.

Only the traced run installs the wrappers.  `rfal.cli` calls the library
through the names it imported, so wrapping those names (and the two `Proof`
methods it calls) times each layer from outside without touching `rfal`.
Counters are derived after the operation returns, from the objects the
wrapped calls returned, so they cost no traced time.
"""

from __future__ import annotations

from time import perf_counter

# Wrapped name -> layer.  `Proof.dumps` / `Proof.loads` are class attributes.
LAYER_OF = {
    "parse_theory": "logic",
    "parse_implication": "logic",
    "provability_degree": "engine",
    "synthesize_proof": "proofs",
    "Proof.dumps": "proofs",
    "Proof.loads": "proofs",
    "check_proof": "proofs",
    "semantic_degree_grid": "oracle",
}
LAYERS = ("cli", "logic", "engine", "proofs", "oracle")
CLI_NAMES = [name for name in LAYER_OF if not name.startswith("Proof.")]


class Tracer:
    """In-memory spans: [op id, name, parent index, start, end]."""

    def __init__(self):
        self.spans: list[list] = []
        self.calls: list[tuple] = []     # (name, args, result) of the current op
        self._stack: list[int] = []
        self.op = -1

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([self.op, name, self._stack[-1] if self._stack else None, 0.0, 0.0])
            self._stack.append(index)
            self.spans[index][3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index][4] = perf_counter()
                self._stack.pop()
            self.calls.append((name, args, result))
            return result
        return traced

    def install(self, cli, proof_cls):
        """Wrap the names `cli` imported and the `Proof` methods; returns the undo list."""
        saved = [(cli, name, getattr(cli, name)) for name in CLI_NAMES]
        saved += [(proof_cls, name, proof_cls.__dict__[name]) for name in ("dumps", "loads")]
        for owner, name, original in saved:
            label = f"Proof.{name}" if owner is proof_cls else name
            if isinstance(original, classmethod):
                setattr(owner, name, classmethod(self._wrap(label, original.__func__)))
            else:
                setattr(owner, name, self._wrap(label, original))
        return saved

    @staticmethod
    def uninstall(saved):
        for owner, name, original in saved:
            setattr(owner, name, original)

    def root(self, op_name, main):
        """`main` wrapped as the root span of the next operation."""
        self.op += 1
        self.calls = []
        return self._wrap(f"cli.{op_name}", main)


def self_times(spans) -> dict[str, float]:
    """Summed self time per layer: span duration minus its children's."""
    child = [0.0] * len(spans)
    for op, name, parent, start, end in spans:
        if parent is not None:
            child[parent] += end - start
    totals = dict.fromkeys(LAYERS, 0.0)
    for index, (op, name, parent, start, end) in enumerate(spans):
        layer = "cli" if name.startswith("cli.") else LAYER_OF[name]
        totals[layer] += end - start - child[index]
    return totals


class Counters:
    """Per-layer work counted from returned objects, summed over operations."""

    FIELDS = (
        "parse_s", "parse_bytes", "theories", "rules_parsed", "parse_theory_s",
        "closure_s", "closures", "rule_evals", "firings", "useful_firings",
        "iterations", "cap_hits", "trace_entries", "max_den_bits", "closure_support",
        "synth_s", "proofs", "proof_steps", "dumps_s", "loads_s", "check_s", "steps_checked",
        "cert_set_entries", "grid_s", "grid_space", "cli_self_s", "io_bytes",
    )

    def __init__(self):
        for name in self.FIELDS:
            setattr(self, name, 0)

    def add_op(self, tracer: Tracer, root: int, io_bytes: int, tnorm):
        """Account one finished operation whose root span is `root`."""
        op_spans = [s for s in tracer.spans[root:] if s[0] == tracer.spans[root][0]]
        durations = {}
        for op, name, parent, start, end in op_spans:
            durations.setdefault(name, []).append(end - start)
        children = sum(end - start for _, _, parent, start, end in op_spans if parent == root)
        total = op_spans[0][4] - op_spans[0][3]
        self.cli_self_s += total - children
        self.io_bytes += io_bytes
        times = {name: sum(values) for name, values in durations.items()}
        self.parse_s += times.get("parse_theory", 0) + times.get("parse_implication", 0)
        self.parse_theory_s += times.get("parse_theory", 0)
        self.closure_s += times.get("provability_degree", 0)
        self.synth_s += times.get("synthesize_proof", 0)
        self.dumps_s += times.get("Proof.dumps", 0)
        self.loads_s += times.get("Proof.loads", 0)
        self.check_s += times.get("check_proof", 0)
        self.grid_s += times.get("semantic_degree_grid", 0)
        for name, args, result in tracer.calls:
            if name == "parse_theory":
                self.parse_bytes += len(args[0].encode("utf-8"))
                self.theories += 1
                self.rules_parsed += len(result.rules)
            elif name == "provability_degree":
                self._add_closure(args[0], args[1], result[1], tnorm)
            elif name == "synthesize_proof":
                self.proofs += 1
                self.proof_steps += len(result.steps)
                self.cert_set_entries += sum(
                    len(s.formula.antecedent) + len(s.formula.consequent) for s in result.steps)
            elif name == "check_proof":
                proof = args[2]
                if result.accepted:
                    self.steps_checked += len(proof.steps)
                elif result.step is not None:
                    self.steps_checked += result.step + 1
            elif name == "semantic_degree_grid":
                spec = args[2]
                self.grid_space += (spec.denominator + 1) ** len(spec.variables)
        tracer.calls = []

    def _add_closure(self, alg, theory, trace, tnorm):
        rules = theory.rules
        self.closures += 1
        self.iterations += trace.iterations
        self.cap_hits += not trace.reached_fixpoint
        self.rule_evals += (trace.iterations + trace.reached_fixpoint) * len(rules)
        self.closure_support += len(trace.final)
        before = trace.start
        for evaluation, firings in zip(trace.steps, trace.firing_log):
            self.trace_entries += len(evaluation) + len(firings)
            for index, c in firings:
                if c == 0:
                    continue
                self.firings += 1
                if any(tnorm(alg, c, d) > before.degree(v) for v, d in rules[index].consequent.items()):
                    self.useful_firings += 1
            for _, d in evaluation.items():
                self.max_den_bits = max(self.max_den_bits, d.denominator.bit_length())
            before = evaluation

    def metrics(self, passes: int) -> dict:
        """The per-layer metrics as name -> (value, unit); sums are per pass."""
        def rate(num, den):
            return num / den if den else 0.0

        def per_pass(value):
            return value / passes
        return {
            "logic.parse_s": (per_pass(self.parse_s), "s"),
            "logic.parse_mb_per_s": (rate(self.parse_bytes / 1e6, self.parse_theory_s), "MB/s"),
            "logic.rules_parsed": (per_pass(self.rules_parsed), "count"),
            "engine.closure_s": (per_pass(self.closure_s), "s"),
            "engine.rule_evals": (per_pass(self.rule_evals), "count"),
            "engine.firings": (per_pass(self.firings), "count"),
            "engine.useful_ratio": (rate(self.useful_firings, self.rule_evals), "ratio"),
            "engine.iterations": (per_pass(self.iterations), "count"),
            "engine.cap_hits": (per_pass(self.cap_hits), "count"),
            "engine.trace_entries": (per_pass(self.trace_entries), "count"),
            "algebra.max_den_bits": (self.max_den_bits, "bits"),
            "lsets.closure_support": (per_pass(self.closure_support), "count"),
            "proofs.synth_s": (per_pass(self.synth_s), "s"),
            "proofs.steps": (per_pass(self.proof_steps), "count"),
            "proofs.dumps_s": (per_pass(self.dumps_s), "s"),
            "proofs.loads_s": (per_pass(self.loads_s), "s"),
            "proofs.check_s": (per_pass(self.check_s), "s"),
            "proofs.check_steps_per_s": (rate(self.steps_checked, self.check_s), "1/s"),
            "proofs.cert_set_entries": (per_pass(self.cert_set_entries), "count"),
            "oracle.grid_s": (per_pass(self.grid_s), "s"),
            "oracle.grid_space": (per_pass(self.grid_space), "count"),
            "oracle.grid_points_per_s": (rate(self.grid_space, self.grid_s), "1/s"),
            "cli.self_s": (per_pass(self.cli_self_s), "s"),
            "cli.io_mb": (per_pass(self.io_bytes) / 1e6, "MB"),
            "shape.mean_iterations": (rate(self.iterations, self.closures), "count"),
            "shape.mean_rules": (rate(self.rules_parsed, self.theories), "count"),
            "shape.mean_closure_support": (rate(self.closure_support, self.closures), "count"),
            "shape.mean_proof_steps": (rate(self.proof_steps, self.proofs), "count"),
        }
