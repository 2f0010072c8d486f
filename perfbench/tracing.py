"""Spans around qca2's layer boundaries, recorded from outside the package.

`Tracer.installed()` replaces module attributes of qca2 (the names each
caller looks up at call time) with wrappers that record a span per call,
and restores them on exit.  qca2's source is never edited.

A span has a name, start, end, parent and a few attributes.  Spans stay in
memory until the run writes them out.  A span's self time is its duration
minus the part of it that its child spans cover, so the self times of a
command's spans add up to the command's traced wall time.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

BOOKKEEPING = "perfbench.trace"  # span for attribute work the wrappers add


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in the same list, -1 for a root
    attrs: dict = field(default_factory=dict)


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for start, end in sorted(children[i]):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.end - span.start - covered)
    return out


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._interaction: frozenset | None = None

    @contextlib.contextmanager
    def span(self, name: str):
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn, before=None, after=None):
        """Wrap `fn` in a span.  `before(span, args)` runs inside the span and
        may return a callback run when the call returns; `after(span, args,
        result)` runs once the span has ended, inside a bookkeeping span."""

        def wrapper(*args, **kwargs):
            with self.span(name) as span:
                undo = before(span, args) if before else None
                try:
                    result = fn(*args, **kwargs)
                finally:
                    if undo:
                        undo()
            if after:
                with self.span(BOOKKEEPING):
                    after(span, args, result)
            return result

        return wrapper

    # -- attribute hooks ----------------------------------------------------

    def _enter_evolve(self, span, args):
        from qca2.rules import compile_interaction

        config = args[0]
        span.attrs["steps"] = config.n_steps
        with self.span(BOOKKEEPING):
            saved, self._interaction = self._interaction, frozenset(compile_interaction(config))

        def leave():
            self._interaction = saved

        return leave

    def _enter_gate(self, span, args):
        from qca2.gates import ControlledFlip

        state, gate = args[0], args[1]
        if isinstance(gate, ControlledFlip):
            span.attrs["kind"] = "flip"
        else:
            span.attrs["kind"] = f"local{len(gate.qubits)}"
        if self._interaction is None:
            span.attrs["phase"] = "other"
        else:
            span.attrs["phase"] = "interaction" if gate in self._interaction else "evaluation"
        span.attrs["amplitudes"] = int(state.size)
        # computed: the kernel reads the input state and writes a new one.
        span.attrs["bytes"] = 2 * int(state.nbytes)

    @staticmethod
    def _after_compile(span, args, rule):
        span.attrs["interaction_gates"] = len(rule.interaction)
        span.attrs["evaluation_gates"] = len(rule.evaluation)

    @staticmethod
    def _after_evolve(span, args, matrix):
        span.attrs["matrix_bytes"] = int(matrix.nbytes)

    @staticmethod
    def _after_probabilities(span, args, probs):
        span.attrs["norm_drift"] = abs(float(probs.sum()) - 1.0)

    @staticmethod
    def _after_csv(span, args, text):
        matrix = args[0]
        span.attrs["values"] = int(matrix.size)
        span.attrs["distinct"] = int(np.unique(matrix).size)
        span.attrs["bytes"] = len(text)

    @staticmethod
    def _after_pgm(span, args, data):
        span.attrs["bytes"] = len(data)

    @staticmethod
    def _after_operator(span, args, text):
        span.attrs["entries"] = int(args[0].size)
        span.attrs["bytes"] = len(text)

    @staticmethod
    def _after_period(span, args, report):
        # computed: the search tries lags 1..p (or every lag when nothing is
        # found) and compares N*(T-p) elements for lag p.
        n_rows, n_cols = args[0].shape
        tried = report.period if report.found else (n_cols - 1) // 2
        span.attrs["candidates"] = tried
        span.attrs["elements"] = n_rows * sum(n_cols - p for p in range(1, tried + 1))

    def _targets(self):
        """(module, attribute, span name, before, after) for every wrapped name."""
        from qca2 import analysis, cli, gates, io_formats, rules

        evolve = (self._enter_evolve, self._after_evolve)
        return [
            (cli, "main", "cli.main", None, None),
            (io_formats, "parse_config", "io_formats.parse_config", None, None),
            (io_formats, "write_csv", "io_formats.write_csv", None, self._after_csv),
            (io_formats, "render_pgm", "io_formats.render_pgm", None, self._after_pgm),
            (io_formats, "write_operator_csv", "io_formats.write_operator_csv",
             None, self._after_operator),
            (rules, "compile_rule", "rules.compile_rule", None, self._after_compile),
            (rules, "evolve", "rules.evolve", *evolve),
            (analysis, "evolve", "rules.evolve", *evolve),
            (rules, "build_dense_rule", "rules.build_dense_rule", None, None),
            (analysis, "build_dense_rule", "rules.build_dense_rule", None, None),
            (rules, "apply_gate", "gates.apply_gate", self._enter_gate, None),
            (rules, "compose_dense", "gates.compose_dense", None, None),
            (gates, "embed_gate", "gates.embed_gate", None, None),
            (rules, "probabilities", "register.probabilities",
             None, self._after_probabilities),
            (analysis, "detect_period", "analysis.detect_period", None, self._after_period),
            (analysis, "check_rule_unitary", "analysis.check_rule_unitary", None, None),
            (analysis, "check_interaction", "analysis.check_interaction", None, None),
            (analysis, "check_translation", "analysis.check_translation", None, None),
        ]

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for module, attr, name, before, after in self._targets():
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, before, after))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one command, from the spans under its root."""
    selfs = self_times(spans)
    dur: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    attr_sum: dict[str, float] = defaultdict(float)
    attr_max: dict[str, float] = defaultdict(float)
    gate_time: dict[str, float] = defaultdict(float)  # by gate kind and by phase
    for span, self_s in zip(spans, selfs):
        d = span.end - span.start
        dur[span.name] += d
        own[span.name] += self_s
        calls[span.name] += 1
        for key, value in span.attrs.items():
            if key in ("kind", "phase"):
                gate_time[value] += d
            else:
                attr_sum[f"{span.name}.{key}"] += value
                attr_max[f"{span.name}.{key}"] = max(attr_max[f"{span.name}.{key}"], value)

    gate_s = dur["gates.apply_gate"]
    values = attr_sum["io_formats.write_csv.values"]
    return {
        "cli.self_s": own["cli.main"],
        "io_formats.parse_config.s": dur["io_formats.parse_config"],
        "io_formats.write_csv.s": dur["io_formats.write_csv"],
        "io_formats.write_csv.values": values,
        "io_formats.write_csv.bytes": attr_sum["io_formats.write_csv.bytes"],
        "io_formats.write_csv.distinct_fraction":
            attr_sum["io_formats.write_csv.distinct"] / values if values else 0.0,
        "io_formats.render_pgm.s": dur["io_formats.render_pgm"],
        "io_formats.render_pgm.bytes": attr_sum["io_formats.render_pgm.bytes"],
        "io_formats.write_operator_csv.s": dur["io_formats.write_operator_csv"],
        "io_formats.write_operator_csv.entries":
            attr_sum["io_formats.write_operator_csv.entries"],
        "io_formats.write_operator_csv.bytes": attr_sum["io_formats.write_operator_csv.bytes"],
        "rules.compile_rule.s": dur["rules.compile_rule"],
        "rules.interaction_gates": attr_max["rules.compile_rule.interaction_gates"],
        "rules.evaluation_gates": attr_max["rules.compile_rule.evaluation_gates"],
        "rules.evolve.s": dur["rules.evolve"],
        "rules.evolve.self_s": own["rules.evolve"],
        "rules.evolve.steps": attr_sum["rules.evolve.steps"],
        "rules.evolve.matrix_bytes": attr_max["rules.evolve.matrix_bytes"],
        "rules.interaction.s": gate_time["interaction"],
        "rules.evaluation.s": gate_time["evaluation"],
        "rules.build_dense_rule.s": dur["rules.build_dense_rule"],
        "gates.apply_gate.calls": calls["gates.apply_gate"],
        "gates.apply_gate.s": gate_s,
        "gates.apply_gate.bytes_computed": attr_sum["gates.apply_gate.bytes"],
        "gates.flip.s": gate_time["flip"],
        "gates.local1.s": gate_time["local1"],
        "gates.local2.s": gate_time["local2"],
        "gates.amp_updates_per_s":
            attr_sum["gates.apply_gate.amplitudes"] / gate_s if gate_s else 0.0,
        "gates.embed_gate.calls": calls["gates.embed_gate"],
        "gates.embed_gate.s": dur["gates.embed_gate"],
        "gates.compose_dense.self_s": own["gates.compose_dense"],
        "register.probabilities.calls": calls["register.probabilities"],
        "register.probabilities.s": dur["register.probabilities"],
        "register.norm_drift_max": attr_max["register.probabilities.norm_drift"],
        "analysis.detect_period.s": dur["analysis.detect_period"],
        "analysis.detect_period.candidates": attr_sum["analysis.detect_period.candidates"],
        "analysis.detect_period.elements_compared":
            attr_sum["analysis.detect_period.elements"],
        "analysis.check_rule_unitary.s": dur["analysis.check_rule_unitary"],
        "analysis.check_interaction.s": dur["analysis.check_interaction"],
        "analysis.check_translation.s": dur["analysis.check_translation"],
        "perfbench.trace.s": own[BOOKKEEPING],
    }
