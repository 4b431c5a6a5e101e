"""In-memory spans and counters around entroscope's public functions.

``Tracer.install()`` wraps, from outside the program, the public functions
of each layer (module) and counts the calls that matter for each layer.  A
function is replaced under every name that refers to it in every
entroscope module, because modules import each other's functions by name
(``forward_ball`` lives in ``graphs`` and is called through ``census``,
``factors`` and ``chain``).

A span is (name, start, end, parent) and all spans of one job repeat share
that repeat's job id.  Self time is a span's duration minus the durations
of its direct children (calls are nested on one thread, so the children
never overlap).  For each job only the fastest traced repeat is kept; the
per-layer metrics sum it over the workload's jobs.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
from time import perf_counter

MODULES = ("graphs", "factors", "census", "chain", "linalg", "growth", "schreier", "cli")

# function spans: (module, function)
SPANNED = (
    ("graphs", "load_graph_json"),
    ("graphs", "forward_ball"),
    ("graphs", "full_window"),
    ("graphs", "check_deterministic"),
    ("graphs", "check_fully_deterministic"),
    ("graphs", "uniform_connectedness_constant"),
    ("factors", "estimate_denseness_constant"),
    ("factors", "certify_denseness"),
    ("census", "count_words"),
    ("growth", "fit_log_growth"),
    ("chain", "probability_table"),
    ("chain", "n_step_vector"),
    ("chain", "step"),
    ("chain", "rho_estimate"),
    ("chain", "harmonic_vector"),
    ("chain", "resolve_certificate"),
    ("linalg", "perron_root"),
    ("cli", "main"),
)

# per-layer time metrics: self time summed over these spans
SELF_TIME = {
    "graphs.load_s": ("graphs.load_graph_json",),
    "graphs.ball_s": ("graphs.forward_ball", "graphs.full_window"),
    "graphs.determinism_s": ("graphs.check_deterministic", "graphs.check_fully_deterministic"),
    "graphs.conn_s": ("graphs.uniform_connectedness_constant",),
    "factors.automaton_s": ("factors.FactorAutomaton",),
    "factors.denseness_s": ("factors.estimate_denseness_constant", "factors.certify_denseness"),
    "census.count_s": ("census.count_words",),
    "growth.fit_s": ("growth.fit_log_growth",),
    "chain.propagate_s": ("chain.probability_table", "chain.n_step_vector", "chain.step"),
    "chain.harmonic_s": ("chain.harmonic_vector",),
    "chain.resolve_s": ("chain.resolve_certificate",),
    "linalg.perron_s": ("linalg.perron_root",),
    "cli.self_s": ("cli.main",),
}

# counters summed over jobs (perron_bracket_width is a maximum instead)
COUNTS = (
    "graphs.ball_calls",
    "graphs.ball_vertices",
    "graphs.out_edges_calls",
    "graphs.expansions",
    "schreier.act_calls",
    "factors.denseness_sweeps",
    "factors.product_expansions",
    "census.count_calls",
    "chain.steps",
    "chain.rho_estimate_calls",
    "chain.harmonic_window",
    "linalg.perron_calls",
    "linalg.perron_iterations",
)

# span name -> counter bumped once per call
CALL_COUNTERS = {
    "graphs.forward_ball": "graphs.ball_calls",
    "graphs.full_window": "graphs.ball_calls",
    "factors.certify_denseness": "factors.denseness_sweeps",
    "census.count_words": "census.count_calls",
    "chain.step": "chain.steps",
    "chain.rho_estimate": "chain.rho_estimate_calls",
    "linalg.perron_root": "linalg.perron_calls",
}

UNITS = dict(
    {name: "s" for name in SELF_TIME},
    **{name: "count" for name in COUNTS},
    **{"graphs.cache_hit_ratio": "ratio", "linalg.perron_bracket_width": "1"},
)


def _entroscope_modules():
    return [importlib.import_module("entroscope")] + [
        importlib.import_module(f"entroscope.{m}") for m in MODULES
    ]


class Tracer:
    def __init__(self):
        self.job = None
        self.spans: list = []
        self.stack: list = []
        self.counts: dict = {}
        self.bracket_width = 0.0
        self.t0 = 0.0
        self.best: dict = {}  # job -> (elapsed, spans, counts, bracket width)

    # -- recording -------------------------------------------------------
    def begin_job(self, name: str) -> None:
        self.job = name
        self.spans = []
        self.stack = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.bracket_width = 0.0
        self.t0 = perf_counter()

    def end_job(self, elapsed: float) -> None:
        best = self.best.get(self.job)
        if best is None or elapsed < best[0]:
            self.best[self.job] = (elapsed, self.spans, self.counts, self.bracket_width)
        self.job = None

    def _bump(self, counter: str, by: int = 1) -> None:
        if self.job is not None:
            self.counts[counter] += by

    def _observe(self, name: str, result) -> None:
        if name in ("graphs.forward_ball", "graphs.full_window"):
            self._bump("graphs.ball_vertices", len(result.vertices))
        elif name == "linalg.perron_root":
            self._bump("linalg.perron_iterations", result.iterations)
            lo, hi = result.bracket
            self.bracket_width = max(self.bracket_width, hi - lo)
        elif name == "chain.harmonic_vector":
            self._bump("chain.harmonic_window", result.diagnostics["window_size"])

    def spanned(self, name: str, fn):
        counter = CALL_COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            spans = self.spans
            index = len(spans)
            record = [name, perf_counter() - self.t0, 0.0, self.stack[-1] if self.stack else -1]
            spans.append(record)
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                record[2] = perf_counter() - self.t0
            if counter is not None:
                self.counts[counter] += 1
            self._observe(name, result)
            return result

        return wrapper

    # -- patching --------------------------------------------------------
    @staticmethod
    def _replace_everywhere(original, replacement) -> None:
        for module in _entroscope_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)

    def install(self) -> None:
        mods = {m: importlib.import_module(f"entroscope.{m}") for m in MODULES}
        for module, func in SPANNED:
            original = getattr(mods[module], func)
            self._replace_everywhere(original, self.spanned(f"{module}.{func}", original))

        tracer = self
        graph_cls = mods["graphs"].LabelledGraph
        automaton_cls = mods["factors"].FactorAutomaton
        orig_out_edges = graph_cls.out_edges
        orig_graph_init = graph_cls.__init__
        orig_automaton_init = automaton_cls.__init__

        def out_edges(graph, v):
            tracer._bump("graphs.out_edges_calls")
            return orig_out_edges(graph, v)

        def counted(fn, counter):
            def call(*args):
                tracer._bump(counter)
                return fn(*args)
            return call

        def graph_init(graph, *args, **kwargs):
            orig_graph_init(graph, *args, **kwargs)
            graph.expand = counted(graph.expand, "graphs.expansions")

        graph_cls.out_edges = out_edges
        graph_cls.__init__ = graph_init
        automaton_cls.__init__ = self.spanned("factors.FactorAutomaton", orig_automaton_init)

        orig_product = mods["factors"].product_graph

        def product_graph(*args, **kwargs):
            g = orig_product(*args, **kwargs)
            g.expand = counted(g.expand, "factors.product_expansions")
            return g

        self._replace_everywhere(orig_product, product_graph)

        orig_family = mods["schreier"].builtin_family

        def builtin_family(name):
            spec = orig_family(name)
            return dataclasses.replace(spec, act=counted(spec.act, "schreier.act_calls"))

        self._replace_everywhere(orig_family, builtin_family)

    # -- results ---------------------------------------------------------
    @staticmethod
    def self_times(spans) -> dict:
        """Self time per span name: duration minus direct children."""
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict = {}
        for (name, start, end, _), covered in zip(spans, child):
            totals[name] = totals.get(name, 0.0) + (end - start - covered)
        return totals

    def layer_metrics(self) -> dict:
        metrics = {name: 0.0 for name in SELF_TIME}
        metrics.update(dict.fromkeys(COUNTS, 0))
        width = 0.0
        for _elapsed, spans, counts, bracket_width in self.best.values():
            totals = self.self_times(spans)
            for metric, names in SELF_TIME.items():
                metrics[metric] += sum(totals.get(n, 0.0) for n in names)
            for counter in COUNTS:
                metrics[counter] += counts[counter]
            width = max(width, bracket_width)
        calls = metrics["graphs.out_edges_calls"]
        metrics["graphs.cache_hit_ratio"] = (
            (calls - metrics["graphs.expansions"]) / calls if calls else 0.0
        )
        metrics["linalg.perron_bracket_width"] = width
        return metrics

    def write(self, path: str) -> None:
        names = sorted({s[0] for best in self.best.values() for s in best[1]})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "names": names,
            "fields": ["name", "start_s", "end_s", "parent"],
            "jobs": {
                job: {
                    "elapsed_s": elapsed,
                    "counts": counts,
                    "spans": [[index[n], s, e, p] for n, s, e, p in spans],
                }
                for job, (elapsed, spans, counts, _w) in sorted(self.best.items())
            },
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
