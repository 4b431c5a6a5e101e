"""The benchmark tracer (bench/tracer.py) wraps entroscope functions by
module and name, so a rename that drops one breaks every traced benchmark
run; this catches it without running the benchmark."""

import importlib
import importlib.util
import os
import subprocess
import sys

import entroscope as es

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_tracer():
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", os.path.join(ROOT, "bench", "tracer.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_spanned_function_exists():
    tracer = load_tracer()
    missing = [
        f"{module}.{name}"
        for module, name in tracer.SPANNED
        if not callable(getattr(importlib.import_module(f"entroscope.{module}"), name, None))
    ]
    assert tracer.SPANNED and missing == []


def test_install_finds_every_name():
    # install() also wraps factors.product_graph, schreier.builtin_family and
    # LabelledGraph.out_edges; it patches modules, so it runs in its own
    # process.  It wraps every graph's expand, also a graph given by arrays or
    # an action, which has none: the searches, censuses and out_edges of such
    # graphs run here, so a dispatch that calls that wrapper fails
    code = (
        "import sys; sys.path[:0] = sys.argv[1:]; import tracer; tracer.Tracer().install()\n"
        "import entroscope as es\n"
        "for g in (es.explicit_graph('ab', [(0, 'a', 1), (1, 'b', 0)], roots=[0]),\n"
        "          es.schreier_graph(es.builtin_family('grid_Z2'))):\n"
        "    x = g.roots[0]\n"
        "    es.count_words(g, x, x, 4), es.forward_ball(g, x, 2), g.out_edges(x)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_observe_reads_the_real_results():
    # _observe reads fields of the results it is handed; a change to Window,
    # PerronResult or HarmonicVector that drops one fails here
    tracer = load_tracer().Tracer()
    tracer.begin_job("job")
    grid = es.schreier_graph(es.builtin_family("grid_Z2"))
    ball = es.forward_ball(grid, (0, 0), 2)
    window = es.full_window(es.explicit_graph(["a"], [(0, "a", 1), (1, "a", 0)], roots=[0]))
    hv = es.harmonic_vector(es.uniform_weights(grid), (0, 0), 3)
    perron = es.linalg.perron_root(window.adjacency())
    tracer._observe("graphs.forward_ball", ball)
    tracer._observe("graphs.full_window", window)
    tracer._observe("linalg.perron_root", perron)
    tracer._observe("chain.harmonic_vector", hv)
    assert tracer.counts["graphs.ball_vertices"] == 13 + 2
    assert tracer.counts["linalg.perron_iterations"] == perron.iterations
    assert tracer.bracket_width == perron.bracket[1] - perron.bracket[0]
    assert tracer.counts["chain.harmonic_window"] == 25
