"""The benchmark tracer (bench/tracer.py) wraps entroscope functions by
module and name, so a rename that drops one breaks every traced benchmark
run; this catches it without running the benchmark."""

import importlib
import importlib.util
import os
import subprocess
import sys

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
    # LabelledGraph.out_edges; it patches modules, so it runs in its own process
    code = (
        "import sys; sys.path[:0] = sys.argv[1:]; import tracer; tracer.Tracer().install()"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
