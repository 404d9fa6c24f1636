"""The benchmark's span tracer (perfbench/tracing.py) still fits the library.

The tracer rebinds crchains functions by module and name; a renamed or
deleted function makes `Tracer.install` fail, which would otherwise only
show when the benchmark runs.
"""

import functools
import importlib.util
import sys
from pathlib import Path

import crchains.cli  # noqa: F401  (loads every module the tracer patches)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_functions(tracing):
    return {
        name: functools.reduce(getattr, attr.split("."), sys.modules[module])
        for name, module, attr, *_ in tracing.SPANS
    }


def test_tracer_installs_and_uninstalls():
    tracing = _load_tracing()
    before = _traced_functions(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = _traced_functions(tracing)
    finally:
        tracer.uninstall()
    assert all(during[name] is not fn for name, fn in before.items())
    assert _traced_functions(tracing) == before
