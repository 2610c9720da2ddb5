"""The benchmark's tracer finds every program name it wraps.

``perfbench/tracing.py`` wraps functions at the names their callers bind
(``mesval.dispatch.to_standard_form``, ``mesval.valuation.build_joint``,
...). A name the program drops or renames leaves its site out of a traced
run, and the benchmark counts that as a failed operation; this test makes
the same loss fail here. It only reads ``perfbench/``.
"""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_traced_site_resolves():
    tracing = _tracing()
    tracer = tracing.Tracer()
    with tracer.installed():
        pass
    assert tracer.broken == {}
    assert tracing.SITES
