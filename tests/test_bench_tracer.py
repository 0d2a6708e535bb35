"""The benchmark tracer still finds every engine name it wraps.

``bench/tracer.py`` looks up public functions and methods by name when it
installs; a rename or deletion in the engine would otherwise surface only in
a traced benchmark run.
"""

import importlib.util
import os

import mql.hecke

TRACER = os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench", "tracer.py")


def test_tracer_installs_and_restores():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    apply = mql.hecke.apply
    t = tracer.Tracer()
    try:
        t.install()
        assert mql.hecke.apply is not apply
    finally:
        t.uninstall()
    assert mql.hecke.apply is apply
