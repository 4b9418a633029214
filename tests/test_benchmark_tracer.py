"""The benchmark's span tracer must find every name it wraps in the package.

perfbench/tracer.py patches functions by name in each namespace that
imported them and raises when one is missing.  Installing it here makes
a refactor that deletes or rebinds such a name fail the unit tests, not
only the benchmark's traced pass.  The tracer file is only read.
"""

import importlib.util
from pathlib import Path

import liouville_lab
from liouville_lab import cli, dynamics, potentials, transport, verification

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
MODULES = {
    "potentials": potentials,
    "dynamics": dynamics,
    "transport": transport,
    "verification": verification,
    "cli": cli,
}


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def patched_names(tracer_module):
    names = {}
    for attr, namespaces, _ in tracer_module.FUNCTIONS:
        for ns in namespaces:
            names[(ns, attr)] = getattr(MODULES[ns], attr)
    for mod, cls_name, method, _ in tracer_module.METHODS:
        names[(cls_name, method)] = getattr(MODULES[mod], cls_name).__dict__[method]
    return names


def test_tracer_installs_on_the_package_and_uninstalls():
    tracer_module = load_tracer()
    before = patched_names(tracer_module)
    tracer = tracer_module.Tracer()
    try:
        tracer.install(liouville_lab)
        during = patched_names(tracer_module)
        assert all(during[key] is not before[key] for key in before)
        # the estimator is wrapped once and shared by both namespaces
        assert verification.weak_residual_suite is transport.weak_residual_suite
    finally:
        tracer.uninstall()
    after = patched_names(tracer_module)
    assert all(after[key] is before[key] for key in before)
