"""Checks on the repository's own sources and documents."""

import ast
import dataclasses
import re
from pathlib import Path

from liouville_lab import cli, dynamics

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "liouville_lab"

# imported but never called there: perfbench/tracer.py wraps each name in
# every namespace that holds it, and raises if one is missing
KEPT_FOR_TRACER = {
    ("cli", "collision_boundary_term"),
    ("cli", "gradient_l1_error"),
    ("cli", "sample_ensemble"),
}


def _unused_imports(path: Path) -> set[str]:
    """Names a module binds by import and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - read


def test_every_imported_name_is_used():
    found = {
        (path.stem, name)
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _unused_imports(path)
    }
    assert found == KEPT_FOR_TRACER


def test_standard_errors_come_from_the_one_sum():
    # every Monte Carlo standard error is MCEstimate.from_samples or
    # from_padded, which replay numpy's sums without calling np.std
    found = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if "np.std(" in path.read_text(encoding="utf-8")
    ]
    assert found == []


def test_no_module_keeps_state_in_a_global():
    # a decision a caller makes is passed as an argument, not left in a
    # module-level flag that every later call reads
    found = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if re.search(r"^\s*global ", path.read_text(encoding="utf-8"), re.M)
    ]
    assert found == []


def test_the_potential_contract_has_no_silent_default():
    # a reader of a potential's kind, class or lower bound reads the
    # attribute, so an object without it fails instead of getting a default
    found = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if "getattr(potential" in path.read_text(encoding="utf-8")
    ]
    assert found == []


def test_verification_walks_no_flow_of_its_own():
    # every Simpson walk is transport.simpson_walk: verification builds no
    # Simpson weights, pauses no flow and reads no batch layout
    text = (PACKAGE / "verification.py").read_text(encoding="utf-8")
    for pattern in (r"simpson_weights\(", r"stops=", r"\bbatch\.(track|idx|m)\b"):
        assert re.search(pattern, text) is None, pattern


def test_verification_draws_through_the_public_transport_functions():
    # the checks draw their samples through sample_ensemble, reachable_rows
    # and collision_boundary_term, and run the estimator through
    # weak_residual_suite: none reaches into transport's private helpers or
    # sizes a block of its own
    text = (PACKAGE / "verification.py").read_text(encoding="utf-8")
    assert "transport._" not in text
    assert "SAMPLE_BLOCK" not in text


def test_config_dynamics_keys_are_the_integrator_fields():
    # every integrator setting is a config key, apart from the damping that
    # only the negative controls set, so the two cannot drift apart
    fields = {field.name for field in dataclasses.fields(dynamics.IntegratorConfig)}
    assert set(cli._DYNAMICS) == fields - {"velocity_damping"}


def test_readme_quick_start_runs(capsys):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert len(blocks) == 2
    # the blocks run in order in one namespace, as a reader would paste them
    namespace = {}
    outputs = []
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
        outputs.append(capsys.readouterr().out.split("\n")[:-1])
    # the energy drift of a 10-unit flow
    (drift,) = outputs[0]
    assert float(drift) < 1e-6
    # one weak residual per value map, each inside its budget
    assert len(outputs[1]) == 3
    for line in outputs[1]:
        estimate, std_error, bias_bound = map(float, line.split())
        assert abs(estimate) <= 3.0 * std_error + bias_bound
