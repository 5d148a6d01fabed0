"""The benchmark under perfbench/ reaches into trotterlab by name: its
workloads import public functions, and its tracer patches every callable in
``SPECS``.  A rename or deletion in the package that breaks either fails
here, not only in a benchmark run.  So does a change that makes a workload's
output checks fail: each workload runs here through its own ``setup`` and
``run``.  The checks' self-test (``selftest.py``, whether each check can
fail) runs here as well."""

import importlib.util
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

from trotterlab import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location("perfbench_" + name,
                                                  PERFBENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_workloads_import():
    _load("workloads")


def test_selftest_passes():
    """Each output check of the workloads can fail, and only on its own row."""
    result = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stdout + result.stderr


def test_tracer_install_and_uninstall():
    tracer_module = _load("tracer")
    originals = []
    for _, module_name, attribute, _ in tracer_module.SPECS:
        owner_name, _, name = attribute.rpartition(".")
        owner = import_module(module_name)
        if owner_name:
            owner = getattr(owner, owner_name)
        originals.append((owner, name, owner.__dict__[name]))
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        assert all(owner.__dict__[name] is not fn for owner, name, fn in originals)
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[name] is fn for owner, name, fn in originals)


def test_tracer_times_the_kinetic_constants(tmp_path):
    tracer = _load("tracer").Tracer()
    tracer.install()
    try:
        cli.main(["freefermion", "--family", "acene", "--n", "3",
                  "--out", str(tmp_path / "freefermion.json")])
    finally:
        tracer.uninstall()
    layers = {span[0] for span in tracer.spans}
    assert {"freefermion.worst", "freefermion.average"} <= layers


@pytest.mark.parametrize("workload, passes", [
    ("gap-2acene-tile", 1),
    ("norms-acene", 1),
    ("desk-cli", 2),  # the second pass checks its artifacts against the first
])
def test_workload_checks_pass(workload, passes, tmp_path, monkeypatch):
    monkeypatch.delenv("TROTTERLAB_CACHE", raising=False)
    instance = _load("workloads").WORKLOADS[workload](0, tmp_path)
    instance.setup()
    rows = [row for index in range(passes) for row in instance.run(index)]
    assert len(rows) == passes * instance.checks_per_pass
    assert [row for row in rows if not row[1]] == []


def test_norms_acene_never_lists_the_anthracene_sector(tmp_path):
    """norms-acene samples anthracene's 11 778 624-state sector through its
    species lists; its basis holds no state list after a pass."""
    instance = _load("workloads").WORKLOADS["norms-acene"](0, tmp_path)
    instance.setup()
    instance.run(0)
    assert "states" not in vars(instance.anthracene)
