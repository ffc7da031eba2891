"""Every benchmark workload still runs against the library as it is.

bench/ reaches dynctl by name: each workload's setup snippet calls public
constructors, and bench/tracer.py wraps functions and methods that it looks
up by name. A rename in src/dynctl would make those runs fail, so it fails
here first. For each workload in bench/workloads.py the setup runs once in
a fresh interpreter, and the CLI arguments run once under
bench/traced_cli.py: the CLI exits 0, the report has the pinned sha256, and
the per-layer call counts keep the prediction table. The setup also loads
the same dynctl modules as the untraced CLI run, so that setup_s subtracts
what the run pays for its imports. Nothing in bench/ is changed; this file
only reads it.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through sys.modules
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


def _run(cmd):
    env = dict(os.environ)
    # Worker counts come from each workload's flags, as in bench/run.py.
    env.pop("DYNCTL_WORKERS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_setup_runs(name):
    setup = "import dynctl.cli\n" + workloads.WORKLOADS[name].setup
    run = _run([sys.executable, "-c", setup])
    assert run.returncode == 0, run.stderr


def _dynctl_imports(stderr):
    """The dynctl modules named in -X importtime lines."""
    names = {line.rpartition("|")[2].strip() for line in stderr.splitlines()
             if line.startswith("import time:")}
    return {name for name in names if name.partition(".")[0] == "dynctl"}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_setup_loads_the_modules_its_run_loads(name):
    wl = workloads.WORKLOADS[name]
    setup = _run([sys.executable, "-X", "importtime", "-c", "import dynctl.cli\n" + wl.setup])
    run = _run([sys.executable, "-X", "importtime", "-m", "dynctl.cli", *wl.argv])
    assert setup.returncode == 0 and run.returncode == 0
    # The run executes dynctl.cli as __main__, so importtime does not name it.
    assert _dynctl_imports(setup.stderr) == _dynctl_imports(run.stderr) | {"dynctl.cli"}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_workload_keeps_its_digest_and_prediction_table(name):
    wl = workloads.WORKLOADS[name]
    run = _run([sys.executable, str(BENCH / "traced_cli.py"), *wl.argv])
    assert run.returncode == 0, run.stderr
    payload = json.loads(run.stdout.strip().splitlines()[-1])
    assert payload["exit"] == 0
    assert payload["sha256"] == wl.sha256
    assert workloads.check_predictions(name, payload["layer_calls"]) == []
