"""Every benchmark workload still runs against the library as it is.

bench/ reaches dynctl by name: each workload's setup snippet calls public
constructors, and bench/tracer.py wraps functions and methods that it looks
up by name. A rename in src/dynctl would make those runs fail, so it fails
here first. For each workload in bench/workloads.py the setup runs once in
a fresh interpreter, and the CLI arguments run once under
bench/traced_cli.py: the CLI exits 0, the report has the pinned sha256, and
the per-layer call counts keep the prediction table. Nothing in bench/ is
changed; this file only reads it.
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


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_workload_keeps_its_digest_and_prediction_table(name):
    wl = workloads.WORKLOADS[name]
    run = _run([sys.executable, str(BENCH / "traced_cli.py"), *wl.argv])
    assert run.returncode == 0, run.stderr
    payload = json.loads(run.stdout.strip().splitlines()[-1])
    assert payload["exit"] == 0
    assert payload["sha256"] == wl.sha256
    assert workloads.check_predictions(name, payload["layer_calls"]) == []
