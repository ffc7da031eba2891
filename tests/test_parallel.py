import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

from dynctl import parallel


class _RecordingContext:
    """Stands in for a multiprocessing context: records the pool size asked
    for and maps inline, so no process is started."""

    def __init__(self):
        self.sizes = []

    def Pool(self, size):
        self.sizes.append(size)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return [fn(x) for x in items]


def _square(x):
    return x * x


def test_map_chunks_caps_pool_at_cpu_count(monkeypatch):
    ctx = _RecordingContext()
    monkeypatch.setattr(multiprocessing, "get_context", lambda method: ctx)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    items = list(range(500))
    assert parallel.map_chunks(_square, items, workers=64) == [x * x for x in items]
    assert parallel.map_chunks(_square, items, workers=2) == [x * x for x in items]
    assert ctx.sizes == [3, 2]


def test_map_chunks_inline_when_cpu_count_unknown(monkeypatch):
    ctx = _RecordingContext()
    monkeypatch.setattr(multiprocessing, "get_context", lambda method: ctx)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert parallel.map_chunks(_square, [1, 2, 3, 4, 5], workers=8) == [1, 4, 9, 16, 25]
    assert ctx.sizes == []


def _imports_multiprocessing(argv):
    """Whether a fresh `python -m dynctl.cli argv` imports multiprocessing,
    read from its -X importtime lines."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    run = subprocess.run([sys.executable, "-X", "importtime", "-m", "dynctl.cli", *argv],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr.splitlines()[-1]
    names = {line.rpartition("|")[2].strip() for line in run.stderr.splitlines()
             if line.startswith("import time:")}
    return "multiprocessing" in names


def test_multiprocessing_is_imported_only_when_a_pool_opens():
    assert not _imports_multiprocessing(["nmax", "--map", "pell(2)", "--s", "", "--b", "1",
                                         "--workers", "1"])
    assert not _imports_multiprocessing(["avg3", "--b", "1", "--workers", "1"])
    # map_chunks caps the pool at the CPU count, so one CPU opens no pool.
    pooled = (os.cpu_count() or 1) >= 2
    assert _imports_multiprocessing(["density", "--map", "(x-1)/(x^3+1)", "--s", "",
                                     "--b", "20", "--workers", "2"]) == pooled
