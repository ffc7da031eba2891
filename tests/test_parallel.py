import os

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
    monkeypatch.setattr(parallel.multiprocessing, "get_context", lambda method: ctx)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    items = list(range(500))
    assert parallel.map_chunks(_square, items, workers=64) == [x * x for x in items]
    assert parallel.map_chunks(_square, items, workers=2) == [x * x for x in items]
    assert ctx.sizes == [3, 2]


def test_map_chunks_inline_when_cpu_count_unknown(monkeypatch):
    ctx = _RecordingContext()
    monkeypatch.setattr(parallel.multiprocessing, "get_context", lambda method: ctx)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert parallel.map_chunks(_square, [1, 2, 3, 4, 5], workers=8) == [1, 4, 9, 16, 25]
    assert ctx.sizes == []
