"""The benchmark's trace hooks must find every name they wrap in sparseps.

bench/run.py wraps functions and methods by name for its --trace 1 runs; a
refactor that drops or renames one of them makes those runs fail.  This test
installs the hooks on the package and removes them again.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
from tracing import Tracer  # noqa: E402


class RecordingTracer(Tracer):
    """A Tracer that also remembers each attribute it replaces."""

    def __init__(self):
        super().__init__()
        self.originals = []

    def wrap(self, owner, attr, name, work=None):
        self.originals.append((owner, attr, getattr(owner, attr)))
        super().wrap(owner, attr, name, work)


def test_install_spans_wraps_and_restores_every_name():
    tracer = RecordingTracer()
    try:
        run.install_spans(tracer, run.import_program())
        assert tracer.originals
        for owner, attr, original in tracer.originals:
            assert getattr(owner, attr).__wrapped__ is original, (owner, attr)
    finally:
        tracer.remove()
    for owner, attr, original in tracer.originals:
        assert getattr(owner, attr) is original, (owner, attr)
