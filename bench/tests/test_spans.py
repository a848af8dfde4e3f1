"""Self-time arithmetic of the benchmark's span recorder.

Run from the repository root: python3 -m pytest bench/tests -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from spans import Recorder, Span, self_times, span_metrics, union_length  # noqa: E402


def span(sid, start, end, parent=None, layer="x"):
    return Span(sid, f"{layer}.f{sid}", layer, start, end, parent, "op")


def test_nested_children():
    spans = [span(0, 0.0, 10.0), span(1, 2.0, 5.0, parent=0), span(2, 3.0, 4.0, parent=1)]
    assert self_times(spans) == pytest.approx({0: 7.0, 1: 2.0, 2: 1.0})
    assert sum(self_times(spans).values()) == pytest.approx(10.0)


def test_overlapping_children_count_once():
    spans = [span(0, 0.0, 10.0), span(1, 1.0, 4.0, parent=0), span(2, 3.0, 6.0, parent=0),
             span(3, 5.5, 5.8, parent=0)]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0)


def test_child_outside_parent_is_clipped():
    spans = [span(0, 0.0, 10.0), span(1, 8.0, 12.0, parent=0)]
    assert self_times(spans)[0] == pytest.approx(8.0)


def test_child_without_parent_is_a_root():
    spans = [span(0, 0.0, 4.0), span(1, 1.0, 3.0, parent=None),
             span(2, 1.5, 2.0, parent=99)]   # parent never recorded
    selfs = self_times(spans)
    assert selfs == pytest.approx({0: 4.0, 1: 2.0, 2: 0.5})


def test_union_length():
    assert union_length([], 0.0, 1.0) == 0.0
    assert union_length([(0.0, 1.0), (2.0, 3.0), (0.5, 2.5)], 0.0, 10.0) == pytest.approx(3.0)
    assert union_length([(5.0, 6.0)], 0.0, 1.0) == 0.0


def test_span_metrics_layer_totals_and_op_share():
    spans = [span(0, 0.0, 10.0, layer="bench"), span(1, 1.0, 9.0, parent=0, layer="cli"),
             span(2, 2.0, 5.0, parent=1, layer="verify"),
             span(3, 3.0, 4.0, parent=2, layer="moments"),
             span(4, 6.0, 7.0, parent=1, layer="moments")]
    out = span_metrics(spans)
    assert out["cli.self_s"] == pytest.approx(4.0)
    assert out["verify.self_s"] == pytest.approx(2.0)
    assert (out["moments.self_s"], out["moments.calls"]) == pytest.approx((2.0, 2))
    assert out["fourier_pd.calls"] == 0 and out["moments.mom_share"] is None
    assert out["trace.layer_share_min"] == pytest.approx(0.8)


def test_recorder_wraps_every_lookup_and_restores():
    import stablecomp
    from stablecomp import cli, verify
    original = verify.random_rep
    rec = Recorder()
    rec.install(stablecomp)
    try:
        assert cli.run_experiment is not verify.run_experiment.__wrapped__
        assert stablecomp.random_rep is verify.random_rep
        verify.random_rep(np.random.default_rng(0), 2, 1.5, max_condition=1e3)
    finally:
        rec.uninstall()
    assert verify.random_rep is original and stablecomp.random_rep is original
    names = [s.name for s in rec.spans]
    assert "verify.random_rep" in names
    root = next(s for s in rec.spans if s.name == "verify.random_rep")
    assert root.parent is None
    children = [s for s in rec.spans if s.parent == root.id]
    assert children and all(s.start >= root.start and s.end <= root.end for s in children)
