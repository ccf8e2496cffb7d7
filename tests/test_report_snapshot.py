"""Snapshot of every reported number on two synthetic scans.

tests/data/report_synth0.json holds every non-time_* key of the sweep
rows on synth:0 and synth:1 for all five methods x bits in {None, 10}
(nn_fallback_points and nn_tree_points included), at the KITTI geometry
and the default settings. A speedup must reproduce it exactly. Regenerate
it only when a change means to alter the numbers, from the repository
root:

    PYTHONPATH=src python tests/test_report_snapshot.py
"""
import json
import sys
from pathlib import Path

from riterp import PipelineConfig, sweep
from riterp.pipeline import METHODS

SNAPSHOT = Path(__file__).parent / "data" / "report_synth0.json"
GRID = {"method": list(METHODS), "bits": [None, 10]}


def snapshot_rows() -> list[dict]:
    rows = sweep(PipelineConfig(inputs=["synth:0", "synth:1"], no_artifacts=True), GRID)
    return [{k: v for k, v in row.items() if not k.startswith("time_")} for row in rows]


def test_reports_match_the_snapshot():
    expected = json.loads(SNAPSHOT.read_text())
    rows = snapshot_rows()
    assert len(rows) == len(expected) == 2 * len(METHODS) * 2
    for row, want in zip(rows, expected):
        assert row == want


def test_reports_match_the_snapshot_under_fast_thread_switching():
    """The same rows while the interpreter switches threads every
    microsecond between each cell's caller and its helper-thread jobs."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        rows = snapshot_rows()
    finally:
        sys.setswitchinterval(interval)
    assert rows == json.loads(SNAPSHOT.read_text())


if __name__ == "__main__":
    SNAPSHOT.parent.mkdir(exist_ok=True)
    SNAPSHOT.write_text(json.dumps(snapshot_rows(), indent=1) + "\n")
