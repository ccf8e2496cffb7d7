"""Snapshot of every artifact byte of a small sweep.

tests/data/artifacts_synth0.json maps the name of each PGM and PLY file
that a sweep of synth:0 at width 256 writes, over all five methods x bits
in {None, 10}, to the sha256 of its bytes. An encoder change that alters
a byte fails here. The files must match it written into an empty
directory and written over files of other lengths. Regenerate it only
when a change means to alter the files, from the repository root:

    PYTHONPATH=src python tests/test_artifact_snapshot.py
"""
import hashlib
import json
import tempfile
from pathlib import Path

from riterp import PipelineConfig, sweep
from riterp.pipeline import METHODS

SNAPSHOT = Path(__file__).parent / "data" / "artifacts_synth0.json"
GRID = {"method": list(METHODS), "bits": [None, 10]}


def artifact_digests(out_dir: Path) -> dict[str, str]:
    rows = sweep(PipelineConfig(inputs=["synth:0"], width=256, out_dir=str(out_dir)), GRID)
    assert [row["error"] for row in rows] == [""] * len(rows)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out_dir.iterdir())}


def test_artifacts_match_the_snapshot_fresh_and_overwritten(tmp_path):
    expected = json.loads(SNAPSHOT.read_text())
    assert len(expected) == 2 * (4 + 5 * (len(METHODS) - 1))  # method none has no upscaled view
    assert artifact_digests(tmp_path) == expected
    for i, path in enumerate(sorted(tmp_path.iterdir())):  # every other file longer, the rest cut
        data = path.read_bytes()
        path.write_bytes(data + b"\xff" * 4099 if i % 2 else data[: len(data) // 2])
    assert artifact_digests(tmp_path) == expected


if __name__ == "__main__":
    SNAPSHOT.parent.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as out:
        SNAPSHOT.write_text(json.dumps(artifact_digests(Path(out)), indent=1) + "\n")
