"""CLI outputs pinned by sha256: a paired sweep, the stream matcher, and a tag-file round trip.

A change that moves any count, rate or S value changes the bytes.
"""

import hashlib

from eprsim.cli import main

SWEEP_SHA = "82c61d6f7aa64b329b4aa1399762d7c2f83efdcdc4d1e92ad4b2537416c5af64"
STREAM_SHA = "a060207784af8f229534532d9a36d937da205600682d6a3b1c32fd212151e90e"
PAIRED_SHA = "7a71cf9a5d787d984a2f00c9606fda8d58fbccbe2caaf74fe4b378559a311a14"


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_sweep_output_pinned(tmp_path):
    assert main(["--mode", "sweep", "--pairs", "20000", "--seed", "3", "--out", str(tmp_path)]) == 0
    assert _sha(tmp_path / "sweep.csv") == SWEEP_SHA


def test_stream_matcher_output_pinned(tmp_path):
    argv = ["--mode", "mc", "--matcher", "stream", "--emission", "poisson:0.005", "--window", "1000",
            "--pairs", "20000", "--seed", "3", "--out", str(tmp_path)]
    assert main(argv) == 0
    assert _sha(tmp_path / "correlations.csv") == STREAM_SHA


def test_reanalyzed_tags_reproduce_the_paired_sweep(tmp_path):
    out = str(tmp_path)
    assert main(["--mode", "mc", "--pairs", "20000", "--seed", "3", "--tags-out", "tags", "--out", out]) == 0
    assert _sha(tmp_path / "correlations.csv") == PAIRED_SHA
    assert main(["--mode", "reanalyze", "--tags-in", "tags", "--windows", "1:1000:log20", "--out", out]) == 0
    assert _sha(tmp_path / "sweep.csv") == SWEEP_SHA
