"""CLI outputs pinned by sha256: a paired sweep, the stream matcher, and a tag-file round trip.

A change that moves any count, rate or S value changes the bytes.  The
manifests are not pinned; their event accounting is read back below.
Non-finite input is a configuration error: exit status 1, no output.
"""

import hashlib

import pytest

from eprsim.cli import main
from eprsim.tagio import RunManifest

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


def test_manifest_accounts_for_every_event(tmp_path):
    # Regular emission: the paired filter (mc) and the stream matcher
    # (reanalyze) keep the same pairs, and every unkept pair leaves one
    # unmatched event at each station.
    out = str(tmp_path)
    assert main(["--mode", "mc", "--pairs", "2000", "--window", "10", "--tags-out", "tags", "--out", out]) == 0
    paired = RunManifest.read(tmp_path / "mc.manifest.json").results
    assert main(["--mode", "reanalyze", "--tags-in", "tags", "--window", "10", "--out", out]) == 0
    stream = RunManifest.read(tmp_path / "reanalyze.manifest.json").results
    assert (paired["policy"], stream["policy"]) == ("paired", "stream-greedy")
    for results in (paired, stream):
        assert 0 < results["matched"] < 2000
        assert results["unmatched1"] == results["unmatched2"] == 2000 - results["matched"]
        assert results["coincidence_rate"] == results["matched"] / 2000
    assert paired["matched"] == stream["matched"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv",
    [
        ["--mode", "oracle", "--quadruple", "nandeg,45deg,22.5deg,67.5deg"],
        ["--mode", "oracle", "--t0", "inf"],
        ["--mode", "mc", "--t0", "inf"],
        ["--mode", "mc", "--emission", "regular:inf"],
        ["--mode", "mc", "--angles1", "0deg,infrad"],
        ["--mode", "sweep", "--windows", "1:inf:log3"],
        ["--mode", "sweep", "--windows", "0:inf:lin3"],
    ],
)
def test_non_finite_input_exits_1(tmp_path, capsys, argv):
    assert main([*argv, "--pairs", "100", "--out", str(tmp_path)]) == 1
    assert "invalid configuration" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())
