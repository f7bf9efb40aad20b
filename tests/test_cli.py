"""CLI outputs pinned by sha256: a paired sweep, the stream matcher, and a tag-file round trip.

A change that moves any count, rate or S value changes the bytes.  The
manifests are not pinned; their event accounting is read back below.
Non-finite input is a configuration error: exit status 1, no output.
"""

import hashlib
import json

import numpy as np
import pytest

from eprsim import ValidationError
from eprsim.cli import main, parse_emission
from eprsim.events import CHUNK_PAIRS, DRAWS_PER_PAIR
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
    assert (paired["policy"], stream["policy"]) == ("paired", "stream")
    for results in (paired, stream):
        assert 0 < results["matched"] < 2000
        assert results["unmatched1"] == results["unmatched2"] == 2000 - results["matched"]
        assert results["coincidence_rate"] == results["matched"] / 2000
    assert paired["matched"] == stream["matched"]


def test_sweep_manifests_account_for_every_window(tmp_path):
    # The paired sweep (one histogram pass) and the stream sweep over the
    # same log's tags record matched and unmatched events per window.
    out = str(tmp_path)
    run = ["--pairs", "2000", "--seed", "5", "--out", out]
    assert main(["--mode", "mc", "--tags-out", "tags", *run]) == 0
    assert main(["--mode", "sweep", "--windows", "1:1000:log5", *run]) == 0
    paired = RunManifest.read(tmp_path / "sweep.manifest.json").results
    rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
    rates = [float(row.split(",")[3]) for row in rows]
    assert main(["--mode", "reanalyze", "--tags-in", "tags", "--windows", "1:1000:log5", "--out", out]) == 0
    stream = RunManifest.read(tmp_path / "reanalyze.manifest.json").results
    assert (paired["policy"], stream["policy"]) == ("paired", "stream")
    assert paired["matched"] == stream["matched"]
    assert [m / 2000 for m in paired["matched"]] == rates
    assert 0 < paired["matched"][0] < paired["matched"][-1] == 2000
    for results in (paired, stream):
        assert results["unmatched1"] == results["unmatched2"] == [2000 - m for m in results["matched"]]


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
        ["--mode", "mc", "--emission", "regular:1e306", "--tags-out", "tags"],
        ["--mode", "mc", "--emission", "poisson:1e-320"],
        ["--mode", "mc", "--emission", "poisson:inf"],
    ],
)
def test_non_finite_input_exits_1(tmp_path, capsys, argv):
    assert main([*argv, "--pairs", "100", "--out", str(tmp_path)]) == 1
    assert "invalid configuration" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "text, message",
    [("regular", "must look like"), ("poisson:fast", "non-numeric"), ("burst:1", "unknown emission mode")],
    ids=["missing-value", "non-numeric", "unknown-mode"],
)
def test_parse_emission_rejects(text, message):
    with pytest.raises(ValidationError, match=message):
        parse_emission(text)


def test_mc_and_sweep_manifests_record_rng_provenance(tmp_path):
    out = str(tmp_path)
    assert main(["--mode", "mc", "--pairs", "100", "--out", out]) == 0
    assert main(["--mode", "sweep", "--pairs", "2000", "--windows", "10:1000:log3", "--out", out]) == 0
    for mode in ("mc", "sweep"):
        rng = RunManifest.read(tmp_path / f"{mode}.manifest.json").results["diagnostics"]["rng"]
        assert rng == {"bit_generator": "Philox", "key": ["seed", "chunk"], "chunk_pairs": CHUNK_PAIRS,
                       "draws_per_pair": DRAWS_PER_PAIR, "numpy": np.__version__}


def test_manifests_record_stage_wall_times(tmp_path):
    out = str(tmp_path)
    runs = [
        ("mc", ["--pairs", "2000"], {"generate", "analyze"}),
        ("mc", ["--pairs", "2000", "--tags-out", "tags"], {"generate", "write_tags", "analyze"}),
        ("sweep", ["--pairs", "2000", "--windows", "10:1000:log3"], {"generate", "analyze"}),
        ("reanalyze", ["--tags-in", "tags"], {"read_tags", "analyze"}),
        ("reanalyze", ["--tags-in", "tags", "--windows", "10:1000:log3"], {"read_tags", "analyze"}),
    ]
    for mode, argv, stages in runs:
        assert main(["--mode", mode, *argv, "--out", out]) == 0
        stage_s = RunManifest.read(tmp_path / f"{mode}.manifest.json").results["diagnostics"]["stage_s"]
        assert set(stage_s) == stages
        assert all(isinstance(v, float) and np.isfinite(v) and v >= 0 for v in stage_s.values())


@pytest.fixture
def side_manifest(tmp_path):
    """Tags and their side manifest from a small mc run; returns the manifest's path."""
    assert main(["--mode", "mc", "--pairs", "200", "--tags-out", "tags", "--out", str(tmp_path)]) == 0
    return tmp_path / "tags.manifest.json"


def _reanalyze(tmp_path) -> int:
    return main(["--mode", "reanalyze", "--tags-in", "tags", "--out", str(tmp_path)])


def test_reanalyze_with_unparsable_manifest_exits_2(side_manifest, tmp_path, capsys):
    side_manifest.write_text("{not json", encoding="utf-8")
    assert _reanalyze(tmp_path) == 2
    assert "tags.manifest.json: malformed manifest" in capsys.readouterr().err


def test_reanalyze_with_manifest_missing_a_key_exits_2(side_manifest, tmp_path, capsys):
    manifest = json.loads(side_manifest.read_text(encoding="utf-8"))
    del manifest["config"]["settings1"]
    side_manifest.write_text(json.dumps(manifest), encoding="utf-8")
    assert _reanalyze(tmp_path) == 2
    assert "tags.manifest.json: malformed manifest: missing key 'settings1'" in capsys.readouterr().err


def test_reanalyze_with_manifest_bad_value_exits_1(side_manifest, tmp_path, capsys):
    manifest = json.loads(side_manifest.read_text(encoding="utf-8"))
    manifest["config"]["params"]["t0"] = -1.0
    side_manifest.write_text(json.dumps(manifest), encoding="utf-8")
    assert _reanalyze(tmp_path) == 1
    assert "t0 must be finite" in capsys.readouterr().err
