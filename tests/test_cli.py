"""CLI outputs pinned by sha256: a paired sweep, the stream matcher, two tag-file round trips and the oracle.

A change that moves any count, rate or S value changes the bytes.  The
manifests are not pinned; their event accounting is read back below.
Non-finite input is a configuration error: exit status 1, no output.
"""

import hashlib
import json
import threading
import tracemalloc

import numpy as np
import pytest

import eprsim.cli
from eprsim import EventLog, ExperimentConfig, QuadratureError, StationStream, ValidationError, write_tags
from eprsim.cli import main, parse_emission
from eprsim.events import CHUNK_PAIRS, DRAWS_PER_PAIR, SEGMENT_PAIRS
from eprsim.tagio import RunManifest, config_to_dict

SWEEP_SHA = "82c61d6f7aa64b329b4aa1399762d7c2f83efdcdc4d1e92ad4b2537416c5af64"
STREAM_SHA = "a060207784af8f229534532d9a36d937da205600682d6a3b1c32fd212151e90e"
PAIRED_SHA = "7a71cf9a5d787d984a2f00c9606fda8d58fbccbe2caaf74fe4b378559a311a14"
POISSON_SWEEP_SHA = "d11df893a050a96af80cdd5dfce23ccef11eaef8925adbd6f6bd9fa598b08372"
# reference_curves.csv and the exact S of two oracle runs: the |T1 - T2| = W
# kinks at a narrow window and at a wide one.
ORACLE_PINS = [
    (["--window", "10"], "bdd273a23130a58759bf611034186b010ba02c67cbb40c58c919b19f817d89bd", 2.7153103548273547),
    (["--d", "2", "--window", "300"], "2685775eea8efc66bf3acc7e7d20a39eb9cbe28b6fa2d0a14c547c060e526a3b",
     1.6820822275552636),
]


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


def test_reanalyzed_poisson_tags_output_pinned(tmp_path):
    # Overlapping emissions: the stream sweep splits and scans contested events window by window.
    out = str(tmp_path)
    argv = ["--mode", "mc", "--emission", "poisson:0.002", "--pairs", "20000", "--seed", "3", "--tags-out", "ptags"]
    assert main([*argv, "--out", out]) == 0
    assert main(["--mode", "reanalyze", "--tags-in", "ptags", "--windows", "1:1000:log20", "--out", out]) == 0
    assert _sha(tmp_path / "sweep.csv") == POISSON_SWEEP_SHA


@pytest.mark.parametrize("argv,sha,s_exact", ORACLE_PINS)
def test_oracle_output_pinned(tmp_path, argv, sha, s_exact):
    assert main(["--mode", "oracle", *argv, "--out", str(tmp_path)]) == 0
    assert _sha(tmp_path / "reference_curves.csv") == sha
    assert json.loads((tmp_path / "oracle.manifest.json").read_text())["results"]["s_exact"] == s_exact


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
    matched = [[record["matched"] for record in results["per_window"]] for results in (paired, stream)]
    assert matched[0] == matched[1]
    assert [m / 2000 for m in matched[0]] == rates
    assert 0 < matched[0][0] < matched[0][-1] == 2000
    for results in (paired, stream):
        for record in results["per_window"]:
            assert record["unmatched1"] == record["unmatched2"] == 2000 - record["matched"]


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
        ["--mode", "mc", "--angles1", "1e308rad,0rad"],
        ["--mode", "oracle", "--quadruple", "1e308rad,0rad,0rad,0rad"],
        ["--mode", "mc", "--window", "inf"],
        ["--mode", "oracle", "--window", "inf"],
        ["--mode", "mc", "--d", "inf"],
    ],
)
def test_non_finite_input_exits_1(tmp_path, capsys, argv):
    assert main([*argv, "--pairs", "100", "--out", str(tmp_path)]) == 1
    assert "invalid configuration" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.filterwarnings("error")
def test_reanalyze_with_a_non_finite_window_exits_1(tmp_path, capsys):
    # The model of reanalyzed tags comes from their side manifest, so --window is checked on its own.
    assert main(["--mode", "mc", "--pairs", "2000", "--tags-out", "tags", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["--mode", "reanalyze", "--tags-in", str(tmp_path / "tags"), "--window", "inf", "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == ["eprsim: invalid configuration: --window must be finite, got inf"]
    assert not any(out.iterdir())


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")], ids=["nan", "inf", "-inf"])
def test_manifest_with_a_non_finite_value_is_refused(tmp_path, capsys, value):
    # Manifests are strict JSON both ways.  A side manifest edited to carry
    # NaN or Infinity is malformed, and reanalyze refuses it before any tag
    # is read, so it writes nothing; a manifest whose results hold one is
    # not written.
    assert main(["--mode", "mc", "--pairs", "2000", "--tags-out", "tags", "--out", str(tmp_path)]) == 0
    side = tmp_path / "tags.manifest.json"
    manifest = json.loads(side.read_text(encoding="utf-8"))
    manifest["results"]["rng"] = value
    side.write_text(json.dumps(manifest), encoding="utf-8")
    assert json.dumps(value) in side.read_text(encoding="utf-8")  # NaN, Infinity or -Infinity
    capsys.readouterr()
    out = tmp_path / "re"
    assert main(["--mode", "reanalyze", "--tags-in", str(tmp_path / "tags"), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"eprsim: runtime error: {side}: malformed manifest: "), err
    assert captured.out == "" and not any(out.iterdir())
    with pytest.raises(ValidationError, match="^tags manifest is not strict JSON"):
        RunManifest(mode="tags", seed=1, config={}, results={"rate": value}).write(tmp_path / "t.manifest.json")
    assert not (tmp_path / "t.manifest.json").exists()


@pytest.mark.parametrize("edit", [{"seed": 7.9, "n_pairs": 3.5}, {"seed": True}, {"n_pairs": 2000.0}],
                         ids=["fractions", "bool-seed", "float-n_pairs"])
def test_manifest_with_a_non_integer_seed_or_n_pairs_exits_1(tmp_path, capsys, edit):
    # The side manifest's seed and n_pairs reach the config as they are, so
    # reanalyze refuses them instead of recording them truncated.
    assert main(["--mode", "mc", "--pairs", "2000", "--tags-out", "tags", "--out", str(tmp_path)]) == 0
    side = tmp_path / "tags.manifest.json"
    manifest = json.loads(side.read_text(encoding="utf-8"))
    manifest["config"].update(edit)
    side.write_text(json.dumps(manifest), encoding="utf-8")
    capsys.readouterr()
    out = tmp_path / "re"
    assert main(["--mode", "reanalyze", "--tags-in", str(tmp_path / "tags"), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("eprsim: invalid configuration: "), err
    assert not any(out.iterdir())


@pytest.mark.parametrize(
    "path, value",
    [(("params", "d"), "4"), (("params", "window"), True), (("params", "t0"), "1000"),
     (("settings1",), ["0", 0.7853981633974483]), (("emission",), {"mode": "poisson", "rate": True}),
     (("emission",), {"mode": "regular", "interval": "5"})],
    ids=["string-d", "bool-window", "string-t0", "string-angle", "bool-rate", "string-interval"],
)
def test_manifest_with_a_bool_or_string_number_exits_1(tmp_path, capsys, path, value):
    # A bool or a string where the config takes a number is an invalid
    # configuration, not a malformed manifest.
    assert main(["--mode", "mc", "--pairs", "2000", "--tags-out", "tags", "--out", str(tmp_path)]) == 0
    side = tmp_path / "tags.manifest.json"
    manifest = json.loads(side.read_text(encoding="utf-8"))
    *parents, key = path
    target = manifest["config"]
    for name in parents:
        target = target[name]
    target[key] = value
    side.write_text(json.dumps(manifest), encoding="utf-8")
    capsys.readouterr()
    out = tmp_path / "re"
    assert main(["--mode", "reanalyze", "--tags-in", str(tmp_path / "tags"), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("eprsim: invalid configuration: "), err
    assert not any(out.iterdir())


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("emission, matcher", [
    pytest.param("regular:1e303", "paired", id="regular:1e303"),
    pytest.param("poisson:1e-305", "paired", id="poisson:1e-305"),
    pytest.param("poisson:1e-305", "stream", id="poisson:1e-305-stream"),
])
def test_emission_overflow_exits_1(tmp_path, capsys, emission, matcher):
    before = set(threading.enumerate())
    argv = ["--mode", "sweep", "--emission", emission, "--matcher", matcher, "--pairs", "3", "--out", str(tmp_path)]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "emission times overflow" in err[0]
    assert not any(tmp_path.iterdir())
    assert set(threading.enumerate()) <= before


@pytest.mark.filterwarnings("error")
def test_streamed_poisson_overflow_fires_at_its_segment(tmp_path, capsys, monkeypatch):
    # Emission times near 1.5e297 a pair: the first segment's last pair is emitted near
    # 1e302, which tags at 6 decimals, and the second segment, which carries it on, near 2e302.
    calls = []
    real = eprsim.cli.run_experiment

    def recorded(config, n_workers=1, pairs=None, emitted_before=None):
        calls.append(pairs)
        return real(config, n_workers, pairs=pairs, emitted_before=emitted_before)

    monkeypatch.setattr("eprsim.cli.run_experiment", recorded)
    argv = ["--mode", "mc", "--matcher", "stream", "--emission", "poisson:6.5e-298", "--window", "1000",
            "--pairs", str(2 * SEGMENT_PAIRS), "--workers", "1", "--out", str(tmp_path)]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("eprsim: invalid configuration: emission times overflow: "
                                               f"the last of {2 * SEGMENT_PAIRS} pairs is emitted at 2."), err
    assert calls == [range(SEGMENT_PAIRS), range(SEGMENT_PAIRS, 2 * SEGMENT_PAIRS)]
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "text, message",
    [("regular", "must look like"), ("poisson:fast", "non-numeric"), ("burst:1", "unknown emission mode")],
    ids=["missing-value", "non-numeric", "unknown-mode"],
)
def test_parse_emission_rejects(text, message):
    with pytest.raises(ValidationError, match=message):
        parse_emission(text)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--mode", "sweep", "--windows", "1:1000"], "must look like min:max:logN"),
        (["--mode", "sweep", "--windows", "1:big:log3"], "non-numeric bound"),
        (["--mode", "sweep", "--windows", "1:1000:sqr3"], "must be logN or linN"),
        (["--mode", "sweep", "--windows", "1:1000:logx"], "must be logN or linN"),
        (["--mode", "sweep", "--windows", "1:1000:lin0"], "at least one point"),
        (["--mode", "sweep", "--windows", "1000:1:log3"], "needs max > min"),
        (["--mode", "sweep", "--windows", "0:1000:log3"], "needs min > 0"),
        (["--mode", "sweep", "--windows=-1e308:1e308:lin3"], "needs min >= 0"),
        (["--mode", "sweep", "--windows", "0:1000:log1"], "needs min > 0"),
        (["--mode", "sweep", "--windows", "1000:1:lin1"], "needs max > min"),
        (["--mode", "sweep", "--windows", "1:1000:log99999999999999999999"], "at most 2**53 points"),
        (["--mode", "sweep", "--pairs", "2000", "--windows", "1:1.0000000000000002:log3", "--tags-out", "tags"],
         "is not strictly increasing"),
        (["--mode", "mc", "--pairs", str(2**53 + 1)], "n_pairs must be in [1, 2**53]"),
        (["--mode", "mc", "--pairs", "10000000000000000000"], "n_pairs must be in [1, 2**53]"),
        (["--mode", "mc", "--angles1", ","], "empty angle list"),
        (["--mode", "mc", "--quadruple", "0deg,45deg,22.5deg"], "expected 4 angles, got 3"),
        (["--mode", "reanalyze", "--tags-in", "tags"], "no manifest"),
    ],
    ids=["grid-parts", "grid-bound", "grid-kind", "grid-count", "grid-zero-points", "grid-max-le-min",
         "log-grid-min-le-0", "grid-min-below-0", "one-point-log-grid-min-le-0", "one-point-grid-max-le-min",
         "grid-count-above-2**53", "grid-points-collapse", "pairs-above-2**53", "pairs-above-int64",
         "empty-angle-list", "quadruple-count", "no-side-manifest"],
)
def test_parser_rejections_exit_1(tmp_path, capsys, argv, message):
    assert main(["--pairs", "100", *argv, "--out", str(tmp_path)]) == 1
    assert message in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("count", ["log\u00b2", "log\uff12\uff10", "lin\u0663"], ids=["superscript", "fullwidth", "arabic-indic"])
def test_grid_count_takes_ascii_digits_only(tmp_path, capsys, count):
    # str.isdigit() holds for these, and int() reads the last two as 20 and 3.
    assert main(["--mode", "sweep", "--windows", f"1:1000:{count}", "--pairs", "100", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [f"eprsim: invalid configuration: grid spec {count!r} must be logN or linN"]
    assert not any(tmp_path.iterdir())


def test_ambiguous_quadruple_angle_exits_1(tmp_path, capsys):
    # 0 and 180 degrees are one setting mod pi, so angle a of the quadruple matches settings 0 and 1.
    argv = ["--mode", "mc", "--pairs", "20000", "--angles1", "0deg,180deg,45deg", "--out", str(tmp_path)]
    assert main(argv) == 1
    settings = (0.0, np.pi, np.pi / 4)
    assert capsys.readouterr().err.splitlines() == [
        "eprsim: invalid configuration: ambiguous combination: "
        f"angle 0.0 matches station-1 settings 0 and 1 of {settings}"
    ]
    assert not any(tmp_path.iterdir())


def test_ambiguous_quadruple_angle_writes_no_tags(tmp_path, capsys):
    # The quadruple is looked up before any event is generated, so no tag file or side manifest is left.
    argv = ["--mode", "mc", "--pairs", "2000", "--angles1", "0deg,180deg,45deg", "--tags-out", "tags"]
    assert main([*argv, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("eprsim: invalid configuration: ambiguous combination: angle 0.0")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("prefix", ["", ".", "..", "tags/", "sub/."],
                         ids=["empty", "dot", "dotdot", "slash", "sub-dot"])
def test_tags_out_prefix_without_a_file_name_exits_1(tmp_path, capsys, monkeypatch, prefix):
    # The tag files are named by appending to the prefix, so "" or "." would write run.station1.csv
    # beside the --out directory run/.  It is refused before any event is generated.
    monkeypatch.setattr("eprsim.cli.run_experiment", lambda *args, **kwargs: pytest.fail("events generated"))
    out = tmp_path / "run"
    assert main(["--mode", "mc", "--pairs", "2000", "--tags-out", prefix, "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"eprsim: invalid configuration: --tags-out prefix {prefix!r} must end in a file name"
    ]
    assert list(tmp_path.iterdir()) == [out]
    assert not any(out.iterdir())


@pytest.mark.parametrize("prefix", [".", "..", "tags/"], ids=["dot", "dotdot", "slash"])
def test_tags_in_prefix_without_a_file_name_exits_1(tmp_path, capsys, monkeypatch, prefix):
    # Tags written beside run/ under the prefix run: "--tags-in ." with --out run would read them.
    argv = ["--mode", "mc", "--pairs", "2000", "--tags-out", str(tmp_path / "run")]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    before = sorted(tmp_path.iterdir())
    monkeypatch.setattr("eprsim.cli.read_tags", lambda *args: pytest.fail("tags read"))
    out = tmp_path / "run"
    assert main(["--mode", "reanalyze", "--tags-in", prefix, "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"eprsim: invalid configuration: --tags-in prefix {prefix!r} must end in a file name"
    ]
    assert sorted(tmp_path.iterdir()) == sorted([*before, out])
    assert not any(out.iterdir())


def test_reanalyze_with_a_quadruple_angle_not_in_the_side_manifest_exits_1(side_manifest, tmp_path, capsys,
                                                                          monkeypatch):
    # The angle is looked up in the side manifest's settings before any tag file is read.
    monkeypatch.setattr("eprsim.cli.read_tags", lambda *args: pytest.fail("tags read"))
    argv = ["--mode", "reanalyze", "--tags-in", "tags", "--quadruple", "0deg,45deg,22.5deg,50deg"]
    assert main([*argv, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("eprsim: invalid configuration: missing combination: angle ")
    assert not (tmp_path / "reanalyze.manifest.json").exists()


@pytest.mark.parametrize("error", [MemoryError("Unable to allocate 1.00 PiB"), MemoryError()], ids=["text", "bare"])
def test_out_of_memory_exits_2_with_one_line(tmp_path, capsys, monkeypatch, error):
    def run_experiment(config, n_workers):
        raise error

    monkeypatch.setattr("eprsim.cli.run_experiment", run_experiment)
    assert main(["--mode", "mc", "--pairs", "100", "--tags-out", "tags", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"eprsim: runtime error: {str(error) or 'MemoryError'}"]
    assert not any(tmp_path.iterdir())


def test_mc_and_sweep_manifests_record_rng_provenance(tmp_path):
    # reanalyze copies the provenance from the tags' side manifest, or
    # records null for a side manifest that does not carry it.
    out = str(tmp_path)
    assert main(["--mode", "mc", "--pairs", "100", "--tags-out", "tags", "--out", out]) == 0
    assert main(["--mode", "sweep", "--pairs", "2000", "--windows", "10:1000:log3", "--out", out]) == 0
    assert main(["--mode", "reanalyze", "--tags-in", "tags", "--out", out]) == 0
    for mode in ("mc", "sweep", "reanalyze"):
        rng = RunManifest.read(tmp_path / f"{mode}.manifest.json").results["diagnostics"]["rng"]
        assert rng == {"bit_generator": "Philox", "key": ["seed", "chunk"], "chunk_pairs": CHUNK_PAIRS,
                       "draws_per_pair": DRAWS_PER_PAIR, "numpy": np.__version__}
    side = tmp_path / "tags.manifest.json"
    manifest = json.loads(side.read_text(encoding="utf-8"))
    manifest["results"] = {}
    side.write_text(json.dumps(manifest), encoding="utf-8")
    assert main(["--mode", "reanalyze", "--tags-in", "tags", "--out", out]) == 0
    assert RunManifest.read(tmp_path / "reanalyze.manifest.json").results["diagnostics"]["rng"] is None


GRID = ["--windows", "10:1000:log3"]


@pytest.mark.parametrize(
    "first, second, same",
    [
        (["--mode", "mc", "--tags-out", "tags"], ["--mode", "reanalyze"], "results"),
        (["--mode", "sweep", "--tags-out", "tags", *GRID], ["--mode", "reanalyze", *GRID], "results"),
        (["--mode", "sweep", *GRID], ["--mode", "mc", *GRID], "sweep.csv"),
    ],
    ids=["one-window", "grid", "mc-grid"],
)
def test_one_results_schema_per_shape(tmp_path, first, second, same):
    # Each run writes to its own directory; reanalyze reads the first run's tags.
    runs = [(first, tmp_path / "first"), (second, tmp_path / "second")]
    for argv, out in runs:
        source = ["--tags-in", str(tmp_path / "first" / "tags")] if "reanalyze" in argv else ["--pairs", "2000"]
        assert main([*argv, *source, "--out", str(out)]) == 0
    if same == "sweep.csv":
        assert (tmp_path / "first" / "sweep.csv").read_bytes() == (tmp_path / "second" / "sweep.csv").read_bytes()
    else:
        results = [RunManifest.read(out / f"{argv[1]}.manifest.json").results for argv, out in runs]
        assert set(results[0]) == set(results[1])
        assert set(results[0]["diagnostics"]) == set(results[1]["diagnostics"]) == {"rng", "stage_s"}
        grid = "--windows" in first
        # One record per window, with the same keys for both shapes; a one-window run's scalars are record 0.
        record_keys = {"window", "s", "s_stderr", "coincidence_rate", "matched", "unmatched1", "unmatched2",
                       "empty_cells", "correlations"}
        shape_keys = {"s_first", "s_last", "crossings_at_2"} if grid else record_keys
        assert set(results[1]) == {"policy", "diagnostics", "per_window"} | shape_keys
        # Every cell has coincidences at every window.
        assert [record["empty_cells"] for record in results[1]["per_window"]] == [[]] * (3 if grid else 1)
        for res in results:
            assert [set(record) for record in res["per_window"]] == [record_keys] * (3 if grid else 1)
            assert grid or {key: res[key] for key in record_keys} == res["per_window"][0]


@pytest.mark.parametrize("windows, empty_cells", [
    (["--window", "5"], [[[2, 0], [2, 1]]]),
    (["--windows", "1:5:lin2"], [[[2, 0], [2, 1]]] * 2),
], ids=["one-window", "grid"])
def test_manifest_records_empty_cells(tmp_path, windows, empty_cells):
    # A hand-built log: four pairs in each of the four cells of settings
    # 0 and 1, two at |dt| 1 and two at 2; the config's third station-1
    # setting is never used.
    i1, i2 = np.repeat([0, 1], 8), np.tile(np.repeat([0, 1], 2), 4)
    dt = np.tile([1, 2], 8)
    x = np.where(np.arange(16) % 3 == 0, 1, -1).astype(np.int8)
    pid = np.arange(16)
    t1 = pid * 1e4
    log = EventLog(StationStream(1, t1, i1.astype(np.int16), x, pid),
                   StationStream(2, t1 + dt, i2.astype(np.int16), -x, pid))
    config = ExperimentConfig(settings1=(0.0, np.pi / 4, np.pi / 2), n_pairs=16)
    paths = write_tags(log, tmp_path / "tags")
    RunManifest(mode="tags", seed=config.seed, config=config_to_dict(config),
                outputs=[p.name for p in paths]).write(tmp_path / "tags.manifest.json")
    argv = ["--mode", "reanalyze", "--tags-in", "tags", "--matcher", "paired", *windows, "--out", str(tmp_path)]
    assert main(argv) == 0
    records = RunManifest.read(tmp_path / "reanalyze.manifest.json").results["per_window"]
    assert [record["empty_cells"] for record in records] == empty_cells


def test_reanalyze_rejects_a_setting_index_outside_the_side_manifest(tmp_path, capsys):
    # Four pairs in each cell of settings 0 and 1 at |dt| 1, and one pair
    # with station-1 setting 2 at |dt| 5000, which no window up to 10 keeps.
    i1, i2 = np.append(np.repeat([0, 1], 8), 2), np.append(np.tile(np.repeat([0, 1], 2), 4), 0)
    dt = np.append(np.ones(16), 5000.0)
    x = np.where(np.arange(17) % 3 == 0, 1, -1).astype(np.int8)
    pid = np.arange(17)
    t1 = pid * 1e4
    log = EventLog(StationStream(1, t1, i1.astype(np.int16), x, pid),
                   StationStream(2, t1 + dt, i2.astype(np.int16), -x, pid))
    paths = write_tags(log, tmp_path / "tags")
    argv = ["--mode", "reanalyze", "--tags-in", str(tmp_path / "tags"), "--window", "10"]
    for settings1, status in (((0.0, np.pi / 4, np.pi / 2), 0), ((0.0, np.pi / 4), 1)):
        config = ExperimentConfig(settings1=settings1, n_pairs=17)
        RunManifest(mode="tags", seed=config.seed, config=config_to_dict(config),
                    outputs=[p.name for p in paths]).write(tmp_path / "tags.manifest.json")
        out = tmp_path / f"out{len(settings1)}"
        assert main([*argv, "--out", str(out)]) == status
    # With three station-1 settings the sweep runs and leaves the pair unmatched; with two it is rejected.
    assert RunManifest.read(tmp_path / "out3" / "reanalyze.manifest.json").results["matched"] == 16
    assert capsys.readouterr().err.splitlines() == [
        "eprsim: invalid configuration: setting index out of range for the supplied config"]
    assert not any((tmp_path / "out2").iterdir())


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


STREAM_POISSON = ["--matcher", "stream", "--emission", "poisson:0.005"]


@pytest.mark.parametrize("workers, matcher", [
    *(pytest.param(w, [], id=str(w)) for w in (1, 2, 3)),
    *(pytest.param(w, ["--matcher", "stream"], id=f"stream-{w}") for w in (1, 2, 3)),
    *(pytest.param(w, STREAM_POISSON, id=f"stream-poisson-{w}") for w in (1, 2, 3)),
])
def test_streamed_runs_equal_the_stored_log(tmp_path, workers, matcher):
    # Without --tags-out a run streams its segments; with it the run stores its
    # log.  Two full segments of SEGMENT_PAIRS pairs and a partial one.
    run = ["--pairs", str(2 * SEGMENT_PAIRS + 5000), "--seed", "4", "--workers", str(workers), *matcher]
    # The stream matcher's runs at a 3-window grid and at one window.
    grids = (["--windows", "10:1000:log3"], ["--window", "1000"]) if matcher else ([], [])
    for (mode, csv), window in zip((("sweep", "sweep.csv"), ("mc", "correlations.csv")), grids):
        streamed, stored, read = (tmp_path / f"{mode}-{how}" for how in ("streamed", "stored", "read"))
        assert main(["--mode", mode, *run, *window, "--out", str(streamed)]) == 0
        assert main(["--mode", mode, *run, *window, "--tags-out", "tags", "--out", str(stored)]) == 0
        runs = [(streamed, mode), (stored, mode)]
        if matcher:  # the stored run's tags read back, as lab data is, and walked at the same windows
            assert main(["--mode", "reanalyze", "--tags-in", str(stored / "tags"), *window, "--out", str(read)]) == 0
            runs.append((read, "reanalyze"))
        results = [RunManifest.read(d / f"{m}.manifest.json").results for d, m in runs]
        for (d, _), r in zip(runs, results):
            assert (d / csv).read_bytes() == (streamed / csv).read_bytes()
            del r["diagnostics"]["stage_s"]
            assert r == results[0]


def test_workers_below_1_exit_1_before_any_event_is_generated(tmp_path, capsys, monkeypatch):
    # Segments run on one worker each, so the CLI checks --workers itself.
    monkeypatch.setattr("eprsim.cli.run_experiment", lambda *args, **kwargs: pytest.fail("events generated"))
    for mode in ("mc", "sweep"):
        assert main(["--mode", mode, "--pairs", "200000", "--workers", "0", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.splitlines() == ["eprsim: invalid configuration: --workers must be >= 1, got 0"]
    assert not any(tmp_path.iterdir())


@pytest.mark.filterwarnings("error")
def test_streamed_emission_overflow_fires_on_the_first_segment(tmp_path, capsys, monkeypatch):
    # Only the run's last pairs overflow at 6 decimals; the first segment's own tags would not.
    calls = []
    real = eprsim.cli.run_experiment

    def recorded(config, n_workers=1, pairs=None):
        calls.append(pairs)
        return real(config, n_workers, pairs=pairs)

    monkeypatch.setattr("eprsim.cli.run_experiment", recorded)
    argv = ["--mode", "sweep", "--emission", "regular:1e297", "--pairs", "200000", "--out", str(tmp_path)]
    assert main(argv) == 1
    assert "emission times overflow: the last of 200000 pairs" in capsys.readouterr().err
    assert calls[0] == range(SEGMENT_PAIRS)
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "error, code, line",
    [(MemoryError("Unable to allocate 1.00 PiB"), 2, "eprsim: runtime error: Unable to allocate 1.00 PiB"),
     (QuadratureError("no convergence"), 2, "eprsim: runtime error: no convergence"),
     (ValidationError("bad segment"), 1, "eprsim: invalid configuration: bad segment")],
    ids=["memory", "runtime", "validation"],
)
@pytest.mark.parametrize("workers, matcher", [
    *(pytest.param(w, [], id=str(w)) for w in (1, 2)),
    *(pytest.param(w, STREAM_POISSON, id=f"{w}-stream-poisson") for w in (1, 2)),
])
def test_a_failing_segment_exits_like_a_failing_run(tmp_path, capsys, monkeypatch, error, code, line, workers,
                                                    matcher):
    # The second segment raises: one stderr line, the exit code of its type,
    # no output file, and no generation thread left running.
    real = eprsim.cli.run_experiment

    def failing(config, n_workers=1, pairs=None, emitted_before=None):
        if pairs is not None and pairs.start > 0:
            raise error
        return real(config, n_workers, pairs=pairs, emitted_before=emitted_before)

    monkeypatch.setattr("eprsim.cli.run_experiment", failing)
    before = set(threading.enumerate())
    argv = ["--mode", "sweep", "--pairs", str(4 * SEGMENT_PAIRS), "--workers", str(workers), *matcher,
            "--out", str(tmp_path)]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [line] and captured.out == ""
    assert not any(tmp_path.iterdir())
    assert set(threading.enumerate()) <= before


def test_streamed_sweep_memory_does_not_grow_with_the_run(tmp_path, capsys):
    # A stored log would add 24 bytes a pair, 1.4e7 bytes from 2e5 to 8e5
    # pairs.  A streamed run on one worker generates its segments inline and
    # holds the one being binned, 1.5 MB, whatever the run's size.
    def peak(n_pairs):
        tracemalloc.start()
        try:
            assert main(["--mode", "sweep", "--pairs", str(n_pairs), "--workers", "1", "--out", str(tmp_path)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(20_000)  # first-call allocations do not grow with the run
    assert peak(800_000) <= peak(200_000) + 1e6


def test_streamed_stream_matcher_memory_does_not_grow_with_the_run(tmp_path, capsys):
    # A stored log would add 24 bytes a pair and the walk's sort orders and
    # sorted tags 16 more, 2.4e7 bytes from 2e5 to 8e5 pairs.  A streamed run
    # holds one segment, the rows it carries into the next and the events
    # each window holds back.
    def peak(n_pairs):
        tracemalloc.start()
        try:
            argv = ["--mode", "mc", "--matcher", "stream", "--emission", "poisson:0.005", "--window", "1000",
                    "--pairs", str(n_pairs), "--workers", "1", "--out", str(tmp_path)]
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(20_000)  # first-call allocations do not grow with the run
    assert peak(800_000) <= peak(200_000) + 2e6
