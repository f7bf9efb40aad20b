"""Tag file tests: byte-identical round trip, line-accurate errors, CLI exit codes."""

import hashlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from eprsim import (
    EmissionSpec,
    EventLog,
    ExperimentConfig,
    ModelParams,
    TagFormatError,
    read_tags,
    run_experiment,
    write_tags,
)
from eprsim import tagio
from eprsim.cli import main
from eprsim.tagio import RunManifest, config_from_dict, config_to_dict, station_path

# Poisson emission interleaves pairs, so time order differs from pair order.
POISSON = ExperimentConfig(ModelParams(4, 1000, 10), n_pairs=2000, seed=7, emission=EmissionSpec.poisson(0.005))


@pytest.fixture
def tag_prefix(tmp_path):
    config = ExperimentConfig(params=ModelParams(d=4.0, t0=1000.0, window=10.0), n_pairs=500, seed=7)
    log = run_experiment(config)
    write_tags(log, tmp_path / "run")
    return tmp_path / "run", log


@pytest.fixture
def cli_run(tmp_path):
    """An mc run with tag files written under tmp_path; returns the CLI's --out argument."""
    out = str(tmp_path)
    assert main(["--mode", "mc", "--pairs", "200", "--tags-out", "tags", "--out", out]) == 0
    return out


def _replace_line(prefix, k: int, text: str) -> None:
    """Replace line k (0-based) of the station-1 file."""
    path = station_path(prefix, 1)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[k] = text + "\n"
    path.write_text("".join(lines), encoding="utf-8")


def _set_pair_ids(prefix, ids) -> None:
    """Overwrite the pair_id field of the first data rows of both station files."""
    for station in (1, 2):
        path = station_path(prefix, station)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        for k, pid in enumerate(ids, start=2):
            lines[k] = f"{pid}," + lines[k].split(",", 1)[1]
        path.write_text("".join(lines), encoding="utf-8")


def _keep_headers_only(prefix) -> None:
    for station in (1, 2):
        path = station_path(prefix, station)
        path.write_text("".join(path.read_text(encoding="utf-8").splitlines(keepends=True)[:2]), encoding="utf-8")


def test_round_trip_is_byte_identical(tag_prefix, tmp_path):
    prefix, log = tag_prefix
    back = read_tags(prefix, log.config)
    assert back == log
    write_tags(back, tmp_path / "again")
    for station in (1, 2):
        assert station_path(tmp_path / "again", station).read_bytes() == station_path(prefix, station).read_bytes()


@pytest.mark.parametrize("block_rows", [None, 7], ids=["default-blocks", "partial-last-block"])
def test_poisson_tag_files_pinned(tmp_path, monkeypatch, block_rows):
    if block_rows is not None:
        monkeypatch.setattr(tagio, "_FORMAT_ROWS", block_rows)
    paths = write_tags(run_experiment(POISSON), tmp_path / "run")
    assert [hashlib.sha256(p.read_bytes()).hexdigest() for p in paths] == [
        "9ee181b691e838f4019f3b3569362af3c18966cbc49e8a0f0a4a52be8406f338",
        "7e889aa248ca439f6d292dafeb891f7d0264a1cd515dd48c947714d69b6fdcc4",
    ]


def _reference_rows(pid, t, idx, outcome) -> bytes:
    """The rows as ``str.format`` writes them: the writer must match these bytes."""
    cols = [t.tolist(), idx.tolist(), outcome.tolist()]
    if pid is None:
        return "".join(f"{a:.6f},{b},{c}\n" for a, b, c in zip(*cols)).encode()
    return "".join(f"{p},{a:.6f},{b},{c}\n" for p, a, b, c in zip(pid.tolist(), *cols)).encode()


def _step(x: float, ulps: int) -> float:
    """``x`` moved by ``ulps`` units in the last place."""
    for _ in range(abs(ulps)):
        x = float(np.nextafter(x, np.inf if ulps > 0 else -np.inf))
    return x


# Where the digit arithmetic changes: exact fractions from 2**14, frac * 1e6
# above 2**53 / 1e6 (where rint(t * 1e6) stops being exact), and 2**53.
_BOUNDARIES = st.sampled_from([2.0**14, 2.0**33, 2.0**53 / 1e6, 2.0**53])
_near_boundary = st.builds(lambda b, off, u: _step(b + off, u), _BOUNDARIES,
                           st.sampled_from([0.0, 0.5, -0.5, 1e-3, -1e-3, 7.25e-4]), st.integers(-3, 3))
# Half a unit of the sixth decimal: exact when the fraction is odd/128,
# otherwise the nearest double, where frac * 1e6 can round onto the tie.
_dyadic_tie = st.builds(lambda n, j, u: _step(n + j / 128, u),
                        st.integers(0, 2**20), st.integers(0, 63).map(lambda j: 2 * j + 1), st.integers(-1, 1))
_half_unit = st.builds(lambda n, k, u: _step(n + (k + 0.5) / 1e6, u),
                       st.integers(0, 15) | st.integers(0, 2**14), st.integers(0, 10**6 - 1), st.integers(-1, 1))
_tag = st.one_of(_near_boundary, _dyadic_tie, _half_unit, st.floats(),
                 st.floats(0, 2.0**-1022),  # subnormal
                 st.floats(2.0**53, 1e300), st.sampled_from([0.0, -0.0]))


@st.composite
def _blocks(draw):
    n = draw(st.integers(1, 24))
    t = np.array([draw(_tag) * draw(st.sampled_from([1.0, -1.0])) for _ in range(n)])
    idx = np.array(draw(st.lists(st.integers(0, 2**15 - 1), min_size=n, max_size=n)), dtype=np.int16)
    outcome = np.array(draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n)), dtype=np.int8)
    pid = draw(st.none() | st.lists(st.integers(0, 2**53 - 1), min_size=n, max_size=n).map(np.array))
    return pid, t, idx, outcome


def _block(*tags):
    n = len(tags)
    return np.arange(n), np.array(tags), np.full(n, 2**15 - 1, np.int16), np.ones(n, np.int8)


@settings(max_examples=200, deadline=None)
@given(_blocks())
@example(_block(2.5e-06, 0.8506245, 9.3759435, 7760.9703485))  # frac * 1e6 rounds onto a tie
@example(_block(9007199559.724163, 9007200139.631691))  # rint(t * 1e6) is off by one here
@example(_block(-0.0, 5e-324, -2.0**53, 2.0**53 + 2, 1e300, np.inf, -np.inf, np.nan, 0.9999999995))
def test_block_writer_matches_str_format(block):
    assert tagio._format_block(*block) == _reference_rows(*block)


def test_read_back_in_pair_order(tmp_path):
    log = run_experiment(POISSON)
    write_tags(log, tmp_path / "run")
    back = read_tags(tmp_path / "run", POISSON)
    assert back == log
    assert np.array_equal(back.station1.pair_id, np.arange(2000))


def test_without_pair_ids_rows_stay_in_file_order(tag_prefix, tmp_path):
    _, log = tag_prefix
    stripped = EventLog(replace(log.station1, pair_id=None), replace(log.station2, pair_id=None))
    write_tags(stripped, tmp_path / "nopid")
    back = read_tags(tmp_path / "nopid")
    for written, read in ((log.station1, back.station1), (log.station2, back.station2)):
        order = written.time_order()
        assert read.pair_id is None
        assert np.array_equal(read.time_tag, written.time_tag[order])
        assert np.array_equal(read.outcome, written.outcome[order])
    write_tags(back, tmp_path / "again")
    for station in (1, 2):
        assert station_path(tmp_path / "again", station).read_bytes() == station_path(tmp_path / "nopid", station).read_bytes()


@pytest.mark.parametrize(
    "config",
    [ExperimentConfig(), replace(POISSON, emission=EmissionSpec.regular(250.0)), POISSON],
    ids=["default-emission", "regular", "poisson"],
)
def test_config_round_trips_through_manifest_json(config):
    manifest = RunManifest(mode="mc", seed=config.seed, config=config_to_dict(config))
    assert config_from_dict(RunManifest.from_json(manifest.to_json()).config) == config


def test_header_only_files_rejected(tag_prefix):
    prefix, _ = tag_prefix
    _keep_headers_only(prefix)
    with pytest.raises(TagFormatError, match=r"station1\.csv: no events"):
        read_tags(prefix)


@pytest.mark.parametrize(
    "header, message",
    [
        ("# eprsim-tags v1 station=x", "bad station token 'station=x'"),
        ("# eprsim-tags v2 station=1", "version mismatch: file has 'v2'"),
        ("# other-tags v1 station=1", "not a eprsim-tags file"),
        ("# eprsim-tags v1 station=2", "station 2 file given for station 1"),
        ("# eprsim-tags v1", "bad station token ''"),
        ("# eprsim-tags v1 station=1 station=1", "bad station token 'station=1 station=1'"),
        ("# eprsim-tags v1 1", "bad station token '1'"),
    ],
    ids=["bad-station-token", "version-mismatch", "not-a-tag-file", "other-station", "no-station-token",
         "extra-token", "no-station-key"],
)
def test_header_errors_name_line_one(tag_prefix, header, message):
    prefix, _ = tag_prefix
    _replace_line(prefix, 0, header)
    with pytest.raises(TagFormatError, match=r"station1\.csv:1: " + message):
        read_tags(prefix)


@pytest.mark.parametrize("keep", [0, 1], ids=["empty", "one-line"])
def test_truncated_file_rejected(tag_prefix, keep):
    prefix, _ = tag_prefix
    path = station_path(prefix, 1)
    path.write_text("".join(path.read_text(encoding="utf-8").splitlines(keepends=True)[:keep]), encoding="utf-8")
    with pytest.raises(TagFormatError, match=r"station1\.csv: truncated tag file"):
        read_tags(prefix)


# Line k + 1 of the station-1 file (k is 0-based) is replaced by ``text``;
# a newline in ``text`` inserts lines.
@pytest.mark.parametrize(
    "k, text, message",
    [
        (1, "pair_id,time,setting_index,outcome", r":2: unexpected columns"),
        (3, "1,10000.000000,0", r":4: expected 4 columns, found 3"),
        (3, "1,1e999,0,1", r":4: non-finite time tag"),
        (3, "1_000,10000.000000,0,1", r":4: malformed tag data"),
        (3, "\n1,10000.000000,0,2", r":5: outcome must be 1 or -1"),
        (3, "# comment\n1,10000.000000,0,1", r":4: expected 4 columns, found 1"),
    ],
    ids=["columns", "short-row", "non-finite-time", "digit-separator", "blank-then-bad-row", "comment-in-body"],
)
def test_row_errors_name_the_line(tag_prefix, k, text, message):
    prefix, _ = tag_prefix
    _replace_line(prefix, k, text)
    with pytest.raises(TagFormatError, match=r"station1\.csv" + message):
        read_tags(prefix)


def test_blank_lines_are_skipped(tag_prefix):
    prefix, log = tag_prefix
    path = station_path(prefix, 1)
    path.write_text(path.read_text(encoding="utf-8").replace("\n", "\n\n").replace("\n\n", "\n", 1),
                    encoding="utf-8")
    assert read_tags(prefix, log.config) == log


def test_undecodable_bytes_rejected(tag_prefix):
    prefix, _ = tag_prefix
    path = station_path(prefix, 1)
    path.write_bytes(path.read_bytes() + b"\xff,1.0,0,1\n")
    with pytest.raises(TagFormatError, match=r"station1\.csv: cannot read tag file"):
        read_tags(prefix)


def test_read_peak_memory_per_pair(tmp_path):
    # Whole-file text and a StringIO copy of it peaked near 250 bytes per
    # pair; loadtxt reading from disk needs the parsed rows and the result.
    config = ExperimentConfig(n_pairs=50_000, seed=3)
    write_tags(run_experiment(config), tmp_path / "run")
    tracemalloc.start()
    try:
        log = read_tags(tmp_path / "run", config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / log.n_pairs < 150
    # Integer columns parsed as float64 peaked near 89 bytes per pair.
    assert peak / log.n_pairs < 78


def _count_loadtxt(monkeypatch) -> list:
    """Record the dtype of every ``np.loadtxt`` call from here on."""
    calls = []
    loadtxt = np.loadtxt

    def counted(*args, **kwargs):
        calls.append(np.dtype(kwargs.get("dtype", float)))
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counted)
    return calls


@pytest.mark.parametrize("pair_ids", [True, False], ids=["pair-ids", "no-pair-ids"])
def test_written_files_are_read_in_one_typed_pass(tmp_path, monkeypatch, pair_ids):
    log = run_experiment(POISSON)
    if not pair_ids:
        log = EventLog(replace(log.station1, pair_id=None), replace(log.station2, pair_id=None))
    write_tags(log, tmp_path / "run")
    calls = _count_loadtxt(monkeypatch)
    back = read_tags(tmp_path / "run", POISSON)
    assert [dtype.names for dtype in calls] == [tagio._COLUMNS[not pair_ids:]] * 2
    for station in (back.station1, back.station2):
        assert (station.setting_index.dtype, station.outcome.dtype) == (np.int16, np.int8)
    if pair_ids:
        assert back == log
        assert back.station1.pair_id.dtype == np.int64


def test_float_syntax_in_integer_columns_reads_through_the_fallback(tmp_path, monkeypatch):
    log = run_experiment(POISSON)
    write_tags(log, tmp_path / "run")
    for station in (1, 2):
        lines = station_path(tmp_path / "run", station).read_text(encoding="utf-8").splitlines(keepends=True)
        rows = [line.rstrip("\n").split(",") for line in lines[2:]]
        text = "".join(f"{pid}.0,{t},{idx}e0,{outcome}.0\n" for pid, t, idx, outcome in rows)
        station_path(tmp_path / "float", station).write_text("".join(lines[:2]) + text, encoding="utf-8")
    calls = _count_loadtxt(monkeypatch)
    back = read_tags(tmp_path / "float", POISSON)
    # A typed parse, then a float64 parse of the same columns.
    assert [all(dtype[name] == np.float64 for name in dtype.names) for dtype in calls] == [False, True] * 2
    assert back == log


def test_write_peak_memory_per_pair(tmp_path):
    # Blocks of 2**16 rows peaked near 210 bytes per pair at this size;
    # the writer's temporaries are block-sized, so the peak is the sort
    # order and a few blocks.
    log = run_experiment(ExperimentConfig(n_pairs=50_000, seed=3))
    tracemalloc.start()
    try:
        write_tags(log, tmp_path / "run")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / log.n_pairs < 80


@pytest.mark.parametrize(
    "ids, message",
    [
        (("0.5", "0"), r"station1\.csv:3: pair_id must be an integer"),
        (("-1",), r"station1\.csv:3: pair_id must be an integer"),
        (("1e300",), r"station1\.csv:3: pair_id must be an integer"),
        (("nan",), r"station1\.csv:3: pair_id must be an integer"),
        (("0", "0"), r"station1\.csv:4: repeated pair_id"),
        (("1", "1", "1"), r"station1\.csv:4: repeated pair_id"),
    ],
    ids=["fractional", "negative", "too-large", "nan", "repeated", "repeated-thrice"],
)
def test_bad_pair_ids_rejected_naming_the_line(tag_prefix, ids, message):
    prefix, _ = tag_prefix
    _set_pair_ids(prefix, ids)
    with pytest.raises(TagFormatError, match=message):
        read_tags(prefix)


def test_setting_index_outside_int16_rejected(tag_prefix):
    prefix, _ = tag_prefix
    _replace_line(prefix, 3, "1,10000.000000,65536,1")
    with pytest.raises(TagFormatError, match=r"station1\.csv:4: setting_index must be an integer"):
        read_tags(prefix)


def test_bad_outcome_rejected_naming_the_line(tag_prefix):
    prefix, _ = tag_prefix
    _replace_line(prefix, 3, "1,10000.000000,0,2")
    with pytest.raises(TagFormatError, match=r"station1\.csv:4: outcome must be 1 or -1") as exc:
        read_tags(prefix)
    assert "np." not in str(exc.value)


def test_cli_fractional_pair_id_exits_2(cli_run, tmp_path, capsys):
    _set_pair_ids(tmp_path / "tags", ("0.5", "0"))
    assert main(["--mode", "reanalyze", "--matcher", "paired", "--tags-in", "tags", "--out", cli_run]) == 2
    assert "station1.csv:3: pair_id must be an integer" in capsys.readouterr().err


def test_cli_repeated_pair_id_exits_2(cli_run, tmp_path, capsys):
    _set_pair_ids(tmp_path / "tags", ("0", "0"))
    assert main(["--mode", "reanalyze", "--matcher", "paired", "--tags-in", "tags", "--out", cli_run]) == 2
    assert "station1.csv:4: repeated pair_id" in capsys.readouterr().err


def test_cli_reports_bad_station_token_as_runtime_error(cli_run, tmp_path, capsys):
    _replace_line(tmp_path / "tags", 0, "# eprsim-tags v1 station=x")
    assert main(["--mode", "reanalyze", "--tags-in", "tags", "--out", cli_run]) == 2
    assert "station1.csv:1: bad station token" in capsys.readouterr().err


def test_cli_header_only_files_exit_2(cli_run, tmp_path, capsys):
    _keep_headers_only(tmp_path / "tags")
    assert main(["--mode", "reanalyze", "--tags-in", "tags", "--windows", "1:100:log3", "--out", cli_run]) == 2
    assert "station1.csv: no events" in capsys.readouterr().err


def test_cli_missing_tag_file_exits_2(cli_run, tmp_path, capsys):
    station_path(tmp_path / "tags", 2).unlink()
    assert main(["--mode", "reanalyze", "--tags-in", "tags", "--out", cli_run]) == 2
    assert "station2.csv: cannot read tag file" in capsys.readouterr().err


def test_cli_non_numeric_row_exits_2_naming_the_line(cli_run, tmp_path, capsys):
    _replace_line(tmp_path / "tags", 4, "2,abc,0,1")
    assert main(["--mode", "reanalyze", "--tags-in", "tags", "--out", cli_run]) == 2
    assert "station1.csv:5: non-numeric time_ns value 'abc'" in capsys.readouterr().err


def test_cli_angle_without_unit_exits_1(tmp_path, capsys):
    assert main(["--mode", "mc", "--pairs", "200", "--angles1", "0,45", "--out", str(tmp_path)]) == 1
    assert "explicit unit suffix" in capsys.readouterr().err


def test_cli_reanalyze_without_tags_in_exits_1(tmp_path, capsys):
    assert main(["--mode", "reanalyze", "--out", str(tmp_path)]) == 1
    assert "requires --tags-in" in capsys.readouterr().err
