"""The invariants of the README command examples, run in-process.

Each test runs argv lists of the CI README step through ``cli.main``,
from a temporary directory as the working directory, and asserts what
that step asserts with ``cmp``, ``test`` and ``grep``: file bytes,
manifest values, exit codes and the stderr line.  The CI step stays as
the smoke test of the installed CLI under ``-W error``.
"""

import contextlib
import csv
import io
import json
import math

import pytest

from eprsim.cli import main

SWEEP = ["--mode", "sweep", "--pairs", "100000", "--windows", "1:1000:log20"]
DENSE = ["--mode", "mc", "--matcher", "stream", "--emission", "poisson:0.005", "--pairs", "100000",
         "--window", "1000"]


@pytest.fixture
def run(tmp_path, monkeypatch):
    """``run(*argv)`` is ``main(argv)`` from ``tmp_path``; it asserts exit status 0."""
    monkeypatch.chdir(tmp_path)

    def run(*argv):
        assert main(list(argv)) == 0, argv

    return run


def results(outdir, mode):
    return json.loads((outdir / f"{mode}.manifest.json").read_text(encoding="utf-8"))["results"]


def test_sweep_does_not_depend_on_workers(run, tmp_path):
    run(*SWEEP, "--out", "run")
    run(*SWEEP, "--workers", "3", "--out", "run_w3")
    assert (tmp_path / "run" / "sweep.csv").read_bytes() == (tmp_path / "run_w3" / "sweep.csv").read_bytes()


def test_dense_tags_do_not_depend_on_workers(run, tmp_path):
    run(*DENSE, "--tags-out", "dtags", "--out", "run_dense")
    run(*DENSE, "--workers", "3", "--tags-out", "dtags", "--out", "run_dense_w3")
    for name in ("dtags.station1.csv", "dtags.station2.csv"):
        assert (tmp_path / "run_dense" / name).read_bytes() == (tmp_path / "run_dense_w3" / name).read_bytes()


@pytest.mark.parametrize("grid", ["1:1000:log20", "1:1000:log300"])
def test_stream_and_paired_sweeps_of_regular_tags_are_equal(run, tmp_path, grid):
    # 300 windows: the paired sweep's window index counts in uint16.
    run("--mode", "mc", "--pairs", "100000", "--window", "10", "--tags-out", "tags", "--out", "run")
    tags = str(tmp_path / "run" / "tags")
    run("--mode", "reanalyze", "--tags-in", tags, "--windows", grid, "--out", "run_stream")
    run("--mode", "reanalyze", "--tags-in", tags, "--matcher", "paired", "--windows", grid, "--out", "run_paired")
    assert (tmp_path / "run_stream" / "sweep.csv").read_bytes() == (tmp_path / "run_paired" / "sweep.csv").read_bytes()


def test_dense_tag_round_trip_reproduces_correlations(run, tmp_path):
    run(*DENSE, "--tags-out", "dtags", "--out", "run_dense")
    run("--mode", "reanalyze", "--tags-in", str(tmp_path / "run_dense" / "dtags"), "--window", "1000",
        "--out", "run_dense_re")
    written = (tmp_path / "run_dense" / "correlations.csv").read_bytes()
    assert written == (tmp_path / "run_dense_re" / "correlations.csv").read_bytes()


def test_one_window_manifest_records_the_chsh_cells_correlations(run, tmp_path):
    # Station-1 settings 90, 45 and 0 deg put a = 0 and a' = 45 deg at indices 2 and 1,
    # so the CHSH cells are (2,0), (2,1), (1,0) and (1,1), not (0,0) to (1,1).
    run("--mode", "mc", "--pairs", "20000", "--window", "10", "--angles1", "90deg,45deg,0deg", "--out", "run_cells")
    res = results(tmp_path / "run_cells", "mc")
    with open(tmp_path / "run_cells" / "correlations.csv", encoding="utf-8") as fh:
        e_csv = {(int(r["setting_index1"]), int(r["setting_index2"])): float(r["correlation"])
                 for r in csv.DictReader(fh)}
    e = res["correlations"]
    assert [e["e_ab"], e["e_abp"], e["e_apb"], e["e_apbp"]] == [e_csv[c] for c in ((2, 0), (2, 1), (1, 0), (1, 1))]
    assert abs(e["e_ab"] - e["e_abp"] + e["e_apb"] + e["e_apbp"]) == res["s"]


def assert_grid_ends_equal_single_windows(grid_dir, first_dir, last_dir):
    grid, first, last = (results(d, "reanalyze") for d in (grid_dir, first_dir, last_dir))
    assert (grid["s_first"], grid["matched"][0]) == (first["s"], first["matched"])
    assert (grid["s_last"], grid["matched"][-1]) == (last["s"], last["matched"])
    # Whole records: a grid's end windows are described as the single-window runs describe theirs.
    assert grid["per_window"][0] == first["per_window"][0]
    assert grid["per_window"][-1] == last["per_window"][0]


def test_poisson_grid_ends_equal_the_single_window_runs(run, tmp_path):
    run("--mode", "mc", "--pairs", "100000", "--window", "10", "--emission", "poisson:0.002", "--tags-out", "ptags",
        "--out", "run")
    run("--mode", "reanalyze", "--tags-in", "ptags", "--windows", "1:1000:log20", "--out", "run")
    tags = str(tmp_path / "run" / "ptags")
    run("--mode", "reanalyze", "--tags-in", tags, "--window", "1", "--out", "run_w1")
    run("--mode", "reanalyze", "--tags-in", tags, "--window", "1000", "--out", "run_w1000")
    assert_grid_ends_equal_single_windows(tmp_path / "run", tmp_path / "run_w1", tmp_path / "run_w1000")


def test_dense_grid_ends_equal_the_single_window_runs(run, tmp_path):
    # Clusters of thousands of events: the scan runs at every window of the walk.
    run(*DENSE, "--tags-out", "dtags", "--out", "run_dense")
    tags = str(tmp_path / "run_dense" / "dtags")
    run("--mode", "reanalyze", "--tags-in", tags, "--windows", "10:1000:log3", "--out", "run_dense_grid")
    run("--mode", "reanalyze", "--tags-in", tags, "--window", "10", "--out", "run_dense_w10")
    run("--mode", "reanalyze", "--tags-in", tags, "--window", "1000", "--out", "run_dense_w1000")
    assert_grid_ends_equal_single_windows(tmp_path / "run_dense_grid", tmp_path / "run_dense_w10",
                                          tmp_path / "run_dense_w1000")


@pytest.mark.parametrize("argv", [["--d", "0", "--window", "10"], ["--window", "1000"]], ids=["d0", "w-t0"])
def test_oracle_gives_root_two(run, tmp_path, argv):
    run("--mode", "oracle", *argv, "--out", "run_oracle")
    assert abs(results(tmp_path / "run_oracle", "oracle")["s_exact"] - math.sqrt(2)) <= 4e-8


def test_overflowing_quadruple_exits_1_with_one_stderr_line(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        status = main(["--mode", "oracle", "--quadruple", "1e308rad,0rad,0rad,0rad", "--out", "run_overflow"])
    assert status == 1
    lines = err.getvalue().splitlines(keepends=True)
    assert len(lines) == 1 and lines[0].startswith("eprsim: invalid configuration: ")
