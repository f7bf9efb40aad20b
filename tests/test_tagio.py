"""Tag file tests: byte-identical round trip and line-accurate header errors."""

import pytest

from eprsim import ExperimentConfig, ModelParams, TagFormatError, read_tags, run_experiment, write_tags
from eprsim.cli import main
from eprsim.tagio import station_path


@pytest.fixture
def tag_prefix(tmp_path):
    config = ExperimentConfig(params=ModelParams(d=4.0, t0=1000.0, window=10.0), n_pairs=500, seed=7)
    log = run_experiment(config)
    write_tags(log, tmp_path / "run")
    return tmp_path / "run", log


def _replace_header(prefix, header: str) -> None:
    path = station_path(prefix, 1)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text(header + "\n" + "".join(lines[1:]), encoding="utf-8")


def test_round_trip_is_byte_identical(tag_prefix, tmp_path):
    prefix, log = tag_prefix
    back = read_tags(prefix, log.config)
    assert back == log
    write_tags(back, tmp_path / "again")
    for station in (1, 2):
        assert station_path(tmp_path / "again", station).read_bytes() == station_path(prefix, station).read_bytes()


@pytest.mark.parametrize(
    "header",
    ["# eprsim-tags v1 station=x", "# eprsim-tags v2 station=1"],
    ids=["bad-station-token", "version-mismatch"],
)
def test_header_errors_name_line_one(tag_prefix, header):
    prefix, _ = tag_prefix
    _replace_header(prefix, header)
    with pytest.raises(TagFormatError, match=r"station1\.csv:1: "):
        read_tags(prefix)


def test_cli_reports_bad_station_token_as_runtime_error(tmp_path, capsys):
    out = str(tmp_path)
    assert main(["--mode", "mc", "--pairs", "200", "--tags-out", "tags", "--out", out]) == 0
    _replace_header(tmp_path / "tags", "# eprsim-tags v1 station=x")
    assert main(["--mode", "reanalyze", "--tags-in", "tags", "--out", out]) == 2
    assert "station1.csv:1: bad station token" in capsys.readouterr().err
