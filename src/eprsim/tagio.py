"""Persistence: time-tag files, result tables, run manifests.

Time tags are stored Weihs-style as one CSV per station so that
coincidence analysis can be redone later from raw tags alone.  Format:

    # eprsim-tags v1 station=1
    pair_id,time_ns,setting_index,outcome
    0,37.482910,1,1
    ...

Rows are written in time order.  Times are fixed-point with six
decimals, matching the generator's tag resolution, so a write/read cycle
reproduces the in-memory log exactly and re-writing a read file is
byte-identical.  The pair_id column is optional on read; stream matching
does not need it.  Files with pair ids are read back into pair order,
the order :func:`eprsim.events.run_experiment` returns; files without
keep their row order.

Result tables (correlations, sweeps, reference curves) are plain CSV with
floats serialized via repr, which round-trips exactly.  A JSON manifest
records the config, seed, artifact version, timestamps, and every output
file of a run.
"""

from __future__ import annotations

import io
import json
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .errors import TagFormatError, ValidationError
from .events import EmissionSpec, EventLog, ExperimentConfig, StationStream, TIME_TAG_DECIMALS
from .model import ModelParams

__all__ = [
    "write_tags",
    "read_tags",
    "station_path",
    "RunManifest",
    "config_to_dict",
    "config_from_dict",
    "write_csv_columns",
    "write_correlation_csv",
    "write_sweep_csv",
    "write_curve_csv",
]

_MAGIC = "eprsim-tags"
FORMAT_VERSION = "v1"
_COLUMNS = ("pair_id", "time_ns", "setting_index", "outcome")
_FORMAT_ROWS = 1 << 16


def station_path(prefix: str | Path, station: int) -> Path:
    return Path(f"{prefix}.station{station}.csv")


def _format_station(stream: StationStream) -> str:
    """Tag file text, rows in time order."""
    columns = [stream.time_tag, stream.setting_index, stream.outcome]
    names, row = _COLUMNS[1:], f"{{:.{TIME_TAG_DECIMALS}f}},{{}},{{}}\n"
    if stream.pair_id is not None:
        columns.insert(0, stream.pair_id)
        names, row = _COLUMNS, "{}," + row
    parts = [f"# {_MAGIC} {FORMAT_VERSION} station={stream.station}\n" + ",".join(names) + "\n"]
    order = stream.time_order()
    # Blocks bound the Python objects alive at once to _FORMAT_ROWS rows' worth.
    for lo in range(0, len(order), _FORMAT_ROWS):
        rows = order[lo : lo + _FORMAT_ROWS]
        parts.append("".join(map(row.format, *(c[rows].tolist() for c in columns))))
    return "".join(parts)


def write_tags(log: EventLog, prefix: str | Path) -> tuple[Path, Path]:
    """Write one tag file per station; returns the two paths."""
    paths = (station_path(prefix, 1), station_path(prefix, 2))
    for stream, path in zip((log.station1, log.station2), paths):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(_format_station(stream), encoding="utf-8")
    return paths


def _is_index(x: np.ndarray, limit: float) -> np.ndarray:
    """Which values are integers in [0, limit)."""
    return (x >= 0) & (x < limit) & (x == np.round(x))


def _check_rows(path: Path, bad: np.ndarray, message: str) -> None:
    """Raise naming the first data line where ``bad`` holds (line 3 is row 0)."""
    if bad.any():
        raise TagFormatError(f"{path}:{int(np.argmax(bad)) + 3}: {message}")


def _parse_station_file(path: Path, expected_station: int) -> StationStream:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise TagFormatError(f"{path}: cannot read tag file: {exc}") from exc
    lines = text.splitlines()
    if len(lines) < 2:
        raise TagFormatError(f"{path}: truncated tag file (need version and header lines)")
    head = lines[0].split()
    if len(head) < 3 or head[0] != "#" or head[1] != _MAGIC:
        raise TagFormatError(f"{path}:1: not a {_MAGIC} file")
    if head[2] != FORMAT_VERSION:
        raise TagFormatError(f"{path}:1: version mismatch: file has {head[2]!r}, reader supports {FORMAT_VERSION!r}")
    station = expected_station
    for tok in head[3:]:
        if tok.startswith("station="):
            try:
                station = int(tok.split("=", 1)[1])
            except ValueError:
                raise TagFormatError(f"{path}:1: bad station token {tok!r}") from None
    if station != expected_station:
        raise TagFormatError(f"{path}:1: station {station} file given for station {expected_station}")
    header = tuple(lines[1].strip().split(","))
    if header == _COLUMNS:
        has_pid = True
    elif header == _COLUMNS[1:]:
        has_pid = False
    else:
        raise TagFormatError(f"{path}:2: unexpected columns {header!r}")
    ncols = len(header)

    body = lines[2:]
    while body and not body[-1].strip():
        body.pop()
    if not body:
        raise TagFormatError(f"{path}: no events")
    try:
        data = np.loadtxt(io.StringIO("\n".join(body)), delimiter=",", ndmin=2)
    except ValueError:
        data = None
    if data is None or data.shape[1] != ncols:
        # Slow pass purely to produce a line-accurate diagnostic.
        for k, line in enumerate(body, start=3):
            fields = line.split(",")
            if len(fields) != ncols:
                raise TagFormatError(f"{path}:{k}: expected {ncols} columns, found {len(fields)}")
            for name, tok in zip(header, fields):
                try:
                    float(tok)
                except ValueError:
                    raise TagFormatError(f"{path}:{k}: non-numeric {name} value {tok.strip()!r}") from None
        raise TagFormatError(f"{path}: malformed tag data")

    col = {name: data[:, i] for i, name in enumerate(header)}
    outcome = col["outcome"]
    bad = np.nonzero((outcome != 1) & (outcome != -1))[0]
    if bad.size:
        raise TagFormatError(f"{path}:{bad[0] + 3}: outcome must be 1 or -1, found {outcome[bad[0]]!r}")
    idx = col["setting_index"]
    _check_rows(path, ~_is_index(idx, 2.0**15), "setting_index must be an integer in [0, 2**15)")
    t = col["time_ns"]
    _check_rows(path, ~np.isfinite(t), "non-finite time tag")

    # Pair order, the form run_experiment returns; without pair ids, file order.
    if has_pid:
        # 2**53: above it a float no longer holds every integer exactly.
        _check_rows(path, ~_is_index(col["pair_id"], 2.0**53), "pair_id must be an integer in [0, 2**53)")
        pid = col["pair_id"].astype(np.int64)
        order = np.argsort(pid, kind="stable")
        repeats = np.zeros(len(pid), dtype=bool)
        repeats[order[1:]] = np.diff(pid[order]) == 0
        _check_rows(path, repeats, "repeated pair_id")
    else:
        order = np.arange(len(t))
    return StationStream(
        station=expected_station,
        time_tag=t[order],
        setting_index=idx[order].astype(np.int16),
        outcome=outcome[order].astype(np.int8),
        pair_id=pid[order] if has_pid else None,
    )


def read_tags(prefix: str | Path, config: ExperimentConfig | None = None) -> EventLog:
    """Read the two station tag files written under ``prefix``."""
    s1 = _parse_station_file(station_path(prefix, 1), 1)
    s2 = _parse_station_file(station_path(prefix, 2), 2)
    return EventLog(station1=s1, station2=s2, config=config)


# ---------------------------------------------------------------------------
# Run manifest.

def config_to_dict(config: ExperimentConfig) -> dict:
    emission = config.emission
    return {
        "params": {"d": config.params.d, "t0": config.params.t0, "window": config.params.window},
        "settings1": list(config.settings1),
        "settings2": list(config.settings2),
        "n_pairs": config.n_pairs,
        "seed": config.seed,
        "emission": None if emission is None else asdict(emission),
    }


def config_from_dict(d: dict) -> ExperimentConfig:
    emission = d.get("emission")
    return ExperimentConfig(
        params=ModelParams(**d["params"]),
        settings1=tuple(d["settings1"]),
        settings2=tuple(d["settings2"]),
        n_pairs=int(d["n_pairs"]),
        seed=int(d["seed"]),
        emission=None if emission is None else EmissionSpec(**emission),
    )


@dataclass
class RunManifest:
    """What a run was and what it produced."""

    mode: str
    seed: int
    config: dict
    outputs: list[str] = field(default_factory=list)
    results: dict = field(default_factory=dict)
    version: str = __version__
    created_utc: str = field(default_factory=lambda: datetime.now(timezone.utc).isoformat())

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        return cls(**json.loads(text))

    def write(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json() + "\n", encoding="utf-8")
        return path

    @classmethod
    def read(cls, path: str | Path) -> "RunManifest":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Result tables: column CSV with exact float round-trip.

def _cell(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def write_csv_columns(path: str | Path, columns: list[tuple[str, np.ndarray]]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    names = [name for name, _ in columns]
    arrays = [np.asarray(arr) for _, arr in columns]
    length = len(arrays[0])
    if any(len(a) != length for a in arrays):
        raise ValidationError("all result columns must have equal length")
    with path.open("w", encoding="utf-8") as fh:
        fh.write(",".join(names) + "\n")
        for k in range(length):
            fh.write(",".join(_cell(a[k]) for a in arrays) + "\n")
    return path


def write_correlation_csv(path: str | Path, table) -> Path:
    """One row per setting pair with counts, E, and standard error."""
    n1, n2 = table.n_total.shape
    i1, i2 = np.meshgrid(np.arange(n1), np.arange(n2), indexing="ij")
    i1, i2 = i1.ravel(), i2.ravel()
    ang1 = np.array([table.settings1[i] if table.settings1 else np.nan for i in i1])
    ang2 = np.array([table.settings2[j] if table.settings2 else np.nan for j in i2])
    counts = table.counts.reshape(n1 * n2, 4)
    return write_csv_columns(
        path,
        [
            ("setting_index1", i1),
            ("setting_index2", i2),
            ("angle1_rad", ang1),
            ("angle2_rad", ang2),
            ("n_pp", counts[:, 0]),
            ("n_pm", counts[:, 1]),
            ("n_mp", counts[:, 2]),
            ("n_mm", counts[:, 3]),
            ("n_total", table.n_total.ravel()),
            ("correlation", table.correlation.ravel()),
            ("stderr", table.stderr.ravel()),
        ],
    )


def write_sweep_csv(path: str | Path, sweep) -> Path:
    return write_csv_columns(
        path,
        [
            ("window_ns", sweep.windows),
            ("s", sweep.s),
            ("s_stderr", sweep.s_stderr),
            ("coincidence_rate", sweep.rate),
        ],
    )


def write_curve_csv(path: str | Path, deltas, model, singlet, mixed) -> Path:
    return write_csv_columns(
        path,
        [
            ("delta_rad", deltas),
            ("e_model", model),
            ("e_singlet", singlet),
            ("e_mixed", mixed),
        ],
    )
