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
byte-identical.

The reader accepts these two header lines for the station asked for,
with or without the pair_id column (stream matching does not need it),
then rows and empty lines.  A row has one field per column, in any row
order; a field is an ASCII number as ``float()`` reads it, without
digit separators, and may carry spaces around it.  pair_id must be an
integer in [0, 2**53) that no other row repeats, time_ns finite,
setting_index an integer in [0, 2**15) and outcome 1 or -1; integer
columns may use float syntax (``1.0``, ``1e0``) and a ``+`` sign.
``np.loadtxt`` parses the rows from disk, first with each column in its
own type (int64, float64, int16, int8), which reads every file the
writer writes; where that fails, again with every column as float64,
and one set of checks then serves both.  If both fail, a pass over the
lines names the bad one.  Files with pair ids are read back into pair
order, the order :func:`eprsim.events.run_experiment` returns; files
without keep their row order.

The writer builds each row's digits with integer arithmetic on whole
blocks of tags, and its bytes equal ``f"{t:.6f}"`` for every double t.
It splits |t| = w + f, with w = floor(|t|) and f in [0, 1); both parts
are exact.  The six decimals are f * 10**6 rounded half to even, which
is what ``{:.6f}`` does with the exact binary value:

* For 2**14 <= |t| < 2**53, f is a multiple of 2**-38, and f * 10**6 =
  m * 15625 * 2**-32 with m * 15625 < 2**52.  The product is therefore
  exact, and rounding it gives the right digits even at an exact tie.
* Below 2**14, the product can be off by at most about 6e-11, so its
  rounding is right unless it lies within 1e-6 of a half unit.
  Those rows are formatted by ``{:.6f}``.
* From 2**53 up, doubles are integers and mostly too large for int64.
  Those rows, inf and nan are formatted by ``{:.6f}`` too.

(``rint(t * 10**6)`` is not exact: above 2**53 / 10**6, about 9.007e9,
the product rounds before the digits are taken.)  The sign comes from
the sign bit, so -0.0 writes as ``-0.000000``.  The writer formats
``_FORMAT_ROWS`` (2**13) rows at a time, so beyond each station's sort
order its temporaries are block-sized: writing 50,000 pairs peaks near
41 traced bytes per pair (numpy 2.4).

Result tables (correlations, sweeps, reference curves) are plain CSV with
floats serialized via repr, which round-trips exactly.  A JSON manifest
records the config, seed, artifact version, timestamps, and every output
file of a run.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from itertools import islice
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
_FORMAT_ROWS = 1 << 13
# The type each column is read in; a file that does not parse so is read as floats.
_TYPES = {"pair_id": "i8", "time_ns": "f8", "setting_index": "i2", "outcome": "i1"}


def station_path(prefix: str | Path, station: int) -> Path:
    return Path(f"{prefix}.station{station}.csv")


# ASCII bytes of the tag writer; 0 marks a blank that the writer drops.
_BLANK, _MINUS, _ZERO = 0, ord("-"), ord("0")
_TIME_SCALE = 10**TIME_TAG_DECIMALS
# From here up, frac(t) is a multiple of 2**-52 * _EXACT_FRACTION and
# frac(t) * 10**6 has fewer than 53 significant bits, so it is exact.
_EXACT_FRACTION = 2.0 ** (5**TIME_TAG_DECIMALS).bit_length()
# From here up, doubles are integers and get {:.6f} instead of digits.
_EXACT_INTEGER = 2.0**53
# Below _EXACT_FRACTION, frac(t) * 10**6 is off by at most ~6e-11.
_TIE_MARGIN = 1e-6


def _put_int(out: np.ndarray, mag: np.ndarray, neg: np.ndarray) -> None:
    """Write integers ``mag`` >= 0 right-aligned into the uint8 matrix ``out``.

    A '-' goes just before the digits where ``neg``; the positions
    before that are blank.
    """
    values = mag.astype(np.uint32 if mag.max() < 2**32 else np.int64)
    minus = neg * np.uint32(_MINUS) if neg.any() else None
    # The last len(str(min)) positions hold a digit in every row.
    first_gap = out.shape[1] - len(str(int(mag.min())))
    shown = True  # whether position k + 1 holds a digit
    for k in range(out.shape[1] - 1, -1, -1):
        quotient = values // 10
        digit = values - 10 * quotient + _ZERO
        if k < first_gap:
            lit = values > 0
            digit *= lit
            if minus is not None:
                digit += minus * (shown & ~lit)
            shown = lit
        out[:, k] = digit
        values = quotient


def _format_block(pid: np.ndarray | None, t: np.ndarray, idx: np.ndarray, outcome: np.ndarray) -> bytes:
    """Tag file rows ``pid,t,idx,outcome`` (no pid column when ``pid`` is None).

    Times are written from integer digits; the rows whose digits that
    arithmetic cannot prove (see the module docstring) get ``{:.6f}``.
    """
    a = np.abs(t)
    escape = ~(a < _EXACT_INTEGER)  # also inf and nan
    a[escape] = 0.0
    whole = np.floor(a)
    scaled = (a - whole) * _TIME_SCALE
    near_tie = np.abs(scaled - np.floor(scaled) - 0.5) < _TIE_MARGIN
    escape |= near_tie & (a < _EXACT_FRACTION)
    decimals = np.rint(scaled).astype(np.int64)
    carry = decimals == _TIME_SCALE
    whole = whole.astype(np.int64) + carry
    # Digits "1dddddd"; the leading "1" becomes the decimal point.
    fraction = np.where(carry, _TIME_SCALE, decimals + _TIME_SCALE)

    # Each field right-aligned in its own columns of one byte matrix;
    # blanks are 0 and dropped at the end.  A field is (magnitude,
    # negative, separator after): [pid ,] whole .fraction , idx , outcome \n
    ints = [c.astype(np.int64) for c in (pid, idx, outcome) if c is not None]
    fields = [(np.abs(c), c < 0, ord(",")) for c in ints]
    time_field = len(fields) - 2
    fields[time_field:time_field] = [(whole, np.signbit(t), None), (fraction, np.zeros_like(carry), ord(","))]
    fields[-1] = (*fields[-1][:2], ord("\n"))
    widths = [len(str(int(mag.max()))) + bool(neg.any()) + (sep is not None) for mag, neg, sep in fields]
    rows = np.empty((len(t), sum(widths)), np.uint8)
    starts = np.cumsum([0, *widths])
    for (mag, neg, sep), lo, hi in zip(fields, starts, starts[1:]):
        _put_int(rows[:, lo : hi - (sep is not None)], mag, neg)
        if sep is not None:
            rows[:, hi - 1] = sep
    time_lo, point, time_hi = starts[time_field : time_field + 3]
    rows[:, point] = ord(".")
    rows[escape, time_lo : time_hi - 1] = _BLANK

    text = rows.tobytes().translate(None, bytes([_BLANK]))
    if not escape.any():
        return text
    # Splice each escaped time in where its blanked field was.
    escaped = np.nonzero(escape)[0]
    lengths = np.count_nonzero(rows, axis=1)
    offsets = (np.cumsum(lengths) - lengths)[escaped] + np.count_nonzero(rows[escaped, :time_lo], axis=1)
    pieces, pos = [], 0
    for r, offset in zip(escaped, offsets):
        pieces += [text[pos:offset], f"{t[r]:.{TIME_TAG_DECIMALS}f}".encode()]
        pos = offset
    pieces.append(text[pos:])
    return b"".join(pieces)


def _write_station(stream: StationStream, path: Path) -> None:
    """Write one station's tag file, rows in time order."""
    names = _COLUMNS if stream.pair_id is not None else _COLUMNS[1:]
    order = stream.time_order()
    with path.open("wb") as fh:
        fh.write(f"# {_MAGIC} {FORMAT_VERSION} station={stream.station}\n{','.join(names)}\n".encode())
        # Blocks bound the working arrays to _FORMAT_ROWS rows.
        for lo in range(0, len(order), _FORMAT_ROWS):
            rows = order[lo : lo + _FORMAT_ROWS]
            pid = None if stream.pair_id is None else stream.pair_id[rows]
            fh.write(_format_block(pid, stream.time_tag[rows], stream.setting_index[rows], stream.outcome[rows]))


def write_tags(log: EventLog, prefix: str | Path) -> tuple[Path, Path]:
    """Write one tag file per station; returns the two paths."""
    paths = (station_path(prefix, 1), station_path(prefix, 2))
    for stream, path in zip((log.station1, log.station2), paths):
        path.parent.mkdir(parents=True, exist_ok=True)
        _write_station(stream, path)
    return paths


def _is_index(x: np.ndarray, limit: float) -> np.ndarray:
    """Which values are integers in [0, limit)."""
    return (x >= 0) & (x < limit) & (x == np.round(x))


def _data_lines(path: Path):
    """Line number and text of each row ``np.loadtxt`` reads: the non-empty lines after the header."""
    with path.open(encoding="utf-8") as fh:
        for k, line in enumerate(fh, start=1):
            if k > 2 and line != "\n":
                yield k, line


def _check_rows(path: Path, bad: np.ndarray, message: str) -> None:
    """Raise naming the line of the first row where ``bad`` holds."""
    if bad.any():
        k, _ = next(islice(_data_lines(path), int(np.argmax(bad)), None))
        raise TagFormatError(f"{path}:{k}: {message}")


def _load_rows(path: Path, names: tuple[str, ...]) -> dict[str, np.ndarray] | None:
    """The rows' columns by name, each in its own type or, if that parse fails, as floats; None if both fail."""

    def load(dtype, ndmin: int) -> np.ndarray | None:
        try:
            return np.loadtxt(path, dtype=dtype, delimiter=",", skiprows=2, comments=None, ndmin=ndmin,
                              encoding="utf-8")
        except UnicodeDecodeError:
            raise  # a ValueError too, but one that no parse gets past
        except ValueError:
            return None

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # loadtxt's empty-body warning; see "no events"
        data = load([(name, _TYPES[name]) for name in names], 1)
        if data is not None:
            return {name: data[name] for name in names}
        data = load(float, 2)
    return None if data is None or data.shape[1] != len(names) else dict(zip(names, data.T))


def _parse_station_file(path: Path, expected_station: int) -> StationStream:
    try:
        with path.open(encoding="utf-8") as fh:
            first, second = fh.readline(), fh.readline()
        header = tuple(second.rstrip("\n").split(","))
        columns = _load_rows(path, header) if header in (_COLUMNS, _COLUMNS[1:]) else None
    except (OSError, UnicodeDecodeError) as exc:
        raise TagFormatError(f"{path}: cannot read tag file: {exc}") from exc
    if not second:
        raise TagFormatError(f"{path}: truncated tag file (need version and header lines)")
    head = first.split()
    if len(head) < 3 or head[:2] != ["#", _MAGIC]:
        raise TagFormatError(f"{path}:1: not a {_MAGIC} file")
    if head[2] != FORMAT_VERSION:
        raise TagFormatError(f"{path}:1: version mismatch: file has {head[2]!r}, reader supports {FORMAT_VERSION!r}")
    token = " ".join(head[3:])
    station = token.removeprefix("station=")
    if station == token or not (station.isascii() and station.isdigit()):
        raise TagFormatError(f"{path}:1: bad station token {token!r}")
    if int(station) != expected_station:
        raise TagFormatError(f"{path}:1: station {station} file given for station {expected_station}")
    if header not in (_COLUMNS, _COLUMNS[1:]):
        raise TagFormatError(f"{path}:2: unexpected columns {header!r}")

    if columns is not None and not len(columns["time_ns"]):
        raise TagFormatError(f"{path}: no events")
    if columns is None:
        for k, line in _data_lines(path):
            fields = line.split(",")
            if len(fields) != len(header):
                raise TagFormatError(f"{path}:{k}: expected {len(header)} columns, found {len(fields)}")
            for name, tok in zip(header, fields):
                try:
                    float(tok)
                except ValueError:
                    raise TagFormatError(f"{path}:{k}: non-numeric {name} value {tok.strip()!r}") from None
                # float() also reads digit separators and non-ASCII digits; loadtxt does not.
                if "_" in tok or not tok.isascii():
                    raise TagFormatError(f"{path}:{k}: malformed tag data: {name} value {tok.strip()!r}")
        raise TagFormatError(f"{path}: malformed tag data")

    t, idx, outcome = columns["time_ns"], columns["setting_index"], columns["outcome"]
    _check_rows(path, (outcome != 1) & (outcome != -1), "outcome must be 1 or -1")
    _check_rows(path, ~_is_index(idx, 2.0**15), "setting_index must be an integer in [0, 2**15)")
    _check_rows(path, ~np.isfinite(t), "non-finite time tag")

    order, pid = np.arange(len(t)), None
    if header == _COLUMNS:
        # 2**53: above it a float no longer holds every integer exactly.
        _check_rows(path, ~_is_index(columns["pair_id"], 2.0**53), "pair_id must be an integer in [0, 2**53)")
        order = np.argsort(columns["pair_id"], kind="stable")
        pid = columns["pair_id"][order].astype(np.int64, copy=False)
        repeats = np.zeros(len(pid), dtype=bool)
        repeats[order[1:]] = np.diff(pid) == 0
        _check_rows(path, repeats, "repeated pair_id")
    return StationStream(
        station=expected_station,
        time_tag=t[order],
        setting_index=idx[order].astype(np.int16, copy=False),
        outcome=outcome[order].astype(np.int8, copy=False),
        pair_id=pid,
    )


def read_tags(prefix: str | Path, config: ExperimentConfig | None = None) -> EventLog:
    """Read the two station tag files written under ``prefix``."""
    s1 = _parse_station_file(station_path(prefix, 1), 1)
    s2 = _parse_station_file(station_path(prefix, 2), 2)
    return EventLog(station1=s1, station2=s2, config=config)


# ---------------------------------------------------------------------------
# Run manifest.

def config_to_dict(config: ExperimentConfig) -> dict:
    """The manifest form of ``config``; ``config_from_dict`` inverts it."""
    return asdict(config)


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
        """Strict JSON: a NaN or infinite value raises ValidationError instead of writing ``NaN`` or ``Infinity``."""
        try:
            return json.dumps(asdict(self), indent=2, sort_keys=True, allow_nan=False)
        except ValueError as exc:
            raise ValidationError(f"{self.mode} manifest is not strict JSON: {exc}") from None

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


def write_correlation_csv(path: str | Path, sweep, config) -> Path:
    """One row per setting pair of ``sweep``'s first window with counts, E, and standard error."""
    n_total = sweep.n_total[0]
    n1, n2 = n_total.shape
    i1, i2 = np.meshgrid(np.arange(n1), np.arange(n2), indexing="ij")
    i1, i2 = i1.ravel(), i2.ravel()
    ang1 = np.asarray(config.settings1, dtype=float)[i1]
    ang2 = np.asarray(config.settings2, dtype=float)[i2]
    counts = sweep.counts[0].reshape(n1 * n2, 4)
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
            ("n_total", n_total.ravel()),
            ("correlation", sweep.correlation[0].ravel()),
            ("stderr", sweep.stderr[0].ravel()),
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
