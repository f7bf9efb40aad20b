"""Time-tagged two-station event generation.

One simulated run emits ``n_pairs`` photon pairs.  For each pair the two
stations independently choose a polarizer setting from their own lists,
apply the local model of :mod:`eprsim.model`, and record a detection event
``emission_time + delay`` on their own clock.  Every photon is detected
(unit efficiency): the model under study is purely a coincidence-time
mechanism, so detector losses are deliberately absent.

Randomness discipline: each pair consumes a fixed number of uniform
variates taken from a counter-based generator keyed by ``(seed,
chunk_index)``, where pairs are grouped in fixed-size chunks.  The variates
a pair sees therefore depend only on ``(seed, pair_id)``, never on
generation order, so runs are reproducible bit-for-bit for any worker count.
Each range of pairs holds one chunk of variates at a time and turns it into
that chunk's slice of the output columns, so the variates in memory do not
grow with ``n_pairs``.

Parallel passes over pairs go through :func:`map_ranges`: it cuts rows
[0, n) into contiguous ranges with block-aligned inner edges and runs them
on at most one thread per CPU.  Generation uses it with chunk-sized blocks,
the paired window sweep of :mod:`eprsim.analysis` with its own blocks.

A run is stored in pair order: row k of both station streams is pair k,
and the two streams share one ``pair_id`` array.  Consumers that need
time order (the stream matcher, tag files) take it from
:meth:`StationStream.time_order`.

Time tags are rounded to ``TIME_TAG_DECIMALS`` decimals (micro-nanoseconds
by default), the resolution of the on-disk tag format.  Below 2**33 time
units that is a grid of 1e-6; above it the spacing of doubles (1.9e-6 at
2**33) is coarser than the grid.  Either way a tag written with that many
decimals reads back as the identical double, so in-memory logs and
round-tripped files are identical.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import ValidationError
from .model import ModelParams, Setting, delay_from_uniform, hidden_from_uniform, misalignments, outcome_from_uniform

__all__ = [
    "EmissionSpec",
    "ExperimentConfig",
    "StationStream",
    "EventLog",
    "run_experiment",
    "TIME_TAG_DECIMALS",
    "DRAWS_PER_PAIR",
    "rng_provenance",
]

# Resolution of recorded time tags, in decimal digits after the point.
TIME_TAG_DECIMALS = 6

# Fixed per-pair uniform variate layout.  Column roles:
#   0 hidden angle  1 setting choice st.1  2 setting choice st.2
#   3 outcome st.1  4 outcome st.2         5 delay st.1
#   6 delay st.2    7 emission inter-arrival (Poisson only)
DRAWS_PER_PAIR = 8
_COL_HIDDEN, _COL_SET1, _COL_SET2, _COL_OUT1, _COL_OUT2, _COL_DELAY1, _COL_DELAY2, _COL_EMIT = range(8)

# Pairs per generator chunk.  Small enough that rebuilding one pair is
# cheap, large enough that per-chunk generator setup is negligible.
CHUNK_PAIRS = 4096

_MAX_SEED = 2**64


@dataclass(frozen=True)
class EmissionSpec:
    """Emission-time process: regular spacing or Poisson arrivals."""

    mode: str
    interval: float | None = None
    rate: float | None = None

    def __post_init__(self):
        if self.mode == "regular":
            if self.interval is None or not (0 < self.interval < np.inf):
                raise ValidationError(f"regular emission needs a finite interval > 0, got {self.interval}")
        elif self.mode == "poisson":
            if self.rate is None or not (0 < self.rate < np.inf):
                raise ValidationError(f"poisson emission needs a finite rate > 0, got {self.rate}")
        else:
            raise ValidationError(f"unknown emission mode {self.mode!r}")

    @classmethod
    def regular(cls, interval: float) -> "EmissionSpec":
        return cls(mode="regular", interval=float(interval))

    @classmethod
    def poisson(cls, rate: float) -> "EmissionSpec":
        return cls(mode="poisson", rate=float(rate))


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one run."""

    params: ModelParams = field(default_factory=ModelParams)
    settings1: tuple[Setting, ...] = (0.0, np.pi / 4)
    settings2: tuple[Setting, ...] = (np.pi / 8, 3 * np.pi / 8)
    n_pairs: int = 10**6
    seed: int = 42
    emission: EmissionSpec | None = None

    def __post_init__(self):
        object.__setattr__(self, "settings1", tuple(float(a) for a in self.settings1))
        object.__setattr__(self, "settings2", tuple(float(a) for a in self.settings2))
        if self.n_pairs < 1:
            raise ValidationError(f"n_pairs must be >= 1, got {self.n_pairs}")
        if not self.settings1 or not self.settings2:
            raise ValidationError("both setting lists must be non-empty")
        if not np.all(np.isfinite(self.settings1 + self.settings2)):
            raise ValidationError(f"settings must be finite angles, got {self.settings1} and {self.settings2}")
        if not isinstance(self.seed, (int, np.integer)) or not (0 <= int(self.seed) < _MAX_SEED):
            raise ValidationError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")

    def resolved_emission(self) -> EmissionSpec:
        """Emission process, defaulting to regular spacing 10 * t0.

        The default keeps consecutive pairs from interleaving within any
        window up to t0, so per-pair and stream-based coincidence
        selection agree.
        """
        if self.emission is not None:
            return self.emission
        return EmissionSpec.regular(10.0 * self.params.t0)


def _chunk_uniforms(seed: int, chunk: int, rows: int) -> np.ndarray:
    """Uniform variate block for pairs [chunk*CHUNK_PAIRS, +rows)."""
    bitgen = np.random.Philox(key=np.array([seed, chunk], dtype=np.uint64))
    return np.random.Generator(bitgen).random((rows, DRAWS_PER_PAIR))


def rng_provenance() -> dict:
    """How a run's variates are drawn (see _chunk_uniforms), for its manifest."""
    return {
        "bit_generator": "Philox",
        "key": ["seed", "chunk"],
        "chunk_pairs": CHUNK_PAIRS,
        "draws_per_pair": DRAWS_PER_PAIR,
        "numpy": np.__version__,
    }


@dataclass(eq=False)
class StationStream:
    """All events of one station.

    Rows of a stream with pair ids are in ascending ``pair_id`` order, so
    row k of the two streams of one log is the same pair.  ``pair_id`` may
    be None for streams read from tag files that omit the column; such
    streams keep the row order of their file and support stream matching
    but not per-pair filtering.
    """

    station: int
    time_tag: np.ndarray
    setting_index: np.ndarray
    outcome: np.ndarray
    pair_id: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.time_tag)

    def time_order(self) -> np.ndarray:
        """Row indices in time-tag order; tied tags keep their row order."""
        return np.argsort(self.time_tag, kind="stable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, StationStream):
            return NotImplemented
        if self.station != other.station or (self.pair_id is None) != (other.pair_id is None):
            return False
        names = ("time_tag", "setting_index", "outcome") + (() if self.pair_id is None else ("pair_id",))
        return all(np.array_equal(getattr(self, n), getattr(other, n)) for n in names)


@dataclass(eq=False)
class EventLog:
    """The two station streams of one run.

    Equality compares the recorded streams only, not the attached config
    (a log re-read from disk carries no config unless a manifest supplied
    one).
    """

    station1: StationStream
    station2: StationStream
    config: ExperimentConfig | None = None

    @property
    def n_pairs(self) -> int:
        return len(self.station1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EventLog):
            return NotImplemented
        return self.station1 == other.station1 and self.station2 == other.station2


def map_ranges(fn, n: int, block: int, parts: int) -> list:
    """``fn(start, stop)`` over contiguous ranges of rows [0, n), results in range order.

    The rows are cut into at most ``parts`` ranges of nearly equal block
    counts, with inner edges at multiples of ``block``; ``n == 0`` is one
    empty range.  The ranges run on one thread each, up to one thread per
    CPU; a single range runs inline, without a thread pool.
    """
    n_blocks = -(-n // block)
    k = max(1, min(parts, n_blocks))
    edges = [min(n, block * (n_blocks * i // k)) for i in range(k + 1)]
    if k == 1:
        return [fn(0, n)]
    with ThreadPoolExecutor(max_workers=min(k, os.cpu_count() or 1)) as pool:
        return list(pool.map(fn, edges[:-1], edges[1:]))


def _generate_columns(config: ExperimentConfig, cols: dict, start: int, stop: int) -> None:
    """Compute raw per-pair columns for pairs [start, stop), one chunk at a time."""
    params = config.params
    a1 = np.asarray(config.settings1)
    a2 = np.asarray(config.settings2)
    k1, k2 = len(a1), len(a2)
    pid = start
    while pid < stop:
        chunk, row = divmod(pid, CHUNK_PAIRS)
        take = min(CHUNK_PAIRS - row, stop - pid)
        u = _chunk_uniforms(config.seed, chunk, row + take)[row:]
        sl = slice(pid, pid + take)
        pid += take

        idx1 = np.minimum((u[:, _COL_SET1] * k1).astype(np.int64), k1 - 1)
        idx2 = np.minimum((u[:, _COL_SET2] * k2).astype(np.int64), k2 - 1)
        s1 = hidden_from_uniform(u[:, _COL_HIDDEN])
        zeta1, zeta2 = misalignments(a1[idx1], a2[idx2], s1)

        cols["idx1"][sl] = idx1
        cols["idx2"][sl] = idx2
        cols["x1"][sl] = outcome_from_uniform(u[:, _COL_OUT1], zeta1)
        cols["x2"][sl] = outcome_from_uniform(u[:, _COL_OUT2], zeta2)
        cols["delay1"][sl] = delay_from_uniform(u[:, _COL_DELAY1], zeta1, params)
        cols["delay2"][sl] = delay_from_uniform(u[:, _COL_DELAY2], zeta2, params)
        cols["gap"][sl] = u[:, _COL_EMIT]


def run_experiment(config: ExperimentConfig, n_workers: int = 1) -> EventLog:
    """Run the full two-station experiment described by ``config``.

    ``n_workers`` is how many ranges the pairs are split into (see
    :func:`map_ranges`).  The result is identical for any ``n_workers``:
    each pair's variates are fixed by ``(seed, pair_id)``.
    Both stations come back in pair order and share one ``pair_id`` array.
    """
    if n_workers < 1:
        raise ValidationError(f"n_workers must be >= 1, got {n_workers}")
    n = config.n_pairs
    cols = {
        "idx1": np.empty(n, dtype=np.int16),
        "idx2": np.empty(n, dtype=np.int16),
        "x1": np.empty(n, dtype=np.int8),
        "x2": np.empty(n, dtype=np.int8),
        "delay1": np.empty(n),
        "delay2": np.empty(n),
        "gap": np.empty(n),
    }

    # Ranges split on chunk boundaries, so each regenerates whole chunks.
    map_ranges(partial(_generate_columns, config, cols), n, CHUNK_PAIRS, n_workers)

    emission_spec = config.resolved_emission()
    pid = np.arange(n, dtype=np.int64)
    with np.errstate(over="ignore"):
        if emission_spec.mode == "regular":
            emission = pid * emission_spec.interval
        else:
            # Inverse-CDF exponential inter-arrival times; cumulative sum is a
            # fixed sequential pass, independent of the worker split above.
            emission = np.cumsum(-np.log1p(-cols["gap"]) / emission_spec.rate)
    # Emission times never decrease and delays are at most t0, so this bounds
    # every tag, scaled as quantizing scales it.
    if not np.isfinite((float(emission[-1]) + config.params.t0) * 10.0**TIME_TAG_DECIMALS):
        raise ValidationError(
            f"emission times overflow: the last of {n} pairs is emitted at {emission[-1]}, "
            f"too late to tag at {TIME_TAG_DECIMALS} decimals"
        )

    # Tag = emission + delay, quantized, computed in place in the delay columns.
    for t in (cols["delay1"], cols["delay2"]):
        np.add(emission, t, out=t)
        np.round(t, TIME_TAG_DECIMALS, out=t)

    return EventLog(
        station1=StationStream(1, cols["delay1"], cols["idx1"], cols["x1"], pid),
        station2=StationStream(2, cols["delay2"], cols["idx2"], cols["x2"], pid),
        config=config,
    )
