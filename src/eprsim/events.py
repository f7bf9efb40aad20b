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
Each range of pairs holds one chunk of variates at a time, turns it into
that chunk's slice of the output columns and writes its own rows' time
tags, so generation's peak memory is the log itself, plus the ``gap``
column of emission times under Poisson emission, plus about 0.7 MB of
chunk-sized temporaries per range (a chunk's variates and the kernels'
columns).  These are under a byte per pair at 1e6 pairs but show below
it: on 2e5 Poisson pairs the traced peak is 32 bytes per pair on one
worker and 35 on two.  The log keeps each column in the smallest type
that holds it: 24 bytes per pair up to 2**32 pairs and 256 settings a
station (see :class:`StationStream`).

Generation is the one parallel pass over pairs, and :func:`map_ranges`
owns its threads.  It cuts rows [0, n) into contiguous ranges with
block-aligned inner edges, runs them on one pool of at most one thread
per CPU, and yields their results lazily in range order, with at most
one range per thread ahead of the consumer.

A run can also be generated in segments: ``run_experiment(config, 1,
pairs=range(lo, hi))`` is rows lo..hi of the whole log.  The CLI's
paired runs under regular emission without ``--tags-out`` generate
segments of 2**16 pairs on one ``map_ranges`` pool and bin each as it
arrives (see :func:`eprsim.analysis.window_sweep`), so they hold a few
1.5 MB segments instead of the 24-byte-per-pair log.  Three kinds of
run keep one stored log: the stream policy, which matches across the
whole log in time order; ``--tags-out``, whose tag files are written
in time order over the whole run; and Poisson emission, whose emission
times are one cumulative sum over the run.

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
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from itertools import islice

import numpy as np

from .errors import ValidationError
from .model import (DEFAULT_QUADRUPLE, ModelParams, Setting, check_settings, delay_from_uniform,
                    hidden_from_uniform, is_real, misalignments, outcome_from_uniform)

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


def _is_integer(value) -> bool:
    """An int or a numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class EmissionSpec:
    """Emission-time process: regular spacing or Poisson arrivals."""

    mode: str
    interval: float | None = None
    rate: float | None = None

    def __post_init__(self):
        if self.mode == "regular":
            if not (is_real(self.interval) and 0 < self.interval < np.inf):
                raise ValidationError(f"regular emission needs a finite interval > 0, got {self.interval!r}")
        elif self.mode == "poisson":
            if not (is_real(self.rate) and 0 < self.rate < np.inf):
                raise ValidationError(f"poisson emission needs a finite rate > 0, got {self.rate!r}")
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
    settings1: tuple[Setting, ...] = DEFAULT_QUADRUPLE[:2]
    settings2: tuple[Setting, ...] = DEFAULT_QUADRUPLE[2:]
    n_pairs: int = 10**6
    seed: int = 42
    emission: EmissionSpec | None = None

    def __post_init__(self):
        for name in ("settings1", "settings2"):
            angles = tuple(getattr(self, name))
            if not all(is_real(a) for a in angles):  # float() would read "0" and True as angles
                raise ValidationError(f"{name} must be real numbers, got {angles!r}")
            object.__setattr__(self, name, tuple(float(a) for a in angles))
        # pair ids must fit the tag format's [0, 2**53)
        if not _is_integer(self.n_pairs) or not 1 <= self.n_pairs <= 2**53:
            raise ValidationError(f"n_pairs must be in [1, 2**53] and an integer, got {self.n_pairs!r}")
        counts = (len(self.settings1), len(self.settings2))
        if not all(1 <= k <= 2**15 for k in counts):  # setting indices must fit the tag format's [0, 2**15)
            raise ValidationError(f"each station needs 1 to 2**15 settings, got {counts[0]} and {counts[1]}")
        check_settings(self.settings1 + self.settings2)
        if not _is_integer(self.seed) or not (0 <= int(self.seed) < _MAX_SEED):
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

    Column types: ``time_tag`` is float64 and ``outcome`` int8 (+1 or -1).
    A generated stream keeps ``pair_id`` in ``np.min_scalar_type(n_pairs
    - 1)`` (uint32 for 2**16 < n_pairs <= 2**32) and ``setting_index`` in
    ``np.min_scalar_type(len(settings) - 1)`` (uint8 up to 256 settings).
    A stream read from tag files keeps the file format's types, int64
    pair ids and int16 setting indices.  Consumers read the columns by
    value, so equal values are equal logs whatever their types.
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


def map_ranges(fn, n: int, block: int, parts: int, threads: int | None = None):
    """``fn(start, stop)`` over contiguous ranges of rows [0, n), yielded lazily in range order.

    The rows are cut into at most ``parts`` ranges of nearly equal block
    counts, with inner edges at multiples of ``block``; ``n == 0`` is one
    empty range.  A single range runs inline, without a thread pool.
    More run on one pool of min(ranges, ``threads``, CPUs) threads
    (``threads`` defaults to ``parts``), and no more ranges than it has
    threads run ahead of the one the consumer holds, so a consumer that
    drops each result keeps at most that many plus one alive.  A range
    that raises raises here, in order; closing the generator, or an
    error, cancels the ranges not started and waits for the running
    ones, so no pool thread outlives it.
    """
    n_blocks = -(-n // block)
    k = max(1, min(parts, n_blocks))
    edges = [min(n, block * (n_blocks * i // k)) for i in range(k + 1)]
    if k == 1:
        yield fn(0, n)
        return
    ranges = zip(edges[:-1], edges[1:])
    ahead = min(k, parts if threads is None else threads, os.cpu_count() or 1)
    pool = ThreadPoolExecutor(max_workers=ahead)
    try:
        running = deque(pool.submit(fn, *r) for r in islice(ranges, ahead))
        while running:
            # Queued behind the running ranges, the next starts as the head is handed over;
            # no local keeps a result the consumer has dropped.
            running.extend(pool.submit(fn, *r) for r in islice(ranges, 1))
            yield running.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def _generate_columns(config: ExperimentConfig, cols: dict, start: int, stop: int, first: int = 0) -> None:
    """Raw columns of pairs [start, stop) into rows from ``start - first``, by chunks; ``gap`` only if Poisson."""
    params = config.params
    rate = config.resolved_emission().rate
    a1 = np.asarray(config.settings1)
    a2 = np.asarray(config.settings2)
    k1, k2 = len(a1), len(a2)
    pid = start
    while pid < stop:
        chunk, row = divmod(pid, CHUNK_PAIRS)
        take = min(CHUNK_PAIRS - row, stop - pid)
        u = _chunk_uniforms(config.seed, chunk, row + take)[row:]
        sl = slice(pid - first, pid - first + take)
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
        if rate is not None:
            with np.errstate(over="ignore"):  # inverse-CDF exponential inter-arrival times
                cols["gap"][sl] = -np.log1p(-u[:, _COL_EMIT]) / rate


def run_experiment(config: ExperimentConfig, n_workers: int = 1, pairs: range | None = None) -> EventLog:
    """Run the two-station experiment described by ``config``, or the segment ``pairs`` of it.

    ``n_workers`` is how many ranges the pairs are split into (see
    :func:`map_ranges`).  The result is identical for any ``n_workers``:
    each pair's variates are fixed by ``(seed, pair_id)``.
    Both stations come back in pair order and share one ``pair_id`` array.

    ``pairs``, a non-empty step-1 range of pair ids in [0, n_pairs),
    defaults to the whole run.  Its rows equal those rows of the whole
    run's log, pair ids included, in the whole run's pair-id type.
    Under Poisson emission every emission time is one cumulative sum over
    the run, so only the whole run can be generated.  The emission
    overflow check bounds the last pair of the whole run, so it raises
    for every segment alike.
    """
    if n_workers < 1:
        raise ValidationError(f"n_workers must be >= 1, got {n_workers}")
    n = config.n_pairs
    pairs = range(n) if pairs is None else pairs
    if not (isinstance(pairs, range) and pairs.step == 1 and 0 <= pairs.start < pairs.stop <= n):
        raise ValidationError(f"pairs must be a non-empty step-1 range within range({n}), got {pairs!r}")
    first, m = pairs.start, len(pairs)
    interval = config.resolved_emission().interval
    if interval is None and m != n:
        raise ValidationError(f"poisson emission times are one cumulative sum over the run: "
                              f"generate all {n} pairs, not {pairs!r}")
    cols = {
        "idx1": np.empty(m, dtype=np.min_scalar_type(len(config.settings1) - 1)),
        "idx2": np.empty(m, dtype=np.min_scalar_type(len(config.settings2) - 1)),
        "x1": np.empty(m, dtype=np.int8),
        "x2": np.empty(m, dtype=np.int8),
        "delay1": np.empty(m),
        "delay2": np.empty(m),
    }
    # Ranges split on chunk boundaries of the rows, which are the pairs' when ``first`` is (the CLI's segments are).
    each_range = partial(map_ranges, n=m, block=CHUNK_PAIRS, parts=n_workers)
    if interval is None:
        # Poisson: the cumulative sum is one sequential pass, independent of the split.
        cols["gap"] = gap = np.empty(n)
        list(each_range(partial(_generate_columns, config, cols)))
        with np.errstate(over="ignore"):
            last = float(np.cumsum(gap, out=gap)[-1])
    else:
        last = (n - 1) * interval
    # Emission times never decrease and delays are at most t0, so this bounds
    # every tag, scaled as quantizing scales it.
    if not np.isfinite((last + config.params.t0) * 10.0**TIME_TAG_DECIMALS):
        raise ValidationError(
            f"emission times overflow: the last of {n} pairs is emitted at {last}, "
            f"too late to tag at {TIME_TAG_DECIMALS} decimals"
        )

    def finish(start, stop):
        """Rows [start, stop): regular emission's columns, then tag = emission + delay, quantized, in place."""
        if interval is not None:
            _generate_columns(config, cols, first + start, first + stop, first)
        for lo in range(start, stop, CHUNK_PAIRS):
            hi = min(lo + CHUNK_PAIRS, stop)
            emitted = gap[lo:hi] if interval is None else np.arange(first + lo, first + hi) * interval
            for t in (cols["delay1"][lo:hi], cols["delay2"][lo:hi]):
                np.add(emitted, t, out=t)
                np.round(t, TIME_TAG_DECIMALS, out=t)

    list(each_range(finish))
    pid = np.arange(first, first + m, dtype=np.min_scalar_type(n - 1))
    return EventLog(
        station1=StationStream(1, cols["delay1"], cols["idx1"], cols["x1"], pid),
        station2=StationStream(2, cols["delay2"], cols["idx2"], cols["x2"], pid),
        config=config,
    )
