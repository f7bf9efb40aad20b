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

Generation is the one parallel pass over pairs, and :func:`map_ranges`
owns its threads: it runs ``SEGMENT_PAIRS`` (2**16) rows at a time,
inline or on one pool of at most one thread per CPU, and yields the
results lazily in order, at most one segment per thread ahead of the
consumer.  A segment holds one chunk of variates at a time and turns it
into that chunk's slice of the raw columns; under Poisson emission it
also returns its inter-arrival times.  The consumer finishes the tags in
pair order, and Poisson emission times are the running sum of those
times carried across segments, bit for bit the whole run's cumulative
sum.  So generation's peak memory is the log plus, per segment alive,
about 0.7 MB of chunk temporaries and, under Poisson emission, 0.5 MB of
inter-arrival times: under a byte per pair at 1e6 pairs, but on 2e5
Poisson pairs the traced peak is 29 bytes per pair on one worker and 33
on two.  The log keeps each column in the smallest type that holds it:
24 bytes per pair up to 2**32 pairs and 256 settings a station (see
:class:`StationStream`).

A run can also be generated in segments: ``run_experiment(config, 1,
pairs=range(lo, hi))`` is rows lo..hi of the whole log.  Its log's
``emitted`` is the emission time of its last pair; under Poisson
emission the next segment continues the sum from it,
``run_experiment(config, 1, pairs=range(hi, ...), emitted_before=emitted)``,
bit for bit the whole run's.  The CLI streams every generated run
without ``--tags-out``: it generates the segments in order and the
analysis consumes each as it arrives (see
:func:`eprsim.analysis.window_sweep`), so it holds a few 1.5 MB
segments instead of the 24-byte-per-pair log.  Only ``--tags-out``
keeps one stored log, because its tag files are written in time order
over the whole run.

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
from itertools import islice, starmap

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

# Pairs per segment: the unit of parallel generation, of the CLI's streamed
# runs and of the paired sweep's blocks.  A segment's columns and
# temporaries, about 23 bytes a pair (1.5 MB), stay near a core's cache.
SEGMENT_PAIRS = 1 << 16

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
        if self.mode not in ("regular", "poisson"):
            raise ValidationError(f"unknown emission mode {self.mode!r}")
        name, other = ("interval", "rate") if self.mode == "regular" else ("rate", "interval")
        if getattr(self, other) is not None:  # run_experiment reads the mode from which one is set
            raise ValidationError(f"{self.mode} emission takes no {other}, got {getattr(self, other)!r}")
        value = getattr(self, name)
        if not (is_real(value) and 0 < value < np.inf):
            raise ValidationError(f"{self.mode} emission needs a finite {name} > 0, got {value!r}")
        object.__setattr__(self, name, float(value))  # an int interval would make int64 emission times, which wrap

    @classmethod
    def regular(cls, interval: float) -> "EmissionSpec":
        return cls(mode="regular", interval=interval)

    @classmethod
    def poisson(cls, rate: float) -> "EmissionSpec":
        return cls(mode="poisson", rate=rate)


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
    one) or ``emitted``.  ``emitted`` is the emission time of the last
    pair of a generated log, None for any other: no later pair of its run
    is emitted before it, so no later tag lies below it rounded as tags
    are (:func:`later_tags_from`).
    """

    station1: StationStream
    station2: StationStream
    config: ExperimentConfig | None = None
    emitted: float | None = None

    @property
    def n_pairs(self) -> int:
        return len(self.station1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EventLog):
            return NotImplemented
        return self.station1 == other.station1 and self.station2 == other.station2


def later_tags_from(log: EventLog) -> float:
    """A bound below every tag of the pairs generated after ``log`` in its run; -inf unless ``log`` is generated.

    Emission times never decrease and delays are at least 0, so each tag
    of a later pair is at least ``log.emitted`` rounded as tags are.
    """
    if log.emitted is None:
        return -np.inf
    return float(np.round(np.array([log.emitted]), TIME_TAG_DECIMALS)[0])


def map_ranges(fn, n: int, threads: int):
    """``fn(start, stop)`` over the segments of rows [0, n), yielded lazily in order.

    Segments are ``SEGMENT_PAIRS`` rows each, the last one fewer.  They
    run inline if min(segments, ``threads``, CPUs) is one, else on one
    pool of that many threads, and no more segments than it has threads
    run ahead of the one the consumer holds, so a consumer that drops
    each result keeps at most that many plus one alive.  A segment that
    raises raises here, in order; closing the generator, or an error,
    cancels the segments not started and waits for the running ones, so
    no pool thread outlives it.
    """
    segments = ((lo, min(lo + SEGMENT_PAIRS, n)) for lo in range(0, n, SEGMENT_PAIRS))
    ahead = min(-(-n // SEGMENT_PAIRS), threads, os.cpu_count() or 1)
    if ahead <= 1:
        yield from starmap(fn, segments)
        return
    pool = ThreadPoolExecutor(max_workers=ahead)
    try:
        running = deque(pool.submit(fn, *r) for r in islice(segments, ahead))
        while running:
            # Queued behind the running segments, the next starts as the head is handed over;
            # no local keeps a result the consumer has dropped.
            running.extend(pool.submit(fn, *r) for r in islice(segments, 1))
            yield running.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def _generate_columns(config: ExperimentConfig, cols: dict, start: int, stop: int, first: int = 0) -> np.ndarray | None:
    """Raw columns of pairs [start, stop) into rows from ``start - first``, by chunks.

    Returns the pairs' emission inter-arrival times under Poisson
    emission, else None.
    """
    rate = config.resolved_emission().rate
    gap = None if rate is None else np.empty(stop - start)
    a1 = np.asarray(config.settings1)
    a2 = np.asarray(config.settings2)
    k1, k2 = len(a1), len(a2)
    pid = start
    while pid < stop:
        chunk, row = divmod(pid, CHUNK_PAIRS)
        take = min(CHUNK_PAIRS - row, stop - pid)
        u = _chunk_uniforms(config.seed, chunk, row + take)[row:]
        sl = slice(pid - first, pid - first + take)

        idx1 = np.minimum((u[:, _COL_SET1] * k1).astype(np.int64), k1 - 1)
        idx2 = np.minimum((u[:, _COL_SET2] * k2).astype(np.int64), k2 - 1)
        s1 = hidden_from_uniform(u[:, _COL_HIDDEN])
        zeta1, zeta2 = misalignments(a1[idx1], a2[idx2], s1)

        cols["idx1"][sl] = idx1
        cols["idx2"][sl] = idx2
        cols["x1"][sl] = outcome_from_uniform(u[:, _COL_OUT1], zeta1)
        cols["x2"][sl] = outcome_from_uniform(u[:, _COL_OUT2], zeta2)
        cols["delay1"][sl] = delay_from_uniform(u[:, _COL_DELAY1], zeta1, config.params)
        cols["delay2"][sl] = delay_from_uniform(u[:, _COL_DELAY2], zeta2, config.params)
        if gap is not None:
            with np.errstate(over="ignore"):  # inverse-CDF exponential inter-arrival times
                gap[pid - start:pid - start + take] = -np.log1p(-u[:, _COL_EMIT]) / rate
        pid += take
    return gap


def run_experiment(config: ExperimentConfig, n_workers: int = 1, pairs: range | None = None,
                   emitted_before: float | None = None) -> EventLog:
    """Run the two-station experiment described by ``config``, or the segment ``pairs`` of it.

    The pairs are generated in segments (see :func:`map_ranges`), at
    most ``n_workers`` at once.  The result is identical for any
    ``n_workers``: each pair's variates are fixed by ``(seed, pair_id)``,
    and the emission times are added to the delays in pair order.
    Both stations come back in pair order and share one ``pair_id`` array.

    ``pairs``, a non-empty step-1 range of pair ids in [0, n_pairs),
    defaults to the whole run.  Its rows equal those rows of the whole
    run's log, pair ids included, in the whole run's pair-id type, and
    its log's ``emitted`` is its last pair's emission time.  Under
    Poisson emission each emission time is the sum of every earlier
    pair's inter-arrival time: a segment that does not start at pair 0
    takes ``emitted_before``, the ``emitted`` of the segment that ends
    just before it, and no other segment takes one.  Under regular
    emission the overflow check bounds the last pair of the whole run, so
    it raises for every segment alike; under Poisson emission it raises
    at the first segment whose last emission overflows.
    """
    if n_workers < 1:
        raise ValidationError(f"n_workers must be >= 1, got {n_workers}")
    n = config.n_pairs
    pairs = range(n) if pairs is None else pairs
    if not (isinstance(pairs, range) and pairs.step == 1 and 0 <= pairs.start < pairs.stop <= n):
        raise ValidationError(f"pairs must be a non-empty step-1 range within range({n}), got {pairs!r}")
    first, m = pairs.start, len(pairs)
    interval = config.resolved_emission().interval
    if (interval is None and first > 0) != (emitted_before is not None):
        raise ValidationError(f"poisson emission times are one cumulative sum over the run: emitted_before, the "
                              f"emission time of the pair before, is taken by a poisson segment after pair 0 and "
                              f"by no other; got {emitted_before!r} for {pairs!r}")

    def check(last, of_the_last_pair):
        # Emission times never decrease and delays are at most t0, so this bounds
        # every tag up to the pair emitted at ``last``, scaled as quantizing scales it.
        if not np.isfinite((last + config.params.t0) * 10.0**TIME_TAG_DECIMALS):
            raise ValidationError(f"emission times overflow: the last of {n} pairs is emitted at {last}"
                                  f"{'' if of_the_last_pair else ' or later'}, too late to tag at "
                                  f"{TIME_TAG_DECIMALS} decimals")

    if interval is not None:
        check((n - 1) * interval, True)
    cols = {
        "idx1": np.empty(m, dtype=np.min_scalar_type(len(config.settings1) - 1)),
        "idx2": np.empty(m, dtype=np.min_scalar_type(len(config.settings2) - 1)),
        "x1": np.empty(m, dtype=np.int8),
        "x2": np.empty(m, dtype=np.int8),
        "delay1": np.empty(m),
        "delay2": np.empty(m),
    }

    def raw(start, stop):
        return start, stop, _generate_columns(config, cols, first + start, first + stop, first)

    # The pool fills each segment's raw columns; its tags, emission + delay, are finished here in order.
    if emitted_before is None:
        emitted_before = -0.0  # the identity of float addition; 0.0 would turn a first gap of -0.0 into 0.0
    for start, stop, gap in map_ranges(raw, m, n_workers):
        if gap is not None:
            with np.errstate(over="ignore"):  # the sequential sum of the whole run's gaps, bit for bit
                gap[0] += emitted_before
                np.cumsum(gap, out=gap)
            emitted_before = float(gap[-1])
            check(emitted_before, first + stop == n)
        for lo in range(start, stop, CHUNK_PAIRS):
            hi = min(lo + CHUNK_PAIRS, stop)
            emitted = np.arange(first + lo, first + hi) * interval if gap is None else gap[lo - start:hi - start]
            for t in (cols["delay1"][lo:hi], cols["delay2"][lo:hi]):
                np.add(emitted, t, out=t)
                np.round(t, TIME_TAG_DECIMALS, out=t)
    pid = np.arange(first, first + m, dtype=np.min_scalar_type(n - 1))
    return EventLog(
        station1=StationStream(1, cols["delay1"], cols["idx1"], cols["x1"], pid),
        station2=StationStream(2, cols["delay2"], cols["idx2"], cols["x2"], pid),
        config=config,
        emitted=emitted_before if interval is None else (first + m - 1) * interval,
    )
