"""Coincidence selection: which detections count as the same pair.

Two selectors are provided.  ``pair_filter`` is the idealized per-pair
rule: the two events of an emitted pair are kept iff their time tags
differ by at most the window.  ``stream_match`` ignores pair identity and
works the way tagged laboratory data is analyzed: scan the raw time-tag
streams and match events whose tags fall within the window, each event
used at most once.

With well-separated emissions the two selectors agree exactly; with
overlapping emissions (Poisson stress tests) only the stream matcher is
meaningful.  Events left unmatched are dropped from all statistics: the
post-selected ensemble is the object under study.

A selection is two row-index arrays into the one stored log: coincidence
k is row ``rows1[k]`` of station 1 and row ``rows2[k]`` of station 2; no
column is copied.  ``pair_filter`` keeps rows in pair order (rows1 ==
rows2); ``stream_match`` scans each station in
:meth:`StationStream.time_order` and reports its matches in station-1
time order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import ValidationError
from .events import EventLog

__all__ = [
    "Coincidences",
    "MatchPolicy",
    "pair_filter",
    "stream_match",
    "match_events",
    "coincidence_rate",
]

# "paired" uses pair identity (per-pair window rule); "stream-greedy"
# scans the time-tag streams, matching each station-1 event to the
# nearest unmatched station-2 event within the window, earliest first.
MatchPolicy = Literal["paired", "stream-greedy"]


@dataclass(eq=False)
class Coincidences:
    """The coincidences one selector kept from ``log``.

    Coincidence k pairs row ``rows1[k]`` of ``log.station1`` with row
    ``rows2[k]`` of ``log.station2``; read any column through the rows.
    """

    log: EventLog
    rows1: np.ndarray
    rows2: np.ndarray

    def __len__(self) -> int:
        return len(self.rows1)

    @property
    def n_source_pairs(self) -> int:
        """Emitted pairs in the log, the denominator of the coincidence rate."""
        return self.log.n_pairs


def _check_window(window: float) -> float:
    if not (window >= 0):
        raise ValidationError(f"window must be >= 0, got {window}")
    return float(window)


def pair_filter(log: EventLog, window: float) -> Coincidences:
    """Keep each emitted pair iff its two time tags differ by <= window.

    The boundary is closed (|dt| <= window), a measure-zero choice fixed
    for reproducibility.  Raises if either stream lacks pair ids or the
    two stations' ``pair_id`` columns differ.
    """
    window = _check_window(window)
    s1, s2 = log.station1, log.station2
    if s1.pair_id is None or s2.pair_id is None:
        raise ValidationError("per-pair filtering needs pair ids in both streams")
    if not np.array_equal(s1.pair_id, s2.pair_id):
        raise ValidationError("mismatched pair_id columns between stations")
    rows = np.flatnonzero(np.abs(s2.time_tag - s1.time_tag) <= window)
    return Coincidences(log, rows, rows)


def _greedy_match(t1: np.ndarray, t2: np.ndarray, window: float) -> tuple[np.ndarray, np.ndarray]:
    """Greedy earliest-first nearest-neighbor matching of sorted streams.

    Station-1 events are visited in time order; each takes the nearest
    unmatched station-2 tag within the window (ties go to the earlier
    tag).  Returns matched index arrays (into t1 and into t2).
    """
    n1, n2 = len(t1), len(t2)
    lo_list = np.searchsorted(t2, t1 - window, side="left").tolist()
    t1l = t1.tolist()
    t2l = t2.tolist()
    del t1, t2  # the scan reads only the lists; a caller's temporary copies can go
    # next_free[j] = smallest unmatched index >= j (path-compressed).
    next_free = list(range(n2 + 1))

    def find(j: int) -> int:
        root = j
        while next_free[root] != root:
            root = next_free[root]
        while next_free[j] != root:
            next_free[j], j = root, next_free[j]
        return root

    out1: list[int] = []
    out2: list[int] = []
    for i in range(n1):
        ti = t1l[i]
        hi = ti + window
        j = find(lo_list[i])
        best = -1
        best_d = 0.0
        while j < n2 and t2l[j] <= hi:
            d = abs(t2l[j] - ti)
            if best < 0 or d < best_d:
                best, best_d = j, d
            elif t2l[j] > ti:
                break  # farther right can only be worse
            j = find(j + 1)
        if best >= 0:
            next_free[best] = best + 1
            out1.append(i)
            out2.append(best)
    return np.asarray(out1, dtype=np.int64), np.asarray(out2, dtype=np.int64)


def stream_match(log: EventLog, window: float) -> Coincidences:
    """Match raw time-tag streams with the greedy nearest-neighbor scan.

    Works without pair ids; each event participates in at most one
    coincidence.  The scan order makes this inherently sequential.
    """
    window = _check_window(window)
    s1, s2 = log.station1, log.station2
    o1, o2 = s1.time_order(), s2.time_order()
    m1, m2 = _greedy_match(s1.time_tag[o1], s2.time_tag[o2], window)
    return Coincidences(log, o1[m1], o2[m2])


def match_events(log: EventLog, window: float, policy: MatchPolicy = "paired") -> Coincidences:
    """Dispatch to the selector named by ``policy``."""
    if policy == "paired":
        return pair_filter(log, window)
    if policy == "stream-greedy":
        return stream_match(log, window)
    raise ValidationError(f"unknown match policy {policy!r}")


def coincidence_rate(log: EventLog, window: float, policy: MatchPolicy = "paired") -> float:
    """Fraction of emitted pairs surviving coincidence selection."""
    return len(match_events(log, window, policy)) / log.n_pairs
