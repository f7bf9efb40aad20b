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

``pair_filter`` reads the pair-ordered station columns row by row;
``stream_match`` scans each station in :meth:`StationStream.time_order`
and reports its matches in station-1 time order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import ValidationError
from .events import EventLog, columns_equal

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
    """Column-oriented set of coincidence pairs.

    Columns are aligned: entry k of every array describes the k-th
    matched pair.  ``n_source_pairs`` is the number of emitted pairs in
    the log that produced this selection, kept for rate normalization.
    """

    setting1: np.ndarray
    setting2: np.ndarray
    outcome1: np.ndarray
    outcome2: np.ndarray
    time1: np.ndarray
    time2: np.ndarray
    n_source_pairs: int
    window: float
    pair_id1: np.ndarray | None = None
    pair_id2: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.time1)

    @property
    def dt(self) -> np.ndarray:
        return self.time2 - self.time1

    def __eq__(self, other) -> bool:
        if not isinstance(other, Coincidences):
            return NotImplemented
        names = ("setting1", "setting2", "outcome1", "outcome2", "time1", "time2", "pair_id1", "pair_id2",
                 "n_source_pairs")
        return columns_equal(self, other, names)


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
    keep = np.abs(s2.time_tag - s1.time_tag) <= window
    pid = s1.pair_id[keep]
    return Coincidences(
        setting1=s1.setting_index[keep],
        setting2=s2.setting_index[keep],
        outcome1=s1.outcome[keep],
        outcome2=s2.outcome[keep],
        time1=s1.time_tag[keep],
        time2=s2.time_tag[keep],
        n_source_pairs=log.n_pairs,
        window=window,
        pair_id1=pid,
        pair_id2=pid,
    )


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
    k1, k2 = o1[m1], o2[m2]
    return Coincidences(
        setting1=s1.setting_index[k1],
        setting2=s2.setting_index[k2],
        outcome1=s1.outcome[k1],
        outcome2=s2.outcome[k2],
        time1=s1.time_tag[k1],
        time2=s2.time_tag[k2],
        n_source_pairs=log.n_pairs,
        window=window,
        pair_id1=s1.pair_id[k1] if s1.pair_id is not None else None,
        pair_id2=s2.pair_id[k2] if s2.pair_id is not None else None,
    )


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
