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

A paired window sweep does not call ``pair_filter`` per window, since
neither |dt| nor the pair-id checks depend on it.  It runs the checks
once with ``check_pair_filter``; then ``pair_window_index`` gives each
pair of a row range the first window W of the grid with |dt| <= W
(``searchsorted(..., "left")``, the same closed boundary), so
``pair_filter`` at window k keeps exactly the pairs with index <= k.
The row range lets the sweep bin the log block by block.

There is one stream matcher, ``stream_window_index``, and one window is
its walk at a grid of one: ``stream_match(log, w)`` is the single group of
``stream_window_index(log, [w])``.  The walk sorts each station once and
goes through the grid from the largest window down, running stage 1 (see
below) at each window only on the events still contested at every larger
window.  An event uncontested among those at window k keeps its one tag,
or has none, at every smaller window: ``fl(t1 - W)`` and ``fl(t1 + W)``
are monotone in W, so its range and those of the other contested events
only shrink, and an event settled at a larger window had only its own tag
in range.  It is counted from the first window whose range holds its tag
up to k, the stream counterpart of ``pair_window_index``.  The contested
events are scanned at k and passed on to window k - 1: no tag of an event
uncontested at k or above lies in their ranges, so matching them alone
gives what matching every event gives them.  Regular emission leaves
nothing contested at the largest window, and the walk ends there.

A selection is two row-index arrays into the one stored log: coincidence
k is row ``rows1[k]`` of station 1 and row ``rows2[k]`` of station 2; no
column is copied.  ``pair_filter`` keeps rows in pair order (rows1 ==
rows2); ``stream_match`` scans each station in
:meth:`StationStream.time_order` and reports its matches in station-1
time order.

At each window the stream matcher runs in two stages and returns exactly
what one greedy scan over all events returns.  Station-1 event i can
take the station-2 tags in one index range [lo_i, hi_i), from two
``searchsorted`` calls.  Stage 1 (``_split``, vectorised) matches i to
its tag when the range holds exactly one tag and no other event's range
holds it: the scan would give i that tag, since no earlier event can
take it, and i's choice changes no other event's options.  Events with
an empty range are dropped.  Stage 2, the sequential scan, visits only
the remaining (contested) events.  None of their ranges holds a tag
stage 1 matched, so the scan over them makes the choices it would make
over all events.  Stage 1 uses the scan's own bounds, so float rounding
and the closed boundary |dt| == window cannot make the stages disagree.
Under regular emission no event is contested and the scan does nothing;
dense Poisson streams leave nearly every event to the scan.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import compress, count
from typing import Literal

import numpy as np

from .errors import ValidationError
from .events import EventLog

__all__ = [
    "Coincidences",
    "MatchPolicy",
    "check_pair_filter",
    "pair_filter",
    "pair_window_index",
    "stream_match",
    "stream_window_index",
    "match_events",
]

# "paired" uses pair identity (per-pair window rule); "stream" scans the
# time-tag streams, matching each station-1 event to the nearest
# unmatched station-2 event within the window, earliest first.
MatchPolicy = Literal["paired", "stream"]


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


def check_pair_filter(log: EventLog, window: float) -> float:
    """Raise what ``pair_filter(log, window)`` raises, in the same order; returns the window.

    The window must be >= 0, both streams need pair ids, and the two
    stations' ``pair_id`` columns must be equal.
    """
    window = _check_window(window)
    s1, s2 = log.station1, log.station2
    if s1.pair_id is None or s2.pair_id is None:
        raise ValidationError("per-pair filtering needs pair ids in both streams")
    if s1.pair_id is not s2.pair_id and not np.array_equal(s1.pair_id, s2.pair_id):
        raise ValidationError("mismatched pair_id columns between stations")
    return window


def pair_filter(log: EventLog, window: float) -> Coincidences:
    """Keep each emitted pair iff its two time tags differ by <= window.

    The boundary is closed (|dt| <= window), a measure-zero choice fixed
    for reproducibility.  Raises if either stream lacks pair ids or the
    two stations' ``pair_id`` columns differ.
    """
    window = check_pair_filter(log, window)
    rows = np.flatnonzero(np.abs(log.station2.time_tag - log.station1.time_tag) <= window)
    return Coincidences(log, rows, rows)


def pair_window_index(log: EventLog, windows: np.ndarray, rows: slice) -> np.ndarray:
    """Per emitted pair in the row range ``rows``, the first window ``pair_filter`` keeps it at.

    ``windows`` must increase strictly; a pair no window keeps, a NaN
    |dt| too, gets ``len(windows)``.  Runs none of ``pair_filter``'s
    checks: call ``check_pair_filter(log, windows[0])`` once before.
    """
    dt = log.station2.time_tag[rows] - log.station1.time_tag[rows]
    return np.searchsorted(windows, np.abs(dt, out=dt), side="left")


def _split(t1: np.ndarray, t2: np.ndarray, window: float):
    """Stage 1 of the stream matcher: match every uncontested station-1 event.

    Event i's candidates are t2[lo[i]:hi[i]], the tags the scan walks.  It
    is uncontested when that range holds one tag and no other event's
    range holds that tag.  Returns ``(partner, contested, lo, hi)``:
    ``partner[i]`` is the tag matched to uncontested event i and -1 for
    every other event; ``contested`` marks the events with candidates
    that are left for the scan.
    """
    n2 = len(t2)
    lo = np.searchsorted(t2, t1 - window, side="left")
    hi = np.searchsorted(t2, t1 + window, side="right")
    # cover[j]: how many candidate ranges hold station-2 tag j.
    cover = np.cumsum(np.bincount(lo, minlength=n2 + 1) - np.bincount(hi, minlength=n2 + 1))
    alone = (hi - lo == 1) & (cover[lo] == 1)
    contested = (hi > lo) & ~alone
    return np.where(alone, lo, -1), contested, lo, hi


def _scan(t1: np.ndarray, t2: np.ndarray, window: float, partner, contested, lo, hi) -> None:
    """Stage 2 of the stream matcher: the greedy scan over the contested events of a split.

    ``(partner, contested, lo, hi)`` is ``_split(t1, t2, window)``.
    Station-1 events are visited in time order; each takes the nearest
    unmatched station-2 tag within the window (ties go to the earlier
    tag), written to ``partner`` in place.  Only the contested events are
    visited.  Their ranges hold no tag ``_split`` matched, so
    ``next_free`` need not mark those tags.
    """
    top = int(hi[contested].max(initial=0))  # the scan reads no station-2 tag at or past this
    t1l = t1[contested].tolist()
    lo_list = lo[contested].tolist()
    t2l = t2[:top].tolist()
    # next_free[j] = smallest unmatched index >= j (path-compressed).
    next_free = list(range(top + 1))

    def find(j: int) -> int:
        root = j
        while next_free[root] != root:
            root = next_free[root]
        while next_free[j] != root:
            next_free[j], j = root, next_free[j]
        return root

    out = memoryview(partner)
    for i, ti, j in zip(compress(count(), contested.tobytes()), t1l, lo_list):
        end = ti + window
        if next_free[j] != j:
            j = find(j)
        best = -1
        best_d = 0.0
        while j < top and t2l[j] <= end:
            d = abs(t2l[j] - ti)
            if best < 0 or d < best_d:
                best, best_d = j, d
            elif t2l[j] > ti:
                break  # farther right can only be worse
            j += 1
            if next_free[j] != j:
                j = find(j)
        if best >= 0:
            next_free[best] = best + 1
            out[i] = best


def stream_match(log: EventLog, window: float) -> Coincidences:
    """Match raw time-tag streams with the greedy nearest-neighbor scan.

    Works without pair ids; each event participates in at most one
    coincidence.  One window is the walk of ``stream_window_index`` at a
    grid of one: its single group, in station-1 time order.  Uncontested
    events are matched in vectorised code and the sequential scan runs
    only where events compete for a tag (see the module docstring); the
    result is that of the scan over all events.
    """
    rows1, rows2, _, _ = next(stream_window_index(log, [window]))
    return Coincidences(log, rows1, rows2)


def stream_window_index(log: EventLog, windows: Sequence[float]):
    """``stream_match`` at every window of a grid, from one sort per station, as coincidence groups.

    ``windows`` must increase strictly.  Yields groups ``(rows1, rows2,
    start, stop)``: coincidence k of a group pairs row ``rows1[k]`` of
    station 1 with row ``rows2[k]`` of station 2 and belongs to
    ``stream_match(log, windows[j])`` exactly for ``start[k] <= j < stop``.
    The grid is walked from the largest window down, one group per
    window.  At window k, the events still contested at every larger
    window are split and the contested ones among them scanned; the
    group holds both stages' matches, in station-1 time order, with
    ``stop = k + 1``, and only the events still contested go on to window
    k - 1.  The walk ends when none are.  ``stream_match`` is this walk at
    a grid of one, so its first group is the whole match.  Raises what
    ``stream_match(log, windows[0])`` raises.
    """
    _check_window(windows[0])
    s1, s2 = log.station1, log.station2
    o1, o2 = s1.time_order(), s2.time_order()
    # t1: the events contested at every larger window; their ranges, at every
    # smaller window, lie in t2 (o1, o2 give the rows of both).
    t1, t2 = s1.time_tag[o1], s2.time_tag[o2]
    for k in range(len(windows) - 1, -1, -1):
        w = float(windows[k])
        partner, contested, lo, hi = _split(t1, t2, w)
        _scan(t1, t2, w, partner, contested, lo, hi)
        m = np.flatnonzero(partner >= 0)
        # A match is kept at k: its own range holds its tag.  An uncontested one
        # is kept from its first window, k less the number of smaller windows
        # whose range, with the scan's own bounds fl(t1 - w) <= t2 <= fl(t1 + w),
        # holds its tag; it holds it from that window on.
        first = np.full(len(m), k, dtype=np.intp)
        if k:
            ta, tb = t1[m], t2[partner[m]]
            for v in windows[:k]:
                first -= (ta - v <= tb) & (tb <= ta + v)
            first[contested[m]] = k
        yield o1[m], o2[partner[m]], first, k + 1
        rest = np.flatnonzero(contested)
        if len(rest) == 0:
            return
        t1, o1 = t1[rest], o1[rest]
        base, top = int(lo[rest].min()), int(hi[rest].max())
        t2, o2 = t2[base:top], o2[base:top]


def match_events(log: EventLog, window: float, policy: MatchPolicy = "paired") -> Coincidences:
    """Dispatch to the selector named by ``policy``."""
    if policy == "paired":
        return pair_filter(log, window)
    if policy == "stream":
        return stream_match(log, window)
    raise ValidationError(f"unknown match policy {policy!r}")
