"""Coincidence selection: which detections count as the same pair.

There is one selection path, a window sweep, and one window is a grid
of one.  For each window W of a strictly increasing grid, each policy
gives every coincidence the first window that keeps it, so the sweep
bins it once and reads every window's table from one histogram.

Policy ``"paired"`` is the idealized per-pair rule: the two events of an
emitted pair are kept iff their time tags differ by at most W, a closed
boundary.  ``check_pair_filter`` runs its checks once; then
``pair_window_index`` gives each pair of a row range the first window
with |dt| <= W (``searchsorted(..., "left")``), so the pair is kept at
that window and every larger one.  The row range lets the sweep bin the
log block by block.

Policy ``"stream"`` ignores pair identity and works the way tagged
laboratory data is analyzed: scan the raw time-tag streams and match
events whose tags fall within the window, each event used at most once.
With well-separated emissions the two policies agree exactly; with
overlapping emissions (Poisson stress tests) only the stream policy is
meaningful.  Events left unmatched are dropped from all statistics: the
post-selected ensemble is the object under study.

The stream policy is the walk of ``stream_window_index``.  It sorts each
station once and goes through the grid from the largest window down,
running stage 1 (see below) at each window only on the events still
contested at every larger window.  An event uncontested among those at
window k keeps its one tag, or has none, at every smaller window:
``fl(t1 - W)`` and ``fl(t1 + W)`` are monotone in W, so its range and
those of the other contested events only shrink, and an event settled at
a larger window had only its own tag in range.  It is counted from the
first window whose range holds its tag up to k, the stream counterpart
of ``pair_window_index``.  The contested events are scanned at k and
passed on to window k - 1: no tag of an event uncontested at k or above
lies in their ranges, so matching them alone gives what matching every
event gives them.  Regular emission leaves nothing contested at the
largest window, and the walk ends there.

A selection is two row-index arrays into the one stored log: coincidence
k is row ``rows1[k]`` of station 1 and row ``rows2[k]`` of station 2; no
column is copied.  The paired policy selects rows in pair order (rows1
is rows2); the stream walk scans each station in
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
Dense Poisson streams leave nearly every event to the scan.  It keeps
a frontier ``p``, past which no event has looked, and a stack of the
free tags before it in ascending order.  Every tag at or past ``p`` is
free: a tag after an event's own time is taken only at ``p``, which
then moves on.  An event pushes the tags up to its own time, so the top
of the stack is its nearest free tag at or before it and ``p`` its
nearest after it (distances grow away from the event on both sides).
The tag at ``p`` wins only if strictly nearer; else the event takes the
first free tag at the top's distance, walking down the stack only
through ties.  An event whose ``lo`` lies past the top drops the stack,
and past ``p`` moves ``p`` there: ``lo`` never decreases, so no later
event reaches what is skipped.  The scan takes the events in blocks of
``_SCAN_BLOCK``, whose ranges span one slice of t2 as ``lo`` and ``hi``
never decrease; the stack and ``p`` are rebased onto each slice.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from itertools import count
from typing import Literal

import numpy as np

from .errors import ValidationError
from .events import EventLog

__all__ = [
    "MatchPolicy",
    "check_pair_filter",
    "pair_window_index",
    "stream_window_index",
]

# "paired" uses pair identity (per-pair window rule); "stream" scans the
# time-tag streams, matching each station-1 event to the nearest
# unmatched station-2 event within the window, earliest first.
MatchPolicy = Literal["paired", "stream"]
_SCAN_BLOCK = 2**15  # contested events per block of the stream matcher's scan


def _check_window(window: float) -> None:
    if not (window >= 0):
        raise ValidationError(f"window must be >= 0, got {window}")


def check_pair_filter(log: EventLog, window: float) -> None:
    """Check that the paired policy can select from ``log`` at ``window``.

    Raises, in this order, unless the window is >= 0, both streams carry
    pair ids, and the two stations' ``pair_id`` columns are equal.
    """
    _check_window(window)
    s1, s2 = log.station1, log.station2
    if s1.pair_id is None or s2.pair_id is None:
        raise ValidationError("per-pair filtering needs pair ids in both streams")
    if s1.pair_id is not s2.pair_id and not np.array_equal(s1.pair_id, s2.pair_id):
        raise ValidationError("mismatched pair_id columns between stations")


def pair_window_index(log: EventLog, windows: np.ndarray, rows: slice) -> np.ndarray:
    """Per emitted pair in the row range ``rows``, the first window W with |dt| <= W.

    The boundary is closed, a measure-zero choice fixed for
    reproducibility.  ``windows`` must increase strictly; a pair no
    window keeps, a NaN |dt| too, gets ``len(windows)``.  Runs no check:
    call ``check_pair_filter(log, windows[0])`` once before.
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
    lo = np.searchsorted(t2, t1 - window, side="left")
    hi = np.searchsorted(t2, t1 + window, side="right")
    # A NaN tag is within no window of any tag.  NaNs sort last, so hi = lo keeps both non-decreasing.
    np.copyto(hi, lo, where=np.isnan(t1))
    # lo and hi never decrease: only events i - 1 and i + 1 can also hold tag lo[i].
    alone = hi - lo == 1
    alone[1:] &= hi[:-1] <= lo[1:]
    alone[:-1] &= lo[1:] > lo[:-1]
    contested = (hi > lo) & ~alone
    return np.where(alone, lo, -1), contested, lo, hi


def _scan(t1: np.ndarray, t2: np.ndarray, window: float, partner, contested, lo, hi) -> None:
    """Stage 2 of the stream matcher: the greedy scan over the contested events of a split.

    ``(partner, contested, lo, hi)`` is ``_split(t1, t2, window)``.
    Station-1 events are visited in time order; each takes the nearest
    unmatched station-2 tag within the window (ties go to the earlier
    tag), written to ``partner`` in place.  Only the contested events are
    visited.  Their ranges hold no tag ``_split`` matched, so the scan
    need not know those tags.  Two invariants carry every choice:

    - every tag at or past the frontier ``p`` is free, since a tag after
      an event's own time is taken only at ``p``, which then moves on;
    - ``stack`` holds free tags before ``p`` in ascending order, among
      them every free one at or past the event's ``lo``, since tags are
      pushed in order and leave only when taken or below every later
      ``lo``.

    So the top is the event's nearest left tag and ``p`` its one right
    candidate.  Each block's lists cover ``t2[base:base + top]``,
    indexed from ``base``, and the state is rebased at every block.
    """
    events = np.flatnonzero(contested)
    stack: list[int] = []  # the free tags before p, ascending: the top is the nearest left tag
    p = 0  # the frontier: no tag at or past it is taken
    base = 0
    for first in range(0, len(events), _SCAN_BLOCK):
        block = events[first:first + _SCAN_BLOCK]
        shift = int(lo[block[0]]) - base  # no event of this block reaches a tag below its first lo
        base += shift
        stack = [s - shift for s in stack if s >= shift]
        p = max(p - shift, 0)
        top = int(hi[block[-1]]) - base  # the scan reads no station-2 tag at or past this
        t1l = t1[block].tolist()
        lo_list = (lo[block] - base).tolist()
        t2l = t2[base:base + top].tolist()
        t2l.append(math.nan)  # at top: no comparison holds, so no walk passes it
        got = np.full(len(block), -1, dtype=np.intp)
        out = memoryview(got)
        for i, ti, j in zip(count(), t1l, lo_list):
            if stack and stack[-1] < j:
                stack = []  # every free tag passed lies below lo, for this event and every later one
            if p < j:
                p = j
            while t2l[p] <= ti:
                stack.append(p)
                p += 1
            if stack:
                b = len(stack) - 1
                d = ti - t2l[stack[b]]
                if (t := t2l[p]) <= ti + window and t - ti < d:  # the right tag wins only if strictly nearer
                    out[i] = p
                    p += 1
                    continue
                # The left tag wins: the first free tag at its distance, walking down only through ties.
                while b and (k := stack[b - 1]) >= j and not ti - t2l[k] > d:
                    b -= 1
                out[i] = stack.pop(b)
            elif t2l[p] <= ti + window:
                out[i] = p
                p += 1
        partner[block] = np.where(got >= 0, got + base, -1)


def stream_window_index(log: EventLog, windows: Sequence[float]):
    """The stream matches at every window of a grid, from one sort per station, as coincidence groups.

    Works without pair ids; each event takes part in at most one
    coincidence per window.  ``windows`` must increase strictly.  Yields
    groups ``(rows1, rows2, start, stop)``: coincidence k of a group pairs
    row ``rows1[k]`` of station 1 with row ``rows2[k]`` of station 2 and
    is a match at ``windows[j]`` exactly for ``start[k] <= j < stop``.
    The grid is walked from the largest window down, one group per
    window.  At window k, the events still contested at every larger
    window are split and the contested ones among them scanned; the
    group holds both stages' matches, in station-1 time order, with
    ``stop = k + 1``, and only the events still contested go on to window
    k - 1.  The walk ends when none are, so at a grid of one the first
    group is the whole match.  Raises if ``windows[0]`` is not >= 0.
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
        pm = partner[m]
        # A match is kept at k: its own range holds its tag.  An uncontested one
        # is kept from its first window, k less the number of smaller windows
        # whose range, with the scan's own bounds fl(t1 - w) <= t2 <= fl(t1 + w),
        # holds its tag; it holds it from that window on.
        first = np.full(len(m), k, dtype=np.intp)
        if k:
            ta, tb = t1[m], t2[pm]
            for v in windows[:k]:
                first -= (ta - v <= tb) & (tb <= ta + v)
            first[contested[m]] = k
        # The next window's slices first, so that nothing else of this one is held at the yield.
        rest = np.flatnonzero(contested) if k else ()  # window 0 is the last
        if len(rest):
            base, top = int(lo[rest].min()), int(hi[rest].max())
            t1, t2 = t1[rest], t2[base:top]
        else:
            t1 = t2 = None  # the walk ends at this window
        del partner, contested, lo, hi
        yield o1[m], o2[pm], first, k + 1
        if t1 is None:
            return
        o1, o2 = o1[rest], o2[base:top]

