"""Coincidence selection: which detections count as the same pair.

There is one selection path, a window sweep, and one window is a grid
of one.  For each window W of a strictly increasing grid, each policy
gives every coincidence the first window that keeps it, so the sweep
bins it once and reads every window's table from one histogram.

Policy ``"paired"`` is the idealized per-pair rule: the two events of an
emitted pair are kept iff their time tags differ by at most W, a closed
boundary.  ``check_pair_filter`` runs its checks once; then
``pair_window_index`` gives each pair of a row range the first window
with |dt| <= W, so the pair is kept at that window and every larger one.
Since the grid increases, that index is the number of windows that do
not keep the pair: ``len(windows)`` less one for each window W_k with
|dt| <= W_k, a NaN |dt| matching none.  The count takes one pass over
the range per window, in the smallest unsigned type that holds
``len(windows)``; at the 20 windows of the usual grid that is several
times faster than bisecting the grid per pair, and it stays faster up
to between 255 and 300 windows.  The row range lets the sweep bin the
log block by block.

Policy ``"stream"`` ignores pair identity and works the way tagged
laboratory data is analyzed: scan the raw time-tag streams and match
events whose tags fall within the window, each event used at most once.
With well-separated emissions the two policies agree exactly; with
overlapping emissions (Poisson stress tests) only the stream policy is
meaningful.  Events left unmatched are dropped from all statistics: the
post-selected ensemble is the object under study.

The stream policy is the walk of ``stream_window_index``, after
``check_stream_match`` has run its checks.  It takes each station in
time order and goes through the grid from the largest window down, running
stage 1 (see below) at each window only on the events still contested
at every larger window.  An event uncontested among those at
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

A selection is two row-index arrays into a log: coincidence k is row
``rows1[k]`` of station 1 and row ``rows2[k]`` of station 2; no column
is copied.  The paired policy selects rows in pair order (rows1 is
rows2); the stream walk scans each station in time order and reports
its matches at a window in station-1 time order.

The walk takes a run as time-ordered segments and keeps its state per
window across them: the events still to match there, the stack, the
frontier ``p``.  One stored log is one segment, which it sorts whole
with :meth:`StationStream.time_order`.  A generated run comes as
pair-order segments; each is put in time order by merging it with the
rows carried from the segments before (``_time_ordered``).  A pair's
tags lie in [e, e + t0] up to tag rounding and emission times e never
decrease, so no later pair's tag lies below ``events.later_tags_from``
of the segment: the rows up to that bound are released in time order,
and a stable sort with the carried, lower rows first gives the whole
run's ``time_order``.  A window matches a released event once its range
can reach no tag still to come, fl(t + W) below the bound, and its next
event, ``_settle``'s neighbour, is released too; the others wait for the
next segment, and the run's end releases everything.  Station-2 tags
below every range still to come are dropped, as are the rows no event
still uses.

At each window the stream matcher runs in two stages and returns exactly
what one greedy scan over all events returns.  Station-1 event i can
take the station-2 tags in one index range [lo_i, hi_i): from lo_i,
one ``searchsorted`` of fl(t_i - W), to the end of the tags <=
fl(t_i + W).  Stage 1 (``_settle``, vectorised) matches i to
its tag when the range holds exactly one tag and no other event's range
holds it: the scan would give i that tag, since no earlier event can
take it, and i's choice changes no other event's options.  Events with
an empty range are dropped.  Stage 2, the sequential scan, visits only
the remaining (contested) events.  None of their ranges holds a tag
stage 1 matched, so the scan over them makes the choices it would make
over all events.  Stage 1 never computes hi_i: the tags t2[lo_i] and
t2[lo_i + 1], compared with i's bound fl(t_i + W) and t2[lo_i] with
event i - 1's, tell whether the range holds a tag, exactly one, and
one that the range before also holds.  These are the scan's own bounds,
so float rounding and the closed boundary |dt| == window cannot make
the stages disagree.
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
event reaches what is skipped.

A window is one pass over its events in blocks of ``_SCAN_BLOCK``
(2**12): a block runs stage 1, scans its contested events, finds the
first windows of its uncontested matches and is yielded as one group
before the next block starts.  As ``lo`` and ``hi`` never decrease, a
block's contested events reach one slice of t2, from the first one's
``lo`` to the end of the last one's range (one scalar search); the
scan's lists cover that slice and are freed before the next block's are
built, and the stack and ``p`` are rebased onto it.  An uncontested
match's first window is found by one search of the grid for |dt|,
stepped down or up by the scan's own bounds.  Beyond block-sized
temporaries the walk of one stored log holds the sorted station-2 tags
(8 bytes per event) and the two stations' sort orders, each in the
smallest unsigned type that holds its row count (4 bytes per event
below 2**32 rows), 16 bytes per event, and the events a window leaves
contested.  Station 1's tags are gathered per block through its sort
order, and station 2's sorted tags a block at a time, so no intp copy
of a sort order is made.  On 200,000 dense Poisson pairs (numpy 2.4)
the stream sweep of a stored log peaks near 20 traced bytes per event
at W = 1000 and near 46 over 20 windows from 1 to 1000.  The walk of a
generated run's segments holds one segment's rows, sort and released
tags, with 8-byte rows, plus what it carries and the events each
window holds back, a few times the pairs emitted within t0 + W of a
segment's end: its memory does not grow with the run.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Iterable, Sequence
from itertools import count
from typing import Literal

import numpy as np

from .errors import ValidationError
from .events import EventLog, StationStream, later_tags_from

__all__ = [
    "MatchPolicy",
    "check_pair_filter",
    "check_stream_match",
    "pair_window_index",
    "stream_window_index",
]

# "paired" uses pair identity (per-pair window rule); "stream" scans the
# time-tag streams, matching each station-1 event to the nearest
# unmatched station-2 event within the window, earliest first.
MatchPolicy = Literal["paired", "stream"]
_SCAN_BLOCK = 2**12  # events per block of the stream matcher


def check_pair_filter(log: EventLog) -> None:
    """Check that the paired policy can select from ``log``.

    Raises, in this order, unless both streams carry pair ids and the
    two stations' ``pair_id`` columns are equal.
    """
    s1, s2 = log.station1, log.station2
    if s1.pair_id is None or s2.pair_id is None:
        raise ValidationError("per-pair filtering needs pair ids in both streams")
    if s1.pair_id is not s2.pair_id and not np.array_equal(s1.pair_id, s2.pair_id):
        raise ValidationError("mismatched pair_id columns between stations")


def check_stream_match(log: EventLog) -> None:
    """Check that the stream policy can select from ``log``.

    Raises if a time tag is +-inf: at W = inf its range bound fl(t -+ W)
    would be NaN, and the walk needs ranges that shrink as W falls.  A
    NaN tag matches nothing.
    """
    for s in (log.station1, log.station2):
        if np.isinf(s.time_tag).any():
            raise ValidationError(f"station {s.station} has an infinite time tag")


def pair_window_index(log: EventLog, windows: np.ndarray, rows: slice) -> np.ndarray:
    """Per emitted pair in the row range ``rows``, the first window W with |dt| <= W.

    The boundary is closed, a measure-zero choice fixed for
    reproducibility.  ``windows`` must increase strictly, so the first
    window that keeps a pair is the number of windows that do not: the
    index counts down from ``len(windows)``, one for each window with
    |dt| <= W.  A pair no window keeps, a NaN |dt| too, gets
    ``len(windows)``.  The index has the smallest unsigned type that
    holds ``len(windows)`` (uint8 up to 255 windows).  Runs no check:
    call ``check_pair_filter(log)`` once before.
    """
    dt = log.station2.time_tag[rows] - log.station1.time_tag[rows]
    np.abs(dt, out=dt)
    index = np.full(len(dt), len(windows), dtype=np.min_scalar_type(len(windows)))
    kept = np.empty(len(dt), dtype=bool)
    for w in windows:
        index -= np.less_equal(dt, w, out=kept)
    return index


def _settle(t1: np.ndarray, t2: np.ndarray, window: float, a: int, b: int):
    """Stage 1 of the stream matcher on station-1 events a to b: match every uncontested one.

    Event i's candidates are t2[lo[i]:hi[i]], the tags the scan walks,
    with lo[i] from one ``searchsorted`` of fl(t1[i] - W) and hi[i] the
    end of the tags <= fl(t1[i] + W).  It is uncontested when that range
    holds one tag and no other event's range holds that tag.  Returns
    ``(partner, contested, lo)`` over events a to b: ``partner[i]``
    is the tag matched to uncontested event a + i and -1 for every other
    event; ``contested`` marks the events with candidates that are left
    for the scan.  ``t2`` must not be empty.

    ``hi`` is not computed.  As t2 is sorted, the range holds a tag iff
    t2[lo] <= fl(t1 + W), and exactly one iff t2[lo + 1] does not also;
    the range of event i - 1 holds tag lo[i] iff t2[lo[i]] <= its bound.
    So one search and two gathers per event, over events a - 1 to b,
    decide the split.
    """
    n, last = len(t1), len(t2) - 1
    s, e = max(a - 1, 0), min(b + 1, n)  # the events and the ones next to them
    j = np.searchsorted(t2, t1[s:e] - window, side="left")
    end = t1[s:e] + window  # fl(t1 + W); NaN for a NaN tag, whose range is so empty
    tag = t2.take(j, mode="clip")  # t2[j] where j <= last
    has = (j <= last) & (tag <= end)
    alone = has & ~((j < last) & (t2.take(j + 1, mode="clip") <= end))
    # lo and hi never decrease: only events i - 1 and i + 1 can also hold tag lo[i].
    alone[1:] &= ~(tag[1:] <= end[:-1])
    alone[:-1] &= j[1:] > j[:-1]
    block = slice(a - s, b - s)
    lo, has, alone = j[block], has[block], alone[block]
    return np.where(alone, lo, -1), has & ~alone, lo


def _scan(t1: np.ndarray, lo: np.ndarray, t2: np.ndarray, window: float, stack: list, p: int):
    """Stage 2 of the stream matcher over one block's contested events: the scan of the module docstring.

    Event i has tag ``t1[i]`` and the first tag of its range at
    ``t2[lo[i]]``; ``t2`` holds the block's station-2 tags.  ``stack``
    and the frontier ``p`` come from the block before, rebased onto
    ``t2``.  Returns the tag each event takes, -1 for none, and the stack
    and the frontier the next block starts from.  The lists are built
    here, not in the walk: ``tracemalloc`` finds the line of every
    allocation by scanning its function's line table from the start, so
    under tracing each object made deep in the long walk costs several
    times as much as one made here.
    """
    got = np.full(len(t1), -1, dtype=np.intp)
    out = memoryview(got)
    t1l, lo_list, t2l = t1.tolist(), lo.tolist(), t2.tolist()
    t2l.append(math.nan)  # past the block's tags: no comparison holds, so no walk passes it
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
            while b and (left := stack[b - 1]) >= j and not ti - t2l[left] > d:
                b -= 1
            out[i] = stack.pop(b)
        elif t2l[p] <= ti + window:
            out[i] = p
            p += 1
    return got, stack, p


def _first_windows(ta: np.ndarray, tb: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """Per match (ta, tb), the first window of ``lower`` whose range, by the scan's bounds, holds tb, or len(lower).

    ``fl(ta - v) <= tb <= fl(ta + v)`` holds from some window on, as
    both bounds are monotone in v, so that window lies next to the
    number of windows below |tb - ta|: the search's guess steps down
    while the window below holds tb, then up while its own does not.
    """

    def held(at: np.ndarray) -> np.ndarray:  # whether window ``at``, clipped to the grid, holds tb
        v = lower.take(at, mode="clip")
        return (ta - v <= tb) & (tb <= ta + v)

    first = np.searchsorted(lower, np.abs(tb - ta))
    while (down := (first > 0) & held(first - 1)).any():
        first -= down
    while (up := (first < len(lower)) & ~held(first)).any():
        first += up
    return first


def _time_ordered(carried, tags: np.ndarray, first: int, below: float):
    """The carried rows and the rows of ``tags`` in time order, split at the tags a later segment may precede.

    ``carried`` holds time-ordered tags and run rows from earlier
    segments; ``tags[r]`` is the tag of run row ``first + r``.  Ties keep
    run row order: the carried rows, which come first, have the lower
    rows.  Returns the tags and rows up to and including tag ``below``,
    which no later segment's tag lies below, and the rest, which are
    carried on.
    """
    tags = np.concatenate([carried[0], tags])
    rows = np.argsort(tags, kind="stable")
    tags = tags[rows]
    # rows holds positions in the carried rows and then in ``tags``: make them run rows in place.
    n = len(carried[1])
    from_carried = np.flatnonzero(rows < n)
    before = carried[1][rows[from_carried]]
    rows += first - n
    rows[from_carried] = before
    cut = int(np.searchsorted(tags, below, side="right"))
    return (tags[:cut], rows[:cut]), (tags[cut:].copy(), rows[cut:].copy())  # not views of the whole pool


def _rows_from(stream: StationStream, start: int, then: StationStream | None = None) -> StationStream:
    """Rows ``start`` on of ``stream``, followed by every row of ``then``, as a new stream without pair ids."""
    columns = (getattr(stream, n)[start:] for n in ("time_tag", "setting_index", "outcome"))
    if then is None:
        return StationStream(stream.station, *(c.copy() for c in columns))
    if start >= len(stream):
        return then
    return StationStream(stream.station, *(np.concatenate([c, getattr(then, n)])
                                           for c, n in zip(columns, ("time_tag", "setting_index", "outcome"))))


def stream_window_index(log: EventLog | Iterable[EventLog], windows: Sequence[float]):
    """The stream matches at every window of a grid, walked over time-ordered segments, as coincidence groups.

    Works without pair ids; each event takes part in at most one
    coincidence per window.  ``windows`` must increase strictly from 0
    or above, and ``check_stream_match`` must have passed for every
    segment.  ``log`` is one log, which the walk sorts whole, or the
    consecutive pair-order segments of one generated run (see
    ``_time_ordered`` and ``events.later_tags_from``).  Yields groups
    ``(rows1, rows2, start, stop, rows_of)``: coincidence k of a group
    pairs row ``rows1[k]`` of ``rows_of``'s station 1 with row
    ``rows2[k]`` of its station 2 and is a match at ``windows[j]``
    exactly for ``start[k] <= j < stop``.  For one log ``rows_of`` is
    the log, and its rows are unsigned, in the smallest type that holds
    their station's row count; for segments it holds the rows of the
    run still in use, from the oldest segment that one comes from.  The
    grid is walked from the largest window down, one group per block of
    ``_SCAN_BLOCK`` events still contested at every larger window.  At
    window k a block's group holds the matches of both stages, in
    station-1 time order, with ``stop = k + 1``; the events still
    contested go on to window k - 1.
    """
    grid = np.asarray(windows, dtype=float)
    # Per window, the station-1 events to match there, in time order, as run rows.  Once the
    # window has matched events, the first is the last of them, _settle's neighbour of the next.
    queue = [np.empty(0, dtype=np.intp) for _ in grid]
    held = [0] * len(grid)  # per window, 1 once its queue starts with that neighbour
    stacks = [[] for _ in grid]  # per window, the scan's free tags before p, ascending
    frontier = [0] * len(grid)  # per window, the scan's p: no tag at or past it is taken
    # t2 and o2: the time-ordered station-2 tags released so far and their run rows, from tag g2 on.
    # Run row r of station s is row r - first[s] of rows_of.  Indices into t2 are global: t2[i - g2].
    g2, first = 0, [0, 0]

    def walk(below: float):
        """Match every queued event whose range holds no tag at or past ``below`` and whose next event is queued."""
        s1 = rows_of.station1
        for k in range(len(grid) - 1, -1, -1):
            q, a0, w = queue[k], held[k], float(grid[k])
            stop = len(q)
            if below < np.inf:
                # fl(t + W) never decreases, so these events are a prefix; the last waits for its next neighbour.
                reach = bisect_left(range(a0, len(q)), below, key=lambda i: s1.time_tag[q[i] - first[0]] + w)
                stop = min(a0 + reach, len(q) - 1)
            if stop <= a0:
                continue
            rest = []  # per block, the events left contested, which window k - 1 matches again
            for a in range(a0 if len(t2) else stop, stop, _SCAN_BLOCK):  # without tags no event has a candidate
                # t1 holds the block's tags, from t1[j], and the two next to it, which _settle reads.
                j, b = min(a, 1), min(a + _SCAN_BLOCK, stop)
                t1 = s1.time_tag[q[a - j : b + 1] - first[0]]
                partner, contested, lo = _settle(t1, t2, w, j, j + b - a)
                block = np.flatnonzero(contested)
                if len(block):
                    base = int(lo[block[0]])  # no event of this block reaches a tag below its first lo
                    at = g2 + base
                    # The scan reads no station-2 tag past the last event's range.
                    top = int(np.searchsorted(t2, t1[j + block[-1]] + w, side="right"))
                    got, stack, p = _scan(t1[j + block], lo[block] - base, t2[base:top], w,
                                          [s - at for s in stacks[k] if s >= at], max(frontier[k] - at, 0))
                    stacks[k], frontier[k] = [s + at for s in stack], p + at
                    partner[block] = np.where(got >= 0, got + base, -1)
                    if k:  # window 0 is the last
                        rest.append(block + a)
                m = np.flatnonzero(partner >= 0)
                pm = partner[m]
                # A match is kept at k: its own range holds its tag.  An uncontested one is kept from
                # its first window on, where its range first holds its tag.
                start = np.full(len(m), k, dtype=np.intp)
                if k:
                    free = ~contested[m]
                    start[free] = _first_windows(t1[j + m[free]], t2[pm[free]], grid[:k])
                yield q[a + m] - first[0], o2[pm] - first[1], start, k + 1, rows_of
            if rest:
                queue[k - 1] = np.concatenate([queue[k - 1], q[np.concatenate(rest)]])
            queue[k], held[k] = q[stop - 1 :].copy(), 1

    if isinstance(log, EventLog):
        rows_of = log
        s1, s2 = log.station1, log.station2
        queue[-1] = s1.time_order().astype(np.min_scalar_type(len(s1)))
        queue[:-1] = [np.empty(0, dtype=queue[-1].dtype) for _ in grid[1:]]  # rows keep their narrow type
        o2 = s2.time_order().astype(np.min_scalar_type(len(s2)))
        t2 = np.empty(len(o2))
        for a in range(0, len(o2), _SCAN_BLOCK):  # numpy widens a narrow index to intp: a block at a time
            t2[a : a + _SCAN_BLOCK] = s2.time_tag[o2[a : a + _SCAN_BLOCK]]
        del s1, s2
        yield from walk(np.inf)
        return
    rows_of = EventLog(*(StationStream(n, np.empty(0), np.empty(0), np.empty(0)) for n in (1, 2)))
    carried = [(np.empty(0), np.empty(0, dtype=np.intp))] * 2  # per station, the rows not yet released
    t2, o2 = np.empty(0), np.empty(0, dtype=np.intp)
    seen = [0, 0]  # the rows of each station so far
    for segment in log:
        below = later_tags_from(segment)
        rows_of = EventLog(_rows_from(rows_of.station1, 0, segment.station1),
                           _rows_from(rows_of.station2, 0, segment.station2))
        del segment  # its rows live on in rows_of alone
        for s, stream in enumerate((rows_of.station1, rows_of.station2)):
            released, carried[s] = _time_ordered(carried[s], stream.time_tag[seen[s] - first[s]:], seen[s], below)
            seen[s] = first[s] + len(stream)
            if s:
                t2, o2 = np.concatenate([t2, released[0]]), np.concatenate([o2, released[1]])
            else:
                queue[-1] = np.concatenate([queue[-1], released[1]])
        del stream, released
        yield from walk(below)
        # Drop the station-2 tags below every range still to come: the queued events' and later ones'.
        lows = [rows_of.station1.time_tag[q[a0] - first[0]] - w for q, a0, w in zip(queue, held, grid) if len(q) > a0]
        cut = int(np.searchsorted(t2, min([below - grid[-1], *lows]), side="left"))
        t2, o2, g2 = t2[cut:].copy(), o2[cut:].copy(), g2 + cut
        # Keep the rows still in use while the next segment is awaited: carried, queued, or behind a held tag.
        first = [int(min(np.min(rows, initial=seen[s]) for rows in in_use))
                 for s, in_use in enumerate(([carried[0][1], *queue], [carried[1][1], o2]))]
        rows_of = EventLog(*(_rows_from(stream, start - seen[s] + len(stream))
                             for s, (stream, start) in enumerate(zip((rows_of.station1, rows_of.station2), first))))
    # The run has ended: every carried row is released.
    queue[-1] = np.concatenate([queue[-1], carried[0][1]])
    t2, o2 = np.concatenate([t2, carried[1][0]]), np.concatenate([o2, carried[1][1]])
    yield from walk(np.inf)
