"""Slow reference matchers that share no code with ``eprsim.coincidence``.

``test_coincidence`` and ``test_analysis`` check the stream matcher and
the stream sweep against them.
"""

import numpy as np

from eprsim import ValidationError


def scan_reference(t1: np.ndarray, t2: np.ndarray, window: float) -> tuple[np.ndarray, np.ndarray]:
    """The single-stage matcher: the union-find scan over every station-1 event.

    Kept verbatim as the reference that ``stream_match``, and the walk of
    ``stream_window_index`` at every window, must reproduce exactly: it
    shares no code with them.  ``t1`` and ``t2`` are sorted; returns the
    matched indices into both, in station-1 order.
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


def stream_reference(log, window: float) -> tuple[np.ndarray, np.ndarray]:
    """``scan_reference`` on a log: each station in time order, matches mapped back to rows.

    Returns the station-1 and station-2 rows of every coincidence, in
    station-1 time order, and raises for a window that ``stream_match``
    rejects, with its message.
    """
    if not (window >= 0):
        raise ValidationError(f"window must be >= 0, got {window}")
    o1, o2 = log.station1.time_order(), log.station2.time_order()
    m1, m2 = scan_reference(log.station1.time_tag[o1], log.station2.time_tag[o2], window)
    return o1[m1], o2[m2]
