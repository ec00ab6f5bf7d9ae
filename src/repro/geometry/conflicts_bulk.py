"""Vectorized conflict-pair kernel over canonical node-pair edges.

:func:`repro.geometry.crossing.build_edge_conflicts` evaluates the
Sec. III-A conflict predicate for every pair of the C(n,2) candidate
ring edges — an O(E²) sweep of scalar L-route crossing checks that
dominates Step-1 model build beyond ~24 nodes.  This module evaluates
the same predicate in bulk: every edge's two L-shaped realizations are
canonicalized into numpy coordinate arrays once, and the
orientation/range/overlap comparisons of
:func:`repro.geometry.segment.classify_intersection` run across whole
batches of candidate pairs at a time.

The kernel replicates the scalar arithmetic exactly — the same ``EPS``
comparisons on the same float values in the same roles — so its output
is byte-identical to the scalar oracle (``tests/test_conflicts_bulk.py``
proves this on seeded sweeps).  The key collapse that makes
vectorization tractable: for *illegality* testing, ``CROSS`` and
``TOUCH`` between perpendicular segments share one formula
(intersection in range and not at an ignored shared terminal), and a
parallel interaction is illegal unless it is a single-point touch at an
ignored terminal.

:class:`SegmentSet` exposes the same batched comparisons for
path-versus-many-paths queries (shortcut feasibility, chord cleanliness,
maze-grid blocking) so Step 2 shares the kernel.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.geometry.point import EPS, Point

#: Node count at or above which :func:`build_edge_conflicts` dispatches
#: to the bulk kernel; below it the scalar path (and its cross-run
#: memo) wins on constant factors.
BULK_THRESHOLD = 12

#: Candidate edge pairs processed per kernel batch, bounding peak
#: temporary-array memory (~30 float64/bool arrays of this length).
_BATCH = 131_072

#: Bounding-box prefilter margin.  Every realization of an edge lies in
#: the edge's endpoint bounding box, and every illegal interaction
#: requires coordinates to meet within ``EPS``, so boxes separated by
#: more than ``EPS`` on either axis cannot conflict; a small multiple
#: keeps the filter conservative against accumulated rounding.
_BOX_MARGIN = 4.0 * EPS


def _edge_arrays(
    points: Sequence[Point], pairs: Sequence[tuple[int, int]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Endpoint, realization-segment, and validity arrays for edges.

    Returns ``(ends, seg, valid)``:

    - ``ends[e] = (ax, ay, bx, by)`` — the edge's terminals;
    - ``seg[e, r, s] = (px, py, qx, qy)`` — segment ``s`` of L-route
      realization ``r`` (0 = vertical-first, 1 = horizontal-first),
      endpoint order matching :func:`repro.geometry.path.l_route`;
    - ``valid[e, r, s]`` — axis-aligned straight edges have a single
      one-segment realization under both realization slots, so their
      second segment slot is masked off.

    Raises ``ValueError`` for degenerate edges (coincident terminals),
    mirroring ``RectilinearPath``'s construction error.
    """
    xs = np.array([p.x for p in points], dtype=np.float64)
    ys = np.array([p.y for p in points], dtype=np.float64)
    ai = np.fromiter((i for i, _ in pairs), dtype=np.intp, count=len(pairs))
    bi = np.fromiter((j for _, j in pairs), dtype=np.intp, count=len(pairs))
    ax, ay, bx, by = xs[ai], ys[ai], xs[bi], ys[bi]

    same_col = np.abs(ax - bx) <= EPS
    same_row = np.abs(ay - by) <= EPS
    if bool(np.any(same_col & same_row)):
        raise ValueError("a path needs at least two distinct points")
    straight = same_col | same_row

    n_edges = len(pairs)
    ends = np.stack([ax, ay, bx, by], axis=1)
    seg = np.empty((n_edges, 2, 2, 4), dtype=np.float64)
    valid = np.ones((n_edges, 2, 2), dtype=bool)
    for r, (cx, cy) in enumerate(((ax, by), (bx, ay))):
        # First leg a -> corner; straight edges collapse to a -> b.
        seg[:, r, 0, 0] = ax
        seg[:, r, 0, 1] = ay
        seg[:, r, 0, 2] = np.where(straight, bx, cx)
        seg[:, r, 0, 3] = np.where(straight, by, cy)
        # Second leg corner -> b, absent for straight edges.
        seg[:, r, 1, 0] = cx
        seg[:, r, 1, 1] = cy
        seg[:, r, 1, 2] = bx
        seg[:, r, 1, 3] = by
        valid[:, r, 1] = ~straight
    return ends, seg, valid


def _segments_illegal(
    s1: np.ndarray,
    s2: np.ndarray,
    ignore: Sequence[tuple[np.ndarray | bool, np.ndarray, np.ndarray]],
) -> np.ndarray:
    """Mask of segment pairs with an illegal interaction.

    ``s1``/``s2`` are ``(m, 4)`` arrays of ``(px, py, qx, qy)`` rows in
    the argument order of ``classify_intersection(s1, s2)``; ``ignore``
    lists ``(active, x, y)`` permitted meeting points (shared
    terminals), where ``active`` masks rows the point applies to.
    """
    p1x, p1y, q1x, q1y = s1[..., 0], s1[..., 1], s1[..., 2], s1[..., 3]
    p2x, p2y, q2x, q2y = s2[..., 0], s2[..., 1], s2[..., 2], s2[..., 3]
    h1 = np.abs(p1y - q1y) <= EPS
    h2 = np.abs(p2y - q2y) <= EPS

    def ignored(px: np.ndarray, py: np.ndarray) -> np.ndarray:
        hit = np.zeros(px.shape, dtype=bool)
        for active, ix, iy in ignore:
            hit |= active & (np.abs(px - ix) <= EPS) & (np.abs(py - iy) <= EPS)
        return hit

    # Perpendicular: intersection candidate (v.fixed, h.fixed) must lie
    # in both ranges; CROSS and TOUCH are equally illegal unless the
    # point is an ignored shared terminal.
    hx_lo = np.where(h1, np.minimum(p1x, q1x), np.minimum(p2x, q2x))
    hx_hi = np.where(h1, np.maximum(p1x, q1x), np.maximum(p2x, q2x))
    hy = np.where(h1, p1y, p2y)
    vx = np.where(h1, p2x, p1x)
    vy_lo = np.where(h1, np.minimum(p2y, q2y), np.minimum(p1y, q1y))
    vy_hi = np.where(h1, np.maximum(p2y, q2y), np.maximum(p1y, q1y))
    in_range = (
        (hx_lo - EPS <= vx)
        & (vx <= hx_hi + EPS)
        & (vy_lo - EPS <= hy)
        & (hy <= vy_hi + EPS)
    )
    illegal_perp = in_range & ~ignored(vx, hy)

    # Parallel: same fixed coordinate and overlapping spans; a
    # positive-length overlap is always illegal, a point touch only
    # when not at an ignored terminal.  The touch point uses s1's fixed
    # coordinate, as in ``_classify_parallel``.
    fixed1 = np.where(h1, p1y, p1x)
    fixed2 = np.where(h2, p2y, p2x)
    lo1 = np.where(h1, np.minimum(p1x, q1x), np.minimum(p1y, q1y))
    hi1 = np.where(h1, np.maximum(p1x, q1x), np.maximum(p1y, q1y))
    lo2 = np.where(h2, np.minimum(p2x, q2x), np.minimum(p2y, q2y))
    hi2 = np.where(h2, np.maximum(p2x, q2x), np.maximum(p2y, q2y))
    lo = np.maximum(lo1, lo2)
    hi = np.minimum(hi1, hi2)
    intersecting = (np.abs(fixed1 - fixed2) <= EPS) & (lo <= hi + EPS)
    pointlike = np.abs(hi - lo) <= EPS
    touch_x = np.where(h1, lo, fixed1)
    touch_y = np.where(h1, fixed1, lo)
    illegal_par = intersecting & (~pointlike | ~ignored(touch_x, touch_y))

    return np.where(h1 != h2, illegal_perp, illegal_par)


def _conflict_mask(
    ends: np.ndarray,
    seg: np.ndarray,
    valid: np.ndarray,
    idx1: np.ndarray,
    idx2: np.ndarray,
) -> np.ndarray:
    """Conflict predicate for a batch of edge-index pairs.

    Edges conflict when every realization pairing has an illegal
    interaction; edges sharing both terminals never conflict (the MILP
    covers that case with the 2-cycle constraint).
    """
    a1x, a1y, b1x, b1y = (ends[idx1, k] for k in range(4))
    a2x, a2y, b2x, b2y = (ends[idx2, k] for k in range(4))
    shared_a = (
        (np.abs(a1x - a2x) <= EPS) & (np.abs(a1y - a2y) <= EPS)
    ) | ((np.abs(a1x - b2x) <= EPS) & (np.abs(a1y - b2y) <= EPS))
    shared_b = (
        (np.abs(b1x - a2x) <= EPS) & (np.abs(b1y - a2y) <= EPS)
    ) | ((np.abs(b1x - b2x) <= EPS) & (np.abs(b1y - b2y) <= EPS))
    ignore = ((shared_a, a1x, a1y), (shared_b, b1x, b1y))

    seg1, valid1 = seg[idx1], valid[idx1]
    seg2, valid2 = seg[idx2], valid[idx2]
    conflict = ~(shared_a & shared_b)
    for r1 in range(2):
        for r2 in range(2):
            pairing_illegal = np.zeros(idx1.shape, dtype=bool)
            for s1 in range(2):
                for s2 in range(2):
                    live = valid1[:, r1, s1] & valid2[:, r2, s2]
                    if not bool(np.any(live & conflict)):
                        continue
                    illegal = _segments_illegal(
                        seg1[:, r1, s1], seg2[:, r2, s2], ignore
                    )
                    pairing_illegal |= illegal & live
            conflict &= pairing_illegal
            if not bool(np.any(conflict)):
                return conflict
    return conflict


def _candidate_pairs(ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Edge-index pairs whose bounding boxes come within ``EPS``.

    Processed in row blocks so the pairwise masks stay bounded in
    memory for large edge counts.
    """
    lo_x = np.minimum(ends[:, 0], ends[:, 2])
    hi_x = np.maximum(ends[:, 0], ends[:, 2])
    lo_y = np.minimum(ends[:, 1], ends[:, 3])
    hi_y = np.maximum(ends[:, 1], ends[:, 3])
    n_edges = ends.shape[0]
    block = max(1, _BATCH // max(1, n_edges))
    chunks1: list[np.ndarray] = []
    chunks2: list[np.ndarray] = []
    for start in range(0, n_edges, block):
        stop = min(start + block, n_edges)
        rows = slice(start, stop)
        near = (
            (lo_x[rows, None] <= hi_x[None, :] + _BOX_MARGIN)
            & (lo_x[None, :] <= hi_x[rows, None] + _BOX_MARGIN)
            & (lo_y[rows, None] <= hi_y[None, :] + _BOX_MARGIN)
            & (lo_y[None, :] <= hi_y[rows, None] + _BOX_MARGIN)
        )
        # Keep only the upper triangle (each unordered pair once).
        near &= np.arange(n_edges)[None, :] > np.arange(start, stop)[:, None]
        r, c = np.nonzero(near)
        chunks1.append(r + start)
        chunks2.append(c)
    if not chunks1:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty
    return np.concatenate(chunks1), np.concatenate(chunks2)


def build_edge_conflicts_bulk(
    points: Sequence[Point],
) -> dict[tuple[int, int], set[tuple[int, int]]]:
    """Bulk-kernel equivalent of the scalar ``build_edge_conflicts``.

    Same contract: keys and members are undirected node pairs
    ``(i, j)`` with ``i < j``, every pair present as a key.  Raises
    ``ValueError`` when two nodes coincide (a degenerate edge), like
    the scalar path.
    """
    n = len(points)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    conflicts: dict[tuple[int, int], set[tuple[int, int]]] = {
        pair: set() for pair in pairs
    }
    if len(pairs) < 2:
        if pairs:
            # Single edge: still surface degenerate input like the oracle.
            _edge_arrays(points, pairs)
        return conflicts

    ends, seg, valid = _edge_arrays(points, pairs)
    idx1, idx2 = _candidate_pairs(ends)
    for start in range(0, idx1.shape[0], _BATCH):
        stop = min(start + _BATCH, idx1.shape[0])
        batch1, batch2 = idx1[start:stop], idx2[start:stop]
        mask = _conflict_mask(ends, seg, valid, batch1, batch2)
        for e1, e2 in zip(batch1[mask].tolist(), batch2[mask].tolist()):
            pair_a, pair_b = pairs[e1], pairs[e2]
            conflicts[pair_a].add(pair_b)
            conflicts[pair_b].add(pair_a)
    return conflicts


def conflicting_edge_pairs(
    points: Sequence[Point],
    edges: Sequence[tuple[int, int]],
) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Conflicting pairs among an explicit undirected edge subset.

    ``edges`` are node-index pairs with ``i < j``.  Used by the lazy
    cutting-plane loop to test an incumbent's selected edges without
    materializing the full conflict dict.  Returns each conflicting
    unordered pair once, in deterministic (input-order) order.
    """
    if len(edges) < 2:
        return []
    ends, seg, valid = _edge_arrays(points, edges)
    m = len(edges)
    iu, ju = np.triu_indices(m, k=1)
    out: list[tuple[tuple[int, int], tuple[int, int]]] = []
    for start in range(0, iu.shape[0], _BATCH):
        stop = min(start + _BATCH, iu.shape[0])
        batch1, batch2 = iu[start:stop], ju[start:stop]
        mask = _conflict_mask(ends, seg, valid, batch1, batch2)
        for e1, e2 in zip(batch1[mask].tolist(), batch2[mask].tolist()):
            out.append((tuple(edges[e1]), tuple(edges[e2])))
    return out


class SegmentSet:
    """Batched axis-aligned segments for path-versus-set queries.

    Stores every segment of a collection of paths as coordinate rows,
    each tagged with the index of the path it came from (its *owner*).
    A query evaluates all of its segments against all stored rows in
    one broadcast :func:`_segments_illegal` call, replicating the scalar
    ``classify_intersection`` arithmetic exactly with the query segment
    in the ``s1`` role (matching ``paths_cross(query, other)``).
    :meth:`add_path` grows the set one owner at a time.
    """

    __slots__ = ("rows", "owners", "paths")

    def __init__(self) -> None:
        self.rows = np.empty((0, 4), dtype=np.float64)
        self.owners = np.empty(0, dtype=np.intp)
        self.paths = 0

    @classmethod
    def from_paths(cls, paths: Iterable) -> "SegmentSet":
        sset = cls()
        for path in paths:
            sset.add_path(path)
        return sset

    @property
    def size(self) -> int:
        return self.rows.shape[0]

    def add_path(self, path) -> None:
        """Store ``path``'s segments under the next owner index."""
        rows = _path_rows(path)
        self.rows = np.concatenate([self.rows, rows])
        self.owners = np.concatenate(
            [self.owners, np.full(rows.shape[0], self.paths, dtype=np.intp)]
        )
        self.paths += 1

    def _illegal(self, query: np.ndarray, ignore: Sequence[Point]) -> np.ndarray:
        """``(len(query), size)`` mask of illegal query-row/stored-row pairs."""
        ign = tuple((True, p.x, p.y) for p in ignore)
        return _segments_illegal(query[:, None, :], self.rows[None, :, :], ign)

    def any_illegal(self, path, ignore: Sequence[Point] = ()) -> bool:
        """True when ``path`` has an illegal interaction with the set.

        Equivalent to ``any(paths_cross(path, other, ignore) for other
        in stored_paths)``.
        """
        if not self.size:
            return False
        return bool(self._illegal(_path_rows(path), ignore).any())

    def illegal_paths(self, paths: Sequence, ignore: Sequence[Point] = ()) -> list[bool]:
        """:meth:`any_illegal` of each query path, in one kernel call."""
        if not self.size or not paths:
            return [False] * len(paths)
        rows = [_path_rows(path) for path in paths]
        hit = self._illegal(np.concatenate(rows), ignore).any(axis=1)
        starts = np.cumsum([0] + [r.shape[0] for r in rows[:-1]])
        return np.logical_or.reduceat(hit, starts).tolist()

    def crossed(self, path, ignore: Sequence[Point] = ()) -> list[int]:
        """Owners with an illegal interaction with ``path``, ascending.

        Equivalent to ``[i for i, other in enumerate(stored_paths) if
        paths_cross(path, other, ignore)]``.
        """
        if not self.size:
            return []
        hit = self._illegal(_path_rows(path), ignore).any(axis=0)
        return np.unique(self.owners[hit]).tolist()

    def proper_crossings(
        self, path, ignore: Sequence[Point] = ()
    ) -> list[Point]:
        """Proper (``CROSS``) intersection points of ``path`` vs the set.

        Touches and overlaps are excluded, as in ``crossing_points``;
        duplicates are *not* merged (callers here only test point
        properties, not counts).  Points come query segment first, then
        stored row.  A proper crossing is an illegal perpendicular pair
        whose meeting point is no endpoint of either segment.
        """
        if not self.size:
            return []
        query = _path_rows(path)
        h1 = np.abs(query[:, 1] - query[:, 3]) <= EPS
        h2 = np.abs(self.rows[:, 1] - self.rows[:, 3]) <= EPS
        candidate = self._illegal(query, ignore) & (h1[:, None] != h2[None, :])
        qi, ri = np.nonzero(candidate)
        if not qi.size:
            return []
        s1, s2, h = query[qi], self.rows[ri], h1[qi]
        # The meeting point: the vertical segment's x, the horizontal's y.
        vx = np.where(h, s2[:, 0], s1[:, 0])
        hy = np.where(h, s1[:, 1], s2[:, 1])
        at_end = np.zeros(qi.shape, dtype=bool)
        for seg in (s1, s2):
            for k in (0, 2):
                at_end |= (np.abs(vx - seg[:, k]) <= EPS) & (
                    np.abs(hy - seg[:, k + 1]) <= EPS
                )
        keep = ~at_end
        return [Point(x, y) for x, y in zip(vx[keep].tolist(), hy[keep].tolist())]


def _path_rows(path) -> np.ndarray:
    """``(segments, 4)`` coordinate rows of a path."""
    return np.array(
        [(s.a.x, s.a.y, s.b.x, s.b.y) for s in path.segments], dtype=np.float64
    ).reshape(-1, 4)
