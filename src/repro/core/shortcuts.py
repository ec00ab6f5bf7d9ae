"""Step 2: shortcut construction (Sec. III-B).

Nodes that are physically close but far apart along the ring get a
chord ("shortcut") connecting their senders and receivers directly.  A
shortcut between ``n_i`` and ``n_j`` is *feasible* when an L-shaped
path between the two nodes crosses no ring waveguide; its *gain* is
``min(len_cw, len_ccw) - len_shortcut``.  Shortcuts are selected
greedily by gain, subject to:

- at most one shortcut per node;
- a shortcut may cross at most one other shortcut — the crossing is
  then implemented with crossing switching elements, which additionally
  route the two "inner" node pairs (Fig. 7), provided that also pays a
  positive gain.

Selection is best-first.  Every demanded pair enters a heap keyed by
the upper bound ``min(len_cw, len_ccw) - manhattan + 1e-9`` on its
gain: no rectilinear chord is shorter than the Manhattan distance, and
the pad absorbs the summation-order rounding of L and staircase
lengths.  A pair is scored (feasible realizations, else a maze chord)
only when it reaches the top with both nodes still free, and then goes
back in under its exact gain; an exactly scored pair on top outranks
every bound below it, so pairs are selected in exactly the order of
scoring all of them and sorting by ``(-gain, a, b)`` — ties break on
the node indices in both.  ``selection="ring_length"`` puts
``-best_ring`` in front of the same keys.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass, field

from repro.geometry import (
    Point,
    RectilinearPath,
    SegmentSet,
    crossing_points,
    l_routes,
)
from repro.core.ring import RingTour
from repro.obs import get_obs
from repro.robustness.errors import ConfigurationError


class LegDirection(enum.Enum):
    """Which of a shortcut's two waveguides a route leg uses."""

    FORWARD = "forward"  # node_a -> node_b
    BACKWARD = "backward"  # node_b -> node_a


@dataclass(frozen=True)
class ShortcutLeg:
    """One leg of a shortcut-served route, in waveguide coordinates.

    ``start_mm``/``end_mm`` are distances along the chosen waveguide of
    shortcut ``shortcut_index`` in its propagation direction.
    """

    shortcut_index: int
    direction: LegDirection
    start_mm: float
    end_mm: float


@dataclass(frozen=True)
class Shortcut:
    """A selected shortcut chord between two ring nodes.

    ``path`` runs from ``node_a``'s position to ``node_b``'s; the
    physical implementation is a pair of parallel waveguides (one per
    direction) sharing this geometry.  ``partner`` is the index of the
    one shortcut this one crosses (or ``None``), and
    ``crossing_point``/``crossing_dist_mm`` locate the CSE.
    """

    node_a: int
    node_b: int
    path: RectilinearPath
    gain_mm: float
    partner: int | None = None
    crossing_point: Point | None = None
    crossing_dist_mm: float | None = None

    @property
    def length_mm(self) -> float:
        """Physical length of the shortcut waveguides."""
        return self.path.length


@dataclass
class ShortcutPlan:
    """The selected shortcuts and every node pair they serve.

    ``served`` maps ordered pairs ``(src, dst)`` to the leg sequence
    implementing them (one leg for direct shortcut signals, two legs
    joined at a CSE for merged signals).
    """

    shortcuts: list[Shortcut] = field(default_factory=list)
    served: dict[tuple[int, int], tuple[ShortcutLeg, ...]] = field(
        default_factory=dict
    )

    @property
    def crossing_pairs(self) -> list[tuple[int, int]]:
        """Indices of shortcut pairs that cross (each listed once)."""
        pairs = []
        for idx, shortcut in enumerate(self.shortcuts):
            if shortcut.partner is not None and shortcut.partner > idx:
                pairs.append((idx, shortcut.partner))
        return pairs


def copy_plan(plan: ShortcutPlan) -> ShortcutPlan:
    """A defensively copied plan, safe to hand to callers.

    The synthesis cache serves plans to fault-injected runs whose
    corruptions replace list/dict entries in place; fresh containers
    keep the cached original pristine (the :class:`Shortcut` and
    :class:`ShortcutLeg` elements themselves are frozen).
    """
    return ShortcutPlan(shortcuts=list(plan.shortcuts), served=dict(plan.served))


def _distance_along(path: RectilinearPath, point: Point) -> float:
    """Distance from the path start to a point lying on the path."""
    travelled = 0.0
    for seg in path.segments:
        if seg.contains_point(point):
            return travelled + seg.a.manhattan(point)
        travelled += seg.length
    raise ValueError(f"point {point} not on path {path}")


def _staircase_candidates(pa: Point, pb: Point) -> list[RectilinearPath]:
    """Monotone staircase chords (same Manhattan length as an L).

    Distant node pairs often have both plain L-shapes blocked by the
    ring, while a two-bend staircase through the ring interior is
    clear; trying a few split fractions costs nothing in length.
    """
    if abs(pa.x - pb.x) <= 1e-9 or abs(pa.y - pb.y) <= 1e-9:
        return []
    candidates = []
    for fraction in (0.5, 0.25, 0.75):
        y_mid = pa.y + (pb.y - pa.y) * fraction
        x_mid = pa.x + (pb.x - pa.x) * fraction
        candidates.append(
            RectilinearPath((pa, Point(pa.x, y_mid), Point(pb.x, y_mid), pb))
        )
        candidates.append(
            RectilinearPath((pa, Point(x_mid, pa.y), Point(x_mid, pb.y), pb))
        )
    return candidates


def _chord_is_clean(
    tour: RingTour,
    chord: RectilinearPath,
    pa: Point,
    pb: Point,
    ring_set: SegmentSet | None = None,
) -> bool:
    """True if the chord crosses the ring only within its attach zones.

    Grid snapping lets a maze chord approach the ring within half a
    routing pitch of its terminals; proper crossings there correspond
    to the physical attachment taps, anything farther out is a real
    illegal crossing.  ``ring_set`` optionally pre-batches the ring
    segments so repeat queries share one :class:`SegmentSet`.
    """
    if ring_set is None:
        ring_set = SegmentSet.from_paths(tour.edge_paths)
    for point in ring_set.proper_crossings(chord, ignore=(pa, pb)):
        if point.manhattan(pa) > 0.5 and point.manhattan(pb) > 0.5:
            return False
    return True


def _feasible_realizations(
    tour: RingTour,
    node_a: int,
    node_b: int,
    ring_set: SegmentSet | None = None,
) -> list[RectilinearPath]:
    """Chord realizations (L or staircase) crossing no ring waveguide."""
    pa = tour.points[node_a]
    pb = tour.points[node_b]
    if ring_set is None:
        ring_set = SegmentSet.from_paths(tour.edge_paths)
    candidates = list(l_routes(pa, pb)) + _staircase_candidates(pa, pb)
    illegal = ring_set.illegal_paths(candidates, ignore=(pa, pb))
    return [c for c, bad in zip(candidates, illegal) if not bad]


class _ChordMaze:
    """Grid A* that finds chords avoiding the ring curve.

    The ring is a simple closed rectilinear curve, so the region it
    encloses is connected and *some* crossing-free chord always exists
    between two ring nodes (Jordan curve theorem) — it just may need
    more bends than an L or a staircase.  The maze router finds a
    near-shortest one; its real routed length (not the Manhattan
    distance) then feeds the gain function.

    Grid vertex ``(ix, iy)`` has the flat id ``ix * ny + iy``, so id
    order is the lexicographic ``(ix, iy)`` order the heap breaks ties
    by.  An undirected grid edge has the integer key ``2 * id + o`` of
    its lower vertex, with ``o = 0`` for an x-step and ``1`` for a
    y-step; ``_mask`` holds one byte per key (1 = crosses the ring) and
    ``_obstacle_mask`` additionally blocks the edges of every path
    handed to :meth:`add_obstacles` (``obstacle_paths`` of them).
    Each mask keeps the connected-component labels of its open edges,
    so a chord whose terminals lie in different components is refused
    without a search.  ``calls``, ``unreachable`` and ``expansions``
    count chord requests, requests refused by the labels and vertex
    expansions — host-independent work counters for the metrics.
    """

    _PITCH = 0.2

    def __init__(self, tour: RingTour) -> None:
        self.tour = tour
        points = [p for path in tour.edge_paths for p in path.points]
        xs = [p.x for p in points]
        ys = [p.y for p in points]
        margin = 0.6
        self.x0 = min(xs) - margin
        self.y0 = min(ys) - margin
        self.nx = int(round((max(xs) - min(xs) + 2 * margin) / self._PITCH)) + 1
        self.ny = int(round((max(ys) - min(ys) + 2 * margin) / self._PITCH)) + 1
        # Vertex coordinate tables share the exact expression of
        # ``_vertex_point`` so scalar lookups in the A* inner loop are
        # bit-identical to constructing the Point.
        self._xc = [self.x0 + i * self._PITCH for i in range(self.nx)]
        self._yc = [self.y0 + j * self._PITCH for j in range(self.ny)]
        self._mask = bytearray(2 * self.nx * self.ny)
        for key in self.blocked_by_paths(tour.edge_paths):
            self._mask[key] = 1
        self._labels = self._components(self._mask)
        self._obstacle_mask = bytearray(self._mask)
        self._obstacle_labels: list[int] | None = self._labels
        self.obstacle_paths = 0
        self._ix_of = [v // self.ny for v in range(self.nx * self.ny)]
        self._iy_of = [v % self.ny for v in range(self.nx * self.ny)]
        self.calls = 0
        self.unreachable = 0
        self.expansions = 0

    def _vertex_point(self, v: int) -> Point:
        return Point(self._xc[self._ix_of[v]], self._yc[self._iy_of[v]])

    def _snap(self, p: Point) -> tuple[int, int]:
        ix = min(max(int(round((p.x - self.x0) / self._PITCH)), 0), self.nx - 1)
        iy = min(max(int(round((p.y - self.y0) / self._PITCH)), 0), self.ny - 1)
        return (ix, iy)

    def _components(self, mask: bytearray) -> list[int]:
        """Connected-component label of every vertex over open edges."""
        import numpy as np
        from scipy.sparse import coo_matrix
        from scipy.sparse.csgraph import connected_components

        nx, ny = self.nx, self.ny
        open_edges = np.frombuffer(mask, dtype=np.uint8).reshape(nx, ny, 2) == 0
        ids = np.arange(nx * ny).reshape(nx, ny)
        x_open = open_edges[:-1, :, 0]
        y_open = open_edges[:, :-1, 1]
        rows = np.concatenate([ids[:-1, :][x_open], ids[:, :-1][y_open]])
        cols = np.concatenate([ids[1:, :][x_open], ids[:, 1:][y_open]])
        graph = coo_matrix(
            (np.ones(rows.shape[0], dtype=np.int8), (rows, cols)),
            shape=(nx * ny, nx * ny),
        )
        return connected_components(graph, directed=False)[1].tolist()

    def blocked_by_paths(self, paths) -> set[int]:
        """Keys of the grid edges intersecting any segment of the paths.

        A grid edge is blocked on *any* non-disjoint interaction with a
        path segment — exactly the illegality predicate of the bulk
        geometry kernel with no ignored points, so the window of grid
        edges around each segment is classified in one vectorized call
        instead of a Python loop per cell.  The result is the union of
        the per-path results, so obstacle sets can grow path by path.
        """
        import numpy as np

        from repro.geometry.conflicts_bulk import _segments_illegal

        pitch = self._PITCH
        gx_parts: list[np.ndarray] = []
        gy_parts: list[np.ndarray] = []
        dx_parts: list[np.ndarray] = []
        dy_parts: list[np.ndarray] = []
        s2_parts: list[np.ndarray] = []
        for path in paths:
            for seg in path.segments:
                lo_ix = max(int((min(seg.a.x, seg.b.x) - self.x0) / pitch) - 1, 0)
                hi_ix = min(int((max(seg.a.x, seg.b.x) - self.x0) / pitch) + 2, self.nx - 1)
                lo_iy = max(int((min(seg.a.y, seg.b.y) - self.y0) / pitch) - 1, 0)
                hi_iy = min(int((max(seg.a.y, seg.b.y) - self.y0) / pitch) + 2, self.ny - 1)
                ixs = np.arange(lo_ix, hi_ix + 1)
                iys = np.arange(lo_iy, hi_iy + 1)
                s2 = np.array(
                    [seg.a.x, seg.a.y, seg.b.x, seg.b.y], dtype=np.float64
                )
                for dx, dy in ((1, 0), (0, 1)):
                    exs = ixs[ixs + dx <= self.nx - 1]
                    eys = iys[iys + dy <= self.ny - 1]
                    if exs.size == 0 or eys.size == 0:
                        continue
                    gx = np.repeat(exs, eys.size)
                    gy = np.tile(eys, exs.size)
                    gx_parts.append(gx)
                    gy_parts.append(gy)
                    dx_parts.append(np.full(gx.shape[0], dx, dtype=np.int64))
                    dy_parts.append(np.full(gx.shape[0], dy, dtype=np.int64))
                    s2_parts.append(np.broadcast_to(s2, (gx.shape[0], 4)))
        if not gx_parts:
            return set()
        gx = np.concatenate(gx_parts)
        gy = np.concatenate(gy_parts)
        dxs = np.concatenate(dx_parts)
        dys = np.concatenate(dy_parts)
        # Vertex coordinates via the same arithmetic as
        # ``_vertex_point`` so comparisons are bit-identical.
        s1 = np.empty((gx.shape[0], 4), dtype=np.float64)
        s1[:, 0] = self.x0 + gx * pitch
        s1[:, 1] = self.y0 + gy * pitch
        s1[:, 2] = self.x0 + (gx + dxs) * pitch
        s1[:, 3] = self.y0 + (gy + dys) * pitch
        hit = _segments_illegal(s1, np.concatenate(s2_parts, axis=0), ())
        keys = (gx * self.ny + gy) * 2 + dys
        return set(keys[hit].tolist())

    def add_obstacles(self, paths) -> None:
        """Block the grid edges of ``paths`` for ``avoid_obstacles`` chords."""
        paths = list(paths)
        for key in self.blocked_by_paths(paths):
            self._obstacle_mask[key] = 1
        self.obstacle_paths += len(paths)
        self._obstacle_labels = None

    def _terminal_zone(self, pa: Point, pb: Point) -> list[int]:
        """Vertices within 0.45 mm (Manhattan) of ``pa`` or ``pb``, where
        the chord must be free to leave or enter the node: every edge
        touching one is open for the chord.  Only a small window around
        each snapped terminal can qualify (0.45 mm is under three
        pitches).
        """
        xc, yc, nx, ny = self._xc, self._yc, self.nx, self.ny
        zone = []
        for p in (pa, pb):
            cx, cy = self._snap(p)
            for ix in range(max(cx - 4, 0), min(cx + 5, nx)):
                dx = abs(xc[ix] - p.x)
                for iy in range(max(cy - 4, 0), min(cy + 5, ny)):
                    if dx + abs(yc[iy] - p.y) <= 0.45:
                        zone.append(ix * ny + iy)
        return zone

    def _connected(
        self, labels: list[int], start: int, goal: int, zone: list[int]
    ) -> bool:
        """Whether ``goal`` is reachable from ``start`` once the zone's
        edges are open.

        The open graph of one chord is the mask's open edges plus every
        edge touching a zone vertex, so its components are the labelled
        ones merged across those edges — a union over a few dozen labels
        answers exactly what a failed A* search would only after
        flooding the whole component.
        """
        root: dict[int, int] = {}

        def find(c: int) -> int:
            while c in root:
                c = root[c]
            return c

        nx, ny = self.nx, self.ny
        ix_of, iy_of = self._ix_of, self._iy_of
        for v in zone:
            lv = find(labels[v])
            vx, vy = ix_of[v], iy_of[v]
            for w, ok in (
                (v + ny, vx + 1 < nx),
                (v - ny, vx > 0),
                (v + 1, vy + 1 < ny),
                (v - 1, vy > 0),
            ):
                if ok:
                    lw = find(labels[w])
                    if lw != lv:
                        root[lw] = lv
        return find(labels[start]) == find(labels[goal])

    def chord(
        self,
        pa: Point,
        pb: Point,
        *,
        avoid_obstacles: bool = False,
    ) -> RectilinearPath | None:
        """A near-shortest crossing-free chord from ``pa`` to ``pb``.

        Grid edges touching the terminal zones are unblocked so the
        chord can leave/enter the node where it sits on the ring.
        ``avoid_obstacles`` also treats the paths handed to
        :meth:`add_obstacles` (already-selected shortcuts the new chord
        must not cross) as obstacles.  ``None`` when the terminals snap
        to one vertex or no chord exists.
        """
        (sx, sy), (gx, gy) = self._snap(pa), self._snap(pb)
        if (sx, sy) == (gx, gy):
            return None
        self.calls += 1
        nx, ny, pitch = self.nx, self.ny, self._PITCH
        nv = nx * ny
        start, goal = sx * ny + sy, gx * ny + gy
        mask, labels = self._mask, self._labels
        if avoid_obstacles:
            if self._obstacle_labels is None:
                self._obstacle_labels = self._components(self._obstacle_mask)
            mask, labels = self._obstacle_mask, self._obstacle_labels
        zone = self._terminal_zone(pa, pb)
        if not self._connected(labels, start, goal, zone):
            self.unreachable += 1
            return None
        blocked = bytearray(mask)
        for v in zone:
            key = 2 * v
            blocked[key] = blocked[key + 1] = 0
            if v >= ny:
                blocked[key - 2 * ny] = 0
            if v % ny:
                blocked[key - 1] = 0
        # Heuristic terms stay separate so ``cost + hx + hy`` rounds
        # exactly like the per-coordinate expression it replaces.
        gpx, gpy = self._xc[gx], self._yc[gy]
        hx = [abs(x - gpx) for x in self._xc]
        hy = [abs(y - gpy) for y in self._yc]
        ix_of, iy_of = self._ix_of, self._iy_of
        inf = float("inf")
        best = [inf] * nv
        best[start] = 0.0
        # Cost each vertex was last expanded at.  Heap entries are not
        # closed off, but popping a vertex whose cost has not dropped
        # since its last expansion would relax nothing, so it is skipped.
        expanded = [inf] * nv
        parent = [-1] * nv
        heap = [(hx[sx] + hy[sy], start)]
        pop, push = heapq.heappop, heapq.heappush
        expansions = 0
        found = False
        while heap:
            v = pop(heap)[1]
            if v == goal:
                found = True
                break
            here = best[v]
            if expanded[v] == here:
                continue
            expanded[v] = here
            expansions += 1
            vx, vy = ix_of[v], iy_of[v]
            cost = here + pitch
            key = 2 * v
            if vx + 1 < nx:
                w = v + ny
                if cost < best[w] and not blocked[key]:
                    best[w] = cost
                    parent[w] = v
                    push(heap, (cost + hx[vx + 1] + hy[vy], w))
            if vx > 0:
                w = v - ny
                if cost < best[w] and not blocked[key - 2 * ny]:
                    best[w] = cost
                    parent[w] = v
                    push(heap, (cost + hx[vx - 1] + hy[vy], w))
            if vy + 1 < ny:
                w = v + 1
                if cost < best[w] and not blocked[key + 1]:
                    best[w] = cost
                    parent[w] = v
                    push(heap, (cost + hx[vx] + hy[vy + 1], w))
            if vy > 0:
                w = v - 1
                if cost < best[w] and not blocked[key - 1]:
                    best[w] = cost
                    parent[w] = v
                    push(heap, (cost + hx[vx] + hy[vy - 1], w))
        self.expansions += expansions
        if not found:
            return None
        vertices = [goal]
        v = goal
        while parent[v] >= 0:
            v = parent[v]
            vertices.append(v)
        vertices.reverse()
        points = [pa]
        first = self._vertex_point(vertices[0])
        points.append(Point(pa.x, first.y))
        points.extend(self._vertex_point(v) for v in vertices)
        last = self._vertex_point(vertices[-1])
        points.append(Point(pb.x, last.y))
        points.append(pb)
        return _simplify(points)


def _simplify(points: list[Point]) -> RectilinearPath:
    """Drop redundant collinear vertices and build the path."""
    cleaned: list[Point] = []
    for p in points:
        if cleaned and cleaned[-1].almost_equals(p):
            continue
        while len(cleaned) >= 2:
            a, b = cleaned[-2], cleaned[-1]
            same_col = abs(a.x - b.x) <= 1e-9 and abs(b.x - p.x) <= 1e-9
            same_row = abs(a.y - b.y) <= 1e-9 and abs(b.y - p.y) <= 1e-9
            if same_col or same_row:
                cleaned.pop()
            else:
                break
        cleaned.append(p)
    return RectilinearPath(cleaned)


def _ring_gain(tour: RingTour, node_a: int, node_b: int, chord_mm: float) -> float:
    """Gain of serving (a, b) on the chord instead of the ring."""
    best_ring = min(
        tour.cw_distance(node_a, node_b), tour.ccw_distance(node_a, node_b)
    )
    return best_ring - chord_mm


def select_shortcuts(
    tour: RingTour,
    *,
    enabled: bool = True,
    max_shortcuts: int | None = None,
    loss=None,
    selection: str = "gain",
    demands: tuple[tuple[int, int], ...] | None = None,
) -> ShortcutPlan:
    """Greedy gain-driven shortcut selection with CSE merging.

    ``enabled=False`` returns an empty plan (used by the shortcut
    ablation study and by the ring baselines, which have no shortcuts).
    ``loss`` (a :class:`~repro.photonics.parameters.LossParameters`)
    makes the merge decisions loss-aware, per the paper's "only
    introduce shortcuts when they benefit the network performance":
    a CSE-merged inner pair costs one extra drop, so it is only served
    when its propagation savings exceed the drop loss, and a crossing
    between shortcuts is only accepted when the merged pairs' benefit
    outweighs the crossing loss imposed on the direct signals.
    ``selection`` orders the greedy pass: ``"gain"`` (the paper's rule:
    largest length saving first) or ``"ring_length"`` (longest-suffering
    pair first — attacks the worst-case path directly; exposed for the
    ablation study).  ``demands`` restricts candidates and served pairs
    to actual communication demands (``None`` means all-to-all, the
    paper's traffic).
    """
    if selection not in ("gain", "ring_length"):
        raise ConfigurationError(
            f"unknown selection policy {selection!r}", stage="shortcuts"
        )
    plan = ShortcutPlan()
    if not enabled:
        return plan

    n = tour.size
    points = tour.points
    demand_set = set(demands) if demands is not None else None
    maze: _ChordMaze | None = None
    ring_set = SegmentSet.from_paths(tour.edge_paths)
    # Heap entries are (primary, -bound or -gain, a, b, realizations);
    # ``primary`` is -best_ring under "ring_length" and 0 otherwise.
    # ``realizations`` is None until the pair is evaluated, and then
    # the bound is replaced by the exact gain.  No chord is shorter
    # than the Manhattan distance, so ``bound`` never undercuts a gain
    # and an evaluated entry on top outranks every pair still below
    # (see the module docstring).
    heap: list[tuple[float, float, int, int, list[RectilinearPath] | None]] = []
    for node_a in range(n):
        for node_b in range(node_a + 1, n):
            if demand_set is not None and not (
                (node_a, node_b) in demand_set or (node_b, node_a) in demand_set
            ):
                continue
            best_ring = min(
                tour.cw_distance(node_a, node_b), tour.ccw_distance(node_a, node_b)
            )
            bound = best_ring - points[node_a].manhattan(points[node_b]) + 1e-9
            if bound > 1e-9:
                primary = -best_ring if selection == "ring_length" else 0.0
                heap.append((primary, -bound, node_a, node_b, None))
    heapq.heapify(heap)

    pairs_evaluated = gain_evaluations = candidates = obstacle_rebuilds = 0
    # The selected shortcuts' segments, owner-tagged by plan index; a
    # shortcut's path never changes once selected, only its partner.
    shortcut_set = SegmentSet()
    used_nodes: set[int] = set()
    while heap:
        if max_shortcuts is not None and len(plan.shortcuts) >= max_shortcuts:
            break
        primary, neg_gain, node_a, node_b, realizations = heapq.heappop(heap)
        if node_a in used_nodes or node_b in used_nodes:
            continue
        pa, pb = points[node_a], points[node_b]
        if realizations is None:
            pairs_evaluated += 1
            realizations = _feasible_realizations(tour, node_a, node_b, ring_set)
            if not realizations:
                # No straight chord exists; a maze-routed one always
                # does (the ring interior is connected) — try it when
                # the pair stands to gain substantially.
                best_ring = min(
                    tour.cw_distance(node_a, node_b),
                    tour.ccw_distance(node_a, node_b),
                )
                if best_ring - pa.manhattan(pb) < 0.25 * best_ring:
                    continue
                if maze is None:
                    maze = _ChordMaze(tour)
                chord = maze.chord(pa, pb)
                if chord is None or not _chord_is_clean(
                    tour, chord, pa, pb, ring_set
                ):
                    continue
                realizations = [chord]
            gain = _ring_gain(tour, node_a, node_b, realizations[0].length)
            gain_evaluations += 1
            if gain > 1e-9:
                candidates += 1
                heapq.heappush(heap, (primary, -gain, node_a, node_b, realizations))
            continue

        gain = -neg_gain
        chosen = _choose_realization(plan, shortcut_set, realizations)
        if chosen is None:
            # Every stored realization tangles with selected shortcuts;
            # try a fresh maze chord that treats them as obstacles.
            if maze is None:
                maze = _ChordMaze(tour)
            if maze.obstacle_paths < len(plan.shortcuts):
                maze.add_obstacles(
                    s.path for s in plan.shortcuts[maze.obstacle_paths :]
                )
                obstacle_rebuilds += 1
            retry = maze.chord(pa, pb, avoid_obstacles=True)
            if retry is None or _ring_gain(tour, node_a, node_b, retry.length) <= 1e-9:
                continue
            if not _chord_is_clean(tour, retry, pa, pb, ring_set):
                continue
            if shortcut_set.any_illegal(retry):
                continue
            gain = _ring_gain(tour, node_a, node_b, retry.length)
            chosen = (retry, None)
        path, partner = chosen
        if partner is not None and loss is not None:
            if not _crossing_is_worth_it(
                tour, plan.shortcuts[partner], node_a, node_b, path, loss
            ):
                # Try a crossing-free realization instead, else skip.
                clean = [
                    r
                    for r, bad in zip(
                        realizations, shortcut_set.illegal_paths(realizations)
                    )
                    if not bad
                ]
                if not clean:
                    continue
                path, partner = clean[0], None
        index = len(plan.shortcuts)
        shortcut = Shortcut(node_a, node_b, path, gain)
        if partner is not None:
            other = plan.shortcuts[partner]
            point = crossing_points(path, other.path)[0]
            shortcut = Shortcut(
                node_a,
                node_b,
                path,
                gain,
                partner=partner,
                crossing_point=point,
                crossing_dist_mm=_distance_along(path, point),
            )
            plan.shortcuts[partner] = Shortcut(
                other.node_a,
                other.node_b,
                other.path,
                other.gain_mm,
                partner=index,
                crossing_point=point,
                crossing_dist_mm=_distance_along(other.path, point),
            )
        plan.shortcuts.append(shortcut)
        shortcut_set.add_path(path)
        used_nodes.update((node_a, node_b))

    _register_served_pairs(plan, tour, loss, demand_set)
    metrics = get_obs().metrics
    metrics.counter("shortcuts.pairs_evaluated").inc(pairs_evaluated)
    metrics.counter("shortcuts.gain_evaluations").inc(gain_evaluations)
    metrics.counter("shortcuts.candidates").inc(candidates)
    metrics.counter("shortcuts.obstacle_rebuilds").inc(obstacle_rebuilds)
    metrics.counter("shortcuts.maze.calls").inc(maze.calls if maze else 0)
    metrics.counter("shortcuts.maze.unreachable").inc(maze.unreachable if maze else 0)
    metrics.counter("shortcuts.maze.expansions").inc(maze.expansions if maze else 0)
    metrics.counter("shortcuts.selected").inc(len(plan.shortcuts))
    metrics.counter("shortcuts.served_pairs").inc(len(plan.served))
    return plan


def _cse_benefit_db(tour: RingTour, src: int, dst: int, route_mm: float, loss) -> float:
    """dB benefit of serving (src, dst) through a CSE-merged route.

    The merged route saves propagation over the best ring arc but
    costs one extra MRR drop at the CSE.
    """
    best_ring = min(tour.cw_distance(src, dst), tour.ccw_distance(src, dst))
    saved_mm = best_ring - route_mm
    saved_db = (
        loss.propagation(saved_mm) if saved_mm >= 0 else -loss.propagation(-saved_mm)
    )
    return saved_db - loss.drop_db


def _crossing_is_worth_it(
    tour: RingTour,
    other: Shortcut,
    node_a: int,
    node_b: int,
    path: RectilinearPath,
    loss,
) -> bool:
    """Decide whether crossing ``other`` pays off in dB terms.

    Costs: the four direct signals (both directions of both shortcuts)
    each traverse one new crossing.  Gains: the merged inner pairs that
    would clear the per-pair benefit bar.
    """
    points = crossing_points(path, other.path)
    if not points:
        return False
    d_new = _distance_along(path, points[0])
    d_other = _distance_along(other.path, points[0])
    len_new, len_other = path.length, other.path.length
    candidate_routes = [
        (node_a, other.node_b, d_new + (len_other - d_other)),
        (other.node_b, node_a, d_new + (len_other - d_other)),
        (other.node_a, node_b, d_other + (len_new - d_new)),
        (node_b, other.node_a, d_other + (len_new - d_new)),
    ]
    gain = sum(
        max(0.0, _cse_benefit_db(tour, src, dst, route_mm, loss))
        for src, dst, route_mm in candidate_routes
    )
    cost = 4 * loss.crossing_db
    return gain > cost


def _choose_realization(
    plan: ShortcutPlan,
    shortcut_set: SegmentSet,
    realizations: list[RectilinearPath],
) -> tuple[RectilinearPath, int | None] | None:
    """Pick a realization crossing at most one partner-free shortcut.

    Prefers a crossing-free realization; otherwise one crossing exactly
    one already-selected shortcut that has no partner yet.  Returns
    ``None`` when every realization violates the crossing budget.
    ``shortcut_set`` holds ``plan.shortcuts``' paths owner-tagged by
    index.
    """
    best: tuple[RectilinearPath, int | None] | None = None
    for candidate in realizations:
        crossed = shortcut_set.crossed(candidate)
        if not crossed:
            return candidate, None
        if len(crossed) == 1 and plan.shortcuts[crossed[0]].partner is None:
            proper = crossing_points(candidate, plan.shortcuts[crossed[0]].path)
            if proper and best is None:
                best = (candidate, crossed[0])
    return best


def _register_served_pairs(
    plan: ShortcutPlan, tour: RingTour, loss=None, demand_set=None
) -> None:
    """Record every demanded node pair the plan serves, with leg geometry."""

    def demanded(src: int, dst: int) -> bool:
        return demand_set is None or (src, dst) in demand_set

    for idx, shortcut in enumerate(plan.shortcuts):
        a, b = shortcut.node_a, shortcut.node_b
        length = shortcut.length_mm
        if demanded(a, b):
            plan.served[(a, b)] = (
                ShortcutLeg(idx, LegDirection.FORWARD, 0.0, length),
            )
        if demanded(b, a):
            plan.served[(b, a)] = (
                ShortcutLeg(idx, LegDirection.BACKWARD, 0.0, length),
            )

    for idx1, idx2 in plan.crossing_pairs:
        s1 = plan.shortcuts[idx1]
        s2 = plan.shortcuts[idx2]
        assert s1.crossing_dist_mm is not None
        assert s2.crossing_dist_mm is not None
        d1, d2 = s1.crossing_dist_mm, s2.crossing_dist_mm
        len1, len2 = s1.length_mm, s2.length_mm
        # Merged "inner" pairs (Fig. 7): (s1.a, s2.b) and (s2.a, s1.b),
        # each in both directions, provided the CSE route still beats
        # the ring.
        merged = [
            # src, dst, first (shortcut, dir, start, end), second leg
            (
                s1.node_a,
                s2.node_b,
                ShortcutLeg(idx1, LegDirection.FORWARD, 0.0, d1),
                ShortcutLeg(idx2, LegDirection.FORWARD, d2, len2),
            ),
            (
                s2.node_b,
                s1.node_a,
                ShortcutLeg(idx2, LegDirection.BACKWARD, 0.0, len2 - d2),
                ShortcutLeg(idx1, LegDirection.BACKWARD, len1 - d1, len1),
            ),
            (
                s2.node_a,
                s1.node_b,
                ShortcutLeg(idx2, LegDirection.FORWARD, 0.0, d2),
                ShortcutLeg(idx1, LegDirection.FORWARD, d1, len1),
            ),
            (
                s1.node_b,
                s2.node_a,
                ShortcutLeg(idx1, LegDirection.BACKWARD, 0.0, len1 - d1),
                ShortcutLeg(idx2, LegDirection.BACKWARD, len2 - d2, len2),
            ),
        ]
        for src, dst, leg1, leg2 in merged:
            if not demanded(src, dst):
                continue
            route_mm = (leg1.end_mm - leg1.start_mm) + (leg2.end_mm - leg2.start_mm)
            if loss is not None:
                if _cse_benefit_db(tour, src, dst, route_mm, loss) > 1e-9:
                    plan.served[(src, dst)] = (leg1, leg2)
            elif _ring_gain(tour, src, dst, route_mm) > 1e-9:
                plan.served[(src, dst)] = (leg1, leg2)
