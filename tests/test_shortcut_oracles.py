"""Differential batteries pinning the shortcut stage to its slow oracles.

:func:`~repro.core.shortcuts.select_shortcuts` picks chords best-first
off a bound-keyed heap, checks geometry with one vectorized
:class:`~repro.geometry.SegmentSet` call per query, and routes maze
chords with a flat-array A* that refuses a chord without searching
when component labels show its terminals apart.  This module keeps the
code all of that replaced, as test-only oracles:

- :func:`eager_select_shortcuts` scores every demanded pair, sorts the
  candidates by ``(-gain, a, b)`` (or ``(-best_ring, -gain)``, stable),
  and then walks the whole list, re-blocking every selected shortcut on
  each retry.  Its geometry runs on the scalar predicates
  (:func:`oracle_feasible_realizations`, :func:`oracle_chord_is_clean`,
  :func:`oracle_choose_realization`), so it shares no segment-set code
  with what it checks.  Its retry chords come from :func:`dict_chord`;
  its obstacle-free chords from the production A*, which the maze
  batteries below pin on their own;
- :func:`dict_chord` is the dict/tuple-keyed A* with a memoized
  terminal test and a set of blocked edge keys.  It searches until the
  heap runs dry, so it returns ``None`` exactly when the goal is
  unreachable.

Plans must agree exactly (``shortcuts`` and ``served``) across tours,
loss models, selection policies, demand subsets and shortcut caps;
chords must agree point for point; and the maze must refuse a chord
from its labels exactly when :func:`dict_chord` finds none.  On the
64-node tour only sparse demand subsets run the eager oracle (its scan
of all 2,016 pairs is slow); the all-to-all 64-node plan is pinned by
the ``xring64_lazy`` golden fixture, which the eager loop generated.

Seeds are fixed so failures reproduce; REPRO_SHORTCUT_CASES scales the
random-demand sweep and the 32/64-node chord samples (default 8).
"""

from __future__ import annotations

import heapq
import os
import random

import pytest

from repro.core.ring import construct_ring_tour
from repro.core.shortcuts import (
    Shortcut,
    ShortcutPlan,
    _ChordMaze,
    _crossing_is_worth_it,
    _distance_along,
    _register_served_pairs,
    _ring_gain,
    _simplify,
    _staircase_candidates,
    select_shortcuts,
)
from repro.geometry import Point, crossing_points, l_routes, paths_cross
from repro.network.placement import (
    extended_placement,
    oring_placement,
    psion_placement,
)
from repro.photonics.parameters import ORING_LOSSES

SEED = 20_230_417
N_CASES = int(os.environ.get("REPRO_SHORTCUT_CASES", "8"))


# -- oracles ------------------------------------------------------------------
def oracle_feasible_realizations(tour, node_a, node_b):
    """L and staircase chords crossing no ring waveguide, one at a time."""
    pa, pb = tour.points[node_a], tour.points[node_b]
    feasible = []
    for candidate in list(l_routes(pa, pb)) + _staircase_candidates(pa, pb):
        if not any(
            paths_cross(candidate, edge, ignore=(pa, pb)) for edge in tour.edge_paths
        ):
            feasible.append(candidate)
    return feasible


def oracle_chord_is_clean(tour, chord, pa, pb):
    """No proper ring crossing farther than 0.5 mm from both terminals."""
    for edge in tour.edge_paths:
        for point in crossing_points(chord, edge, ignore=(pa, pb)):
            if point.manhattan(pa) > 0.5 and point.manhattan(pb) > 0.5:
                return False
    return True


def oracle_choose_realization(plan, realizations):
    """The ``paths_cross`` scan over every selected shortcut."""
    best = None
    for candidate in realizations:
        crossed = [
            idx
            for idx, other in enumerate(plan.shortcuts)
            if paths_cross(candidate, other.path)
        ]
        if not crossed:
            return candidate, None
        if len(crossed) == 1 and plan.shortcuts[crossed[0]].partner is None:
            proper = crossing_points(candidate, plan.shortcuts[crossed[0]].path)
            if proper and best is None:
                best = (candidate, crossed[0])
    return best


def eager_select_shortcuts(
    tour, *, max_shortcuts=None, loss=None, selection="gain", demands=None
) -> ShortcutPlan:
    """The enumerate-then-sort greedy pass the best-first heap replaced."""
    plan = ShortcutPlan()
    n = tour.size
    demand_set = set(demands) if demands is not None else None
    maze = None
    candidates = []
    for node_a in range(n):
        for node_b in range(node_a + 1, n):
            if demand_set is not None and not (
                (node_a, node_b) in demand_set or (node_b, node_a) in demand_set
            ):
                continue
            realizations = oracle_feasible_realizations(tour, node_a, node_b)
            if not realizations:
                best_ring = min(
                    tour.cw_distance(node_a, node_b),
                    tour.ccw_distance(node_a, node_b),
                )
                manhattan = tour.points[node_a].manhattan(tour.points[node_b])
                if best_ring - manhattan < 0.25 * best_ring:
                    continue
                if maze is None:
                    maze = _ChordMaze(tour)
                chord = maze.chord(tour.points[node_a], tour.points[node_b])
                if chord is None or not oracle_chord_is_clean(
                    tour, chord, tour.points[node_a], tour.points[node_b]
                ):
                    continue
                realizations = [chord]
            gain = _ring_gain(tour, node_a, node_b, realizations[0].length)
            if gain > 1e-9:
                candidates.append((gain, node_a, node_b, realizations))
    if selection == "gain":
        candidates.sort(key=lambda item: (-item[0], item[1], item[2]))
    else:
        candidates.sort(
            key=lambda item: (
                -min(
                    tour.cw_distance(item[1], item[2]),
                    tour.ccw_distance(item[1], item[2]),
                ),
                -item[0],
            )
        )

    used_nodes: set[int] = set()
    for gain, node_a, node_b, realizations in candidates:
        if max_shortcuts is not None and len(plan.shortcuts) >= max_shortcuts:
            break
        if node_a in used_nodes or node_b in used_nodes:
            continue
        chosen = oracle_choose_realization(plan, realizations)
        if chosen is None:
            if maze is None:
                maze = _ChordMaze(tour)
            extra = maze.blocked_by_paths([s.path for s in plan.shortcuts])
            retry = dict_chord(
                maze, tour.points[node_a], tour.points[node_b], extra_blocked=extra
            )
            if retry is None or _ring_gain(tour, node_a, node_b, retry.length) <= 1e-9:
                continue
            if not oracle_chord_is_clean(
                tour, retry, tour.points[node_a], tour.points[node_b]
            ):
                continue
            if any(paths_cross(retry, s.path) for s in plan.shortcuts):
                continue
            gain = _ring_gain(tour, node_a, node_b, retry.length)
            chosen = (retry, None)
        path, partner = chosen
        if partner is not None and loss is not None:
            if not _crossing_is_worth_it(
                tour, plan.shortcuts[partner], node_a, node_b, path, loss
            ):
                clean = [
                    r
                    for r in realizations
                    if not any(paths_cross(r, other.path) for other in plan.shortcuts)
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
                node_a, node_b, path, gain,
                partner=partner,
                crossing_point=point,
                crossing_dist_mm=_distance_along(path, point),
            )
            plan.shortcuts[partner] = Shortcut(
                other.node_a, other.node_b, other.path, other.gain_mm,
                partner=index,
                crossing_point=point,
                crossing_dist_mm=_distance_along(other.path, point),
            )
        plan.shortcuts.append(shortcut)
        used_nodes.update((node_a, node_b))

    _register_served_pairs(plan, tour, loss, demand_set)
    return plan


def dict_chord(maze: _ChordMaze, pa: Point, pb: Point, extra_blocked=None):
    """The dict/tuple-keyed A* the flat-array router replaced."""
    blocked_keys = {key for key, bit in enumerate(maze._mask) if bit}
    if extra_blocked:
        blocked_keys |= set(extra_blocked)
    start, goal = maze._snap(pa), maze._snap(pb)
    if start == goal:
        return None

    xc, yc, ny, pitch = maze._xc, maze._yc, maze.ny, maze._PITCH
    near_memo: dict[tuple[int, int], bool] = {}

    def near_terminal(v):
        cached = near_memo.get(v)
        if cached is None:
            x, y = xc[v[0]], yc[v[1]]
            cached = (
                abs(x - pa.x) + abs(y - pa.y) <= 0.45
                or abs(x - pb.x) + abs(y - pb.y) <= 0.45
            )
            near_memo[v] = cached
        return cached

    best = {start: 0.0}
    parent = {}
    gpx, gpy = xc[goal[0]], yc[goal[1]]
    heap = [(abs(xc[start[0]] - gpx) + abs(yc[start[1]] - gpy), start)]
    inf = float("inf")
    found = False
    while heap:
        _, v = heapq.heappop(heap)
        if v == goal:
            found = True
            break
        vx, vy = v
        base = (vx * ny + vy) * 2
        for w, key in (
            ((vx + 1, vy), base),
            ((vx - 1, vy), base - 2 * ny),
            ((vx, vy + 1), base + 1),
            ((vx, vy - 1), base - 1),
        ):
            if not (0 <= w[0] < maze.nx and 0 <= w[1] < ny):
                continue
            if key in blocked_keys and not (near_terminal(v) or near_terminal(w)):
                continue
            cost = best[v] + pitch
            if cost < best.get(w, inf):
                best[w] = cost
                parent[w] = v
                heapq.heappush(
                    heap, (cost + abs(xc[w[0]] - gpx) + abs(yc[w[1]] - gpy), w)
                )
    if not found:
        return None
    vertices = [goal]
    v = goal
    while v in parent:
        v = parent[v]
        vertices.append(v)
    vertices.reverse()

    def vertex_point(v):
        return Point(xc[v[0]], yc[v[1]])

    points = [pa, Point(pa.x, vertex_point(vertices[0]).y)]
    points.extend(vertex_point(v) for v in vertices)
    points.append(Point(pb.x, vertex_point(vertices[-1]).y))
    points.append(pb)
    return _simplify(points)


# -- tours --------------------------------------------------------------------
_PLACEMENTS = {
    "psion8": lambda: psion_placement(8),
    "psion16": lambda: psion_placement(16),
    "oring16": oring_placement,
    "ext32": lambda: extended_placement(32),
    "ext64": lambda: extended_placement(64),
}
_TOURS: dict = {}


def _tour(name: str):
    if name not in _TOURS:
        points, _ = _PLACEMENTS[name]()
        _TOURS[name] = construct_ring_tour(list(points), lazy=len(points) >= 24)
    return _TOURS[name]


def _random_demands(tour, rng: random.Random, density: float):
    return tuple(
        (src, dst)
        for src in range(tour.size)
        for dst in range(tour.size)
        if src != dst and rng.random() < density
    )


def _assert_same_plan(tour, **kwargs):
    fast = select_shortcuts(tour, **kwargs)
    slow = eager_select_shortcuts(tour, **kwargs)
    assert fast.shortcuts == slow.shortcuts
    assert fast.served == slow.served
    return fast


# -- selection: best-first vs eager ----------------------------------------------
@pytest.mark.parametrize("selection", ["gain", "ring_length"])
@pytest.mark.parametrize("loss", [None, ORING_LOSSES], ids=["length", "oring_loss"])
@pytest.mark.parametrize("name", ["psion8", "psion16", "oring16", "ext32"])
def test_best_first_matches_eager_all_to_all(name, loss, selection):
    plan = _assert_same_plan(_tour(name), loss=loss, selection=selection)
    assert plan.shortcuts


@pytest.mark.parametrize("selection", ["gain", "ring_length"])
@pytest.mark.parametrize("name", ["psion16", "ext32"])
def test_best_first_matches_eager_capped(name, selection):
    plan = _assert_same_plan(
        _tour(name), max_shortcuts=3, loss=ORING_LOSSES, selection=selection
    )
    assert len(plan.shortcuts) == 3


@pytest.mark.parametrize("case", range(N_CASES))
def test_best_first_matches_eager_random_demands(case):
    rng = random.Random(SEED + case)
    # Round-robin over the tours so every run reaches the 64-node one;
    # sparse demands there keep the eager oracle's full scan affordable.
    name = sorted(_PLACEMENTS)[case % len(_PLACEMENTS)]
    tour = _tour(name)
    density = rng.uniform(0.04, 0.1) if tour.size > 32 else rng.uniform(0.2, 0.8)
    _assert_same_plan(
        tour,
        demands=_random_demands(tour, rng, density),
        loss=rng.choice([None, ORING_LOSSES]),
        selection=rng.choice(["gain", "ring_length"]),
        max_shortcuts=rng.choice([None, None, 2, 5]),
    )


# -- maze: flat-array A* vs dict A* ----------------------------------------------
def _assert_same_chords(maze, pairs, obstacles=None):
    """Production chords equal dict-A* chords, with or without obstacles.

    ``obstacles`` are paths already handed to ``maze.add_obstacles``;
    the oracle gets their edge keys straight from ``blocked_by_paths``.
    """
    points = maze.tour.points
    extra = maze.blocked_by_paths(obstacles) if obstacles is not None else None
    for a, b in pairs:
        fast = maze.chord(points[a], points[b], avoid_obstacles=obstacles is not None)
        slow = dict_chord(maze, points[a], points[b], extra_blocked=extra)
        if slow is None:
            assert fast is None, (a, b)
        else:
            assert fast is not None and fast.points == slow.points, (a, b)


def test_flat_chord_matches_dict_chord_every_pair_tour16(tour16):
    maze = _ChordMaze(tour16)
    pairs = [(a, b) for a in range(tour16.size) for b in range(tour16.size) if a != b]
    _assert_same_chords(maze, pairs)
    plan = select_shortcuts(tour16, loss=ORING_LOSSES)
    assert plan.shortcuts
    obstacles = [s.path for s in plan.shortcuts]
    maze.add_obstacles(obstacles)
    _assert_same_chords(maze, pairs, obstacles)
    # Obstacles bind only the chords that ask to avoid them.
    _assert_same_chords(maze, pairs)


def test_flat_chord_matches_dict_chord_sampled_tour64():
    tour = _tour("ext64")
    maze = _ChordMaze(tour)
    rng = random.Random(SEED)
    pairs = [tuple(rng.sample(range(tour.size), 2)) for _ in range(2 * N_CASES)]
    _assert_same_chords(maze, pairs[:N_CASES])
    # Obstacles: the chords of a few other sampled pairs.
    obstacles = [maze.chord(tour.points[a], tour.points[b]) for a, b in pairs[N_CASES:]]
    obstacles = [p for p in obstacles if p is not None]
    maze.add_obstacles(obstacles)
    _assert_same_chords(maze, pairs[:N_CASES], obstacles)


# -- maze: component labels vs exhaustive search ---------------------------------
def _ring_keys(maze):
    return {key for key, bit in enumerate(maze._mask) if bit}


def _zone_edges(maze, pa, pb):
    """Keys of every grid edge touching a terminal-zone vertex."""
    ny = maze.ny
    keys = set()
    for v in maze._terminal_zone(pa, pb):
        ix, iy = divmod(v, ny)
        if ix + 1 < maze.nx:
            keys.add(2 * v)
        if ix > 0:
            keys.add(2 * (v - ny))
        if iy + 1 < ny:
            keys.add(2 * v + 1)
        if iy > 0:
            keys.add(2 * (v - 1) + 1)
    return keys


@pytest.mark.parametrize(
    "name, queries, sequence",
    [
        ("psion16", None, 0),
        ("psion16", None, 1),
        ("ext32", 4 * N_CASES, 0),
        ("ext64", 4 * N_CASES, 0),
    ],
    ids=["tour16-every-pair-a", "tour16-every-pair-b", "ext32-sampled", "ext64-sampled"],
)
def test_labels_refuse_exactly_the_unreachable_chords(name, queries, sequence):
    """Grow obstacles from seeded chords; after each, the labels must
    refuse a chord exactly when the exhaustive dict A* finds none.

    Each obstacle chord is routed around the ones before it and ends at
    ring nodes, so later queries from those nodes open terminal zones
    that touch obstacle edges, and chords across an obstacle become
    unreachable.  Which zone edge decides a pair depends on the walls,
    so the 16-node tour runs two obstacle sequences.
    """
    tour = _tour(name)
    points = tour.points
    maze = _ChordMaze(tour)
    rng = random.Random(SEED + tour.size + sequence)
    every_pair = [(a, b) for a in range(tour.size) for b in range(a + 1, tour.size)]
    obstacles: list = []
    refused = routed = zone_hits = 0
    for _ in range(6):
        extra = maze.blocked_by_paths(obstacles) - _ring_keys(maze)
        pairs = every_pair if queries is None else rng.sample(every_pair, queries)
        # Always query from the newest obstacle's terminals too.
        if obstacles:
            pairs = pairs + [(last_a, rng.randrange(tour.size)), (last_b, last_a)]
        for a, b in pairs:
            if a == b or maze._snap(points[a]) == maze._snap(points[b]):
                continue
            before = maze.unreachable
            fast = maze.chord(points[a], points[b], avoid_obstacles=True)
            slow = dict_chord(maze, points[a], points[b], extra_blocked=extra)
            assert (maze.unreachable > before) == (slow is None), (name, a, b)
            if slow is None:
                assert fast is None
                refused += 1
            else:
                assert fast is not None and fast.points == slow.points, (a, b)
                routed += 1
            zone_hits += bool(_zone_edges(maze, points[a], points[b]) & extra)
        for _ in range(100):
            last_a, last_b = rng.sample(range(tour.size), 2)
            chord = maze.chord(points[last_a], points[last_b], avoid_obstacles=True)
            if chord is not None:
                break
        else:
            pytest.fail("no routable pair left to grow an obstacle from")
        obstacles.append(chord)
        maze.add_obstacles([chord])
    assert refused and routed and zone_hits, (refused, routed, zone_hits)

