"""Differential batteries pinning the shortcut stage to its slow oracles.

:func:`~repro.core.shortcuts.select_shortcuts` picks chords best-first
off a bound-keyed heap and routes maze chords with a flat-array A*.
This module keeps the code both replaced, as test-only oracles:

- :func:`eager_select_shortcuts` scores every demanded pair, sorts the
  candidates by ``(-gain, a, b)`` (or ``(-best_ring, -gain)``, stable),
  and then walks the whole list, re-blocking every selected shortcut on
  each retry.  It routes with the production A*, which the second
  oracle pins on its own;
- :func:`dict_chord` is the dict/tuple-keyed A* with a memoized
  terminal test and a set of blocked edge keys.

Plans must agree exactly (``shortcuts`` and ``served``) across tours,
loss models, selection policies, demand subsets and shortcut caps, and
chords must agree point for point.  On the 64-node tour only sparse
demand subsets run here (the eager scan of all 2,016 pairs is slow);
the all-to-all 64-node plan is pinned by the ``xring64_lazy`` golden
fixture, which the eager loop generated.

Seeds are fixed so failures reproduce; REPRO_SHORTCUT_CASES scales the
random-demand sweep and the 64-node chord sample (default 8).
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
    _choose_realization,
    _chord_is_clean,
    _crossing_is_worth_it,
    _distance_along,
    _feasible_realizations,
    _register_served_pairs,
    _ring_gain,
    _simplify,
    select_shortcuts,
)
from repro.geometry import Point, SegmentSet, crossing_points, paths_cross
from repro.network.placement import (
    extended_placement,
    oring_placement,
    psion_placement,
)
from repro.photonics.parameters import ORING_LOSSES

SEED = 20_230_417
N_CASES = int(os.environ.get("REPRO_SHORTCUT_CASES", "8"))


# -- oracles ------------------------------------------------------------------
def eager_select_shortcuts(
    tour, *, max_shortcuts=None, loss=None, selection="gain", demands=None
) -> ShortcutPlan:
    """The enumerate-then-sort greedy pass the best-first heap replaced."""
    plan = ShortcutPlan()
    n = tour.size
    demand_set = set(demands) if demands is not None else None
    maze = None
    ring_set = SegmentSet.from_paths(tour.edge_paths)
    candidates = []
    for node_a in range(n):
        for node_b in range(node_a + 1, n):
            if demand_set is not None and not (
                (node_a, node_b) in demand_set or (node_b, node_a) in demand_set
            ):
                continue
            realizations = _feasible_realizations(tour, node_a, node_b, ring_set)
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
                if chord is None or not _chord_is_clean(
                    tour, chord, tour.points[node_a], tour.points[node_b], ring_set
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
        chosen = _choose_realization(plan, realizations)
        if chosen is None:
            if maze is None:
                maze = _ChordMaze(tour)
            extra = maze.blocked_by_paths([s.path for s in plan.shortcuts])
            retry = maze.chord(
                tour.points[node_a], tour.points[node_b], extra_blocked=extra
            )
            if retry is None or _ring_gain(tour, node_a, node_b, retry.length) <= 1e-9:
                continue
            if not _chord_is_clean(
                tour, retry, tour.points[node_a], tour.points[node_b], ring_set
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
def _assert_same_chords(maze, pairs, extra=None):
    points = maze.tour.points
    for a, b in pairs:
        fast = maze.chord(points[a], points[b], extra_blocked=extra)
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
    extra = maze.blocked_by_paths([s.path for s in plan.shortcuts])
    _assert_same_chords(maze, pairs, extra)


def test_flat_chord_matches_dict_chord_sampled_tour64():
    tour = _tour("ext64")
    maze = _ChordMaze(tour)
    rng = random.Random(SEED)
    pairs = [tuple(rng.sample(range(tour.size), 2)) for _ in range(2 * N_CASES)]
    _assert_same_chords(maze, pairs[:N_CASES])
    # Obstacles: the chords of a few other sampled pairs.
    obstacles = [maze.chord(tour.points[a], tour.points[b]) for a, b in pairs[N_CASES:]]
    extra = maze.blocked_by_paths([p for p in obstacles if p is not None])
    _assert_same_chords(maze, pairs[:N_CASES], extra)

