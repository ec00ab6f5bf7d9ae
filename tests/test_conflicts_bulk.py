"""Differential battery: bulk conflict kernel versus the scalar oracle.

The vectorized kernel in :mod:`repro.geometry.conflicts_bulk` must be
*byte-identical* to the scalar predicate it replaces — the MILP rows
it produces decide which ring edges may coexist, so a single flipped
pair silently changes synthesis results.  This module pins:

- ``build_edge_conflicts_bulk`` == ``build_edge_conflicts_scalar`` as
  whole dicts, over 200+ seeded random floorplans (n = 3..32) plus
  adversarial collinear / shared-row / shared-column layouts;
- ``conflicting_edge_pairs`` (the lazy loop's incumbent check) agrees
  with ``edges_conflict`` on explicit edge subsets;
- ``SegmentSet.any_illegal`` / ``illegal_paths`` / ``crossed`` /
  ``proper_crossings`` agree with ``paths_cross`` / ``crossing_points``,
  on L-routes and on many-segment walks with EPS-jittered and shared
  terminal coordinates;
- the dispatcher (``build_edge_conflicts``) honors ``method=`` and its
  size threshold;
- both implementations reject duplicate coordinates the same way.

Seeds are fixed so failures reproduce; REPRO_BULK_CASES scales the
random sweep (default 200) and the walk battery (half as many).
"""

from __future__ import annotations

import itertools
import os
import random

import pytest

from repro.geometry import (
    BULK_THRESHOLD,
    EPS,
    Point,
    RectilinearPath,
    SegmentSet,
    build_edge_conflicts,
    build_edge_conflicts_bulk,
    build_edge_conflicts_scalar,
    conflicting_edge_pairs,
    crossing_points,
    edges_conflict,
    l_routes,
    paths_cross,
)

SEED = 987_654_321
N_CASES = int(os.environ.get("REPRO_BULK_CASES", "200"))

#: Node count for each random case.  Small sizes dominate (the scalar
#: oracle is O(n^4) and must run too); the explicit tail reaches the
#: full n=32 of the paper's largest network so the bulk batching code
#: sees multi-batch regimes.
_SIZES = [3 + (k % 12) for k in range(N_CASES)] + [16, 20, 24, 28, 32]


def _random_floorplan(rng: random.Random, n: int) -> list[Point]:
    """Distinct lattice positions: collinear runs stay plentiful."""
    side = max(4, int(n**0.5) + 2)
    cells = rng.sample(
        [(c, r) for c in range(side) for r in range(side)], n
    )
    return [Point(c * 0.35, r * 0.35) for c, r in cells]


def _cases() -> list[list[Point]]:
    rng = random.Random(SEED)
    return [_random_floorplan(rng, n) for n in _SIZES]


CASES = _cases()


class TestBulkMatchesScalarOracle:
    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_random_floorplan(self, case):
        points = CASES[case]
        assert build_edge_conflicts_bulk(points) == build_edge_conflicts_scalar(
            points
        )

    @pytest.mark.parametrize(
        "points",
        [
            # One shared row: every edge collinear with every other.
            [Point(float(i), 0.0) for i in range(6)],
            # One shared column.
            [Point(0.0, float(i)) for i in range(6)],
            # Collinear run plus one off-line node (shared terminals
            # meet at the hub in many pairings).
            [Point(0, 0), Point(1, 0), Point(2, 0), Point(3, 0), Point(1, 2)],
            # Dense 3x3 grid: maximal shared rows/columns.
            [Point(float(c), float(r)) for c in range(3) for r in range(3)],
            # Two clusters joined by long edges.
            [Point(0, 0), Point(0.35, 0), Point(0, 0.35),
             Point(7, 7), Point(7.35, 7), Point(7, 7.35)],
            # EPS-jittered near-collinear coordinates.
            [Point(0, 0), Point(1, 1e-12), Point(2, -1e-12), Point(1, 1)],
        ],
        ids=["row", "column", "hub", "grid3x3", "clusters", "eps-jitter"],
    )
    def test_adversarial_layouts(self, points):
        assert build_edge_conflicts_bulk(points) == build_edge_conflicts_scalar(
            points
        )

    def test_duplicate_coordinates_rejected_like_scalar(self):
        points = [Point(0, 0), Point(1, 0), Point(0, 0), Point(1, 1)]
        with pytest.raises(ValueError):
            build_edge_conflicts_scalar(points)
        with pytest.raises(ValueError):
            build_edge_conflicts_bulk(points)

    def test_symmetry_and_no_self_conflicts(self):
        points = CASES[0]
        conflicts = build_edge_conflicts_bulk(points)
        for pair, others in conflicts.items():
            assert pair not in others
            for other in others:
                assert pair in conflicts[other]


class TestConflictingEdgePairs:
    """The lazy loop's incumbent check against the pairwise oracle."""

    @pytest.mark.parametrize("case", [0, 5, 17, 42, 99])
    def test_subset_agrees_with_edges_conflict(self, case):
        rng = random.Random(SEED + case)
        points = CASES[case]
        n = len(points)
        all_edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = sorted(rng.sample(all_edges, min(len(all_edges), n + 2)))
        got = set(
            frozenset(pair) for pair in conflicting_edge_pairs(points, edges)
        )
        want = set()
        for e1, e2 in itertools.combinations(edges, 2):
            if edges_conflict(
                (points[e1[0]], points[e1[1]]),
                (points[e2[0]], points[e2[1]]),
            ):
                want.add(frozenset((e1, e2)))
        assert got == want

    def test_each_pair_reported_once(self):
        points = [Point(0, 0), Point(2, 0), Point(2, 2), Point(0, 2)]
        edges = [(0, 2), (1, 3)]
        pairs = conflicting_edge_pairs(points, edges)
        assert len(pairs) == len(set(map(frozenset, pairs)))

    def test_under_two_edges(self):
        points = [Point(0, 0), Point(1, 0), Point(1, 1)]
        assert conflicting_edge_pairs(points, []) == []
        assert conflicting_edge_pairs(points, [(0, 1)]) == []


def _random_paths(rng: random.Random, count: int) -> list[RectilinearPath]:
    paths = []
    while len(paths) < count:
        a = Point(float(rng.randint(0, 6)), float(rng.randint(0, 6)))
        b = Point(float(rng.randint(0, 6)), float(rng.randint(0, 6)))
        if a.almost_equals(b):
            continue
        paths.append(rng.choice(l_routes(a, b)))
    return paths


class TestSegmentSet:
    """Path-versus-set queries against the scalar path predicates."""

    @pytest.mark.parametrize("seed", range(30))
    def test_any_illegal_matches_paths_cross(self, seed):
        rng = random.Random(SEED + seed)
        stored = _random_paths(rng, 6)
        query = _random_paths(rng, 1)[0]
        ignore = (query.start, query.end)
        sset = SegmentSet.from_paths(stored)
        want = any(paths_cross(query, p, ignore=ignore) for p in stored)
        assert sset.any_illegal(query, ignore=ignore) == want
        want_no_ignore = any(paths_cross(query, p) for p in stored)
        assert sset.any_illegal(query) == want_no_ignore

    @pytest.mark.parametrize("seed", range(30))
    def test_proper_crossings_match_crossing_points(self, seed):
        rng = random.Random(SEED * 2 + seed)
        stored = _random_paths(rng, 6)
        query = _random_paths(rng, 1)[0]
        ignore = (query.start, query.end)
        sset = SegmentSet.from_paths(stored)
        got = {(round(p.x, 9), round(p.y, 9))
               for p in sset.proper_crossings(query, ignore=ignore)}
        want = {
            (round(p.x, 9), round(p.y, 9))
            for other in stored
            for p in crossing_points(query, other, ignore=ignore)
        }
        assert got == want

    def test_empty_set(self):
        sset = SegmentSet.from_paths([])
        query = RectilinearPath([Point(0, 0), Point(1, 0)])
        assert not sset.any_illegal(query)
        assert sset.illegal_paths([query, query]) == [False, False]
        assert sset.crossed(query) == []
        assert sset.proper_crossings(query) == []


#: Lattice pitch of the walks: the chord maze's routing pitch.
_PITCH = 0.2
#: Whole-walk offsets: exact, inside, on and just past the EPS boundary.
_SHIFTS = (0.0, 0.0, 0.0, 0.5 * EPS, EPS, -EPS, 1.5 * EPS, -2.0 * EPS)


def _random_walk(
    rng: random.Random, start: Point | None = None, end: Point | None = None
) -> RectilinearPath:
    """A 5-30 segment rectilinear walk on the maze lattice.

    Vertices get per-vertex jitter under EPS/2 (so every leg stays
    axis-aligned) and the whole walk one shift from ``_SHIFTS``; a
    given ``start``/``end`` is joined on exactly, so walks share
    terminals.  Draws whose connector legs collapse within EPS into a
    non-axis-aligned leg, or drop the shared terminal, are redrawn.
    """
    while True:
        x, y = rng.randint(0, 12), rng.randint(0, 12)
        horizontal = rng.random() < 0.5
        lattice = [(x, y)]
        for _ in range(rng.randint(5, 30)):
            step = rng.choice((-3, -2, -1, 1, 2, 3))
            if horizontal:
                x = min(max(x + step, 0), 12)
            else:
                y = min(max(y + step, 0), 12)
            if (x, y) != lattice[-1]:
                lattice.append((x, y))
            # Mostly alternate; sometimes run on (or double back) on one axis.
            horizontal = horizontal != (rng.random() < 0.8)
        if len(lattice) < 2:
            continue
        dx, dy = rng.choice(_SHIFTS), rng.choice(_SHIFTS)
        points = [
            Point(
                i * _PITCH + dx + rng.choice((0.0, 0.0, 0.4 * EPS, -0.4 * EPS)),
                j * _PITCH + dy + rng.choice((0.0, 0.0, 0.4 * EPS, -0.4 * EPS)),
            )
            for i, j in lattice
        ]
        # Join shared terminals on with an axis-aligned connector leg.
        if start is not None:
            points = [start, Point(start.x, points[0].y)] + points
        if end is not None:
            points = points + [Point(end.x, points[-1].y), end]
        try:
            path = RectilinearPath(points)
        except ValueError:
            continue
        if path.start == points[0] and path.end == points[-1]:
            return path


class TestSegmentSetWalks:
    """Many-segment queries: the shapes maze chords and walls take."""

    @pytest.mark.parametrize("case", range(max(1, N_CASES // 2)))
    def test_walks_match_scalar_predicates(self, case):
        rng = random.Random(SEED * 3 + case)
        query = _random_walk(rng)
        ignore = (query.start, query.end)
        stored = []
        for _ in range(rng.randint(1, 6)):
            kind = rng.random()
            if kind < 0.25:
                stored.append(_random_walk(rng, start=query.start))
            elif kind < 0.4:
                stored.append(_random_walk(rng, end=query.end))
            else:
                stored.append(_random_walk(rng))
        sset = SegmentSet()
        for path in stored:
            sset.add_path(path)
        assert sset.paths == len(stored)

        for ign in ((), ignore):
            want = [i for i, p in enumerate(stored) if paths_cross(query, p, ign)]
            assert sset.crossed(query, ign) == want
            assert sset.any_illegal(query, ign) == bool(want)
        others = [_random_walk(rng) for _ in range(3)]
        assert sset.illegal_paths([query] + others, ignore) == [
            any(paths_cross(q, p, ignore) for p in stored) for q in [query] + others
        ]
        got = sset.proper_crossings(query, ignore=ignore)
        want_points = [
            p for other in stored for p in crossing_points(query, other, ignore=ignore)
        ]
        # ``crossing_points`` keeps the first of crossings within EPS of
        # each other; the set keeps them all, so equal as sets up to
        # that merge: every scalar point exactly, nothing else.
        assert {(p.x, p.y) for p in want_points} <= {(p.x, p.y) for p in got}
        for p in got:
            assert any(p.almost_equals(q) for q in want_points), p

    def test_walks_reach_the_regimes_the_battery_exists_for(self):
        rng = random.Random(SEED)
        ignore_decides = crossings = long_walks = 0
        for _ in range(60):
            query = _random_walk(rng)
            shared = _random_walk(rng, start=query.start)
            assert shared.start == query.start
            ignore = (query.start, query.end)
            ignore_decides += paths_cross(query, shared) and not paths_cross(
                query, shared, ignore
            )
            crossings += bool(crossing_points(query, _random_walk(rng)))
            long_walks += len(query.segments) >= 20
        assert ignore_decides and crossings and long_walks


class TestDispatcher:
    def test_method_validation(self):
        with pytest.raises(ValueError):
            build_edge_conflicts([Point(0, 0), Point(1, 0)], method="nope")

    def test_explicit_methods_agree(self):
        points = CASES[1]
        assert build_edge_conflicts(points, method="bulk") == \
            build_edge_conflicts(points, method="scalar")

    def test_auto_uses_bulk_above_threshold(self):
        # Above the threshold "auto" and "bulk" must be the same path;
        # equality with the scalar oracle is what makes that safe.
        rng = random.Random(SEED)
        points = _random_floorplan(rng, BULK_THRESHOLD + 2)
        assert build_edge_conflicts(points) == build_edge_conflicts(
            points, method="scalar"
        )
