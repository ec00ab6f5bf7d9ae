"""Golden regression fixtures for four canonical designs.

Each fixture in ``tests/golden/`` is the full structural dump
(:meth:`~repro.core.design.XRingDesign.to_dict`) of one synthesis run
that the flow must keep reproducing bit-for-bit: tour order, shortcut
set, wavelength assignments, ring openings, PDN feeds.  Any behaviour
change — intended or not — shows up as a structural diff naming the
exact paths that moved.

After an *intentional* change, regenerate and review::

    PYTHONPATH=src pytest tests/test_golden_regression.py --update-golden
    git diff tests/golden/

The designs cover the main configurations: the paper's default XRing
flow (MILP Step 1, internal PDN), the heuristic Step-1 alternative,
the closed-ring baseline-style variant (no openings, external PDN),
and a 64-node run through the lazy cutting-plane ring MILP and the
vectorized conflict kernel (both only engage at that scale).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.synthesizer import SynthesisOptions, XRingSynthesizer
from repro.network import Network
from repro.network.placement import (
    extended_placement,
    oring_placement,
    psion_placement,
)

GOLDEN_DIR = Path(__file__).parent / "golden"

CANONICAL = {
    "xring8_default": lambda: _synthesize(
        psion_placement(8), SynthesisOptions(label="xring8")
    ),
    "xring16_heuristic": lambda: _synthesize(
        psion_placement(16),
        SynthesisOptions(ring_method="heuristic", label="xring16/heuristic"),
    ),
    "oring16_closed": lambda: _synthesize(
        oring_placement(),
        SynthesisOptions(
            enable_openings=False,
            pdn_mode="external",
            label="xring16/closed",
        ),
    ),
    # Beyond the paper's table: pins the lazy cutting-plane ring MILP
    # and the vectorized conflict kernel, which only engage at scale.
    "xring64_lazy": lambda: _synthesize(
        extended_placement(64),
        SynthesisOptions(lazy_conflicts=True, label="xring64/lazy"),
    ),
}


#: Exact shortcut-stage work counters of the fixture runs.  They do not
#: depend on the host, so a change that makes the stage do more work
#: (more pairs scored, more maze expansions, re-blocking every retry,
#: searching for a chord the component labels already refuse) fails
#: here even when the design stays the same.
WORK_COUNTERS = {
    "xring16_heuristic": {
        "shortcuts.pairs_evaluated": 36,
        "shortcuts.gain_evaluations": 32,
        "shortcuts.candidates": 31,
        "shortcuts.maze.calls": 38,
        "shortcuts.maze.unreachable": 1,
        "shortcuts.maze.expansions": 8452,
        "shortcuts.obstacle_rebuilds": 3,
        "shortcuts.selected": 6,
    },
    "xring64_lazy": {
        "shortcuts.pairs_evaluated": 913,
        "shortcuts.gain_evaluations": 842,
        "shortcuts.candidates": 840,
        "shortcuts.maze.calls": 1601,
        "shortcuts.maze.unreachable": 439,
        "shortcuts.maze.expansions": 876256,
        "shortcuts.obstacle_rebuilds": 20,
        "shortcuts.selected": 26,
    },
}


def _synthesize(placement, options):
    points, die = placement
    network = Network.from_positions(points, die=die)
    return XRingSynthesizer(network, options).run()


def _normalize(report: dict) -> dict:
    """JSON round-trip so fixture and live dict share one type system."""
    return json.loads(json.dumps(report, sort_keys=True))


def _diff(expected, actual, path="$") -> list[str]:
    """Readable structural diff: one line per divergent path."""
    if type(expected) is not type(actual):
        return [
            f"{path}: type {type(expected).__name__} -> {type(actual).__name__}"
        ]
    if isinstance(expected, dict):
        lines = []
        for key in sorted(set(expected) | set(actual)):
            if key not in expected:
                lines.append(f"{path}.{key}: unexpected key")
            elif key not in actual:
                lines.append(f"{path}.{key}: missing key")
            else:
                lines.extend(_diff(expected[key], actual[key], f"{path}.{key}"))
        return lines
    if isinstance(expected, list):
        lines = []
        if len(expected) != len(actual):
            lines.append(
                f"{path}: length {len(expected)} -> {len(actual)}"
            )
        for i, (e, a) in enumerate(zip(expected, actual)):
            lines.extend(_diff(e, a, f"{path}[{i}]"))
        return lines
    if expected != actual:
        return [f"{path}: {expected!r} -> {actual!r}"]
    return []


@pytest.mark.parametrize("name", sorted(CANONICAL))
def test_golden_design(name, update_golden):
    design = CANONICAL[name]()
    current = _normalize(design.to_dict())
    fixture = GOLDEN_DIR / f"{name}.json"

    if update_golden:
        from repro.obs import atomic_write_text

        GOLDEN_DIR.mkdir(exist_ok=True)
        # Atomic: an interrupted --update-golden run never leaves a
        # half-written fixture that silently fails future compares.
        atomic_write_text(
            fixture, json.dumps(current, indent=2, sort_keys=True) + "\n"
        )
        return

    assert fixture.exists(), (
        f"golden fixture {fixture} is missing; generate it with "
        f"pytest {__file__} --update-golden"
    )
    expected = json.loads(fixture.read_text(encoding="utf-8"))
    differences = _diff(expected, current)
    assert not differences, (
        f"design {name!r} diverged from its golden fixture "
        f"({len(differences)} path(s)); if the change is intentional, "
        f"regenerate with --update-golden and review the diff:\n"
        + "\n".join(differences[:40])
    )

    expected_work = WORK_COUNTERS.get(name)
    if expected_work is not None:
        counters = design.report.metrics["counters"]
        assert {key: counters.get(key) for key in expected_work} == expected_work
