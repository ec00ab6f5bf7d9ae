"""Pieces every workload shares: seeded inputs, design checks, the
run's state directory and the outcome of a measuring pass.

Importing this module imports the program, so ``run.py`` puts the
checkout's ``src`` on ``sys.path`` first.
"""

from __future__ import annotations

import hashlib
import math
import random
import resource
from dataclasses import dataclass, field
from pathlib import Path

from repro import Network, SynthesisOptions, XRingSynthesizer
from repro.analysis import evaluate_circuit
from repro.core.validate import validate_design
from repro.geometry import Point
from repro.parallel.cache import clear_caches
from repro.photonics import NIKDAST_CROSSTALK, ORING_LOSSES
from repro.service.jobs import design_digest

from stats import geomean, timing_summary

HERE = Path(__file__).resolve().parent
#: Everything a run writes lives here, inside the checkout.
STATE = HERE / ".state"

#: Lattice floorplans of the batch and service workloads.
LATTICE_PITCH_MM = 0.35
LATTICE_JITTER_MM = 0.03


@dataclass
class Outcome:
    """What one measuring pass of a workload produced."""

    #: End-to-end metrics other than ``setup_s`` and ``peak_rss_mb``.
    e2e: dict = field(default_factory=dict)
    #: Sample count behind each ``e2e`` value.
    samples: dict = field(default_factory=dict)
    #: Per-layer metrics (traced pass only).
    layer: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Digest over every design the pass produced, in input order.
    digest: str = ""
    #: The timing ``trace_overhead_frac`` compares between the untraced
    #: and the traced pass of one invocation.
    primary: float = 0.0
    #: Human-readable lines (metric, value, unit, sample count).
    lines: list = field(default_factory=list)
    #: Correctness failures; any entry makes the run exit non-zero.
    problems: list = field(default_factory=list)

    def line(self, name: str, value, unit: str, n: int) -> None:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        self.lines.append(f"  {name:<34} {shown:>12} {unit:<6} n={n}")

    def timing(self, name: str, values) -> None:
        """The median and the highest percentile with ten samples beyond it."""
        summary = timing_summary(values)
        self.line(f"{name} p50", summary["p50"], "s", summary["n"])
        if summary["tail_pct"] is not None and summary["tail_pct"] > 50:
            self.line(f"{name} p{summary['tail_pct']:g}", summary["tail"], "s", summary["n"])


def lattice_points(rng: random.Random, n: int) -> list[Point]:
    """``n`` nodes row-major on a near-square lattice, each jittered."""
    cols = math.ceil(math.sqrt(n))
    return [
        Point(
            1.0 + (i % cols) * LATTICE_PITCH_MM + rng.uniform(-LATTICE_JITTER_MM, LATTICE_JITTER_MM),
            1.0 + (i // cols) * LATTICE_PITCH_MM + rng.uniform(-LATTICE_JITTER_MM, LATTICE_JITTER_MM),
        )
        for i in range(n)
    ]


def digest_of(design) -> str:
    return design_digest(design.to_dict())


def combined_digest(digests) -> str:
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


def check_design(design, what: str, problems: list) -> tuple[float, float]:
    """``validate_design`` plus evaluation; returns (IL dB, power W)."""
    violations = validate_design(design)
    if violations:
        problems.append(f"{what}: {len(violations)} violation(s), first: {violations[0]}")
    evaluation = evaluate_circuit(
        design.to_circuit(ORING_LOSSES, NIKDAST_CROSSTALK), ORING_LOSSES, NIKDAST_CROSSTALK
    )
    return evaluation.il_w, evaluation.power_w


def quality(il_values, power_values) -> dict:
    """Mean worst-case IL and geometric-mean laser power."""
    return {
        "design_il_db": sum(il_values) / len(il_values),
        "design_power_w": geomean(power_values),
    }


def warm_up() -> None:
    """One small synthesis so lazy imports happen before timing, then
    empty the caches it filled."""
    points = lattice_points(random.Random(0), 6)
    XRingSynthesizer(Network.from_positions(points), SynthesisOptions(wl_budget=6)).run()
    clear_caches()


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


#: Per-layer metric name -> the program's counter in a metrics snapshot.
COUNTERS = {
    "milp.bb_nodes": "milp.bb.nodes",
    "ring.lazy.rounds": "ring.lazy.rounds",
    "ring.lazy.cuts_added": "ring.lazy.cuts_added",
    "ring.merge.splice_attempts": "ring.merge.splice_attempts",
    "ring.conflict_constraints": "ring.conflict_constraints",
    "shortcuts.candidates": "shortcuts.candidates",
    "shortcuts.gain_evaluations": "shortcuts.gain_evaluations",
    "shortcuts.selected": "shortcuts.selected",
    "mapping.signals_placed": "mapping.signals_placed",
    "mapping.relocations": "mapping.relocations",
    "pdn.splitters": "pdn.splitters",
}

SYNTH_STAGES = ("ring", "shortcuts", "mapping", "pdn")


def synthesis_layers(snapshot: dict, stage_sums: dict) -> dict:
    """Counter metrics of a (merged) synthesis metrics snapshot plus
    the summed per-stage times the reports carry."""
    counters = snapshot.get("counters", {})
    out = {name: counters.get(key, 0) for name, key in COUNTERS.items()}
    out["cache.conflicts.build_s"] = float(
        snapshot.get("histograms", {}).get("cache.conflicts.build_s", {}).get("sum", 0.0)
    )
    for stage in SYNTH_STAGES:
        out[f"stage.{stage}.s_sum"] = stage_sums.get(stage, 0.0)
    return out


def add_stage_times(sums: dict, report) -> None:
    for stage in SYNTH_STAGES:
        sums[stage] = sums.get(stage, 0.0) + report.stage_elapsed_s.get(stage, 0.0)
