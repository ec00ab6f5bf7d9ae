"""``synth64``: one cold synthesis of the 64-node extended placement.

One synthesis takes longer than ``--seconds`` on a two-core host, so
a pass makes exactly one.  Traced, the synthesis runs with the
program's tracer on, then each stage's public function is called
directly on the same inputs inside benchmark spans, and every stage
output must equal the matching part of the ``run()`` design.
"""

from __future__ import annotations

import random
import time

from repro import Network, SynthesisOptions, XRingSynthesizer
from repro.core import XRingDesign
from repro.core.mapping import map_signals
from repro.core.pdn import build_pdn
from repro.core.ring import LAZY_THRESHOLD, construct_ring_tour
from repro.core.shortcuts import select_shortcuts
from repro.core.validate import validate_design
from repro.geometry import BBox, Point
from repro.network.placement import extended_placement
from repro.obs import Tracer
from repro.parallel.cache import clear_caches

from common import (
    Outcome,
    add_stage_times,
    check_design,
    digest_of,
    synthesis_layers,
    warm_up,
)

NODES = 64
#: The traced pass adds the tracer inside the timed ``run()`` call.
TRACE_IN_WINDOW = True
#: Bound of the seeded offset that moves the whole placement (a quarter
#: of the 2 mm pitch).  Moving each node on its own by even 0.02 mm
#: changed the shortcuts stage's work enough that one synthesis took
#: 14 s to 29 s across seeds; a rigid shift keeps the geometry, so
#: seeds differ in their inputs but not in the work.
SHIFT_MM = 0.5

#: ``to_dict`` keys of each stage's output.
PARTS = {
    "tour": ("tour",),
    "plan": ("shortcuts",),
    "mapping": ("rings", "assignments", "shortcut_wavelengths", "used_wavelengths",
                "wavelength_budget"),
    "pdn": ("pdn",),
}
STAGES = ("ring", "shortcuts", "mapping", "pdn", "validate")


def network_for(seed: int) -> Network:
    """Seed 0 is the exact placement; other seeds shift it and its die."""
    points, die = extended_placement(NODES)
    if seed:
        rng = random.Random(seed)
        dx, dy = rng.uniform(-SHIFT_MM, SHIFT_MM), rng.uniform(-SHIFT_MM, SHIFT_MM)
        points = [Point(p.x + dx, p.y + dy) for p in points]
        die = BBox(die.xmin + dx, die.ymin + dy, die.xmax + dx, die.ymax + dy)
    return Network.from_positions(points, die=die)


def setup(seed: int, seconds: int) -> Network:
    network = network_for(seed)
    warm_up()
    return network


def measure(network: Network, seed: int, seconds: int, rec=None) -> Outcome:
    out = Outcome(attempted=1)
    options = SynthesisOptions(wl_budget=NODES)
    rid = f"synth64-s{seed}"
    tracer = Tracer() if rec is not None else None
    clear_caches()
    t0 = time.perf_counter()
    design = XRingSynthesizer(network, options, tracer=tracer).run()
    t1 = time.perf_counter()
    synth_s = t1 - t0
    il_w, power_w = check_design(design, rid, out.problems)
    out.failed = int(bool(out.problems))
    out.primary = synth_s
    out.digest = digest_of(design)
    out.e2e = {
        "synth_s": synth_s,
        "cases_per_s": (out.attempted - out.failed) / synth_s,
        "job_p50_s": synth_s,
        "design_il_db": il_w,
        "design_power_w": power_w,
    }
    out.samples = dict.fromkeys(out.e2e, 1)
    out.line("synth_s", synth_s, "s", 1)
    out.line("design_il_db", il_w, "dB", 1)
    out.line("design_power_w", power_w, "W", 1)
    out.line("shortcuts", len(design.shortcut_plan.shortcuts), "count", 1)
    if rec is not None:
        run_span = rec.add("core.synthesizer.run", t0, t1, rid)
        out.layer["core.synthesizer.run_s"] = synth_s
        out.layer.update(_trace_stages(rec, run_span, network, options, design, tracer, rid,
                                       out.problems))
        stage_sums: dict = {}
        add_stage_times(stage_sums, design.report)
        out.layer.update(synthesis_layers(design.report.metrics, stage_sums))
    return out


def _trace_stages(rec, run_span, network, options, design, tracer, rid, problems) -> dict:
    """Direct stage calls inside spans; each output must equal ``run()``'s."""
    spans = tracer.finished_spans()
    root = next(s for s in spans if s.name == "synthesize")
    children = [s for s in spans if s.parent_id == root.span_id]
    layer = {"core.synthesizer.self_s": root.duration_s - sum(s.duration_s for s in children)}
    for span in children:  # the program's stage spans, on the benchmark's clock
        start = run_span.start + span.start_s - root.start_s
        rec.add(span.name, start, start + span.duration_s, rid, parent=run_span.span_id)

    points = list(network.positions)
    demands = network.demands()
    wl_budget = NODES if options.wl_budget is None else options.wl_budget
    lazy = options.lazy_conflicts
    if lazy is None:
        lazy = len(points) >= LAZY_THRESHOLD
    clear_caches()
    with rec.span("core.direct", rid):
        with rec.span("core.ring", rid):
            tour = construct_ring_tour(points, backend=options.milp_backend,
                                       time_limit=options.milp_time_limit, lazy=lazy)
        with rec.span("core.shortcuts", rid):
            plan = select_shortcuts(tour, enabled=options.enable_shortcuts, loss=options.loss,
                                    selection=options.shortcut_selection, demands=demands)
        with rec.span("core.mapping", rid):
            mapping = map_signals(tour, demands, plan, wl_budget, open_rings=options.enable_openings,
                                  order=options.mapping_order,
                                  direction_policy=options.direction_policy)
        with rec.span("core.pdn", rid):
            pdn = build_pdn(tour, mapping, plan, options.loss, network.bounding_box(),
                            mode=options.pdn_mode)
        direct = XRingDesign(network=network, tour=tour, shortcut_plan=plan, mapping=mapping,
                             pdn=pdn, label=options.label)
        with rec.span("core.validate", rid):
            violations = validate_design(direct)
    if violations:
        problems.append(f"{rid}: directly built design has {len(violations)} violation(s)")
    ran, built = design.to_dict(), direct.to_dict()
    for part, keys in PARTS.items():
        if any(ran.get(key) != built.get(key) for key in keys):
            problems.append(f"{rid}: direct {part} differs from the run() design")
    if digest_of(direct) != digest_of(design):
        problems.append(f"{rid}: directly built design digest differs from run()")
    for stage in STAGES:
        layer[f"core.{stage}.s"] = rec.total(f"core.{stage}")
    return layer
