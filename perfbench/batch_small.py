"""``batch_small``: a few hundred distinct small lattice floorplans run
closed-loop through ``BatchSynthesizer(workers=2)`` with a file journal.

The batch holds ``CASES_PER_SECOND * --seconds`` cases, so the run
measures about ``--seconds`` on a two-core host.  A case's latency runs
from the supervisor's ``case_start`` to its ``case_done`` event, so it
includes the time the supervisor spends on other cases' journal writes
before it sees the result.  It is not counted from the batch start: that
would mostly measure where a case sits in the batch.  Traced, the
journal is a :class:`BatchJournal` subclass that times every
``record`` call and the file size after it.
"""

from __future__ import annotations

import random
import shutil
import statistics
import tempfile
import time

from repro import Network, SynthesisOptions
from repro.parallel import BatchCase, BatchSynthesizer
from repro.parallel.cache import clear_caches
from repro.parallel.journal import BatchJournal

from common import (
    STATE,
    Outcome,
    add_stage_times,
    check_design,
    combined_digest,
    digest_of,
    lattice_points,
    quality,
    synthesis_layers,
    warm_up,
)
from stats import MISSING, fail_frac, percentile

WORKERS = 2
#: Nominal throughput of the batch on a two-core host (cases/s).
CASES_PER_SECOND = 15
MIN_NODES, MAX_NODES = 6, 12
#: The traced pass times each journal ``record`` inside the batch.
TRACE_IN_WINDOW = True


class TimedJournal(BatchJournal):
    """A journal that times each checkpoint and the bytes it rewrote."""

    def __init__(self, path) -> None:
        super().__init__(path)
        #: (start, end, file size after, case label) per ``record``.
        self.calls: list[tuple[float, float, int, str]] = []

    def record(self, key, result) -> None:
        start = time.perf_counter()
        super().record(key, result)
        end = time.perf_counter()
        self.calls.append((start, end, self.path.stat().st_size, result.label))


def setup(seed: int, seconds: int) -> list[BatchCase]:
    rng = random.Random(seed)
    cases, seen = [], set()
    for i in range(CASES_PER_SECOND * seconds):
        n = rng.randint(MIN_NODES, MAX_NODES)
        points = lattice_points(rng, n)
        if tuple(points) in seen or len(set(points)) != n:
            raise ValueError(f"seed {seed} produced a repeated floorplan or node")
        seen.add(tuple(points))
        label = f"b{seed}-{i}"
        options = SynthesisOptions(wl_budget=n, label=label)
        cases.append(BatchCase(network=Network.from_positions(points), options=options, label=label))
    warm_up()
    return cases


def measure(cases: list[BatchCase], seed: int, seconds: int, rec=None) -> Outcome:
    out = Outcome()
    rid = f"batch_small-s{seed}"
    started: dict[int, float] = {}
    done: dict[int, float] = {}

    def on_event(event: dict) -> None:
        if event["event"] == "case_start":
            started[event["index"]] = time.perf_counter()
        elif event["event"] == "case_done":
            done[event["index"]] = time.perf_counter()

    (STATE / "tmp").mkdir(parents=True, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="batch-", dir=STATE / "tmp")
    try:
        path = f"{tmp}/journal.jsonl"
        journal = TimedJournal(path) if rec is not None else path
        clear_caches()
        synth = BatchSynthesizer(workers=WORKERS, on_event=on_event)
        t0 = time.perf_counter()
        report = synth.run(cases, journal=journal)
        wall = time.perf_counter() - t0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    il, power, digests, elapsed, stage_sums = [], [], [], [], {}
    errored = invalid = 0
    for result in report.results:
        out.attempted += 1
        if not result.ok:
            errored += 1
            out.problems.append(f"{result.label}: {result.error}")
            continue
        before = len(out.problems)
        il_w, power_w = check_design(result.design, result.label, out.problems)
        if len(out.problems) > before:
            invalid += 1
            continue
        il.append(il_w)
        power.append(power_w)
        digests.append(digest_of(result.design))
        elapsed.append(result.elapsed_s)
        add_stage_times(stage_sums, result.design.report)
    out.failed = errored + invalid
    if not il:
        out.problems.append("no case produced a valid design")
        return out
    latency = [done[i] - started[i] if i in done else MISSING for i in range(len(cases))]
    valid = out.attempted - out.failed
    out.primary = wall
    out.digest = combined_digest(digests)
    out.e2e = {
        "synth_s": statistics.median(elapsed),
        "cases_per_s": valid / wall,
        "job_p50_s": percentile(latency, 50),
        **quality(il, power),
    }
    out.samples = {"synth_s": len(elapsed), "cases_per_s": valid, "job_p50_s": len(latency),
                   "design_il_db": len(il), "design_power_w": len(power)}
    out.line("cases_per_s", out.e2e["cases_per_s"], "1/s", valid)
    out.line("batch_wall_s", wall, "s", 1)
    out.timing("case elapsed_s", elapsed)
    out.timing("job_s (case_start to case_done)", latency)
    out.line("fail_frac", fail_frac(out.attempted, errored=errored, invalid=invalid), "ratio",
             out.attempted)

    if rec is not None:
        root = rec.add("batch_small.run", t0, t0 + wall, rid)
        for i, case in enumerate(cases):
            if i in started and i in done:
                rec.add("parallel.case", started[i], done[i], case.label, parent=root.span_id)
        calls = journal.calls
        for start, end, _, label in calls:
            rec.add("parallel.journal.record", start, end, label, parent=root.span_id)
        per_call = [end - start for start, end, _, _ in calls]
        tenth = max(1, len(per_call) // 10)
        cache = report.cache_stats
        out.layer.update(synthesis_layers(report.metrics.snapshot(), stage_sums))
        out.layer.update({
            "parallel.journal.record_s.sum": sum(per_call),
            "parallel.journal.record_s.p90": percentile(per_call, 90),
            "parallel.journal.record_s.first_tenth_mean": sum(per_call[:tenth]) / tenth,
            "parallel.journal.record_s.last_tenth_mean": sum(per_call[-tenth:]) / tenth,
            "parallel.journal.bytes_written": sum(size for _, _, size, _ in calls),
            "parallel.supervisor.case_p50_s": percentile(elapsed, 50),
            "parallel.supervisor.case_p90_s": percentile(elapsed, 90),
            "parallel.supervisor.worker_idle_s": WORKERS * wall - sum(elapsed),
            "parallel.supervisor.retries": report.supervisor.get("retries", 0),
            "parallel.supervisor.worker_restarts": report.supervisor.get("worker_restarts", 0),
            "parallel.cache.tours.hit_rate": cache.get("tours", {}).get("hit_rate", 0.0),
            "parallel.cache.conflicts.hit_rate": cache.get("conflicts", {}).get("hit_rate", 0.0),
            "parallel.batch.self_s": rec.self_time(root),
        })
    return out
