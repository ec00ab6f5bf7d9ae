"""``service_mix``: open-loop ``POST /jobs`` traffic against a real
``python -m repro serve`` subprocess (job store, file L2 cache, port 0).

One generator thread sends on a fixed schedule in two phases, ``lo``
then ``hi``.  70% of requests are new 8-node lattice floorplans and
30% repeat an earlier submission.  A phase's job records are fetched
only after the server has drained it, so polling adds no load while
requests are due.  Latency is measured from the time a request was
due, against the server's ``updated_unix`` stamp.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from repro import XRingSynthesizer
from repro.service import case_from_spec, parse_address

from common import STATE, Outcome, check_design, combined_digest, digest_of, lattice_points, quality, warm_up
from stats import MISSING, fail_frac, latency_from_due, percentile, within_limit_frac

ROOT = Path(__file__).resolve().parent.parent
PHASES = (("lo", 4.0), ("hi", 8.0))  # (name, requests per second)
PHASE_REQUESTS = 100
REPEAT_SHARE = 0.3
NODES = 8
#: ``within_limit_frac.hi``: a request is on time when done this long after due.
LIMIT_S = 1.0
#: Unique floorplans re-synthesized locally to check the server's designs.
CHECK_SAMPLE = 24
READY_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 90.0
#: The traced pass only reads job records and traces after each phase
#: has drained, so nothing inside the measured window changes and a
#: traced/untraced timing ratio would be run-to-run noise.
TRACE_IN_WINDOW = False


@dataclass
class Request:
    phase: str
    offset_s: float  # due time after the phase starts
    spec: dict
    repeat: bool
    due: float = 0.0  # unix seconds
    sent: float = 0.0
    acked: float = 0.0
    status: int = 0
    job_id: str = ""


def setup(seed: int, seconds: int) -> list[Request]:
    rng = random.Random(seed)
    uniques: list[dict] = []
    schedule = []
    for phase, rate in PHASES:
        for i in range(PHASE_REQUESTS):
            if uniques and rng.random() < REPEAT_SHARE:
                schedule.append(Request(phase, i / rate, rng.choice(uniques), True))
                continue
            points = lattice_points(rng, NODES)
            spec = {"positions": [[p.x, p.y] for p in points], "label": f"m{seed}-{len(uniques)}"}
            uniques.append(spec)
            schedule.append(Request(phase, i / rate, spec, False))
    warm_up()
    return schedule


class Server:
    """One ``serve`` process with its own store and L2 directories."""

    def __init__(self) -> None:
        (STATE / "tmp").mkdir(parents=True, exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="serve-", dir=STATE / "tmp"))
        store = self.dir / "store"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        self.log = open(self.dir / "server.log", "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", "--store", str(store),
             "--cache-dir", str(self.dir / "l2")],
            stdout=self.log, stderr=subprocess.STDOUT, env=env, cwd=ROOT,
        )
        deadline = time.monotonic() + READY_TIMEOUT_S
        self.host, self.port = None, None
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                break
            try:
                self.host, self.port = parse_address((store / "address").read_text())
                if self.get("/readyz")[0] == 200:
                    return
            except (OSError, ValueError):
                pass
            time.sleep(0.01)
        self.stop()
        raise RuntimeError(f"server did not become ready; see {self.dir}/server.log")

    def request(self, method: str, path: str, body: dict | None = None) -> tuple[int, dict | None]:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            payload = None if body is None else json.dumps(body).encode()
            headers = {} if body is None else {"Content-Type": "application/json"}
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            data = response.read()
            try:
                return response.status, json.loads(data)
            except ValueError:
                return response.status, None
        except OSError:
            return 0, None
        finally:
            conn.close()

    def get(self, path: str) -> tuple[int, dict | None]:
        return self.request("GET", path)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()
        shutil.rmtree(self.dir, ignore_errors=True)


def start_timed() -> tuple[Server, float]:
    start = time.perf_counter()
    server = Server()
    return server, time.perf_counter() - start


def _send_phase(server: Server, requests: list[Request], start_mono: float, to_unix: float) -> None:
    """The open-loop generator (one thread): each request is sent at its
    due time or, when the previous send ran late, as soon as it can."""
    for req in requests:
        due = start_mono + req.offset_s
        pause = due - time.monotonic()
        if pause > 0:
            time.sleep(pause)
        req.due = due + to_unix
        req.sent = time.monotonic() + to_unix
        req.status, body = server.request("POST", "/jobs", req.spec)
        req.acked = time.monotonic() + to_unix
        if body is not None and req.status in (200, 201):
            req.job_id = body["job_id"]


def _drain(server: Server) -> None:
    deadline = time.monotonic() + DRAIN_TIMEOUT_S
    while time.monotonic() < deadline:
        status, stats = server.get("/stats")
        if status == 200 and stats["queue_depth"] == 0 and stats["running"] == 0:
            return
        time.sleep(0.05)
    raise RuntimeError("server did not drain a phase in time")


def measure(schedule: list[Request], seed: int, seconds: int, rec=None, server=None) -> Outcome:
    server = server or Server()
    try:
        return _measure(server, schedule, seed, rec)
    finally:
        server.stop()


def _measure(server: Server, schedule: list[Request], seed: int, rec) -> Outcome:
    out = Outcome()
    requests = [Request(r.phase, r.offset_s, r.spec, r.repeat) for r in schedule]
    records: dict[str, dict] = {}
    backlog: dict[str, int] = {}
    to_unix = time.time() - time.monotonic()
    for phase, _ in PHASES:
        batch = [r for r in requests if r.phase == phase]
        start = time.monotonic() + 0.05
        _send_phase(server, batch, start, to_unix)
        backlog[phase] = server.get("/stats")[1]["queue_depth"]
        _drain(server)
        for job_id in {r.job_id for r in batch if r.job_id} - set(records):
            status, body = server.get(f"/jobs/{job_id}")
            if status == 200:
                records[job_id] = body
    _, stats = server.get("/stats")

    latency: dict[int, float] = {}
    refused = errored = 0
    for i, req in enumerate(requests):
        record = records.get(req.job_id)
        if req.status not in (200, 201) or record is None:
            refused += 1
            latency[i] = MISSING
            continue
        if record["state"] != "done":
            errored += 1
            latency[i] = MISSING
            continue
        done = record["updated_unix"]
        if req.repeat:
            done = max(done, req.acked)
        latency[i] = latency_from_due(req.due, done)

    unique_jobs = {r.job_id: r for r in requests if not r.repeat and r.job_id in records}
    done_jobs = [records[j] for j in unique_jobs if records[j]["state"] == "done"]
    problems_before = len(out.problems)
    il, power = _check_sample(seed, unique_jobs, records, out)
    invalid = len(out.problems) - problems_before
    out.attempted = len(requests)
    out.failed = refused + errored + invalid
    out.digest = combined_digest(sorted(f"{r['label']}:{r['digest']}" for r in done_jobs))

    def pick(phase=None, repeat=False):
        return [latency[i] for i, r in enumerate(requests)
                if r.repeat == repeat and (phase is None or r.phase == phase)]

    unique_all, unique_lo = pick(), pick("lo")
    out.e2e = {
        "synth_s": statistics.median(r["elapsed_s"] for r in done_jobs),
        "cases_per_s": len(done_jobs) / sum(r["elapsed_s"] for r in done_jobs),
        # The lo phase only: at hi the single solver is ~80% busy, so
        # queueing multiplies every change of host speed several times
        # over; the hi figures are printed and emitted per layer.
        "job_p50_s": percentile(unique_lo, 50),
        **quality(il, power),
    }
    out.samples = {"synth_s": len(done_jobs), "cases_per_s": len(done_jobs),
                   "job_p50_s": len(unique_lo), "design_il_db": len(il), "design_power_w": len(power)}
    acks = [r.acked - r.sent for r in requests]
    hi_all = [latency[i] for i, r in enumerate(requests) if r.phase == "hi"]
    lag = [r.sent - r.due for r in requests]
    repeats = pick(repeat=True)
    detail = {"job_p90_s": percentile(unique_all, 90)}
    out.timing("job_s (unique, due to done)", unique_all)
    for phase, _ in PHASES:
        values = pick(phase)
        detail[f"job_p50_s.{phase}"] = percentile(values, 50)
        detail[f"job_p90_s.{phase}"] = percentile(values, 90)
        out.timing(f"job_s.{phase}", values)
        out.line(f"job_p90_s.{phase}", detail[f"job_p90_s.{phase}"], "s", len(values))
    detail["repeat_p90_s"] = percentile(repeats, 90)
    detail["ack_p90_s"] = percentile(acks, 90)
    detail["within_limit_frac.hi"] = within_limit_frac(hi_all, LIMIT_S)
    detail["fail_frac"] = fail_frac(out.attempted, errored, refused, invalid)
    out.timing("repeat_s (due to done)", repeats)
    out.timing("ack_s (POST round trip)", acks)
    out.line("within_limit_frac.hi", detail["within_limit_frac.hi"], "ratio", len(hi_all))
    out.line("fail_frac", detail["fail_frac"], "ratio", out.attempted)
    out.line("backlog_end.lo", backlog["lo"], "jobs", 1)
    out.line("backlog_end.hi", backlog["hi"], "jobs", 1)
    out.line("gen_lag_p90_s", percentile(lag, 90), "s", len(lag))

    if rec is not None:
        _trace(rec, server, requests, unique_jobs, records, stats, backlog, lag, detail, to_unix, out)
    return out


def _check_sample(seed, unique_jobs, records, out) -> tuple[list, list]:
    """Every unique job must be done; a seeded sample is re-synthesized
    locally, validated, evaluated and compared by design digest."""
    ids = sorted(unique_jobs)
    for job_id in ids:
        if records[job_id]["state"] != "done" or not records[job_id]["digest"]:
            out.problems.append(f"job {job_id}: {records[job_id]['state']} {records[job_id]['error']}")
    sample = random.Random(seed).sample(ids, min(CHECK_SAMPLE, len(ids)))
    il, power = [], []
    for job_id in sample:
        case = case_from_spec(unique_jobs[job_id].spec)
        design = XRingSynthesizer(case.network, case.options).run()
        il_w, power_w = check_design(design, f"job {job_id}", out.problems)
        il.append(il_w)
        power.append(power_w)
        if digest_of(design) != records[job_id]["digest"]:
            out.problems.append(f"job {job_id}: server design differs from a local synthesis")
    return il, power


def _trace(rec, server, requests, unique_jobs, records, stats, backlog, lag, detail, to_unix, out):
    """Per-layer split from each unique job's stitched server trace."""
    queue_wait, finish, solve = [], [], []
    stage_sums = {"ring": 0.0, "shortcuts": 0.0}
    for req in requests:
        rec.add("service.post", req.sent - to_unix, req.acked - to_unix, req.job_id or "refused",
                phase=req.phase, status=req.status)
    for job_id in sorted(unique_jobs):
        record = records[job_id]
        status, trace = server.get(f"/jobs/{job_id}/trace")
        if status != 200:
            out.problems.append(f"job {job_id}: no trace ({status})")
            continue
        spans = trace["spans"]
        root = next(s for s in spans if s.get("name") == "job")
        end = root["start_unix"] + root["duration_s"]
        queue_wait.append(root["start_unix"] - record["created_unix"])
        finish.append(record["updated_unix"] - end)
        solve.append(record["elapsed_s"])
        job = rec.add("service.job", record["created_unix"] - to_unix,
                      record["updated_unix"] - to_unix, job_id)
        rec.add("service.queue_wait", record["created_unix"] - to_unix,
                root["start_unix"] - to_unix, job_id, parent=job.span_id)
        rec.add("service.solve", root["start_unix"] - to_unix, end - to_unix, job_id,
                parent=job.span_id)
        for span in spans:
            stage = span.get("name", "")[len("stage."):]
            if span.get("name", "").startswith("stage.") and stage in stage_sums:
                stage_sums[stage] += span["duration_s"]
    l2 = (stats.get("cache_l2") or {}).get("counters", {})
    out.layer.update({f"service.{name}": value for name, value in detail.items()})
    out.layer.update({
        "service.queue_wait_p90_s": percentile(queue_wait, 90),
        "service.solve_p50_s": percentile(solve, 50),
        "service.solve_p90_s": percentile(solve, 90),
        "service.finish_p90_s": percentile(finish, 90),
        "service.stage.ring.s_sum": stage_sums["ring"],
        "service.stage.shortcuts.s_sum": stage_sums["shortcuts"],
        "service.solves": stats["solves"],
        "service.dedup_hits": stats["dedup_hits"],
        "service.rejected_queue_full": stats["rejected_queue_full"],
        "service.cache_l2_result_hits": stats["cache_l2_result_hits"],
        "parallel.store.puts": sum(v for k, v in l2.items() if k.split(":")[0] == "puts"),
        "parallel.store.hits": sum(v for k, v in l2.items() if k.split(":")[0] == "hits"),
        "service.backlog_end.lo": backlog["lo"],
        "service.backlog_end.hi": backlog["hi"],
        "service.gen_lag_p90_s": percentile(lag, 90),
    })
