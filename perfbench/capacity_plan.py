"""``capacity-plan``: trace spec to capacity plan through ``repro.fleet``.

One iteration: ``generate_trace`` on the fleet evaluation's seeded
4-tenant day spec cut to ``N_REQUESTS``, ``replay`` it against a real
one-worker dispatcher at a fixed dilation, ``validate_model`` the M/G/k
model against what the replay measured,
then ``plan_capacity`` for twice the peak window's rate.  Iterations
repeat until the time budget is spent; every iteration must replay
balanced and reproduce the same trace and outputs digests.
"""

from __future__ import annotations

import time

import numpy as np

import repro
from repro.compiler import PlanCache
from repro.eval.experiments import fleet_trace_spec
from repro.fleet import (
    ReplayConfig,
    ServiceProfile,
    SLOTarget,
    generate_trace,
    plan_capacity,
    validate_model,
)
from repro.fleet.replay import MODEL_LIBRARY, input_pools, replay
from repro.mcu.device import get_device
from repro.serving import Session

import layers
from harness import (
    CpuMeter,
    PhaseResult,
    Sent,
    Setups,
    Tracer,
    digest,
    median,
    pct,
    rss_peak_mb,
)

SETUP_REPS = 10  # set-ups before measuring; each later iteration adds one
N_REQUESTS = 3000
DILATION = 21_600.0  # a 24 h virtual day replays in 4 s of arrivals
WINDOW_S = 7200.0
WORKERS = 1
MAX_BATCH = 32
SLO = SLOTarget(p95_latency_s=0.025, deadline_hit_rate=0.99, deadline_s=0.25)


#: the fleet evaluation's four tenants, two on each device class
TENANTS = fleet_trace_spec().tenants


def compile_fleet() -> dict:
    """Each tenant's model on its own device, one shared plan cache, with
    the serving backend's per-batch-size state warmed for every size the
    replay's batch former can form."""
    cache = PlanCache()
    compiled = {}
    for t in TENANTS:
        cm = repro.compile(MODEL_LIBRARY[t.model](), device=get_device(t.device),
                           cache=cache)
        session = Session(cm, execution="turbo", max_batch=MAX_BATCH)
        x = np.zeros(cm.graph.tensors[cm.graph.inputs[0]].spec.shape, np.int8)
        for b in range(1, MAX_BATCH + 1):
            session.run_batch([x] * b)
        compiled[t.name] = cm
    return compiled


def iterate(seed, compiled, tracer=None):
    """One trace-spec-to-plan iteration; returns its pieces and step times."""
    marks = [time.monotonic()]
    trace = generate_trace(fleet_trace_spec(N_REQUESTS, seed))
    marks.append(time.monotonic())
    with CpuMeter() as cpu:
        result = replay(
            trace,
            config=ReplayConfig(
                dilation=DILATION, workers=WORKERS, max_batch=MAX_BATCH,
                window_s=WINDOW_S, max_queue_depth=65_536,
            ),
            compiled=compiled,
        )
    marks.append(time.monotonic())
    report = validate_model(result, min_requests=150)
    marks.append(time.monotonic())
    merged = result.telemetry.merged("tenant")
    peak = max((r.window for r in report.rows),
               key=lambda w: merged[w].completed)
    plan = plan_capacity(
        arrival_rate_rps=2.0 * merged[peak].completed / (WINDOW_S / DILATION),
        profile=ServiceProfile.from_window(merged[peak],
                                           overhead_s=report.overhead_s),
        slo=SLO,
        ca2=float(trace.window_ca2(WINDOW_S)[peak]),
    )
    marks.append(time.monotonic())
    if tracer is not None:
        root = tracer.add("capacity.plan", marks[0], marks[-1])
        for name, a, b in zip(
            ("fleet.generate_trace", "fleet.replay", "fleet.validate_model",
             "fleet.plan_capacity"), marks, marks[1:]
        ):
            tracer.add(name, a, b, parent=root)
    steps = [b - a for a, b in zip(marks, marks[1:])]
    return trace, result, report, plan, steps, cpu


def due_times(result):
    """Completed records of a replay, each with the time it was due.

    The replay submits request ``i`` at ``base + arrival_i / dilation``
    or later; ``base`` is recovered as the earliest ``admit_t`` less its
    scheduled offset, so lateness is measured against the least-late
    request (a few tens of microseconds at most).
    """
    done = [r for r in result.records if r.outcome == "completed"]
    offset = [r.arrival_virtual_s / DILATION for r in done]
    base = min(r.admit_t - o for r, o in zip(done, offset))
    return done, [base + o for o in offset]


def check_outputs(result, compiled) -> int:
    """Completed outputs that differ from the reference on the pool."""
    pools = input_pools(result.trace, compiled)
    sizes = {t.name: t.pool_size for t in result.trace.spec.tenants}
    refs = {
        (t, i): compiled[t].reference(feeds=f)
        for t, pool in pools.items() for i, f in enumerate(pool)
    }
    wrong = 0
    for rec in result.records:
        if rec.outcome != "completed":
            continue
        draw = int(result.trace.input_draw[rec.index]) % sizes[rec.tenant]
        wrong += not np.array_equal(rec.output, refs[(rec.tenant, draw)])
    return wrong


def run(name: str, seed: int, seconds: float, trace: bool, out_dir) -> dict:
    setups = Setups(compile_fleet)
    compiled = setups.first(SETUP_REPS)
    tracer = Tracer() if trace else None
    t_end = time.monotonic() + (1.0 if not trace else 0.5) * seconds
    # untraced, every iteration after the first starts on a fresh set-up,
    # timed as one more set-up sample
    iters = [iterate(seed, compiled, tracer)]
    while time.monotonic() + sum(iters[-1][4]) < t_end:
        fleet = compiled if trace else setups.one()
        iters.append(iterate(seed, fleet, tracer))
    trace0, result0 = iters[0][0], iters[0][1]
    attempted = failed = wrong = 0
    mismatched = 0
    lat, lag = [], []
    for tr, res, *_ in iters:
        counts = res.outcome_counts()
        attempted += len(res.records)
        failed += len(res.records) - counts["completed"]
        wrong += check_outputs(res, compiled)
        mismatched += (
            not res.balanced
            or tr.digest() != trace0.digest()
            or res.outputs_digest() != result0.outputs_digest()
        )
        done, due = due_times(res)
        lat += [r.complete_t - d for r, d in zip(done, due)]
        lag += [r.admit_t - d for r, d in zip(done, due)]
    walls = [sum(it[4]) for it in iters]
    report = {
        "digests": {
            "trace_spec": digest(fleet_trace_spec(N_REQUESTS, seed).to_json()),
            "trace": trace0.digest(),
            "outputs": result0.outputs_digest(),
        },
        "iterations": len(iters),
        "plan": {"workers": iters[-1][3].workers,
                 "feasible": iters[-1][3].feasible},
        "attempted": attempted,
        "failed": failed + wrong,
        "correct": wrong == 0 and mismatched == 0,
        "samples": {"replayed_requests": len(lat)},
    }
    lat_ms = [1e3 * x for x in lat]
    if not trace:
        n = len(lat_ms)
        setup_s = setups.median_s
        report["named"] = {
            "setup_s": (setup_s, "s", len(setups.times)),
            "plan_wall_s": (median(walls), "s", len(walls)),
            "cpu_ms_per_op": (
                1e3 * sum(it[5].cpu_s for it in iters) / attempted, "ms"
            ),
            "latency_p50_ms": (pct(lat_ms, 50), "ms", n),
            "latency_p90_ms": (pct(lat_ms, 90), "ms", n),
            "latency_p99_ms": (pct(lat_ms, 99), "ms", n),
            "failed_pct": (100.0 * (failed + wrong) / attempted, "%"),
            "rss_peak_mb": (rss_peak_mb(), "MB"),
        }
        report["metrics"] = {
            "setup_s": setup_s,
            "throughput_per_s": N_REQUESTS / median(walls),
            "rss_peak_mb": rss_peak_mb(),
        }
        return report
    report.update(_layers(iters, compiled, seed, lag, tracer, out_dir))
    report["correct"] &= report.pop("probe_correct")
    report["correct"] &= report["addup"]["passed"]
    return report


def _layers(iters, compiled, seed, lag, tracer, out_dir) -> dict:
    steps = np.median(np.array([it[4] for it in iters]), axis=0)
    result = iters[-1][1]
    validation = iters[-1][2]
    # a replay record carries the same stamps as the DispatchResult it
    # was made from, so it stands in for one
    done, due = due_times(result)
    phase = PhaseResult(
        sent=[
            Sent(tenant=r.tenant, draw=0, due=d, submit_start=r.admit_t,
                 submit_end=r.admit_t, result=r)
            for r, d in zip(done, due)
        ]
    )

    pools = input_pools(result.trace, compiled)
    probes, compiles, mcus, correct = {}, {}, {}, True
    for t in TENANTS:
        cm = compiled[t.name]
        refs = [cm.reference(feeds=f) for f in pools[t.name]]
        probes[t.name], ok = layers.model_probe(cm, pools[t.name], refs)
        correct &= ok
        compiles[t.name] = layers.compile_probe(
            MODEL_LIBRARY[t.model](), get_device(t.device), reps=5
        )
        mcus[t.name] = layers.mcu_probe(cm, pools[t.name][0])
    weights = {k: max(v, 1) for k, v in result.trace.tenant_counts().items()}
    metrics = layers.layer_metrics(
        layers.combine(probes, weights),
        layers.combine(compiles, weights),
        layers.combine(mcus, weights),
    )
    metrics["mcu.peak_sram_bytes"] = max(
        m["peak_sram_bytes"] for m in mcus.values()
    )
    metrics.update(
        layers.serving_metrics(
            phase, workers=WORKERS,
            session_s_at=layers.session_time_at(probes),
            stats=result.stats, high={"alpha"}, low={"delta"},
        )
    )
    # submit is inside the replay; its cost shows as lateness instead
    metrics["serving.submit_us"] = 1e6 * median(lag) if lag else 0.0
    metrics["harness.lag_p99_ms"] = 1e3 * pct(lag, 99)
    replay_cpu = median([it[5].pct for it in iters])
    metrics["host.cpu_pct"] = replay_cpu
    # tracing here is four spans per iteration: compare traced iterations'
    # plan wall with an untraced one run just after
    untraced = iterate(seed, compiled)[4]
    metrics["harness.trace_overhead_pct"] = 100.0 * (
        float(np.sum(steps)) - sum(untraced)
    ) / sum(untraced)
    self_t = tracer.self_times()
    tracer.write(out_dir / "spans-capacity-plan.jsonl")
    fleet = {
        "fleet.trace_gen_s": float(steps[0]),
        "fleet.replay_s": float(steps[1]),
        "fleet.validate_s": float(steps[2]),
        "fleet.plan_s": float(steps[3]),
        "fleet.replay_cpu_pct": replay_cpu,
        "fleet.replay_lag_ms": 1e3 * result.max_submit_lag_s,
        "fleet.model_p95_err_pct": 100.0 * validation.mean_p95_error,
    }
    gap = metrics["kernels.stage_sum_gap_pct"]
    return {
        "metrics": metrics,
        "fleet_layer": fleet,
        "self_ms": {k: 1e3 * v for k, v in self_t.items()},
        "addup": {
            "stage_sum_gap_pct": gap,
            "passed": gap < layers.STAGE_SUM_TOLERANCE_PCT,
        },
        "probe_correct": correct,
    }
