"""The two open-loop serving workloads: ``vww-open`` and ``tenants-open``.

Both drive one ``Dispatcher(workers=2)`` from this process's main thread
on a seeded arrival schedule and time every request from when it was
due.  ``vww-open`` is compute-bound (one VWW classifier, 4-8 ms of work
per request); ``tenants-open`` is dispatch-bound (four tiny chains, tens
of microseconds of work per request, at 12.5x the rate).
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, replace

import numpy as np

import repro
from repro.compiler import PlanCache
from repro.eval.experiments import fleet_trace_spec
from repro.fleet import TenantSpec, TraceSpec, generate_trace
from repro.fleet.replay import MODEL_LIBRARY, input_pools
from repro.graph.models import build_classifier_graph
from repro.mcu.device import get_device
from repro.serving import Dispatcher, FleetConfig, TenantPolicy

import layers
from harness import (
    CpuMeter,
    PhaseResult,
    Schedule,
    Setups,
    Tracer,
    digest,
    drive,
    median,
    pct,
    rss_peak_mb,
    sub_seed,
)

WORKERS = 2
GROWTH = 1.1  # ladder step between rungs
SETUP_REPS = 10  # set-ups before measuring; each drain block adds one
BLOCK_S = 1.5  # drain time on each fresh set-up
PASS_SHARE = 0.99  # share of a rung that must meet its limit
#: graph builders a tenant's ``model`` names: the fleet library and VWW
MODELS = {
    **MODEL_LIBRARY,
    "vww": lambda: build_classifier_graph("vww", classes=2),
}


@dataclass(frozen=True)
class OpenWorkload:
    name: str
    #: tenants and arrival process; each phase sets the seed, the count
    #: and a horizon that ``dilation`` compresses onto the phase's rate
    traffic: TraceSpec
    dilation: float
    fixed_rps: float
    fixed_requests: int
    ladder_from_rps: float
    #: requests per ladder rung: every rung is judged on the same count
    rung_requests: int
    drain_backlog: int
    max_batch: int

    @property
    def tenants(self) -> tuple[TenantSpec, ...]:
        return self.traffic.tenants


VWW_OPEN = OpenWorkload(
    name="vww-open",
    # one tenant at a constant intensity: Poisson arrivals
    traffic=TraceSpec(
        tenants=(
            TenantSpec(name="vww", model="vww", device="F411RE",
                       deadline_s=0.100, pool_size=16),
        ),
        zipf_s=0.0,
        diurnal_amplitude=0.0,
        burst_multiplier=1.0,
    ),
    dilation=1.0,
    fixed_rps=80.0,
    fixed_requests=1000,
    ladder_from_rps=100.0,
    rung_requests=100,
    drain_backlog=128,
    max_batch=8,
)

# the fleet evaluation's tenants, Zipf mix and calm/burst arrivals, without
# the diurnal swing; its virtual day compresses onto the 8 s fixed phase
TENANTS_OPEN = OpenWorkload(
    name="tenants-open",
    traffic=replace(fleet_trace_spec(), diurnal_amplitude=0.0),
    dilation=86_400.0 / 8.0,
    fixed_rps=1000.0,
    fixed_requests=8000,
    ladder_from_rps=1000.0,
    rung_requests=1000,
    drain_backlog=2048,
    max_batch=32,
)

WORKLOADS = {w.name: w for w in (VWW_OPEN, TENANTS_OPEN)}


# --------------------------------------------------------------------------- #
# inputs: schedules and pools, all from the seed
# --------------------------------------------------------------------------- #
def traffic(wl: OpenWorkload, seed: int, tag: int, rate: float, n: int):
    """The seeded trace of one phase: ``n`` requests at mean ``rate``/s."""
    return generate_trace(
        replace(
            wl.traffic, seed=sub_seed(seed, tag), n_requests=n,
            horizon_s=n / rate * wl.dilation,
        )
    )


def schedule(wl: OpenWorkload, trace) -> Schedule:
    """A phase's trace as the generator's schedule, in real seconds."""
    names = trace.tenant_names()
    sizes = np.array([t.pool_size for t in wl.tenants])[trace.tenant_id]
    return Schedule(
        offsets=trace.arrival_s / wl.dilation,
        tenants=[names[i] for i in trace.tenant_id],
        draws=trace.input_draw % sizes,
    )


# --------------------------------------------------------------------------- #
# set-up
# --------------------------------------------------------------------------- #
def compile_models(wl: OpenWorkload) -> dict:
    cache = PlanCache()
    return {
        t.name: repro.compile(
            MODELS[t.model](), device=get_device(t.device), cache=cache
        )
        for t in wl.tenants
    }


def fleet_config(wl: OpenWorkload) -> FleetConfig:
    return FleetConfig(
        tenants={
            t.name: TenantPolicy(
                weight=t.weight, priority=t.priority, deadline_s=t.deadline_s
            )
            for t in wl.tenants
        },
        min_workers=WORKERS,
        max_workers=WORKERS,
        max_batch=wl.max_batch,
        max_queue_depth=65_536,
    )


class Served:
    """Compiled models plus the started, warmed dispatcher serving them."""

    def __init__(self, wl: OpenWorkload, warm_feeds):
        self.models = compile_models(wl)
        self.dispatcher = Dispatcher(
            self.models, workers=WORKERS, config=fleet_config(wl)
        )
        # the backends fill per-batch-size caches on first use, so warm
        # every size the batch former can form, then send one request per
        # tenant through the dispatcher: the last step before timing
        for t in wl.tenants:
            session = self.dispatcher.sessions[t.name]
            for b in range(1, wl.max_batch + 1):
                session.run_batch([warm_feeds[t.name]] * b)
        self.dispatcher.run_many(
            [(t.name, warm_feeds[t.name]) for t in wl.tenants]
        )

    def close(self):
        self.dispatcher.close()


def _warm_feeds(wl: OpenWorkload) -> dict:
    out = {}
    for t in wl.tenants:
        g = MODELS[t.model]()
        out[t.name] = {
            n: np.zeros(g.tensors[n].spec.shape, np.int8) for n in g.inputs
        }
    return out


# --------------------------------------------------------------------------- #
# phases
# --------------------------------------------------------------------------- #
def _limits(wl):
    return {t.name: t.deadline_s for t in wl.tenants}


def within_limit(phase: PhaseResult, limits) -> int:
    return sum(s.ok and s.latency_s <= limits[s.tenant] for s in phase.sent)


def ladder(wl, served, pools, refs, seed, budget_s):
    """Climb ``x1.1`` rungs until one misses; returns the last passing rate.

    Rungs are ``(rate, share within limit, backlog)``; a ladder that runs
    out of time before a rung misses says so as its last entry.

    A rung passes when at least 99% of its requests complete within their
    limit (failed or refused requests miss) and the backlog left when its
    last request was submitted is no more than one full batch per worker.
    """
    limits = _limits(wl)
    t_end = time.monotonic() + budget_s
    best, rungs, attempted, failed, wrong = 0.0, [], 0, 0, 0
    for k in range(1000):
        rate = wl.ladder_from_rps * GROWTH**k
        if time.monotonic() + wl.rung_requests / rate > t_end:
            rungs.append("stopped by the time budget, not by a miss")
            break
        sch = schedule(
            wl, traffic(wl, seed, 0x1ADD + k, rate, wl.rung_requests)
        )
        ph = drive(served.dispatcher, sch, pools, refs)
        attempted += len(ph.sent)
        failed += ph.failed
        wrong += ph.wrong
        share = within_limit(ph, limits) / len(ph.sent)
        ok = share >= PASS_SHARE and ph.backlog_at_end <= WORKERS * wl.max_batch
        rungs.append((round(rate, 1), round(share, 4), ph.backlog_at_end))
        if not ok:
            break
        best = rate
    return best, rungs, attempted, failed, wrong


def drain(wl, served, pools, refs, seed, reps, tracer=None, budget_s=0.0,
          tag=0xD0):
    """Completed requests per second over a fixed backlog submitted at once.

    Repeats at least ``reps`` times and until ``budget_s`` is spent; the
    ``r``-th backlog is the seed's trace for ``tag + r``.
    """
    rates, walls, attempted, failed, wrong = [], [], 0, 0, 0
    t_end = time.monotonic() + budget_s
    r = 0
    while r < reps or time.monotonic() < t_end:
        sch = schedule(wl, traffic(wl, seed, tag + r, 1.0, wl.drain_backlog))
        sch.offsets = np.zeros(wl.drain_backlog)
        t0 = time.monotonic()
        ph = drive(served.dispatcher, sch, pools, refs, tracer=tracer)
        walls.append(time.monotonic() - t0)
        attempted += len(ph.sent)
        failed += ph.failed
        wrong += ph.wrong
        first = min(s.submit_start for s in ph.sent)
        last = max(s.result.complete_t for s in ph.sent if s.result is not None)
        rates.append(sum(s.ok for s in ph.sent) / (last - first))
        r += 1
    return rates, walls, attempted, failed, wrong


def throughput(wl, setups, pools, refs, seed, budget_s):
    """Drain blocks until ``budget_s`` is spent (at least three).

    Each block drains for ``BLOCK_S`` on a fresh set-up, timed as one more
    set-up sample.  A dispatcher's drain rate falls as it serves (from
    8.6k to 7.3k req/s over 15 s of draining on the 2-core box), and a
    long-lived one ran 20-30% apart from process to process, while fresh
    ones in one process agreed within a few percent; so every block
    starts fresh and the rate is the median over the blocks.  Each block
    drains backlogs of its own, so the rate is not that of one tenant
    order the seed happened to draw.
    """
    rates, attempted, failed, wrong, cpu_s = [], 0, 0, 0, 0.0
    t_end = time.monotonic() + budget_s
    while len(rates) < 3 or time.monotonic() < t_end:
        served = setups.one()
        try:
            with CpuMeter() as cpu:
                r, _, a, f, w = drain(
                    wl, served, pools, refs, seed, 1, budget_s=BLOCK_S,
                    tag=0xD0 + 0x100 * len(rates),
                )
        finally:
            served.close()
            # free the closed set-up now, outside the timed drains, so
            # the process's peak RSS does not depend on when gc runs
            gc.collect()
        rates.append(median(r))
        attempted, failed, wrong = attempted + a, failed + f, wrong + w
        cpu_s += cpu.cpu_s
    return rates, attempted, failed, wrong, cpu_s


# --------------------------------------------------------------------------- #
# the workload
# --------------------------------------------------------------------------- #
def run(name: str, seed: int, seconds: float, trace: bool, out_dir) -> dict:
    wl = WORKLOADS[name]
    warm = _warm_feeds(wl)
    setups = Setups(lambda: Served(wl, warm))
    served = setups.first(SETUP_REPS)
    try:
        return _measure(wl, served, setups, seed, seconds, trace, out_dir)
    finally:
        served.close()


def _measure(wl, served, setups, seed, seconds, trace, out_dir) -> dict:
    fixed_trace = traffic(wl, seed, 0xF1, wl.fixed_rps, wl.fixed_requests)
    fixed_sch = schedule(wl, fixed_trace)
    pools = input_pools(fixed_trace, served.models)
    refs = {
        t: [served.models[t].reference(feeds=f) for f in pool]
        for t, pool in pools.items()
    }
    report = {
        "digests": {
            "traffic_spec": digest(fixed_trace.spec.to_json()),
            "schedule": fixed_sch.digest(),
            "input_pool": digest(
                *[f[k] for p in pools.values() for f in p for k in sorted(f)]
            ),
        },
    }
    # the fixed rate first, traced in the traced run; then the untraced
    # run spends ``seconds`` on the drain blocks behind the bounded
    # throughput, and the traced run on the probes and the rate ladder
    tracer = Tracer() if trace else None
    fixed = drive(served.dispatcher, fixed_sch, pools, refs, tracer=tracer)
    attempted, failed, wrong = len(fixed.sent), fixed.failed, fixed.wrong
    lat = fixed.latencies_ms()
    n = len(lat)
    if not trace:
        # only one set-up is alive at a time, so the peak RSS is one's
        served.close()
        gc.collect()
        rates, a, f, w, cpu_s = throughput(
            wl, setups, pools, refs, seed, seconds
        )
        attempted, failed, wrong = attempted + a, failed + f, wrong + w
        mcu_ms = float(np.mean([
            s.result.stats.report.latency_ms for s in fixed.sent if s.ok
        ]))
        report["named"] = {
            "latency_p50_ms": (pct(lat, 50), "ms", n),
            "latency_p90_ms": (pct(lat, 90), "ms", n),
            "latency_p99_ms": (pct(lat, 99), "ms", n),
            "drain_rps": (median(rates), "1/s", len(rates)),
            "cpu_ms_per_op": (1e3 * cpu_s / max(1, a - f), "ms"),
            "failed_pct": (100.0 * failed / attempted, "%"),
            "mcu_latency_ms": (mcu_ms, "ms"),
            "rss_peak_mb": (rss_peak_mb(), "MB"),
            "setup_s": (setups.median_s, "s", len(setups.times)),
        }
        report["metrics"] = {
            "setup_s": setups.median_s,
            "throughput_per_s": median(rates),
            "rss_peak_mb": rss_peak_mb(),
        }
        report["correct"] = wrong == 0
    else:
        report.update(
            _layers(wl, served, pools, refs, seed, fixed, tracer, out_dir)
        )
        report["metrics"]["harness.lag_p99_ms"] = 1e3 * pct(
            [s.submit_start - s.due for s in fixed.sent], 99
        )
        report["metrics"]["host.cpu_pct"] = fixed.cpu_pct
        max_rate, rungs, a, f, w = ladder(
            wl, served, pools, refs, seed, 0.5 * seconds
        )
        attempted, failed, wrong = attempted + a, failed + f, wrong + w
        report["ladder"] = rungs
        report["named"] = {"max_rate_rps": (max_rate, "1/s")}
        report["correct"] = (
            wrong == 0 and report.pop("probe_correct")
            and report["addup"]["passed"]
        )
    report["attempted"], report["failed"] = attempted, failed
    errors = sorted({type(s.error).__name__ for s in fixed.sent if s.error})
    if errors:
        report["errors"] = errors
    return report


def _layers(wl, served, pools, refs, seed, fixed, tracer, out_dir) -> dict:
    """The traced run's per-layer numbers (fixed phase already traced)."""
    # tracing overhead: the same drain, untraced and traced, alternating
    plain, traced = [], []
    for r in range(2):
        plain += drain(wl, served, pools, refs, seed + 7919 * r, 1)[1]
        traced += drain(wl, served, pools, refs, seed + 7919 * r, 1,
                        tracer=Tracer())[1]
    probes, compiles, mcus, correct = {}, {}, {}, True
    for t in wl.tenants:
        cm = served.models[t.name]
        probes[t.name], ok = layers.model_probe(
            cm, pools[t.name], refs[t.name]
        )
        correct &= ok
        compiles[t.name] = layers.compile_probe(
            MODELS[t.model](), get_device(t.device), reps=5
        )
        mcus[t.name] = layers.mcu_probe(cm, pools[t.name][0])
    mix = {t.name: 0 for t in wl.tenants}
    for s in fixed.sent:
        mix[s.tenant] += 1
    weights = {k: max(v, 1) for k, v in mix.items()}
    metrics = layers.layer_metrics(
        layers.combine(probes, weights),
        layers.combine(compiles, weights),
        layers.combine(mcus, weights),
    )
    metrics["mcu.peak_sram_bytes"] = max(
        m["peak_sram_bytes"] for m in mcus.values()
    )
    prio = sorted({t.priority for t in wl.tenants})
    metrics.update(
        layers.serving_metrics(
            fixed,
            workers=WORKERS,
            session_s_at=layers.session_time_at(probes),
            stats=served.dispatcher.stats,
            high={t.name for t in wl.tenants if t.priority == prio[-1]},
            low={t.name for t in wl.tenants if t.priority == prio[0]},
        )
    )
    metrics["harness.trace_overhead_pct"] = 100.0 * (
        median(traced) - median(plain)
    ) / median(plain)
    # add-up: each request's children (lag, submit, queue, batch) must
    # cover it from due time to completion.  They tile it exactly when the
    # dispatcher stamps admission inside submit() and on the generator's
    # clock, so a gap means its stamps and this harness disagree
    self_t = tracer.self_times()
    total = sum(s.latency_s for s in fixed.sent if s.result is not None)
    uncovered = self_t.get("harness.request", 0.0) / total if total else 0.0
    tracer.write(out_dir / f"spans-{wl.name}.jsonl")
    gap = metrics["kernels.stage_sum_gap_pct"]
    return {
        "metrics": metrics,
        "self_ms": {k: 1e3 * v for k, v in self_t.items()},
        "addup": {
            "request_uncovered_pct": 100.0 * uncovered,
            "stage_sum_gap_pct": gap,
            "passed": uncovered < 0.01
            and gap < layers.STAGE_SUM_TOLERANCE_PCT,
        },
        "probe_correct": correct,
    }
