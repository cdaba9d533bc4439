"""Per-layer probes: time each layer's public API on a workload's models.

Every probe calls the program the way a user would — ``repro.compile``,
``Pipeline.plan``, ``Session.run_batch``, ``Pipeline.run_batch``,
``requantize_fast`` — and times the call from here.  Nothing is traced
inside the program.
"""

from __future__ import annotations

import time

import numpy as np

import repro
from repro.compiler import PlanCache
from repro.quant import quantize_multiplier, requantize_fast
from repro.runtime.pipeline import (
    BottleneckStage,
    DenseStage,
    GlobalAvgPoolStage,
    Pipeline,
    PointwiseStage,
)
from repro.serving import Session

from harness import median, pct, time_call

STAGE_KINDS = {
    BottleneckStage: "bottleneck",
    PointwiseStage: "pointwise",
    GlobalAvgPoolStage: "pool",
    DenseStage: "dense",
}
SESSION_BATCHES = (1, 8, 32)
STAGE_BATCH = 8
#: per-stage times must add up to the whole pipeline within this share
STAGE_SUM_TOLERANCE_PCT = 15.0


def compile_probe(graph, device, reps: int) -> dict:
    """``repro.compile`` on a fresh plan cache, and ``Pipeline.plan``."""
    compile_s, plan_s = [], []
    for _ in range(reps):
        t0 = time.perf_counter()
        cm = repro.compile(graph, device=device, cache=PlanCache())
        compile_s.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        for seg in cm.segments:
            seg.pipeline.plan()
        plan_s.append(time.perf_counter() - t0)
    return {"compile_s": median(compile_s), "plan_s": median(plan_s)}


def mcu_probe(cm, feeds) -> dict:
    """Modeled on-device cost of one inference (deterministic)."""
    report = cm.run(feeds=feeds, execution="fast").report
    return {
        "cycles": float(report.cycles),
        "energy_uj": 1e3 * float(report.energy_mj),
        "peak_sram_bytes": float(cm.footprint_bytes),
    }


def _batch(pool, n):
    return [pool[i % len(pool)] for i in range(n)]


def _one_stage_pipelines(seg, x):
    """One single-stage ``Pipeline`` per compiled stage, with its input.

    Chains the stages by running each one-stage pipeline on the previous
    one's outputs, so every stage is timed on the activations it really
    sees; returns ``[(kind, pipeline, plan, inputs)]`` and the final
    outputs.
    """
    out, cur = [], x
    for stage in seg.pipeline.stages:
        a = cur[0]
        hw = a.shape[0] if a.ndim == 3 else 1
        c = a.shape[-1]
        cur = [v.reshape(hw, hw, c) for v in cur]
        p = Pipeline(hw, c, device=seg.pipeline.device).add(stage)
        plan = p.plan()
        out.append((STAGE_KINDS[type(stage)], p, plan, cur))
        cur = [
            r.output
            for r in p.run_batch(cur, plan=plan, execution="turbo")
        ]
    return out, cur


def _acc_shapes(stages):
    """``(multiplier, element count)`` of every requantize a stage does."""
    shapes = []
    for kind, p, plan, xs in stages:
        st = p.stages[0]
        a = xs[0]
        h, c = a.shape[0], a.shape[-1]
        if kind == "bottleneck":
            s1, s2, s3 = st.strides
            h1 = (h - 1) // s1 + 1
            h2 = (h1 - 1) // s2 + 1
            h3 = (h2 - 1) // s3 + 1
            shapes += [
                (st.mults[0], h1 * h1 * st.c_mid),
                (st.mults[1], h2 * h2 * st.c_mid),
                (st.mults[2], h3 * h3 * st.c_out),
            ]
        elif kind == "pointwise":
            h1 = (h - 1) // st.stride + 1
            shapes.append((st.mult, h1 * h1 * st.weights.shape[1]))
        elif kind == "pool":
            shapes.append((st.mult, c))
        else:
            shapes.append((st.mult, st.weights.shape[1]))
    return shapes


def model_probe(cm, pool, refs, *, reps: int = 5,
                min_s: float = 1.0) -> tuple[dict, bool]:
    """Session, runtime, kernel and requantize times on one model.

    Returns ``(metrics, correct)``; ``correct`` is False when any probed
    output differs from the model's reference output.
    """
    correct = True
    session = Session(cm, execution="turbo", max_batch=max(SESSION_BATCHES))
    name = cm.graph.inputs[0]
    m: dict = {}
    for b in SESSION_BATCHES:
        xs = _batch(pool, b)
        res = session.run_batch(xs)
        correct &= all(
            np.array_equal(r.output, refs[i % len(pool)])
            for i, r in enumerate(res)
        )
        m[f"session_b{b}_s"] = time_call(
            lambda: session.run_batch(xs), reps=reps, min_s=0.2
        ) / b

    xs = [f[name] for f in _batch(pool, STAGE_BATCH)]
    seg = cm.segments[0]
    stages, final = _one_stage_pipelines(seg, xs)
    correct &= all(
        np.array_equal(o.reshape(-1), refs[i % len(pool)].reshape(-1))
        for i, o in enumerate(final)
    )
    # a Pipeline.run_batch call costs something outside its kernels: once
    # a call (input checks, stacking, one result per request) and once a
    # stage (stage dispatch, one kernel record per request).  Pipelines of
    # one and of two stages that each scale a single value pay those
    # and next to nothing else; taking their times out leaves each
    # stage's kernel time, and the stages must then add up to the whole
    mult = quantize_multiplier(0.5)
    nulls = [Pipeline(1, 1, device=seg.pipeline.device) for _ in range(2)]
    for k, p in enumerate(nulls):
        for j in range(k + 1):
            p.add(PointwiseStage(f"null{j}", np.ones((1, 1), np.int8), mult))
    null_xs = [np.zeros((1, 1, 1), np.int8)] * STAGE_BATCH
    calls = [(p, p.plan(), null_xs) for p in nulls]
    calls += [(seg.pipeline, seg.plan, xs)]
    calls += [(p, plan, inp) for _, p, plan, inp in stages]
    # interleaved rounds, so every call sees the same machine
    samples = [[] for _ in calls]
    t_end = time.monotonic() + min_s
    rounds = 0
    while rounds < reps or time.monotonic() < t_end:
        for i, (p, plan, inp) in enumerate(calls):
            t0 = time.perf_counter()
            p.run_batch(inp, plan=plan, execution="turbo")
            samples[i].append(time.perf_counter() - t0)
        rounds += 1
    null1, null2, whole_s, *stage_s = (
        median(v) / STAGE_BATCH for v in samples
    )
    per_stage = max(0.0, null2 - null1)
    m["runtime_b8_s"] = whole_s
    kernel_s = [max(0.0, t - null1) for t in stage_s]
    m["stage_s"] = {
        kind: sum(v for (k, *_), v in zip(stages, kernel_s) if k == kind)
        for kind in STAGE_KINDS.values()
    }
    m["stage_sum_s"] = sum(kernel_s)
    m["whole_s"] = whole_s - null1 - (len(stages) - 1) * per_stage
    m["call_s"], m["per_stage_s"] = null1, per_stage

    rng = np.random.default_rng(0)
    accs = [
        (mult, rng.integers(-(1 << 16), 1 << 16, size=(STAGE_BATCH, n),
                            dtype=np.int32))
        for mult, n in _acc_shapes(stages)
    ]
    elems = sum(a.size for _, a in accs)

    def requant():
        for mult, a in accs:
            requantize_fast(a, mult)

    m["requant_s_per_elem"] = time_call(requant, reps=reps, min_s=0.1) / elems
    return m, bool(correct)


def combine(per_model: dict[str, dict], weights: dict[str, float]) -> dict:
    """Mix-weighted mean of per-model probe numbers (dicts recurse)."""
    total = sum(weights[k] for k in per_model)
    first = next(iter(per_model.values()))
    out = {}
    for key, val in first.items():
        if isinstance(val, dict):
            out[key] = combine(
                {k: v[key] for k, v in per_model.items()}, weights
            )
        else:
            out[key] = sum(
                weights[k] * v[key] for k, v in per_model.items()
            ) / total
    return out


def layer_metrics(probe: dict, compile_: dict, mcu: dict) -> dict:
    """Name the probe numbers as the benchmark's per-layer metrics."""
    stage_total = probe["stage_sum_s"]
    return {
        "session.us_per_req.b1": 1e6 * probe["session_b1_s"],
        "session.us_per_req.b8": 1e6 * probe["session_b8_s"],
        "session.us_per_req.b32": 1e6 * probe["session_b32_s"],
        "runtime.us_per_req.b8": 1e6 * probe["runtime_b8_s"],
        "runtime.call_overhead_us": 1e6 * probe["call_s"],
        "runtime.stage_overhead_us": 1e6 * probe["per_stage_s"],
        **{
            f"kernels.stage_share_pct.{k}": 100.0 * v / stage_total
            for k, v in probe["stage_s"].items()
        },
        "kernels.stage_sum_gap_pct": 100.0
        * abs(stage_total - probe["whole_s"]) / probe["whole_s"],
        "quant.requant_ns_per_elem": 1e9 * probe["requant_s_per_elem"],
        "compiler.compile_ms": 1e3 * compile_["compile_s"],
        "core.plan_ms": 1e3 * compile_["plan_s"],
        "compiler.self_pct": 100.0
        * (compile_["compile_s"] - compile_["plan_s"]) / compile_["compile_s"],
        "mcu.cycles_per_inf": mcu["cycles"],
        "mcu.energy_uj_per_inf": mcu["energy_uj"],
        "mcu.peak_sram_bytes": mcu["peak_sram_bytes"],
    }


def serving_metrics(phase, *, workers: int, session_s_at, stats,
                    high: set[str], low: set[str]) -> dict:
    """Dispatcher-layer numbers from one open-loop phase.

    ``session_s_at(tenant, b)`` is the probed ``Session.run_batch`` time
    of a batch of ``b`` for that tenant: the part of a batch span the
    session itself accounts for.
    """
    done = [s for s in phase.sent if s.result is not None]
    batches = {}
    for s in done:
        r = s.result
        batches.setdefault((r.worker, r.start_t, r.complete_t), []).append(s)
    span = sum(e - st for (_, st, e) in batches)
    session = sum(
        session_s_at(members[0].tenant, len(members))
        for members in batches.values()
    )
    busy_from = min(s.submit_start for s in phase.sent)
    busy_to = max((s.result.complete_t for s in done), default=busy_from)

    def p99_ms(tenants):
        return pct([1e3 * s.latency_s for s in done if s.tenant in tenants], 99)

    return {
        "serving.submit_us": 1e6 * median(
            [s.submit_end - s.submit_start for s in phase.sent]
        ),
        "serving.queue_wait_p50_ms": 1e3 * pct(
            [s.result.queue_wait_s for s in done], 50
        ),
        "serving.queue_wait_p99_ms": 1e3 * pct(
            [s.result.queue_wait_s for s in done], 99
        ),
        "serving.batch_size_mean": len(done) / len(batches),
        "serving.batch_overhead_pct": 100.0 * max(0.0, span - session) / span,
        "serving.workers_busy_pct": 100.0 * span
        / (workers * (busy_to - busy_from)),
        "serving.prio_p99_ms.high": p99_ms(high),
        "serving.prio_p99_ms.low": p99_ms(low),
        "serving.deadline_miss_pct": 100.0
        * sum(not s.result.deadline_met for s in done) / len(phase.sent),
        "serving.retries": float(stats.retries),
        "serving.shed": float(stats.shed),
    }


def session_time_at(probe_by_tenant: dict[str, dict]):
    """Interpolate ``Session.run_batch`` batch time between probed sizes."""

    def at(tenant, b):
        p = probe_by_tenant[tenant]
        xs = list(SESSION_BATCHES)
        ys = [p[f"session_b{x}_s"] * x for x in xs]
        return float(np.interp(b, xs, ys))

    return at
