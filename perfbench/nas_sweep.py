"""``nas-sweep``: closed-loop planning over seeded MCUNet-space candidates.

Each candidate inverted bottleneck goes through ``repro.compile`` with a
fresh ``PlanCache``, then ``vmcu_block_ram(..., cache=None)``, then
``TinyEnginePlanner.block_ram`` — the compiler and the planner on every
call, never the serving stack.  The candidate list is fixed by the seed
and swept pass after pass; every pass must reproduce the first pass's
RAM and fit values exactly.
"""

from __future__ import annotations

import time

import numpy as np

import repro
from repro.analysis.bottleneck import vmcu_block_ram
from repro.baselines.tinyengine import TinyEnginePlanner
from repro.compiler import PlanCache
from repro.core.multilayer import BottleneckSpec, InvertedBottleneckPlanner
from repro.graph.models import build_bottleneck_graph
from repro.mcu.device import get_device
from repro.serving import Dispatcher

import layers
from harness import (
    CpuMeter,
    Schedule,
    Setups,
    Tracer,
    digest,
    drive,
    median,
    pct,
    rss_peak_mb,
)

CANDIDATES = 384  # 12 of every (image size, kernel) pair
SETUP_REPS = 10  # set-ups before measuring; each later pass adds one
DEVICE = "F411RE"
#: the MCUNet search space the candidates are drawn from
HW = (6, 8, 10, 12, 14, 16, 20, 24, 28, 32, 40)
CHANNELS = (8, 16, 24, 32, 40, 48, 64, 96)
EXPANSIONS = (3, 4, 6)
KERNELS = (3, 5, 7)
STRIDES = (1, 2)
#: (image size, kernel) pairs; the candidate list cycles through them
GRID = [(hw, k) for hw in HW for k in KERNELS if k <= hw]


def candidates(seed: int, n: int = CANDIDATES) -> list[BottleneckSpec]:
    """Seeded candidates, stratified over image size and kernel.

    Image size and kernel set most of a candidate's planning cost, so
    every seed gets the same count of each pair and draws the rest at
    random; seeds then differ in their candidates, not in their load.
    """
    rng = np.random.default_rng([seed, 0xA5])
    out: list[BottleneckSpec] = []
    while len(out) < n:
        hw, k = GRID[len(out) % len(GRID)]
        c_in = int(rng.choice(CHANNELS))
        spec = BottleneckSpec(
            name=f"cand{len(out)}",
            hw=hw,
            c_in=c_in,
            c_mid=c_in * int(rng.choice(EXPANSIONS)),
            c_out=int(rng.choice(CHANNELS)),
            kernel=k,
            strides=(1, int(rng.choice(STRIDES)), 1),
        )
        if spec.fusable():
            out.append(spec)
    return out


def plan_one(spec, planner, te, device):
    """The per-candidate work: compile, vMCU plan, TinyEngine baseline."""
    cm = repro.compile(build_bottleneck_graph(spec), device=device,
                       cache=PlanCache())
    vmcu = vmcu_block_ram(spec, planner, cache=None)
    return cm, (vmcu, te.block_ram(spec), cm.footprint_bytes,
                device.fits(cm.footprint_bytes))


class Sweep:
    """The sweep's state, warmed by planning one candidate of every
    (image size, kernel) pair: the first slice of the list."""

    def __init__(self, seed: int):
        self.device = get_device(DEVICE)
        self.planner = InvertedBottleneckPlanner()
        self.te = TinyEnginePlanner()
        self.cands = candidates(seed)
        for spec in self.cands[: len(GRID)]:
            plan_one(spec, self.planner, self.te, self.device)


def sweep(sw: Sweep, budget_s: float, tracer: Tracer | None = None,
          setups: Setups | None = None):
    """Sweep the list until ``budget_s`` runs out (at least one pass).

    With ``setups``, every pass after the first starts on a fresh set-up,
    timed as one more set-up sample.

    Returns the first pass's values, per-candidate times and the gaps
    between candidates, the count of values that differed from the first
    pass, the CPU meter, and each whole pass's candidates per second.
    """
    values, times, gaps, pass_rates = [], [], [], []
    wrong, done, setup_cpu_s = 0, 0, 0.0
    t_end = time.monotonic() + budget_s
    last_end = pass_start = None
    with CpuMeter() as cpu:
        while done < len(sw.cands) or time.monotonic() < t_end:
            if done % len(sw.cands) == 0:
                if pass_start is not None:
                    pass_rates.append(
                        len(sw.cands) / (last_end - pass_start)
                    )
                    if setups is not None:
                        with CpuMeter() as su:
                            sw = setups.one()
                        setup_cpu_s += su.cpu_s
                pass_start = last_end = time.monotonic()
            spec = sw.cands[done % len(sw.cands)]
            t0 = time.monotonic()
            if last_end is not None:
                gaps.append(t0 - last_end)
            if tracer is None:
                _, vals = plan_one(spec, sw.planner, sw.te, sw.device)
            else:
                vals = _traced_one(spec, sw, tracer, done)
            last_end = time.monotonic()
            times.append(last_end - t0)
            if done < len(sw.cands):
                values.append(vals)
            elif vals != values[done % len(sw.cands)]:
                wrong += 1
            done += 1
    if done % len(sw.cands) == 0:
        pass_rates.append(len(sw.cands) / (last_end - pass_start))
    cpu.cpu_s -= setup_cpu_s  # the sweep's own CPU time
    return values, times, gaps, wrong, cpu, pass_rates


def _traced_one(spec, sw, tracer, req):
    t0 = time.monotonic()
    graph = build_bottleneck_graph(spec)
    t1 = time.monotonic()
    cm = repro.compile(graph, device=sw.device, cache=PlanCache())
    t2 = time.monotonic()
    vmcu = vmcu_block_ram(spec, sw.planner, cache=None)
    t3 = time.monotonic()
    te = sw.te.block_ram(spec)
    t4 = time.monotonic()
    root = tracer.add("nas.candidate", t0, t4, req=req)
    tracer.add("graph.build", t0, t1, parent=root, req=req)
    tracer.add("compiler.compile", t1, t2, parent=root, req=req)
    tracer.add("core.vmcu_block_ram", t2, t3, parent=root, req=req)
    tracer.add("baselines.block_ram", t3, t4, parent=root, req=req)
    return (vmcu, te, cm.footprint_bytes, sw.device.fits(cm.footprint_bytes))


def run(name: str, seed: int, seconds: float, trace: bool, out_dir) -> dict:
    setups = Setups(lambda: Sweep(seed))
    sw = setups.first(SETUP_REPS)
    report = {"digests": {"candidates": digest([repr(c) for c in sw.cands])}}
    if trace:
        values, times, gaps, wrong, cpu, _ = sweep(sw, 0.3 * seconds)
    else:
        values, times, gaps, wrong, cpu, pass_rates = sweep(
            sw, seconds, setups=setups
        )
    vmcu, te, _, fit = (np.array(v, dtype=float) for v in zip(*values))
    report["digests"]["ram_values"] = digest(np.array(values, dtype=np.int64))
    report["attempted"], report["failed"] = len(times), wrong
    report["correct"] = wrong == 0
    report["samples"] = {"candidates": len(times), "list": len(sw.cands)}
    lat = [1e3 * t for t in times]
    n = len(lat)
    if not trace:
        # candidates per second: the median over the whole passes made
        rate = median(pass_rates)
        setup_s = setups.median_s
        report["named"] = {
            "setup_s": (setup_s, "s", len(setups.times)),
            "plans_per_s": (rate, "1/s", len(pass_rates)),
            "cpu_ms_per_op": (1e3 * cpu.cpu_s / len(times), "ms"),
            "latency_p50_ms": (pct(lat, 50), "ms", n),
            "latency_p90_ms": (pct(lat, 90), "ms", n),
            "latency_p99_ms": (pct(lat, 99), "ms", n),
            "ram_saved_pct": (100.0 * float(np.mean(1 - vmcu / te)), "%"),
            "fit_pct": (100.0 * float(np.mean(fit)), "%"),
            "failed_pct": (100.0 * wrong / len(times), "%"),
            "rss_peak_mb": (rss_peak_mb(), "MB"),
        }
        report["metrics"] = {
            "setup_s": setup_s,
            "throughput_per_s": rate,
            "rss_peak_mb": rss_peak_mb(),
        }
        return report
    report.update(_layers(sw, seed, seconds, times, out_dir))
    report["correct"] &= report.pop("probe_correct")
    report["correct"] &= report["addup"]["passed"]
    return report


def _layers(sw, seed, seconds, plain_times, out_dir) -> dict:
    tracer = Tracer()
    budget = 0.3 * seconds
    _, times, gaps, wrong, cpu, _ = sweep(sw, budget, tracer=tracer)
    n = min(len(times), len(plain_times))
    overhead = 100.0 * (sum(times[:n]) - sum(plain_times[:n])) / sum(
        plain_times[:n]
    )
    # per-candidate compile and Pipeline.plan, timed apart from the sweep
    compiles = [
        layers.compile_probe(build_bottleneck_graph(spec), sw.device, reps=1)
        for spec in sw.cands[:64]
    ]

    # the first candidate that fits stands in for the sweep's models in
    # the session, kernel, quant and serving probes
    spec = next(
        c for c in sw.cands
        if plan_one(c, sw.planner, sw.te, sw.device)[1][3]
    )
    cm = repro.compile(build_bottleneck_graph(spec), device=sw.device)
    rng = np.random.default_rng([seed, 0x9001])
    shape = cm.graph.tensors[cm.graph.inputs[0]].spec.shape
    pool = [
        {cm.graph.inputs[0]: rng.integers(-128, 128, size=shape, dtype=np.int8)}
        for _ in range(8)
    ]
    refs = [cm.reference(feeds=f) for f in pool]
    probe, correct = layers.model_probe(cm, pool, refs)
    mcu = []
    for c in sw.cands[:16]:
        g = build_bottleneck_graph(c)
        x = rng.integers(-128, 128, size=(c.hw, c.hw, c.c_in), dtype=np.int8)
        mcu.append(layers.mcu_probe(repro.compile(g, device=sw.device),
                                    {g.inputs[0]: x}))
    metrics = layers.layer_metrics(
        probe,
        {k: float(np.mean([c[k] for c in compiles])) for k in compiles[0]},
        {k: float(np.mean([m[k] for m in mcu])) for k in mcu[0]},
    )
    with Dispatcher({"cand": cm}, workers=2, max_batch=8) as d:
        sch = Schedule(
            offsets=np.zeros(64), tenants=["cand"] * 64,
            draws=np.arange(64) % len(pool),
        )
        burst = drive(d, sch, {"cand": pool}, {"cand": refs})
        metrics.update(
            layers.serving_metrics(
                burst, workers=2,
                session_s_at=layers.session_time_at({"cand": probe}),
                stats=d.stats, high={"cand"}, low={"cand"},
            )
        )
    correct &= not any(s.wrong for s in burst.sent)
    metrics["harness.lag_p99_ms"] = 1e3 * pct(gaps, 99)
    metrics["harness.trace_overhead_pct"] = overhead
    metrics["host.cpu_pct"] = cpu.pct
    self_t = tracer.self_times()
    tracer.write(out_dir / "spans-nas-sweep.jsonl")
    gap = metrics["kernels.stage_sum_gap_pct"]
    return {
        "metrics": metrics,
        "self_ms": {k: 1e3 * v for k, v in self_t.items()},
        "addup": {
            "stage_sum_gap_pct": gap,
            "passed": gap < layers.STAGE_SUM_TOLERANCE_PCT,
        },
        "probe_correct": correct and wrong == 0,
        "serving_probe": "64-request burst on the first fitting candidate",
    }
