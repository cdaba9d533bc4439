"""A chaos drill against the resilient dispatcher.

Demonstrates the PR-7 fault-tolerance stack on a live
:class:`~repro.serving.Dispatcher`: a seeded
:class:`~repro.serving.FaultPlan` poisons a fixed subset of requests,
crashes a worker thread mid-flood, and browns out the ``"turbo"``
backend long enough to trip the circuit breaker.  The drill shows

* **quarantine** — a poisoned request fails alone
  (:class:`~repro.errors.RequestFailedError`); its co-batched
  neighbours are re-run in isolation and succeed;
* **supervision** — the crashed worker is respawned and the crash is
  recorded in the audit trail;
* **degradation** — the breaker opens after consecutive backend
  failures, batches fall back from ``"turbo"`` to ``"fast"`` (bit
  for bit identical, just slower), and a cooldown probe restores the
  primary once the brown-out clears.

Every decision is a pure hash of ``(seed, site, key)``, so the same
requests are poisoned on every run — chaos you can put in CI.

Run with ``PYTHONPATH=src python examples/chaos_drill.py``.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.errors import RequestFailedError  # noqa: E402
from repro.graph.models import build_classifier_graph  # noqa: E402
from repro.serving import (  # noqa: E402
    Dispatcher,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    FleetConfig,
    RetryPolicy,
    TenantPolicy,
)

import repro  # noqa: E402

N_REQUESTS = 24


def main() -> None:
    rng = np.random.default_rng(0)
    cm = repro.compile(build_classifier_graph("vww", classes=2))
    shape = cm.graph.tensors[cm.graph.inputs[0]].spec.shape
    xs = [
        rng.integers(-128, 128, size=shape, dtype=np.int8)
        for _ in range(N_REQUESTS)
    ]
    refs = [cm.run(x, execution="fast").output for x in xs]

    # -- act 1: poison + worker crash, quarantine + supervision -------- #
    plan = FaultPlan(
        seed=5,  # this seed's 10% draw poisons seqs 1, 12 and 18
        specs=(
            # ~10% of request keys are poisoned, forever: they fail on
            # the batch attempt AND on every isolation re-run
            FaultSpec(site="dispatch.request", rate=0.10),
            # one whole-worker crash, caught by the supervisor
            FaultSpec(
                site="worker.loop", kind="crash", keys=(0,), max_fires=1
            ),
        ),
    )
    poisoned = FaultInjector(plan).preview(
        "dispatch.request", range(N_REQUESTS)
    )
    print(f"plan poisons request seqs {list(poisoned)} (pure hash draw)")

    config = FleetConfig(
        tenants={"default": TenantPolicy()},
        min_workers=2,
        max_workers=2,
        max_batch=4,
        max_queue_depth=4 * N_REQUESTS,
        default_deadline_s=60.0,
        batch_timeout_s=0.0,
        supervise_interval_s=0.01,
        retry=RetryPolicy(max_attempts=2, backoff_s=0.001),
    )
    with Dispatcher(cm, workers=2, config=config, faults=plan) as d:
        tickets = [d.submit(x) for x in xs]
        failed = []
        for i, (t, ref) in enumerate(zip(tickets, refs)):
            try:
                res = t.result(120.0)
            except RequestFailedError as e:
                failed.append(t.request_seq)
                print(f"  seq {t.request_seq}: {type(e).__name__} "
                      f"(cause: {type(e.__cause__).__name__})")
            else:
                assert np.array_equal(res.output, ref), "bits moved!"
        stats = d.stats
    print(f"failed == poisoned: {failed == list(poisoned)}")
    print(
        f"balance: {stats.submitted} submitted == {stats.completed} "
        f"completed + {stats.failed} failed + {stats.shed} shed"
    )
    print(
        f"worker crashes: {stats.worker_crashes}, quarantined: "
        f"{stats.quarantined}, fleet back at {stats.workers} workers"
    )
    for change in stats.audit:
        if change.kind in ("crash", "quarantine"):
            print(f"  audit[{change.kind}]: {'; '.join(change.summary)}")

    # -- act 2: backend brown-out, breaker degrade -> restore ---------- #
    brownout = FaultPlan(
        specs=(FaultSpec(site="backend.turbo", max_fires=4),)
    )
    config2 = FleetConfig(
        tenants={"default": TenantPolicy()},
        min_workers=1,
        max_workers=1,
        max_batch=1,
        max_queue_depth=4 * N_REQUESTS,
        default_deadline_s=60.0,
        batch_timeout_s=0.0,
        breaker_threshold=2,
        breaker_cooldown_s=0.05,
        retry=RetryPolicy(max_attempts=3, backoff_s=0.001),
    )
    print("\nturbo brown-out (4 faults), breaker threshold 2:")
    with Dispatcher(cm, workers=1, config=config2, faults=brownout) as d:
        for x, ref in zip(xs, refs):
            res = d.submit(x).result(60.0)
            assert np.array_equal(res.output, ref), "bits moved!"
            time.sleep(0.005)
        for _ in range(40):  # probe until the breaker closes again
            if not d.stats.degraded:
                break
            time.sleep(0.06)
            d.submit(xs[0]).result(60.0)
        stats = d.stats
    for change in stats.audit:
        if change.kind in ("degrade", "restore"):
            print(f"  audit[{change.kind}]: {'; '.join(change.summary)}")
    print(
        f"failed during brown-out: {stats.failed} (fallback is "
        f"bit-exact); breaker "
        f"{'closed — turbo restored' if not stats.degraded else 'OPEN'}"
    )


if __name__ == "__main__":
    main()
