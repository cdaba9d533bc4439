"""Measurement plumbing shared by every workload.

Nothing here knows a workload: the machine fingerprint, a span recorder,
the open-loop generator that drives a ``Dispatcher`` from a precomputed
arrival schedule, and the small statistics helpers the reports use.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.fleet.telemetry import percentile


# --------------------------------------------------------------------------- #
# machine fingerprint
# --------------------------------------------------------------------------- #
def _openblas_threads() -> int | None:
    """Thread count of the OpenBLAS NumPy actually loaded, via its C API."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted(
                {
                    line.split()[-1]
                    for line in fh
                    if "openblas" in line.lower() and "numpy" in line
                }
            )
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def fingerprint() -> dict:
    """Where a result was measured: cores, BLAS, versions, load at start."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = None
    return {
        "cores": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "blas_threads": _openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


# --------------------------------------------------------------------------- #
# small helpers
# --------------------------------------------------------------------------- #
def digest(*parts) -> str:
    """Short stable digest of arrays, bytes and JSON-able values."""
    h = hashlib.blake2b(digest_size=8)
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(str(p.dtype).encode())
            h.update(np.ascontiguousarray(p).tobytes())
        elif isinstance(p, bytes):
            h.update(p)
        else:
            h.update(json.dumps(p, sort_keys=True, default=str).encode())
    return h.hexdigest()


def pct(values, q: float) -> float:
    """The ``q``-th percentile (0-100) by the repo-wide nearest rank."""
    return float(percentile(sorted(values), q / 100.0))


def sub_seed(seed: int, tag: int) -> int:
    """A seed for one phase of a run, fixed by the run's seed and a tag."""
    return int(np.random.SeedSequence([seed, tag]).generate_state(1)[0])


def median(values) -> float:
    return float(statistics.median(values))


def rss_peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def time_call(fn, *, reps: int, min_s: float = 0.0) -> float:
    """Median seconds of ``fn()`` over at least ``reps`` calls."""
    samples = []
    t_end = time.monotonic() + min_s
    while len(samples) < reps or time.monotonic() < t_end:
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return median(samples)


class Setups:
    """Cold set-ups, each one timed.

    ``build()`` makes everything a workload needs before its first timed
    request, from cold (fresh plan cache, fresh weights), so each sample
    is a set-up cost a caller really pays.  Workloads take a block of
    samples before measuring and one more for every measured block, so
    the samples spread over the whole run; the set-up time is their
    median.
    """

    def __init__(self, build):
        self.build = build
        self.times: list[float] = []

    def one(self):
        """One timed set-up; the caller closes what it returns."""
        t0 = time.perf_counter()
        result = self.build()
        self.times.append(time.perf_counter() - t0)
        return result

    def first(self, reps: int):
        """``reps`` timed set-ups; keeps the last one, closes the rest."""
        result = None
        for _ in range(reps):
            if result is not None and hasattr(result, "close"):
                result.close()
            result = self.one()
        return result

    @property
    def median_s(self) -> float:
        return median(self.times)


class CpuMeter:
    """Process CPU time over wall time for a region, in percent."""

    def __enter__(self):
        self._cpu0, self._wall0 = time.process_time(), time.monotonic()
        return self

    def __exit__(self, *exc):
        self.cpu_s = time.process_time() - self._cpu0
        self.wall_s = time.monotonic() - self._wall0
        self.pct = 100.0 * self.cpu_s / self.wall_s if self.wall_s else 0.0


# --------------------------------------------------------------------------- #
# tracing
# --------------------------------------------------------------------------- #
class Tracer:
    """In-memory spans: (id, name, start, end, parent id, request id).

    Times are ``time.monotonic()`` seconds, the clock the dispatcher
    stamps its results with, so spans recorded around a call and spans
    rebuilt from a ``DispatchResult`` share one timebase.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self._lock = threading.Lock()

    def add(self, name, start, end, *, parent=None, req=None) -> int:
        with self._lock:
            sid = len(self.spans)
            self.spans.append((sid, name, start, end, parent, req))
        return sid

    def self_times(self) -> dict[str, float]:
        """Total self seconds per span name: duration minus children.

        The part of a span covered by the union of its children's
        intervals is the children's; the rest is the span's own.
        """
        children: dict[int, list[tuple[float, float]]] = {}
        for _, _, s, e, parent, _ in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((s, e))
        out: dict[str, float] = {}
        for sid, name, s, e, _, _ in self.spans:
            covered, cur_s, cur_e = 0.0, None, None
            for cs, ce in sorted(children.get(sid, ())):
                cs, ce = max(cs, s), min(ce, e)
                if ce <= cs:
                    continue
                if cur_e is None or cs > cur_e:
                    if cur_e is not None:
                        covered += cur_e - cur_s
                    cur_s, cur_e = cs, ce
                else:
                    cur_e = max(cur_e, ce)
            if cur_e is not None:
                covered += cur_e - cur_s
            out[name] = out.get(name, 0.0) + (e - s) - covered
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, name, s, e, parent, req in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": sid, "name": name, "start": s, "end": e,
                            "parent": parent, "req": req,
                        }
                    )
                    + "\n"
                )


# --------------------------------------------------------------------------- #
# open-loop load
# --------------------------------------------------------------------------- #
@dataclass
class Sent:
    """One request the generator sent, and what became of it."""

    tenant: str
    draw: int
    due: float
    submit_start: float = 0.0
    submit_end: float = 0.0
    ticket: object = None
    result: object = None  # DispatchResult once resolved
    error: BaseException | None = None
    wrong: bool = False

    @property
    def ok(self) -> bool:
        return self.result is not None and not self.wrong

    @property
    def latency_s(self) -> float:
        """Completion time measured from when the request was due."""
        return self.result.complete_t - self.due


@dataclass
class Schedule:
    """Arrival offsets (seconds) with the tenant and pool draw of each."""

    offsets: np.ndarray
    tenants: list[str]
    draws: np.ndarray

    def digest(self) -> str:
        return digest(self.offsets, self.tenants, self.draws)


@dataclass
class PhaseResult:
    sent: list[Sent]
    #: requests not yet resolved when the last one was submitted
    backlog_at_end: int = 0
    cpu_pct: float = 0.0

    @property
    def failed(self) -> int:
        return sum(not s.ok for s in self.sent)

    @property
    def wrong(self) -> int:
        return sum(s.wrong for s in self.sent)

    def latencies_ms(self) -> list[float]:
        return [1e3 * s.latency_s for s in self.sent if s.ok]


def drive(dispatcher, schedule: Schedule, payloads, refs, *,
          tracer: Tracer | None = None, result_timeout_s: float = 60.0
          ) -> PhaseResult:
    """Submit ``schedule`` open-loop from this thread, then collect.

    Each request is submitted when it is due whether or not earlier ones
    finished; a generator that falls behind submits immediately, and the
    lateness shows as ``submit_start - due``.  Every served output is
    compared with the reference output for its pool draw; a mismatch
    fails the request.
    """
    sent = [
        Sent(tenant=t, draw=int(d), due=0.0)
        for t, d in zip(schedule.tenants, schedule.draws)
    ]
    submit = dispatcher.submit
    mono, sleep = time.monotonic, time.sleep
    with CpuMeter() as cpu:
        start = mono() + 0.002
        for s, offset in zip(sent, schedule.offsets):
            s.due = start + float(offset)
            delay = s.due - mono()
            if delay > 0:
                sleep(delay)
            s.submit_start = mono()
            try:
                s.ticket = submit(tenant=s.tenant, feeds=payloads[s.tenant][s.draw])
            except Exception as exc:  # refused at admission: a failure
                s.error = exc
            s.submit_end = mono()
        backlog = sum(
            1 for s in sent if s.ticket is not None and not s.ticket.done()
        )
        for s in sent:
            if s.ticket is None:
                continue
            try:
                s.result = s.ticket.result(result_timeout_s)
            except Exception as exc:  # failed, shed or timed out
                s.error = exc
            s.ticket = None
    for s in sent:
        if s.result is not None and not np.array_equal(
            s.result.output, refs[s.tenant][s.draw]
        ):
            s.wrong = True
    if tracer is not None:
        for i, s in enumerate(sent):
            root = tracer.add(
                "harness.request", s.due,
                s.result.complete_t if s.result is not None else s.submit_end,
                req=i,
            )
            tracer.add("harness.lag", s.due, s.submit_start, parent=root, req=i)
            tracer.add(
                "serving.submit", s.submit_start, s.submit_end,
                parent=root, req=i,
            )
            if s.result is not None:
                r = s.result
                tracer.add("serving.queue", r.admit_t, r.start_t, parent=root, req=i)
                tracer.add("serving.batch", r.start_t, r.complete_t, parent=root, req=i)
    return PhaseResult(
        sent=sent, backlog_at_end=backlog, cpu_pct=cpu.pct
    )
