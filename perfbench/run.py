"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload vww-open --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing traced;
``--trace 1`` is the separate traced run that reports the per-layer
metrics and writes its spans as JSON lines under ``.perfbench/``.  The
report lines come first; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  A wrong output
anywhere makes the run exit with code 1; a missing program (no ``src/``
next to this directory) exits with code 2 before anything is measured.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: the module that runs each workload
MODULES = {
    "vww-open": "open_loop",
    "tenants-open": "open_loop",
    "nas-sweep": "nas_sweep",
    "capacity-plan": "capacity_plan",
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file() or not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure under {ROOT}", file=sys.stderr)
        return 2
    if args.workload not in MODULES:
        print(f"error: unknown workload {args.workload!r}; "
              f"have {sorted(MODULES)}", file=sys.stderr)
        return 2
    bench = json.loads(spec.read_text())
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))

    from harness import fingerprint

    fp = fingerprint()
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    report = importlib.import_module(MODULES[args.workload]).run(
        args.workload, args.seed, args.seconds, bool(args.trace), out_dir
    )

    listed = bench["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    missing = [n for n in units if n not in report["metrics"]]
    if missing:
        raise SystemExit(f"workload {args.workload} did not measure {missing}")
    metrics = {
        n: {"value": float(report["metrics"][n]), "unit": unit}
        for n, unit in units.items()
    }

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"# machine {json.dumps(fp)}")
    for key, val in report.items():
        if key not in ("metrics", "named", "correct", "attempted", "failed"):
            print(f"# {key} {json.dumps(val, default=str)}")
    # a named metric may carry the sample count it was taken from
    for name, (value, unit, *n) in report.get("named", {}).items():
        count = f" (n={n[0]})" if n else ""
        print(f"metric {name} = {value:.6g} {unit}{count}")
    for name, m in metrics.items():
        print(f"{'layer' if args.trace else 'e2e'} {name} = "
              f"{m['value']:.6g} {m['unit']}")
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": fp, **report,
    }
    (out_dir / f"result-{args.workload}-{args.trace}.json").write_text(
        json.dumps(summary, indent=1, default=str)
    )
    correct = bool(report["correct"])
    print(json.dumps({
        "correct": correct,
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
