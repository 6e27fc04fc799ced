"""The repository benchmark: one workload per run, end-to-end or traced.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload serve-mixed --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing traced.
``--trace 1`` measures the same workload twice, half the time each: once
untraced and once with spans around every layer's public entry points; it
reports the per-layer metrics of the traced half and the tracing overhead
between the two halves.  Every answer is checked against the reachability
oracle; a wrong answer makes the run exit with code 1.

Human-readable lines (metric, value, unit, sample counts, the host and run
fingerprint) come first; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
is also written under ``.perfbench/`` in the checkout.  ``WORKLOADS.md``
says why each workload exists and which layer each metric belongs to.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parent.parent
for _entry in (str(ROOT), str(ROOT / "src")):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: the program's source is not here ({ROOT / 'src'}): {exc}",
              file=sys.stderr)
        return 2
    if ROOT / "src" not in Path(repro.__file__).resolve().parents:
        print(f"perfbench: {repro.__file__} is not this checkout's program", file=sys.stderr)
        return 2
    from perfbench.drive import OUT, print_result, run_workload
    from perfbench.workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        parser.error(f"--workload must be one of {sorted(WORKLOADS)} or all")
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_result(result)
        record = OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
        record.write_text(json.dumps(result, indent=1, sort_keys=True))
        results.append(result)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {
            f"{r['workload']}/{k}": v for r in results for k, v in r["metrics"].items()
        }
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(summary, separators=(",", ":")))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
