"""Run one padformer benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload train-default --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` wraps padformer's layers and reports the per-layer metrics.
``--smoke`` runs a tiny fixed-size version of the workload. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is 0 only if every output check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"


def add_sources():
    """Put the checkout's ``src`` first on the import path; fail if it is missing."""
    if not (SRC / "padformer" / "__init__.py").is_file():
        raise SystemExit(f"error: no padformer sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny configs and a fixed number of steps (for tests)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    add_sources()
    import workloads
    from envinfo import environment

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                           args.smoke, WORK)
    checks = result.checks

    print(f"workload {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}{' smoke' if args.smoke else ''}")
    for key, value in environment(ROOT).items():
        print(f"env {key}={value}")
    for name, (value, unit) in result.metrics.items():
        print(f"metric {name}={value:.6g} {unit}")
    for line in result.report:
        print(line)
    print(f"checks attempted={checks.attempted} failed={checks.failed} "
          f"failed_share={checks.failed / checks.attempted:.6g}")
    for what in checks.failures:
        print(f"check failed: {what}")

    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in result.metrics.items()}
    correct = checks.failed == 0 and all(math.isfinite(v["value"]) for v in metrics.values())
    print(json.dumps({"correct": correct, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
