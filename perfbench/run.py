"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload replay-stream --seed 1 --seconds 30 --trace 0

Boots ``python -m repro serve`` from this checkout's ``src`` (the daemon,
or ``--shards 2``), drives the workload over one keep-alive connection in
a closed loop for ``--seconds``, checks every response, tears the server
down and prints one JSON object as the last line of stdout: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Metric names and units come from ``BENCHMARK.json``.
Exits non-zero, printing no result, when the checkout has no program to
run.  ``BENCHMARK.json`` declares ``cluster-warm`` and ``replay-stream``;
``schedule-cold`` runs the same way but is not declared.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("schedule-cold", "cluster-warm", "replay-stream")


def declared_metrics(traced: bool) -> dict[str, str]:
    """``name -> unit`` of the metrics this kind of run must print."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from pbench.runner import Run  # needs repro on sys.path

    run = Run(ROOT, args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        result = run.execute()
    finally:
        for note in run.notes:
            print(note)
    units = declared_metrics(bool(args.trace))
    unknown = sorted(set(result["metrics"]) - set(units))
    if unknown:
        raise KeyError(f"metrics not declared in BENCHMARK.json: {unknown}")
    # A layer that is not on this workload's path reports 0.
    values = {name: float(result["metrics"].get(name, 0.0)) for name in units}
    bad = [name for name, value in values.items() if not math.isfinite(value)]
    if bad:
        raise ValueError(f"non-finite metrics: {bad}")
    result["metrics"] = {name: {"value": values[name], "unit": units[name]} for name in units}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
