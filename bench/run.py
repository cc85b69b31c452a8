"""flowsra benchmark: one run of one workload.

    python3 bench/run.py --workload {convert-sweep,eval-replay,eval-cold}
                         --seed N --seconds S --trace {0,1}

Run from the root of a checkout; flowsra is imported from its ``src/``.
Every input is generated from the seed. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent



def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("convert-sweep", "eval-replay", "eval-cold"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "flowsra" / "__init__.py").is_file():
        print(f"bench: no flowsra sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    import flowsra

    if Path(flowsra.__file__).resolve().parent != src / "flowsra":
        print(f"bench: imported flowsra from {flowsra.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    # BENCHMARK.json lists the metrics, with their units, for each mode
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["per_layer" if args.trace else "end_to_end"]

    try:
        outcome = workloads.WORKLOADS[args.workload](args.seed, args.seconds,
                                                     bool(args.trace), ROOT)
    except workloads.CheckFailed as failure:
        for problem in failure.args[0][:20]:
            print(f"check failed: {problem}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 0, "failed": 0, "metrics": {}}))
        return 1
    unknown = [entry["name"] for entry in listed if entry["name"] not in outcome.metrics]
    if unknown:
        print(f"bench: BENCHMARK.json lists metrics the benchmark lacks: {unknown}",
              file=sys.stderr)
        return 2
    metrics = {}
    for entry in listed:
        name, unit = entry["name"], entry["unit"]
        value = outcome.metrics[name]
        metrics[name] = {"value": value, "unit": unit}
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"{name:44s} {shown:>12s} {unit}")
    print(json.dumps({"correct": True, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
