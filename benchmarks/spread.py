"""Run one workload over several seeds and print each metric's median,
quartiles and spread (interquartile range over median).

    python3 benchmarks/spread.py --workload mixed --seeds 1-10 [--seconds 30] [--trace 0]
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    first, last = (int(v) for v in args.seeds.split("-"))

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    status = 0
    for seed in range(first, last + 1):
        cmd = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"seed {seed}: " + " ".join(f"{k}={m['value']:.5g}"
                                          for k, m in result["metrics"].items()), flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    for name, vals in values.items():
        if len(vals) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        print(f"{name:<28} median {med:.5g} {units[name]:<9} q1 {q1:.5g} q3 {q3:.5g} "
              f"spread {(q3 - q1) / med:.3f} (n={len(vals)})")
    return status


if __name__ == "__main__":
    sys.exit(main())
