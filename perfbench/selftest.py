#!/usr/bin/env python3
"""Speed-correction self-test.

Runs the benchmark on one workload with and without --pad-ms, which adds a
known amount of calibration-kernel work (in nominal milliseconds) inside
every timed call, on the same seeds.  The speed-corrected eval_ms and cif_s
must rise by that amount, within the metric's bound from BENCHMARK.json, so
the correction cannot be absorbing real changes in work.

    python3 perfbench/selftest.py [--workload shared_re] [--pad-ms 1.0] [--seeds 1 2 3]
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKED = {"eval_ms": 1.0, "cif_s": 1e-3}     # metric -> its unit per pad ms


def run(workload, seed, seconds, pad_ms):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0", "--pad-ms", str(pad_ms)]
    out = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, check=True)
    doc = json.loads(out.stdout.strip().splitlines()[-1])
    if not doc["correct"] or doc["failed"]:
        raise SystemExit(f"run failed: {' '.join(cmd)}\n{out.stderr}")
    return {k: v["value"] for k, v in doc["metrics"].items()}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="shared_re")
    p.add_argument("--pad-ms", type=float, default=1.0)
    p.add_argument("--seconds", type=float, default=5.0)
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in
              json.loads((HERE.parent / "BENCHMARK.json").read_text())["end_to_end"]}
    rise = {k: [] for k in CHECKED}
    base = {k: [] for k in CHECKED}
    for i, seed in enumerate(args.seeds):
        # alternate which side runs first
        order = (0.0, args.pad_ms) if i % 2 == 0 else (args.pad_ms, 0.0)
        res = {pad: run(args.workload, seed, args.seconds, pad) for pad in order}
        for k in CHECKED:
            base[k].append(res[0.0][k])
            rise[k].append(res[args.pad_ms][k] - res[0.0][k])
    ok = True
    for k, per_ms in CHECKED.items():
        want = args.pad_ms * per_ms
        got = statistics.median(rise[k])
        tol = bounds[k] * statistics.median(base[k])
        passed = abs(got - want) <= tol
        ok &= passed
        print(f"{k}: base {statistics.median(base[k]):.5g}, rise {got:.5g} "
              f"(runs {', '.join(f'{r:.5g}' for r in rise[k])}), expected {want:.5g} "
              f"+/- {tol:.3g}: {'pass' if passed else 'FAIL'}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
