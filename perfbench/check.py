#!/usr/bin/env python3
"""Checks the benchmark itself: run-to-run spread and determinism.

Run from the repository root:

  python3 perfbench/check.py spread WORKLOAD [--seeds 1-10] [--seconds N] [--trace 0|1]
      Runs the benchmark once per seed and prints, for every metric, the
      median, the quartiles, and the spread (Q3 - Q1) / median next to the
      metric's bound from BENCHMARK.json.

  python3 perfbench/check.py determinism WORKLOAD --seed S --held-out H
      Runs the traced benchmark twice with seed S and once with seed H, and
      checks that every simulated metric and per-layer count of the first
      pass repeats bit for bit under S and that the simulated metrics change
      under H.

The benchmark command comes from BENCHMARK.json; CARGO_TARGET_DIR defaults
to .bench_build as it does for the benchmark driver.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run(spec, workload, seed, seconds, trace):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(lines[-1])
    det = next(l for l in lines if l.startswith("deterministic: "))
    return result, json.loads(det[len("deterministic: "):])


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(args, spec):
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    seconds = args.seconds or spec["run_seconds"]
    values = {}
    for seed in parse_seeds(args.seeds):
        result, _ = run(spec, args.workload, seed, seconds, args.trace)
        if not result["correct"]:
            raise SystemExit(f"seed {seed}: incorrect result {result}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
    print(f"\n{'metric':<28} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        rel = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s":
            flag = "ok" if rel < bound / 3 else ("within bound" if rel <= bound else "TOO WIDE")
        print(f"{name:<28} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {rel:>8.4f} "
              f"{bound if bound is not None else '':>6} {flag}")
    os.makedirs(".bench_out", exist_ok=True)
    with open(f".bench_out/spread-{args.workload}-trace{args.trace}.json", "w") as f:
        json.dump(values, f, indent=1)


def determinism(args, spec):
    seconds = args.seconds or 2
    _, first = run(spec, args.workload, args.seed, seconds, 1)
    _, second = run(spec, args.workload, args.seed, seconds, 1)
    _, untraced = run(spec, args.workload, args.seed, seconds, 0)
    _, held_out = run(spec, args.workload, args.held_out, seconds, 1)
    ok = True
    for name, value in first.items():
        if second.get(name) != value:
            print(f"NOT REPEATED  {name}: {value} vs {second.get(name)}")
            ok = False
        if name in untraced and untraced[name] != value:
            print(f"TRACE CHANGED {name}: traced {value} vs untraced {untraced[name]}")
            ok = False
    same = [n for n, v in first.items() if held_out.get(n) == v]
    changed = [n for n in first if n not in same]
    for name in first:
        if name.startswith("sim_") and name in same:
            print(f"UNCHANGED     {name} under held-out seed {args.held_out}")
            ok = False
    print(f"seed {args.seed}: {len(first)} values repeat bit for bit across two traced runs "
          f"and match the untraced run: {ok}")
    print(f"held-out seed {args.held_out}: {len(changed)} values changed; unchanged: "
          f"{', '.join(same) if same else 'none'}")
    if not ok:
        raise SystemExit(1)


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("mode", choices=["spread", "determinism"])
    p.add_argument("workload")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, default=0, choices=[0, 1])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--held-out", type=int, default=1000003)
    args = p.parse_args()
    spec = load_spec()
    if args.mode == "spread":
        spread(args, spec)
    else:
        determinism(args, spec)


if __name__ == "__main__":
    main()
