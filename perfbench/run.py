"""Benchmark of the pdhyp experiment runner.

    python3 perfbench/run.py --workload pk_mixed_n64 --seed 0 --seconds 20 --trace 0

Runs one workload of spec.json in a fresh child process, so peak memory
is per workload, and checks every run's outputs.  With ``--trace 0`` it
reports the end-to-end metrics, with ``--trace 1`` the per-layer
breakdown of a separate traced run and the tracing overhead.  The last
line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the lines above it are a readable table and the
result's provenance.  The full record goes to .perfbench/results/.
``--workload all`` runs every workload in turn.

Run from the root of a checkout; the program is imported from its src/.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD_TIMEOUT_S = 170


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def run_child(workload, seed, seconds, trace):
    """The child's JSON record; exits when the child fails."""
    args = {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace}
    cmd = [sys.executable, os.path.join(HERE, "child.py"), json.dumps(args)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {workload} exceeded {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.exit(f"perfbench: {workload} child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def show(record, catalogue):
    """Print the record as a table of metric, value and unit."""
    print(f"workload {record['workload']}: {record['attempted']} run(s) "
          f"checked, {record['failed']} failed")
    for problem in record["problems"]:
        print(f"  FAIL {problem}")
    detail = record["detail"]
    for metric in catalogue:
        name, unit = metric["name"], metric["unit"]
        if name == "fail_frac":
            value = record["failed"] / record["attempted"]
            note = f"{record['failed']}/{record['attempted']} runs"
        else:
            value, note = record["metrics"][name], metric.get("note", "")
        if name in detail:
            tail = detail[name]
            note = (f"p{tail['percentile']:.1f}, {tail['steps_beyond']} of "
                    f"{tail['steps']} steps beyond")
        print(f"  {name:32s} {value:14.6g} {unit:6s} {note[:60]}")
    print(f"  detail {json.dumps(detail)}")
    print(f"provenance {json.dumps(record['provenance'])}")


def save(record, seed, trace):
    out = os.path.join(ROOT, ".perfbench", "results")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f"{record['workload']}_seed{seed}_trace{trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)


def main(argv=None):
    spec = load_json(os.path.join(HERE, "spec.json"))
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(spec["workloads"]) + ["all"])
    parser.add_argument("--seed", type=int, default=spec["default_seed"])
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "pdhyp", "__init__.py")):
        sys.exit(f"perfbench: no program to measure at {ROOT}/src/pdhyp")

    section = "per_layer" if args.trace else "end_to_end"
    reported = {m["name"]: m["unit"] for m in bench[section]}
    names = (sorted(spec["workloads"]) if args.workload == "all"
             else [args.workload])
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        record = run_child(name, args.seed, args.seconds, args.trace)
        show(record, spec[section])
        save(record, args.seed, args.trace)
        correct = correct and record["failed"] == 0
        attempted += record["attempted"]
        failed += record["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        for key, unit in reported.items():
            metrics[prefix + key] = {"value": record["metrics"][key],
                                     "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
