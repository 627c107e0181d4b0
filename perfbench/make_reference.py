"""Rewrite the stored reference series of every workload at the default
seed.  Run from the checkout root, only when a change to the program is
meant to change its output, and say so where the change is described:

    python3 perfbench/make_reference.py
"""

import json
import os

import checks
import workloads
from workloads import experiments


def main():
    os.makedirs(checks.REFERENCE_DIR, exist_ok=True)
    seed = workloads.DEFAULT_SEED
    for name in sorted(workloads.WORKLOADS):
        config = workloads.resolve(name, seed,
                                   os.path.join(".perfbench", "reference"))
        result = experiments.run(config)
        series = checks.read_series(result.csv_path)
        ref = {"workload": name, "seed": seed,
               "config_hash": workloads.config_hash(config),
               "series": series}
        with open(checks.reference_path(name), "w") as fh:
            json.dump(ref, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{name}: {len(series)} series -> {checks.reference_path(name)}")


if __name__ == "__main__":
    main()
