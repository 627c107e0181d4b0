"""Workload table and provenance for the pdhyp benchmark.

The workloads, their config overrides and the metric catalogue live in
``spec.json`` next to this file.  The program under test is imported from
``src/`` of the checkout this directory sits in, never from elsewhere.
"""

import hashlib
import json
import os
import platform
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

if SRC not in sys.path:
    sys.path.insert(0, SRC)

import numpy as np   # noqa: E402
import scipy         # noqa: E402
import pdhyp         # noqa: E402
from pdhyp import experiments  # noqa: E402

if os.path.dirname(os.path.dirname(os.path.abspath(pdhyp.__file__))) != SRC:
    raise ImportError(f"pdhyp was imported from {pdhyp.__file__}, not {SRC}")

with open(os.path.join(HERE, "spec.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = SPEC["workloads"]
DEFAULT_SEED = SPEC["default_seed"]


def resolve(name, seed, out_dir):
    """The validated ExperimentConfig of a workload; only seeded workloads
    take the seed, as their initial-data seed."""
    wl = WORKLOADS[name]
    pairs = [f"{key}={json.dumps(val)}" for key, val in wl["overrides"].items()]
    if wl["seeded"]:
        pairs.append(f"initial.seed={int(seed)}")
    pairs += [f"output.dir={json.dumps(out_dir)}", f"output.prefix={name}"]
    return experiments.load_preset(wl["preset"]).override(pairs)


def config_hash(config):
    """Hash of the resolved config without the output block, which names
    only where files go."""
    raw = {k: v for k, v in config.to_dict().items() if k != "output"}
    text = json.dumps(raw, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _git_commit():
    """HEAD of the checkout read from .git directly, or None outside git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_hash():
    """Hash of every file under src/pdhyp, so results stay attributable
    in a checkout that is not a git repository."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "pdhyp")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for fname in sorted(filenames):
            if fname.endswith((".py", ".json")):
                path = os.path.join(dirpath, fname)
                h.update(os.path.relpath(path, pkg).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def provenance(seed, hashes):
    """What produced a result: code, toolchain, parallelism and inputs."""
    return {
        "git_commit": _git_commit(),
        "source_hash": _source_hash(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        # grid.SpectralGrid passes workers=-1, which scipy.fft resolves
        # to os.cpu_count() threads
        "scipy_fft_workers": os.cpu_count(),
        "PDHYP_WORKERS": os.environ.get("PDHYP_WORKERS", "unset (1)"),
        "seed": seed,
        "config_hash": hashes,
    }
