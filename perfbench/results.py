"""Result files and their config fingerprints.

Every result records what produced it: the workload's settings, the fleet
shape, the host's core count, the build, the seed and the source. Anything
that compares two results goes through `require_alike`, which refuses
results whose configs differ -- a quick run is never compared with a full
one, nor a 2-shard fleet with a 1-shard fleet.
"""

import hashlib
import json
import os
import subprocess
from pathlib import Path

from workloads import SHARDS, WORKERS_PER_SHARD

# Fingerprint fields that say which code and inputs ran, not how the
# benchmark was configured. Comparing two commits (or two seeds) is the
# point of a comparison, so only config fields must match.
IDENTITY_FIELDS = ("seed", "commit", "source_digest")

# Sources whose bytes decide what the benchmark measures.
SOURCE_GLOBS = ("src/**/*.cpp", "src/**/*.hpp", "examples/hemul_shard.cpp",
                "examples/hemul_router.cpp", "perfbench/**/*.py", "perfbench/gen/*",
                "perfbench/CMakeLists.txt")


class FingerprintMismatch(Exception):
    """Two results were produced under different configurations."""


def source_digest(root):
    h = hashlib.sha256()
    files = sorted({p for g in SOURCE_GLOBS for p in Path(root).glob(g) if p.is_file()})
    for path in files:
        h.update(str(path.relative_to(root)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit_id(root):
    """The git commit when the checkout is a repository, else None."""
    if not (Path(root) / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def fingerprint(workload, seed, seconds, build, root):
    return {
        "workload": workload.describe(),
        "shards": SHARDS,
        "workers_per_shard": WORKERS_PER_SHARD,
        "nproc": os.cpu_count(),
        "build_type": build.get("type"),
        "march": build.get("march"),
        "window_s": seconds,
        "seed": seed,
        "commit": commit_id(root),
        "source_digest": source_digest(root),
    }


def differences(a, b, ignore=()):
    keys = sorted(set(a) | set(b))
    return [k for k in keys if k not in ignore and a.get(k) != b.get(k)]


def require_alike(a, b, ignore=IDENTITY_FIELDS):
    """Raises FingerprintMismatch unless fingerprints a and b agree on
    every field outside `ignore`."""
    diff = differences(a, b, ignore)
    if diff:
        raise FingerprintMismatch("unlike fingerprints, differing in: " + ", ".join(diff))


def result_path(results_dir, workload, seed, trace):
    return Path(results_dir) / ("%s-seed%d-trace%d.json" % (workload, seed, trace))


def save(path, result):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=1, sort_keys=True))


def load(path):
    return json.loads(Path(path).read_text())
