#!/usr/bin/env python3
"""Build and run the skyward layered benchmark.

    python3 perfbench/run.py --workload probe_sweep --seed 42 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

Run from the repository root. The benchmark is a Cargo package of its
own (perfbench/Cargo.toml) built against the simulator crates by path,
offline, into $CARGO_TARGET_DIR (default perfbench/target). One
workload runs in one process: `--trace 0` prints the end-to-end
metrics, `--trace 1` runs the traced binary and prints the per-layer
metrics. The last line of standard output is the result object.
`--workload all` runs every workload, each in its own process.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["probe_sweep", "routed_bursts", "chaos_modes", "fleet_ring"]


def source_rev():
    """The git commit when there is one, else a digest of the sources."""
    if (ROOT / ".git").exists():
        r = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
        )
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock", HERE / "Cargo.toml", HERE / "Cargo.lock"]
    for base in (ROOT / "crates", HERE / "src"):
        files += sorted(p for p in base.rglob("*") if p.suffix in (".rs", ".toml"))
    for p in files:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return "src-" + h.hexdigest()[:12]


def binary(traced):
    target = Path(os.environ.get("CARGO_TARGET_DIR", HERE / "target"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "release" / ("perfbench-traced" if traced else "perfbench")


def build():
    """Build both binaries; cargo's output goes to stderr."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode


def command(args, workload, rev):
    return [str(binary(args.trace == 1)), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--rev", rev]


def run_all(args, rev):
    """Every workload in its own process, then one summary table."""
    failed = False
    results = {}
    for w in WORKLOADS:
        r = subprocess.run(command(args, w, rev), cwd=ROOT, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(r.stdout)
        lines = r.stdout.strip().splitlines()
        if r.returncode != 0 or not lines:
            failed = True
            continue
        results[w] = json.loads(lines[-1])
        failed |= not results[w]["correct"]
    for w, res in results.items():
        print(f"# {w}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        for name, m in res["metrics"].items():
            print(f"#   {name:<40} {m['value']:>18.6g} {m['unit']}")
    return 1 if failed else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    code = build()
    if code != 0:
        print("perfbench: build failed", file=sys.stderr)
        return code
    rev = source_rev()
    if args.workload == "all":
        return run_all(args, rev)
    return subprocess.run(command(args, args.workload, rev), cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
