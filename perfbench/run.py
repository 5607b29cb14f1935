#!/usr/bin/env python3
"""Builds and runs the serving-pipeline benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload fleet-zipf --seed 1 --seconds 10 --trace 0

It builds the shipped `ifs-serve` binary and the benchmark package in
release mode (into `$CARGO_TARGET_DIR`, default `.bench_build`), collects
the host's description, and runs the benchmark. The benchmark's last line
of standard output is its JSON result. `--self-test` instead checks that a
run with one flipped expected answer fails.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = pathlib.Path.cwd()


def build(env):
    """Builds both binaries; returns their paths or None."""
    if not (ROOT / "crates" / "ifs-serve" / "Cargo.toml").is_file():
        print(f"run.py: {ROOT} is not the repository root (no crates/ifs-serve)", file=sys.stderr)
        return None
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(ROOT / "Cargo.toml"),
         "-p", "ifs-serve", "--bin", "ifs-serve"],
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(HERE / "Cargo.toml")],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            print(f"run.py: build failed: {' '.join(cmd)}", file=sys.stderr)
            return None
    release = pathlib.Path(env["CARGO_TARGET_DIR"]) / "release"
    return release / "ifs-perfbench", release / "ifs-serve"


def first_line(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def source_digest():
    """SHA-256 over the sources the benchmark builds, in path order."""
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock", HERE / "Cargo.toml"]
    files += sorted((ROOT / "crates").rglob("*.rs")) + sorted((ROOT / "crates").rglob("Cargo.toml"))
    files += sorted((HERE / "src").rglob("*.rs"))
    digest = hashlib.sha256()
    for f in files:
        digest.update(str(f.relative_to(ROOT)).encode())
        digest.update(f.read_bytes())
    return digest.hexdigest()


def host():
    cpu = None
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    git_rev = first_line(["git", "-C", str(ROOT), "rev-parse", "HEAD"]) if (ROOT / ".git").exists() else None
    try:
        # Share of time runnable tasks waited for a CPU: other load on a
        # shared host shows here, so a noisy run can be told apart.
        pressure = pathlib.Path("/proc/pressure/cpu").read_text().splitlines()[0]
    except (OSError, IndexError):
        pressure = None
    return {
        "host_cores": os.cpu_count(),
        "cpu_model": cpu,
        "rustc": first_line(["rustc", "--version"]),
        "git_rev": git_rev,
        "source_sha256": source_digest(),
        "cpu_pressure_at_start": pressure,
    }


def cpu_times():
    """The machine's CPU tick counters (/proc/stat), or None."""
    try:
        return [int(x) for x in pathlib.Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:9]]
    except (OSError, ValueError):
        return None


def note_steal(args, before, after):
    """Adds to the run's result file the share of CPU time the hypervisor
    stole while it ran: a run slowed by a busy host shows it here."""
    result = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    if before is None or after is None or not result.is_file():
        return
    delta = [a - b for a, b in zip(after, before)]
    data = json.loads(result.read_text())
    data["host"]["cpu_steal_share"] = delta[7] / max(sum(delta), 1)
    result.write_text(json.dumps(data, indent=2) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="fleet-zipf")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    built = build(env)
    if built is None:
        return 2
    bench, serve = built
    cmd = [
        str(bench),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--serve", str(serve),
        "--out", str(HERE / "out"),
        "--host-json", json.dumps(host()),
    ]
    if not args.self_test:
        before = cpu_times()
        code = subprocess.run(cmd, env=env).returncode
        note_steal(args, before, cpu_times())
        return code
    # One flipped bit in one expected answer must fail the run.
    done = subprocess.run(cmd + ["--corrupt-expected"], env=env, capture_output=True, text=True)
    last = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else "{}"
    if done.returncode != 0 and json.loads(last).get("correct") is False:
        print("self-test passed: a flipped expected bit fails the run")
        return 0
    print(f"self-test FAILED: exit {done.returncode}, last line {last}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
