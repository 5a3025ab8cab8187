#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload sr_mix --seed 1 --seconds 12 --trace 0

Run from the repository root. The first call configures and builds the
engine and the benchmark program with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later calls
rebuild incrementally. Pool files, span traces and one result file per
run go to .bench_out/. The last line of stdout is the program's JSON
result; build output goes to stderr.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def git_sha():
    """Commit of the checkout, marked -dirty when the tree differs from it;
    "none" outside a git checkout."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "describe", "--always",
                              "--dirty", "--abbrev=40"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "none"


def source_digest():
    """Digest of the sources the program is built from: identifies the code
    measured whether or not it is committed."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for p in sorted(base.rglob("*")):
            if p.is_file() and p.suffix in (".h", ".cc", ".txt", ".py"):
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()


def build(build_dir):
    jobs = str(os.cpu_count() or 1)
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    if subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    if subprocess.run([str(build_dir / "perfbench_stats_test")],
                      stdout=sys.stderr).returncode != 0:
        fail("benchmark statistics tests failed")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").exists():
        fail(f"engine sources not found under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    kind = "per_layer" if args.trace else "end_to_end"
    want = [m["name"] for m in spec[kind]]

    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "perfbench"
    build(build_dir)

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    # The benchmark runs the engine's defaults: no POSEIDON_* overrides
    # (latency model, commit pipeline, caches) leak in from the caller.
    env = {k: v for k, v in os.environ.items() if not k.startswith("POSEIDON_")}
    cmd = [str(build_dir / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--dir", str(out_dir),
           "--git-sha", git_sha(), "--source-sha256", source_digest()]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if not lines or proc.returncode not in (0, 1):
        sys.stderr.write(proc.stdout)
        fail(f"benchmark exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("benchmark printed no JSON result")
    got = list(result["metrics"])
    if sorted(got) != sorted(want):
        fail(f"metrics {got} do not match BENCHMARK.json {want}")

    config = next((json.loads(l[len("config: "):]) for l in lines
                   if l.startswith("config: ")), {})
    name = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    record = out_dir / name
    record.write_text(json.dumps({"config": config, "result": result,
                                  "log": lines[:-1]}, indent=1) + "\n")
    sys.stdout.write(proc.stdout)
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
