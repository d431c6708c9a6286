#!/usr/bin/env python3
"""Builds and runs the xfrag serving benchmark.

    python3 servebench/run.py --workload engine-cold --seed 1 --seconds 10 --trace 0
    python3 servebench/run.py --self-test

Run from the repository root. The benchmark package (servebench/CMakeLists.txt)
is configured once into $CARGO_TARGET_DIR/servebench (default
.bench_build/servebench) as a Release build of the repository's src/ plus the
harness. Each run generates the seeded corpus and its snapshots, serves the
workload, checks every answer, and prints one JSON result object as the last
line of standard output. Build output goes to standard error.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("engine-cold", "serve-hot", "router-topk")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"servebench: {message}", file=sys.stderr)
    return 2


def build(build_dir, target):
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release", *generator],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", target,
         "-j", str(os.cpu_count() or 1)],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir / target


def commit_id():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def source_digest():
    """SHA-256 over the library and benchmark sources (paths and bytes), so
    a result can be tied to the code that produced it outside git too."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the harness unit tests")
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").exists():
        return fail(f"no xfrag sources under {ROOT / 'src'}; run from a "
                    "checkout of the repository")
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_root = build_root.resolve()
    build_dir = build_root / "servebench"
    try:
        if args.self_test:
            test = build(build_dir, "servebench_test")
            return subprocess.run([str(test)]).returncode
        if args.workload is None or args.seed is None:
            return fail("--workload and --seed are required")
        binary = build(build_dir, "servebench")
    except subprocess.CalledProcessError as error:
        return fail(f"build failed: {error}")

    data_dir = build_root / "servebench-data" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir = build_root / "servebench-results"
    data_dir.mkdir(parents=True, exist_ok=True)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        prepare = subprocess.run(
            [str(binary), "prepare", "--seed", str(args.seed),
             "--data", str(data_dir)],
            stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
        if prepare.returncode != 0:
            return fail("corpus preparation failed")
        run = subprocess.run(
            [str(binary), "run", "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--data", str(data_dir),
             "--out", str(out_dir), "--commit", commit_id(),
             "--source-digest", source_digest()],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
        sys.stdout.write(run.stdout)
        sys.stdout.flush()
        return run.returncode
    except subprocess.TimeoutExpired:
        return fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
