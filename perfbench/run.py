#!/usr/bin/env python3
"""Build and run the end-to-end benchmark for one workload.

    python3 perfbench/run.py --workload track_small --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test     # the benchmark's helper tests

Configures perfbench/CMakeLists.txt (which builds the repository's
libraries from source, Release) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, builds the harness incrementally and runs it. The
harness's standard output is passed through; its last line is the JSON
result. Build output goes to standard error.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 170


def build(build_dir: Path, target: str) -> None:
    jobs = str(min(4, os.cpu_count() or 1))
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", target, "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    if not (ROOT / "src" / "CMakeLists.txt").is_file() or \
            not (ROOT / "CMakeLists.txt").is_file():
        print(f"perfbench: no netconstant sources at {ROOT}", file=sys.stderr)
        return 2

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    try:
        build(build_dir, "perfbench_tests" if args.self_test else "perfbench")
    except (subprocess.CalledProcessError, OSError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 2

    if args.self_test:
        return subprocess.run([str(build_dir / "perfbench_tests")]).returncode

    command = [str(build_dir / "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--out-dir", str(build_dir / "traces")]
    try:
        return subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
