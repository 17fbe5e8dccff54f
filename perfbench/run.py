#!/usr/bin/env python3
"""Build the opiso benchmark binary from source and run one workload.

    python3 perfbench/run.py --workload paper_flow --seed 1 --seconds 20 --trace 0

Run from the repository root. The binary (perfbench/perfbench.cpp) is
built with CMake into $CARGO_TARGET_DIR (default .bench_build) on first
use; later runs only re-check the build. Build output goes to stderr, so
the last line of stdout is the benchmark's JSON result. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import ctypes
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_flow", "wide_datapath", "equiv_proof", "lane_sweep")
RUN_TIMEOUT_S = 170
ADDR_NO_RANDOMIZE = 0x0040000


def fixed_layout():
    """Turn off address-space randomization for the benchmark process.

    Set-up and pass times shift by up to 2x between randomized layouts
    of the same binary, so a run-to-run median would mix layouts. Where
    the kernel refuses, the benchmark runs with the usual random layout.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        persona = libc.personality(0xFFFFFFFF)
        if persona != -1:
            libc.personality(persona | ADDR_NO_RANDOMIZE)
    except OSError:
        pass


def build(build_dir):
    """Configure (once) and build; returns the benchmark binary's path."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "opiso_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for need in ("src/CMakeLists.txt", "designs_rtl/fig1.rtl"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            print(f"run.py: {need} not found under {ROOT}; run from an opiso checkout",
                  file=sys.stderr)
            return 2

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              preexec_fn=fixed_layout).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
