#!/usr/bin/env python3
"""Builds manic_perfbench from this checkout and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Every run configures the checkout
and builds the repository's libraries plus the benchmark binary into
$CARGO_TARGET_DIR (default .bench_build); after the first run this only
checks that the build is current.
Build output goes to stderr, so the last line of stdout is the benchmark's
JSON result. Workload outputs (WAL directories, trace files) go to
.bench_out. See perfbench/README.md.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("study_us_broadband", "serve_ingest_wal", "serve_query")


def build(build_dir):
    """Configures and builds the benchmark; returns the binary path.

    Configuring runs every time. On a current tree it is quick, and CMake
    refuses a build directory that was configured for another source
    directory, so a build directory shared by two checkouts cannot build
    one checkout's program for the other.
    """
    subprocess.run(
        ["cmake", "-S", ROOT, "-B", build_dir,
         "-DCMAKE_PROJECT_INCLUDE=" + os.path.join(HERE, "attach.cmake"),
         "-DMANIC_BUILD_TESTS=OFF", "-DMANIC_BUILD_EXAMPLES=OFF",
         "-DMANIC_BUILD_BENCH=OFF"],
        check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "manic_perfbench",
         "-j", str(os.cpu_count() or 1)],
        check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench", "manic_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke size, for the benchmark's own tests")
    parser.add_argument("--expect-confusion",
                        help="override expected.json: tp,fp,fn,tn")
    parser.add_argument("--expect-digest", help="override expected.json")
    args = parser.parse_args()

    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.exit(f"run.py: {needed} is missing from {ROOT}; "
                     "run from a full checkout of the repository")
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"run.py: build failed: {e}")

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.abspath(".bench_out")]
    if args.tiny:
        cmd.append("--tiny")
    # The study's known answers; a traced run of any workload also runs the
    # study at smoke size.
    with open(os.path.join(HERE, "expected.json")) as f:
        expected = json.load(f)["study_us_broadband"]
    for size, flag in (("tiny" if args.tiny else "full", "--expect-"),
                       ("tiny", "--expect-tiny-")):
        cmd += [flag + "confusion", ",".join(
                    str(expected[size][k]) for k in ("tp", "fp", "fn", "tn")),
                flag + "digest", expected[size]["digest"]]
    if args.expect_confusion:
        cmd += ["--expect-confusion", args.expect_confusion]
    if args.expect_digest:
        cmd += ["--expect-digest", args.expect_digest]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
