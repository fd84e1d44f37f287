#!/usr/bin/env python3
"""Build and run the end-to-end defender_serve benchmark (bench/e2e/README.md).

    python3 bench/e2e/run.py --workload solve-heavy --seed 1 --seconds 20 --trace 0
    python3 bench/e2e/run.py --workload all --seed 1

Configures and builds the library tree, defender_serve and the driver into
build-bench/ at the repository root (a no-op when up to date), then runs the
driver from the root. Build output goes to stderr, so the last stdout line is
the driver's JSON result. `--workload all` runs every workload in turn and
prints each one's lines; the exit code is non-zero when any run failed.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = "build-bench"
WORKLOADS = ["tiny-tcp-open", "solve-heavy", "isomorph-zipf", "mixed-isolated"]


def build():
    build_dir = os.path.join(ROOT, BUILD)
    subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2

    driver = os.path.join(BUILD, "defender_e2e")
    server = os.path.join(BUILD, "examples", "defender_serve")
    rev = commit()
    worst = 0
    names = WORKLOADS if args.workload == "all" else [args.workload]
    for name in names:
        code = subprocess.run(
            [driver, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--server", server, "--workdir", BUILD, "--commit", rev],
            cwd=ROOT).returncode
        if code != 0:
            worst = code
    return worst


if __name__ == "__main__":
    sys.exit(main())
