#!/usr/bin/env python3
"""Paired end-to-end benchmark of two commits: writes BENCH_<pr>.json.

Exports each commit into its own directory (git archive), builds and runs
bench/e2e/run.py there in alternating pairs (one seed per pair, the order
swapped every other pair, each run as long as BENCHMARK.json's
run_seconds), and compares the two sides per workload and
end-to-end metric against the bounds in BENCHMARK.json:

  better      the change won at least 9 of the 10 pairs and the medians
              differ by more than the parent's IQR;
  gain not counted  as better, but a change run was not correct or the
              change's median ok_ratio is below the parent's;
  regressed   the change's median is worse than the parent's by more than
              the metric's bound;
  unresolved  the parent's IQR over its median exceeds the bound, and not
              every change run beats every parent run;
  no regression  otherwise.

Example, writing BENCH_N.json:
  python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD --pr N \\
      --workload solve-heavy --seed 901 --workdir /tmp/pairs
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Pairs per workload: a gain counts only when won on at least 9 of 10.
PAIRS = 10


def git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def export(commit, dest):
    """Extracts `commit` into `dest`, unless `dest` already holds it (then
    its build-bench/ is reused)."""
    marker = os.path.join(dest, ".bench_commit")
    if os.path.exists(marker):
        with open(marker) as f:
            if f.read().strip() == commit:
                return
    if os.path.isdir(dest):
        subprocess.run(["rm", "-rf", dest], check=True)
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", commit],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout,
                   check=True)
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {commit} failed")
    with open(marker, "w") as f:
        f.write(commit + "\n")


def run_once(checkout, workload, seed, seconds):
    """One run.py run; returns (metrics dict, correct flag)."""
    out = subprocess.run(
        [sys.executable, "bench/e2e/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = [l for l in out.stdout.splitlines() if l.strip()]
    if not lines:
        raise RuntimeError(f"{checkout}: no output\n{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return values, bool(result.get("correct")) and out.returncode == 0


def quartiles(xs):
    xs = sorted(xs)
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], statistics.median(xs), q[2]


def verdict(parent, change, better, bound, gain_counts):
    """The comparison rule in the module docstring. `gain_counts` is false
    when the change failed more operations than the parent."""
    sign = 1 if better == "higher" else -1
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    won = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    iqr = p_q3 - p_q1
    if won >= 0.9 * PAIRS and abs(c_med - p_med) > iqr and \
            sign * (c_med - p_med) > 0:
        label = "better" if gain_counts else "gain not counted"
    elif p_med != 0 and sign * (p_med - c_med) / abs(p_med) > bound:
        label = "regressed"
    elif p_med != 0 and iqr / abs(p_med) > bound and \
            not all(sign * (c - p) > 0 for c in change for p in parent):
        label = "unresolved"
    else:
        label = "no regression"
    return won, label


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="parent commit")
    parser.add_argument("--change", required=True, help="change commit")
    parser.add_argument("--pr", required=True, help="names BENCH_<pr>.json")
    parser.add_argument("--workload", action="append", required=True,
                        help="repeatable; pairs run per workload")
    parser.add_argument("--seed", type=int, required=True,
                        help="first seed; pair i uses seed + i")
    parser.add_argument("--workdir", required=True,
                        help="where the two checkouts are built")
    args = parser.parse_args()
    out = os.path.join(ROOT, f"BENCH_{args.pr}.json")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    commits = {"parent": git("rev-parse", args.parent),
               "change": git("rev-parse", args.change)}
    dirs = {side: os.path.join(args.workdir, side) for side in commits}
    for side, commit in commits.items():
        export(commit, dirs[side])

    command = " ".join(["python3", os.path.relpath(sys.argv[0], ROOT)] +
                       sys.argv[1:])
    report = {
        "command": command,
        "run_command": "python3 bench/e2e/run.py --workload W --seed S "
                       f"--seconds {seconds} --trace 0",
        "nproc": os.cpu_count(),
        "parent_commit": commits["parent"],
        "change_commit": commits["change"],
        "seconds": seconds,
        "workloads": {},
    }
    for workload in args.workload:
        runs = {"parent": [], "change": []}
        correct = {"parent": [], "change": []}
        seeds = []
        for i in range(PAIRS):
            seed = args.seed + i
            seeds.append(seed)
            order = ["parent", "change"] if i % 2 == 0 else \
                ["change", "parent"]
            for side in order:
                values, ok = run_once(dirs[side], workload, seed, seconds)
                runs[side].append(values)
                correct[side].append(ok)
                print(f"{workload} seed {seed} {side}: "
                      f"{values.get('throughput_rps')} rps, correct {ok}",
                      file=sys.stderr)
        ok = {side: [r.get("ok_ratio", 0.0) for r in runs[side]]
              for side in runs}
        gain_counts = all(correct["change"]) and \
            statistics.median(ok["change"]) >= statistics.median(ok["parent"])
        table = {}
        for name, m in metrics.items():
            parent = [r[name] for r in runs["parent"] if name in r]
            change = [r[name] for r in runs["change"] if name in r]
            if len(parent) != PAIRS or len(change) != PAIRS:
                continue
            won, label = verdict(parent, change, m["better"], m["bound"],
                                 gain_counts)
            p_q1, p_med, p_q3 = quartiles(parent)
            c_q1, c_med, c_q3 = quartiles(change)
            table[name] = {
                "better": m["better"], "bound": m["bound"],
                "parent": {"q1": p_q1, "median": p_med, "q3": p_q3,
                           "runs": parent},
                "change": {"q1": c_q1, "median": c_med, "q3": c_q3,
                           "runs": change},
                "pairs_won": won, "verdict": label,
            }
        report["workloads"][workload] = {
            "pairs": PAIRS, "seeds": seeds, "correct": correct,
            "metrics": table}

    with open(out, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
