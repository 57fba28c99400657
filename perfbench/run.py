#!/usr/bin/env python3
"""End-to-end benchmark of performa's phase-1 campaign path.

Run from the repository root:

  python3 perfbench/run.py --workload grid_steady --seed 42 \\
      --seconds 30 --trace 0

builds the performa libraries and the performa_bench program from
source (CMake, Release), runs one workload, checks every simulated
output against its reference, and prints as the last line one JSON
object: {"correct", "attempted", "failed", "metrics"}. --trace 0
reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics of a separate traced pass. The exit code is 0 only
when every output matched.

  python3 perfbench/run.py --self-test

checks the checker: an altered reference row and an altered digest
must be reported as failures, and every printed metric must have a
valid name and a unit.

  python3 perfbench/run.py --record --workload W --seed N

runs W and stores its rows as the reference for seed N in
perfbench/reference/W.json (do this only on a commit whose simulated
outputs are known to be right).

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
repository root. See perfbench/METRICS.md for what each metric means.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REF_DIR = BENCH_DIR / "reference"

WORKLOADS = ("grid_steady", "grid_flashcrowd_slo", "world16_steady")

# Committed phase-1 caches: the seed-42 reference of the grid workloads
# and the base behaviours phase 2 needs for the fault classes a
# workload does not measure.
COMMITTED_CSV = {
    "grid_steady": "results/phase1_behaviors.csv",
    "grid_flashcrowd_slo":
        "results/phase1_behaviors.csv.pflashcrowd.slop99_500ms",
    "world16_steady": "results/phase1_behaviors.csv",
}
REF_SEED = 42

NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]+$")
BINARY_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return target if target.is_absolute() else ROOT / target


def build():
    """Configure and build performa_bench; return its path or None."""
    out = build_dir() / "perfbench-cmake"
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", str(out), "--target",
                 "performa_bench", "-j", jobs]):
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            log("run.py: build failed:", " ".join(cmd))
            return None
    return out / "performa_bench"


def parse_output(text):
    """Split performa_bench's stdout into metrics, planned points, rows and
    failures."""
    metrics, points, rows, failures, problems = {}, [], [], [], []
    for line in text.splitlines():
        kind, _, rest = line.partition(" ")
        if kind == "metric":
            parts = rest.split()
            if len(parts) != 3:
                problems.append("malformed metric line: " + line)
                continue
            name, value, unit = parts
            if not NAME_RE.match(name) or not UNIT_RE.match(unit):
                problems.append("bad metric name or unit: " + line)
            if name in metrics:
                problems.append("metric printed twice: " + name)
            metrics[name] = {"value": float(value), "unit": unit}
        elif kind == "point":
            points.append(rest)
        elif kind == "row":
            pass_name, key, row = (rest.split(" ", 2) + ["", ""])[:3]
            rows.append((pass_name, key, row))
        elif kind == "failed":
            failures.append(rest)
    return metrics, points, rows, failures, problems


def csv_reference(path):
    """key -> row for the data lines of a behaviour CSV."""
    ref = {}
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if line and not line.startswith("#") and \
                    not line.startswith("version"):
                ref[",".join(line.split(",")[:2])] = line
    return ref


def load_reference(workload, seed, override=None):
    """The reference rows for (workload, seed), or None if unrecorded."""
    if override:
        return csv_reference(override)
    if seed == REF_SEED and workload != "world16_steady":
        return csv_reference(ROOT / COMMITTED_CSV[workload])
    path = REF_DIR / (workload + ".json")
    if path.exists():
        with open(path) as f:
            return json.load(f).get(str(seed))
    return None


def check_rows(rows, ref, points):
    """Count rows that differ from the reference or, where there is no
    reference, from the first row of the same key, and planned points
    a pass did not produce. Returns (attempted, failed, messages)."""
    failed, messages, first, seen = 0, [], {}, {}
    for pass_name, key, row in rows:
        seen.setdefault(pass_name, set()).add(key)
        want = ref.get(key) if ref is not None else first.setdefault(key, row)
        if want is None:
            failed += 1
            messages.append("%s %s: no reference row" % (pass_name, key))
        elif row != want:
            failed += 1
            messages.append("%s %s: got %s, want %s"
                            % (pass_name, key, row, want))
    attempted = len(rows)
    for pass_name, keys in seen.items():
        for key in sorted(set(points) - keys):
            attempted += 1
            failed += 1
            messages.append("%s %s: missing" % (pass_name, key))
    return attempted, failed, messages


def expected_metrics(trace):
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run(args, binary, reference_override=None):
    """Run one workload; print its output and the JSON result line.
    Returns (exit code, (result, rows)), or (1, None) if performa_bench
    failed."""
    work = build_dir() / "perfbench-work"
    work.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--work-dir", str(work), "--base-db",
           str(ROOT / COMMITTED_CSV[args.workload])]
    if args.versions:
        cmd += ["--versions", args.versions]
    if args.faults:
        cmd += ["--faults", args.faults]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run.py: performa_bench timed out")
        return 1, None
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        log("run.py: performa_bench exited with", proc.returncode)
        return 1, None

    metrics, points, rows, failures, problems = parse_output(proc.stdout)
    ref = load_reference(args.workload, args.seed, reference_override)
    attempted, failed, messages = check_rows(rows, ref, points)
    attempted += len(failures)
    failed += len(failures)
    if ref is None:
        print("info no recorded reference for seed %d: rows checked "
              "across passes only" % args.seed)
    want = expected_metrics(args.trace)
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != want:
        problems.append("metrics differ from BENCHMARK.json: missing %s, "
                        "extra or mis-unit %s"
                        % (sorted(set(want) - set(got)),
                           sorted(k for k in got if want.get(k) != got[k])))
    if attempted == 0:
        problems.append("no simulated output was checked")
    for m in messages + problems:
        print("check " + m)
    print("info failed_frac %.6g (%d of %d points)"
          % (failed / max(attempted, 1), failed, attempted))
    result = {"correct": failed == 0 and not problems,
              "attempted": max(attempted, 1), "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return (0 if result["correct"] else 1), (result, rows)


def record(args, rows):
    """Store this run's rows as the reference for args.seed."""
    ref = {}
    for _, key, row in rows:
        ref.setdefault(key, row)
    path = REF_DIR / (args.workload + ".json")
    table = json.loads(path.read_text()) if path.exists() else {}
    table[str(args.seed)] = dict(sorted(ref.items()))
    REF_DIR.mkdir(exist_ok=True)
    path.write_text(json.dumps(dict(sorted(table.items(),
                                           key=lambda kv: int(kv[0]))),
                               indent=1) + "\n")
    log("run.py: recorded %d rows for %s seed %d"
        % (len(ref), args.workload, args.seed))


def self_test(binary):
    """The checker must reject altered references and bad metrics."""
    ok = True

    def expect(cond, what):
        nonlocal ok
        log(("PASS " if cond else "FAIL ") + what)
        ok = ok and cond

    # One grid point end to end, against the committed row and against
    # a copy of it with one digit changed.
    mini = argparse.Namespace(workload="grid_steady", seed=REF_SEED,
                              seconds=1, trace=0, versions="0",
                              faults="6")
    code, out = run(mini, binary)
    expect(code == 0 and out is not None and out[0]["failed"] == 0,
           "mini grid matches the committed row")
    row = out[1][0][2] if out and out[1] else ""
    altered = re.sub(r"\d(?=\D*$)",
                     lambda m: str((int(m.group()) + 1) % 10), row)
    with tempfile.TemporaryDirectory(dir=build_dir()) as tmp:
        bad = Path(tmp) / "altered.csv"
        bad.write_text("version,fault\n" + altered + "\n")
        code, out = run(mini, binary, str(bad))
        expect(code != 0 and out is not None and out[0]["failed"] == 1
               and not out[0]["correct"],
               "an altered reference row is reported as a failure")

    # The digest check is the same comparison; alter a recorded digest.
    digests = json.loads((REF_DIR / "world16_steady.json").read_text())
    ref = digests[str(REF_SEED)]
    rows = [("timed.1.1", k, v) for k, v in ref.items()]
    _, failed, _ = check_rows(rows, ref, list(ref))
    expect(failed == 0, "recorded digest matches itself")
    bad = {k: v.replace("served=", "served=1") for k, v in ref.items()}
    _, failed, _ = check_rows(rows, bad, list(ref))
    expect(failed == len(rows), "an altered digest is reported as a failure")
    _, failed, _ = check_rows([("timed.1.1", "x", "y")], ref, list(ref))
    expect(failed >= 2, "a missing or unknown key is reported as a failure")

    # Every metric of both modes: valid name, a unit, and exactly the
    # names and units BENCHMARK.json declares.
    for trace in (0, 1):
        mini.trace = trace
        code, out = run(mini, binary)
        expect(code == 0 and out is not None, "trace %d run passes" % trace)
        metrics = out[0]["metrics"] if out else {}
        expect(all(NAME_RE.match(n) and UNIT_RE.match(m["unit"])
                   for n, m in metrics.items()) and
               {n: m["unit"] for n, m in metrics.items()}
               == expected_metrics(trace),
               "trace %d metrics are named, carry units and match "
               "BENCHMARK.json" % trace)
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=REF_SEED)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--versions", help=argparse.SUPPRESS)
    p.add_argument("--faults", help=argparse.SUPPRESS)
    p.add_argument("--record", action="store_true")
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if not args.self_test and not args.workload:
        p.error("--workload is required")

    started = time.monotonic()
    binary = build()
    if binary is None:
        return 2
    log("run.py: build ready in %.1f s" % (time.monotonic() - started))
    if args.self_test:
        return self_test(binary)
    code, out = run(args, binary)
    if args.record and code == 0:
        record(args, out[1])
    return code


if __name__ == "__main__":
    sys.exit(main())
