#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload.

    python3 perfbench/run.py --workload train-mnist --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The first call configures and builds the
library sources and the runner into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); later calls only re-check the build.

An untraced run is spread over PROCESSES runner processes, each doing an
equal share of the work on the same seed. Every metric is the median of
the per-process values, so one process that lands on a slow placement
moves a figure less. The processes must agree exactly on accuracy and on
the exported model's digest. A traced run (--trace 1) uses one process.

A watchdog reads each runner's "@op begin/end" markers: an op that
outlives its deadline is killed, and an op left open by a crash or a hang
counts as failed; nothing is retried. The runner's context, per-phase
tallies, sample counts and check failures are printed as JSON lines and
the result object is the last line. The exit code is 0 only when every
output check passed and no op failed; a missing source tree or a failed
build exits 2 without printing a result.
"""

import argparse
import hashlib
import json
import os
import queue
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("train-mnist", "infer-mnist")
PROCESSES = 3
# Every run must end within 180 s; keep a margin for the build check.
RUN_BUDGET_S = 165.0


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configures (once) and builds the runner; returns its path or None."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"library sources not found under {ROOT / 'src'}")
        return None
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              check=False)
        if done.returncode != 0:
            log(f"build step failed: {' '.join(step)}")
            return None
    binary = out / "lehdc_perfbench"
    return binary if binary.is_file() else None


def source_commit():
    """The git commit when the checkout is a repository, else a digest of
    the library sources (an exported checkout carries no .git)."""
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        if done.returncode == 0 and done.stdout.strip():
            return done.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def pump(stream, lines):
    for line in stream:
        lines.put(line.rstrip("\n"))
    lines.put(None)


class Child:
    """One runner process and what the watchdog saw of it."""

    def __init__(self):
        self.code = None
        self.hung = None
        self.begun = 0
        self.open_ops = {}
        self.lines = {}  # first key of each JSON line -> parsed object
        self.result = None

    def failed_abnormally(self):
        return self.result is None or self.hung is not None or \
            self.code not in (0, 1)


def run_child(command, env, budget_end):
    child = Child()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            env=env, cwd=ROOT)
    lines = queue.Queue()
    reader = threading.Thread(target=pump, args=(proc.stdout, lines),
                              daemon=True)
    reader.start()
    last = None
    try:
        while True:
            now = time.monotonic()
            deadline = budget_end
            if child.open_ops:
                deadline = min(deadline, min(child.open_ops.values()))
            if now >= deadline:
                child.hung = (min(child.open_ops, key=child.open_ops.get)
                              if child.open_ops else "run")
                log(f"op '{child.hung}' exceeded its deadline; killing the "
                    "runner")
                proc.kill()
                break
            try:
                line = lines.get(timeout=deadline - now)
            except queue.Empty:
                continue
            if line is None:
                break
            if line.startswith("@op "):
                parts = line.split()
                if parts[1] == "begin":
                    child.begun += 1
                    child.open_ops[parts[2]] = (time.monotonic() +
                                                float(parts[3]))
                else:
                    child.open_ops.pop(parts[2], None)
                continue
            try:
                parsed = json.loads(line)
            except json.JSONDecodeError:
                log(f"unexpected runner output: {line}")
                continue
            if isinstance(parsed, dict) and parsed:
                child.lines[next(iter(parsed))] = parsed
                last = parsed
    finally:
        if proc.poll() is None:
            proc.kill()
        child.code = proc.wait()
        reader.join(timeout=5)
    if last is not None and {"correct", "attempted", "failed",
                             "metrics"} <= set(last):
        child.result = last
    return child


def aggregate(children, failures):
    """Merges the per-process results: medians of metrics, sums of
    tallies; accuracy and model digest must agree exactly."""
    first = children[0]
    context = dict(first.lines.get("context", {}).get("context", {}))
    context["processes"] = str(len(children))
    phases = {}
    samples = {}
    for child in children:
        for name, tally in child.lines.get("phases", {}).get(
                "phases", {}).items():
            merged = phases.setdefault(name, {"attempted": 0, "failed": 0})
            merged["attempted"] += tally["attempted"]
            merged["failed"] += tally["failed"]
        for name, count in child.lines.get("samples", {}).get(
                "samples", {}).items():
            samples[name] = samples.get(name, 0) + count
        failures.extend(child.lines.get("check_failures", {}).get(
            "check_failures", []))

    digests = {c.lines.get("context", {}).get("context", {}).get(
        "model_digest") for c in children}
    if len(digests) != 1:
        failures.append(f"runner processes exported different models: "
                        f"{sorted(d or '' for d in digests)}")
    accuracies = {c.result["metrics"].get("accuracy", {}).get("value")
                  for c in children}
    if len(accuracies) != 1:
        failures.append(f"accuracy differs across runner processes of one "
                        f"seed: {sorted(a or 0 for a in accuracies)}")

    metrics = {}
    for name, metric in first.result["metrics"].items():
        values = [c.result["metrics"][name]["value"] for c in children
                  if name in c.result["metrics"]]
        if len(values) != len(children) or None in values:
            failures.append(f"metric {name} missing from a runner process")
            continue
        metrics[name] = {"value": statistics.median(values),
                         "unit": metric["unit"]}
    result = {
        "correct": all(c.result["correct"] for c in children) and
        not failures,
        "attempted": sum(c.result["attempted"] for c in children),
        "failed": sum(c.result["failed"] for c in children),
        "metrics": metrics,
    }
    return context, phases, samples, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-check", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    binary = build()
    if binary is None:
        return 2

    processes = 1 if args.trace else PROCESSES
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--share", str(processes),
               "--commit", source_commit()]
    if args.corrupt_check:
        command.append("--corrupt-check")
    env = dict(os.environ)
    if args.trace:
        traces = build_dir() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        env["PERFBENCH_TRACE_OUT"] = str(
            traces / f"{args.workload}-seed{args.seed}.json")

    budget_end = time.monotonic() + RUN_BUDGET_S
    children = []
    for _ in range(processes):
        child = run_child(command, env, budget_end)
        children.append(child)
        if child.failed_abnormally():
            break

    if any(c.failed_abnormally() for c in children):
        broken = children[-1]
        reason = (f"hung op '{broken.hung}'" if broken.hung
                  else f"runner exited with {broken.code}")
        log(f"run failed: {reason}")
        print(json.dumps({"correct": False,
                          "attempted": sum(c.begun for c in children),
                          "failed": max(1, len(broken.open_ops)),
                          "metrics": {}}))
        return 1

    failures = []
    context, phases, samples, result = aggregate(children, failures)
    for failure in failures:
        log(f"output check failed: {failure}")
    print(json.dumps({"context": context}))
    print(json.dumps({"phases": phases}))
    print(json.dumps({"samples": samples}))
    print(json.dumps({"check_failures": failures}))
    print(json.dumps(result))
    return 0 if result["correct"] and result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
