#!/usr/bin/env python3
"""Self-tests for tools/lehdc_callgraph.py (clang-free).

Runs the checker's analysis stage on the synthetic facts in
tests/callgraph/fixture_facts.json and asserts the full contract:

  * a hot entry reaching a forbidden effect (directly or transitively)
    is reported under the right rule;
  * entry-specific and global allowlists prune both the finding and the
    descent;
  * an inline `lehdc-callgraph: allow(rule)` comment suppresses the
    effect at that line;
  * the baseline diff is stable (two runs, identical reports), a
    bootstrap baseline passes loudly, an armed empty baseline fails,
    --update-baseline then passes, and a NEW violation on an armed
    baseline fails again.

Registered as the ctest `callgraph_selftest`. Exit 0 on success.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "lehdc_callgraph.py"
FACTS = ROOT / "tests" / "callgraph" / "fixture_facts.json"

failures = []


def check(name: str, condition: bool, detail: str = "") -> None:
    status = "ok" if condition else "FAIL"
    print(f"  [{status}] {name}" + (f" — {detail}" if not condition else ""))
    if not condition:
        failures.append(name)


def run(*extra: str, facts: Path = FACTS) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(TOOL), "--facts", str(facts), *extra],
        capture_output=True, text=True, cwd=ROOT)


def main() -> int:
    tmp = Path(tempfile.mkdtemp(prefix="lehdc_callgraph_test_"))
    report = tmp / "report.txt"
    baseline = tmp / "baseline.txt"

    print("== findings & suppressions ==")
    baseline.write_text("# armed (no bootstrap marker)\n")
    proc = run("--baseline", str(baseline), "--report", str(report))
    body = report.read_text()
    check("armed empty baseline fails", proc.returncode == 1,
          f"rc={proc.returncode} stderr={proc.stderr!r}")
    check("alloc violation found",
          "lehdc::obs::Counter::add\talloc" in body, body)
    check("transitive lock violation found",
          "lehdc::serve::MicroBatcher::offer\tlock" in body
          and "grow_queue -> lehdc::util::Mutex::lock" in body, body)
    check("inline allow(throw) suppresses predict_blocked throw",
          "predict_blocked" not in body, body)
    check("global allowlist (util::expects) raises nothing",
          "expects" not in body, body)
    check("per-entry allowlist (offer_feedback own mutex) raises nothing",
          "offer_feedback" not in body, body)

    print("== determinism ==")
    report2 = tmp / "report2.txt"
    run("--baseline", str(baseline), "--report", str(report2))
    check("two runs produce identical reports",
          body == report2.read_text())

    print("== baseline lifecycle ==")
    boot = tmp / "bootstrap.txt"
    boot.write_text("# status: bootstrap\n")
    proc = run("--baseline", str(boot), "--report", str(report))
    check("bootstrap baseline passes", proc.returncode == 0,
          f"rc={proc.returncode}")
    check("bootstrap run announces itself", "BOOTSTRAP" in proc.stdout,
          proc.stdout)

    proc = run("--baseline", str(baseline), "--report", str(report),
               "--update-baseline")
    check("--update-baseline exits 0", proc.returncode == 0)
    lines = [l for l in baseline.read_text().splitlines()
             if l and not l.startswith("#")]
    check("baseline records both triples", len(lines) == 2,
          repr(lines))
    proc = run("--baseline", str(baseline), "--report", str(report))
    check("armed baseline accepts identical findings",
          proc.returncode == 0, f"rc={proc.returncode}")

    # A new violation on top of the armed baseline must fail again.
    facts = json.loads(FACTS.read_text())
    for fn in facts["functions"]:
        if fn["name"] == "lehdc::serve::MicroBatcher::offer":
            fn["calls"].append({"name": "nanosleep", "line": 1,
                                "file": "tests/callgraph/fixture.cpp"})
    grown = tmp / "grown_facts.json"
    grown.write_text(json.dumps(facts))
    proc = run("--baseline", str(baseline), "--report", str(report),
               facts=grown)
    check("new violation on armed baseline fails", proc.returncode == 1,
          f"rc={proc.returncode}")
    check("failure names the new triple",
          "MicroBatcher::offer\tblock" in proc.stderr, proc.stderr)

    print("== repo baseline sanity ==")
    repo_baseline = (ROOT / "scripts" / "callgraph_baseline.txt").read_text()
    check("committed baseline parses",
          repo_baseline.startswith("# lehdc_callgraph baseline"))

    if failures:
        print(f"\n{len(failures)} check(s) FAILED: {failures}")
        return 1
    print("\nall callgraph self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
