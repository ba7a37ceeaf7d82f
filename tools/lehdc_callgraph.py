#!/usr/bin/env python3
"""Call-graph hot-path discipline checker (lehdc).

Builds the project call graph and proves that the enumerated hot-path
entry points never transitively reach an allocation, a mutex acquisition
(outside an explicit allowlist), a throw, or a blocking syscall. The hot
entries are the functions the serving stack runs per sample / per byte —
the paths DESIGN.md promises are allocation-free and lock-free:

    obs record path        Counter::add / Gauge::set / Histogram::observe
    encode kernel          BlockEncodeCursor::encode_words implementations
    score kernels          BatchScorer::predict_range / predict_blocked
    admission              MicroBatcher::offer
    transport ingress      Connection::on_bytes
    feedback ingress       OnlineSidecar::offer_feedback

Two stages, deliberately separable:

  extraction   clang -Xclang -ast-dump=json over compile_commands.json
               -> "call facts": every function definition with its call
               edges and primitive effects (new/throw). Needs clang; when
               clang is absent the tool SKIPs (exit 0) exactly like
               scripts/tidy.sh. `--dump-facts` persists the result.
  analysis     facts -> BFS from each hot entry -> rule findings ->
               baseline diff. Pure Python, no clang: `--facts FILE` runs
               it on pre-extracted (or synthetic fixture) facts, which is
               how the self-tests exercise every rule on gcc-only boxes.

Findings diff against scripts/callgraph_baseline.txt with the same
ratchet semantics as scripts/tidy.sh: a (entry, rule, sink) triple absent
from the baseline or with a higher count fails; equal-or-lower passes.
While the baseline carries the `# status: bootstrap` marker the run
prints findings and exits 0, asking the first clang-equipped run (CI) to
commit a real baseline via --update-baseline.

Inline suppression: a source line (or the line directly above it) reading
`lehdc-callgraph: allow(<rule>)` — or `allow(*)` — inside a comment
exempts effects reported at that line.

Exit codes: 0 clean/bootstrap/skip-no-clang, 1 new findings, 2 usage or
extraction error.
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import subprocess
import sys
from collections import defaultdict, deque
from pathlib import Path

FACTS_VERSION = 1

# Pseudo-callee names the extractor emits for primitive effects, so the
# analysis stage sees one uniform shape: a function is a list of calls.
PSEUDO_NEW = "operator new"
PSEUDO_THROW = "__throw__"

# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------

ALLOC_CALLEES = {
    "operator new",
    "operator new[]",
    "malloc",
    "calloc",
    "realloc",
    "aligned_alloc",
    "posix_memalign",
    "strdup",
}

# Mutex acquisition: annotated wrappers (util/mutex.hpp), std lock types,
# and the raw primitives. Constructors are reported by the extractor as
# "<qualified type>::(ctor)".
LOCK_PATTERN = re.compile(
    r"("
    r"(^|::)(lock|try_lock|lock_shared|try_lock_shared)$"
    r"|pthread_mutex_(lock|trylock)$"
    r"|pthread_rwlock_(rd|wr|tryrd|trywr)lock$"
    r"|(MutexLock|UniqueLock|SharedLock|lock_guard|scoped_lock|unique_lock|"
    r"shared_lock)(<[^:]*>)?::\(ctor\)$"
    r")"
)

# Blocking calls: raw syscall wrappers plus the std waiting primitives.
BLOCK_PATTERN = re.compile(
    r"(^|::)("
    r"read|pread|write|pwrite|recv|recvfrom|recvmsg|send|sendto|sendmsg"
    r"|accept|accept4|connect|poll|ppoll|select|pselect|epoll_wait"
    r"|epoll_pwait|nanosleep|sleep|usleep|fsync|fdatasync|flock"
    r"|wait|wait_for|wait_until|sleep_for|sleep_until|join|get"
    r")$"
)
# `wait`/`get`/`join` only block on these receivers; a project function
# merely named `wait` would be caught by its own body, not its name.
BLOCK_RECEIVER_HINT = re.compile(
    r"(condition_variable|CondVar|future|promise|thread|latch|barrier|"
    r"semaphore)")

RULES = ("alloc", "lock", "throw", "block")


def classify_call(name: str) -> str | None:
    """The rule a direct call to `name` violates, or None."""
    if name in ALLOC_CALLEES or name == PSEUDO_NEW:
        return "alloc"
    if name == PSEUDO_THROW:
        return "throw"
    if LOCK_PATTERN.search(name):
        return "lock"
    match = BLOCK_PATTERN.search(name)
    if match:
        short = match.group(2)
        if short in ("wait", "wait_for", "wait_until", "join", "get",
                     "sleep_for", "sleep_until"):
            # Only flag when the receiver type is visibly a waiting
            # primitive; plain `get` / project-level `wait` methods are not
            # blocking by name alone.
            return "block" if BLOCK_RECEIVER_HINT.search(name) else None
        return "block"
    return None


# ---------------------------------------------------------------------------
# Hot entries
# ---------------------------------------------------------------------------

# Each entry: a regex matched (fullmatch) against qualified function names,
# the rules enforced for it, and entry-specific allowed callees (regexes;
# a matching callee is not descended into and raises no finding).
HOT_ENTRIES = [
    {
        "name": "obs-record",
        "pattern": r"lehdc::obs::(Counter::add|Gauge::set|Histogram::observe)",
        "rules": RULES,
        "allow": [],
    },
    {
        "name": "encode-kernel",
        # Every BlockEncodeCursor implementation (the fused encode kernel).
        "pattern": r"lehdc::hdc::.*Cursor.*::encode_words",
        "rules": RULES,
        "allow": [],
    },
    {
        "name": "score-kernel",
        "pattern": r"lehdc::hdc::BatchScorer::predict_range",
        "rules": RULES,
        "allow": [],
    },
    {
        "name": "score-blocked",
        "pattern": r"lehdc::hdc::BatchScorer::predict_blocked",
        "rules": ("throw", "block"),
        # The raw-batch loop amortizes setup per *batch*: the chunking layer
        # (thread pool) and the per-chunk scratch acquisition lock and
        # allocate by design, which is why `alloc`/`lock` are not enforced
        # for the driver itself — predict_range above covers the per-query
        # inner loop.
        "allow": [
            r"lehdc::util::ThreadPool::.*",
            r"lehdc::util::parallel_for",
            r"lehdc::hdc::BatchScorer::(acquire|release)_scratch",
        ],
    },
    {
        "name": "admission",
        "pattern": r"lehdc::serve::MicroBatcher::offer",
        # offer() runs under the server mutex and may queue (allocate); the
        # discipline it must keep is: never block, never take another lock,
        # never throw past the typed Reject surface.
        "rules": ("lock", "throw", "block"),
        "allow": [],
    },
    {
        "name": "transport-ingress",
        "pattern": r"lehdc::serve::Connection::on_bytes",
        "rules": ("lock", "block"),
        # Submitting into the server legitimately takes the server mutex.
        "allow": [
            r"lehdc::serve::InferenceServer::submit",
            r"lehdc::serve::OnlineSidecar::offer_feedback",
        ],
    },
    {
        "name": "feedback-ingress",
        "pattern": r"lehdc::serve::OnlineSidecar::offer_feedback",
        "rules": ("alloc", "lock", "throw", "block"),
        # The documented O(1)-under-mutex design: its own correlation
        # mutex and the map/deque operations under it are the contract;
        # what must never happen is reaching the learner, a flip, or I/O.
        "allow": [
            r"lehdc::util::(Mutex::lock|MutexLock::\(ctor\))",
            r"std::.*",
        ],
    },
]

# Callees every entry may reach: assertion/registration helpers that are
# cold by construction (expects throws only on programming errors; metric
# registration runs once behind a function-local static).
GLOBAL_ALLOW = [
    r"lehdc::util::expects",
    r"lehdc::obs::Registry::(counter|gauge|histogram|global)",
    r"lehdc::obs::(enabled|Counter::add|Gauge::set|Histogram::observe)",
]

SUPPRESS_RE = re.compile(r"lehdc-callgraph:\s*allow\((\*|[a-z]+)\)")


# ---------------------------------------------------------------------------
# Extraction (needs clang)
# ---------------------------------------------------------------------------

FUNCTION_KINDS = {
    "FunctionDecl",
    "CXXMethodDecl",
    "CXXConstructorDecl",
    "CXXDestructorDecl",
    "CXXConversionDecl",
}
SCOPE_KINDS = {"NamespaceDecl", "CXXRecordDecl", "ClassTemplateDecl",
               "ClassTemplateSpecializationDecl"}


def find_clang() -> str | None:
    for candidate in ("clang++",) + tuple(
            f"clang++-{v}" for v in range(20, 13, -1)):
        if shutil.which(candidate):
            return candidate
    return None


def _loc_of(node: dict, state: dict) -> tuple[str | None, int | None]:
    """Resolve a node's (file, line), tracking clang's sticky locations."""
    loc = node.get("loc") or {}
    for candidate in (loc, loc.get("expansionLoc") or {},
                      loc.get("spellingLoc") or {}):
        if "file" in candidate:
            state["file"] = candidate["file"]
        if "line" in candidate:
            state["line"] = candidate["line"]
        if candidate:
            break
    return state.get("file"), state.get("line")


class TuExtractor:
    """Walks one TU's JSON AST into call facts."""

    def __init__(self, root: Path):
        self.root = root
        self.decl_names: dict[str, str] = {}  # node id -> qualified name
        self.functions: dict[str, dict] = {}

    def run(self, ast: dict) -> None:
        self._index_decls(ast, [])
        state = {"file": None, "line": None}
        self._walk(ast, [], None, state)

    def _qualify(self, scopes: list[str], name: str) -> str:
        return "::".join([s for s in scopes if s] + [name])

    def _index_decls(self, node: dict, scopes: list[str]) -> None:
        kind = node.get("kind", "")
        name = node.get("name", "")
        if kind in FUNCTION_KINDS and name:
            if kind == "CXXConstructorDecl":
                name = "(ctor)"
            node_id = node.get("id")
            if node_id:
                self.decl_names[node_id] = self._qualify(scopes, name)
        child_scopes = scopes
        if kind in SCOPE_KINDS:
            child_scopes = scopes + [name]
        elif kind in FUNCTION_KINDS:
            child_scopes = scopes + [name or "(anon)"]
        for child in node.get("inner", []) or []:
            if isinstance(child, dict):
                self._index_decls(child, child_scopes)

    def _project_file(self, file: str | None) -> str | None:
        if not file:
            return None
        path = Path(file)
        if not path.is_absolute():
            path = (self.root / path).resolve()
        try:
            rel = path.resolve().relative_to(self.root.resolve())
        except ValueError:
            return None
        return str(rel)

    def _walk(self, node: dict, scopes: list[str], current: dict | None,
              state: dict) -> None:
        kind = node.get("kind", "")
        file, line = _loc_of(node, state)

        if kind in FUNCTION_KINDS and node.get("inner"):
            has_body = any(isinstance(c, dict) and c.get("kind") ==
                           "CompoundStmt" for c in node["inner"])
            if has_body:
                name = node.get("name", "")
                if kind == "CXXConstructorDecl":
                    name = "(ctor)"
                qual = self._qualify(scopes, name or "(anon)")
                rel = self._project_file(file)
                if rel is not None:
                    current = self.functions.setdefault(
                        qual, {"name": qual, "file": rel, "line": line or 0,
                               "calls": []})
                else:
                    current = None  # system header definition: ignore

        if current is not None:
            callee = None
            if kind == "CXXNewExpr":
                callee = PSEUDO_NEW
            elif kind == "CXXThrowExpr":
                callee = PSEUDO_THROW
            elif kind in ("CallExpr", "CXXMemberCallExpr",
                          "CXXOperatorCallExpr"):
                callee = self._callee_name(node)
            elif kind == "CXXConstructExpr":
                qual_type = (node.get("type") or {}).get("qualType", "")
                base = re.sub(r"^const\s+|\s*&$", "", qual_type).strip()
                if base:
                    callee = f"{base}::(ctor)"
            if callee:
                current["calls"].append(
                    {"name": callee, "line": state.get("line") or 0,
                     "file": self._project_file(state.get("file"))})

        child_scopes = scopes
        name = node.get("name", "")
        if kind in SCOPE_KINDS:
            child_scopes = scopes + [name]
        elif kind in FUNCTION_KINDS:
            child_scopes = scopes + [(node.get("name") or "(anon)")
                                     if kind != "CXXConstructorDecl"
                                     else "(ctor)"]
        for child in node.get("inner", []) or []:
            if isinstance(child, dict):
                self._walk(child, child_scopes, current, state)

    def _callee_name(self, node: dict) -> str | None:
        """Best-effort qualified callee of a call expression."""
        found: list[str] = []

        def scan(n: dict, depth: int) -> None:
            if found or depth > 6:
                return
            ref = n.get("referencedDecl")
            if isinstance(ref, dict) and ref.get("kind") in FUNCTION_KINDS:
                ref_id = ref.get("id")
                if ref_id and ref_id in self.decl_names:
                    found.append(self.decl_names[ref_id])
                elif ref.get("name"):
                    found.append(ref["name"])
                return
            member = n.get("referencedMemberDecl")
            if member and member in self.decl_names:
                found.append(self.decl_names[member])
                return
            if n.get("kind") == "MemberExpr" and n.get("name"):
                found.append(n["name"])
                return
            for child in n.get("inner", []) or []:
                if isinstance(child, dict):
                    scan(child, depth + 1)

        for child in node.get("inner", []) or []:
            if isinstance(child, dict):
                scan(child, 0)
            if found:
                break
        return found[0] if found else None


def load_compile_commands(build_dir: Path, root: Path) -> list[dict]:
    db_path = build_dir / "compile_commands.json"
    if not db_path.exists():
        subprocess.run(
            ["cmake", "-B", str(build_dir), "-S", str(root),
             "-DCMAKE_EXPORT_COMPILE_COMMANDS=ON"],
            check=True, capture_output=True)
    with open(db_path, encoding="utf-8") as fh:
        return json.load(fh)


def tu_args(entry: dict) -> list[str]:
    if "arguments" in entry:
        args = list(entry["arguments"])
    else:
        args = entry["command"].split()
    # Drop the compiler, output options and the trailing source; keep
    # include paths, defines and standard flags.
    kept: list[str] = []
    skip = False
    for arg in args[1:]:
        if skip:
            skip = False
            continue
        if arg in ("-o", "-MF", "-MT", "-MQ"):
            skip = True
            continue
        if arg in ("-c", "-MD", "-MMD") or arg == entry["file"]:
            continue
        kept.append(arg)
    return kept


def extract_facts(clang: str, build_dir: Path, root: Path,
                  only: str | None) -> dict:
    entries = load_compile_commands(build_dir, root)
    extractor = TuExtractor(root)
    tus = 0
    for entry in entries:
        src = Path(entry["file"])
        try:
            rel = src.resolve().relative_to(root.resolve())
        except ValueError:
            continue
        if not str(rel).startswith("src/"):
            continue
        if only and only not in str(rel):
            continue
        cmd = [clang, *tu_args(entry), "-fsyntax-only", "-Wno-everything",
               "-Xclang", "-ast-dump=json", str(src)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              cwd=entry.get("directory", str(root)))
        if proc.returncode != 0 or not proc.stdout.strip():
            print(f"lehdc_callgraph: extraction failed for {rel}: "
                  f"{proc.stderr.strip().splitlines()[:1]}", file=sys.stderr)
            raise SystemExit(2)
        extractor.run(json.loads(proc.stdout))
        tus += 1
    print(f"lehdc_callgraph: extracted {len(extractor.functions)} functions "
          f"from {tus} TUs")
    return {"version": FACTS_VERSION,
            "functions": sorted(extractor.functions.values(),
                                key=lambda f: f["name"])}


# ---------------------------------------------------------------------------
# Analysis (clang-free)
# ---------------------------------------------------------------------------

class Finding:
    def __init__(self, entry: str, rule: str, sink: str, path: list[str],
                 file: str | None, line: int):
        self.entry = entry
        self.rule = rule
        self.sink = sink
        self.path = path
        self.file = file
        self.line = line

    def key(self) -> str:
        return f"{self.entry}\t{self.rule}\t{self.sink}"


def _suppressed(root: Path, file: str | None, line: int, rule: str,
                cache: dict) -> bool:
    if not file or line <= 0:
        return False
    if file not in cache:
        path = root / file
        try:
            cache[file] = path.read_text(encoding="utf-8",
                                         errors="replace").splitlines()
        except OSError:
            cache[file] = []
    lines = cache[file]
    for idx in (line - 1, line - 2):
        if 0 <= idx < len(lines):
            match = SUPPRESS_RE.search(lines[idx])
            if match and match.group(1) in ("*", rule):
                return True
    return False


def analyze(facts: dict, root: Path) -> list[Finding]:
    functions = {f["name"]: f for f in facts.get("functions", [])}
    global_allow = [re.compile(p) for p in GLOBAL_ALLOW]
    findings: list[Finding] = []
    suppress_cache: dict = {}

    for spec in HOT_ENTRIES:
        pattern = re.compile(spec["pattern"])
        allow = global_allow + [re.compile(p) for p in spec["allow"]]
        rules = set(spec["rules"])
        entries = [name for name in functions if pattern.fullmatch(name)]
        for entry_name in sorted(entries):
            seen = {entry_name}
            queue = deque([(entry_name, [entry_name])])
            while queue:
                current, path = queue.popleft()
                for call in functions[current]["calls"]:
                    callee = call["name"]
                    if any(p.fullmatch(callee) for p in allow):
                        continue
                    rule = classify_call(callee)
                    if rule is not None and rule in rules:
                        file = call.get("file") or functions[current]["file"]
                        line = call.get("line") or 0
                        if _suppressed(root, file, line, rule,
                                       suppress_cache):
                            continue
                        findings.append(Finding(
                            entry_name, rule, f"{current} -> {callee}",
                            path + [callee], file, line))
                        continue
                    if callee in functions and callee not in seen:
                        seen.add(callee)
                        queue.append((callee, path + [callee]))
    findings.sort(key=lambda f: (f.entry, f.rule, f.sink))
    return findings


def normalize(findings: list[Finding]) -> list[str]:
    counts: dict[str, int] = defaultdict(int)
    for finding in findings:
        counts[finding.key()] += 1
    return [f"{key}\t{count}" for key, count in sorted(counts.items())]


def parse_baseline(path: Path) -> tuple[dict[str, int], bool]:
    allowed: dict[str, int] = {}
    bootstrap = False
    if not path.exists():
        return allowed, bootstrap
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("# status: bootstrap"):
            bootstrap = True
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) == 4:
            allowed["\t".join(parts[:3])] = int(parts[3])
    return allowed, bootstrap


def write_report(path: Path, findings: list[Finding]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# lehdc_callgraph report — {len(findings)} finding(s)\n")
        for finding in findings:
            loc = f"{finding.file}:{finding.line}" if finding.file else "?"
            fh.write(f"{finding.entry}\t{finding.rule}\t{loc}\n")
            fh.write("    " + " -> ".join(finding.path) + "\n")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="hot-path call-graph discipline checker")
    parser.add_argument("--build-dir", default="build")
    parser.add_argument("--facts", help="pre-extracted facts JSON "
                        "(skips clang extraction)")
    parser.add_argument("--dump-facts", help="write extracted facts here")
    parser.add_argument("--baseline",
                        default="scripts/callgraph_baseline.txt")
    parser.add_argument("--report", default="callgraph_report.txt")
    parser.add_argument("--update-baseline", action="store_true")
    parser.add_argument("--only", help="restrict extraction to TUs whose "
                        "path contains this substring")
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent

    if args.facts:
        with open(args.facts, encoding="utf-8") as fh:
            facts = json.load(fh)
        if facts.get("version") != FACTS_VERSION:
            print(f"lehdc_callgraph: facts version "
                  f"{facts.get('version')} != {FACTS_VERSION}",
                  file=sys.stderr)
            return 2
    else:
        clang = find_clang()
        if clang is None:
            print("lehdc_callgraph: clang++ not found — SKIPPED "
                  "(install clang to run this gate, or pass --facts)")
            return 0
        facts = extract_facts(clang, Path(args.build_dir), root, args.only)

    if args.dump_facts:
        with open(args.dump_facts, "w", encoding="utf-8") as fh:
            json.dump(facts, fh, indent=1, sort_keys=True)

    findings = analyze(facts, root)
    current = normalize(findings)
    write_report(Path(args.report), findings)

    baseline_path = root / args.baseline if not Path(
        args.baseline).is_absolute() else Path(args.baseline)

    if args.update_baseline:
        with open(baseline_path, "w", encoding="utf-8") as fh:
            fh.write("# lehdc_callgraph baseline — regenerate with "
                     "tools/lehdc_callgraph.py --update-baseline\n")
            fh.write("# format: entry<TAB>rule<TAB>sink<TAB>count; new "
                     "triples or higher counts fail the gate\n")
            for line in current:
                fh.write(line + "\n")
        print(f"lehdc_callgraph: baseline updated ({len(current)} entries) "
              f"-> {baseline_path}")
        return 0

    allowed, bootstrap = parse_baseline(baseline_path)

    if bootstrap:
        print(f"lehdc_callgraph: baseline is in bootstrap state; current "
              f"findings ({len(current)}):")
        for line in current:
            print("  " + line)
        print("lehdc_callgraph: BOOTSTRAP PASS — commit a real baseline "
              "with: tools/lehdc_callgraph.py --update-baseline")
        return 0

    new = []
    for line in current:
        key, _, count = line.rpartition("\t")
        if int(count) > allowed.get(key, 0):
            new.append(f"{key}\t{count} (baseline {allowed.get(key, 0)})")
    if new:
        print(f"lehdc_callgraph: NEW hot-path violations versus "
              f"{baseline_path}:", file=sys.stderr)
        for line in new:
            print("  " + line, file=sys.stderr)
        print("lehdc_callgraph: fix them, add a `lehdc-callgraph: "
              "allow(rule)` comment at the effect site, or (deliberately) "
              "re-baseline with --update-baseline", file=sys.stderr)
        return 1

    improved = sum(1 for key, count in allowed.items()
                   if count > dict(
                       (l.rpartition("\t")[0], int(l.rpartition("\t")[2]))
                       for l in current).get(key, 0))
    print(f"lehdc_callgraph: OK — no new findings "
          f"({len(current)} current entries)")
    if improved:
        print(f"lehdc_callgraph: {improved} baseline entr(ies) improved; "
              "tighten with --update-baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
