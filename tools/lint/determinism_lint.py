#!/usr/bin/env python3
"""Repo-specific correctness lint for mcdsim.

Enforces rules that clang-tidy cannot express, all in service of one
property: a simulation run is a pure function of configuration and
seed (src/sim/event_queue.hh documents the guarantee; this linter and
tests/integration/test_determinism.cc enforce it).

Rules (applied to src/**/*.{hh,cc}):

  no-wallclock      No std::rand/srand/time()/clock()/gettimeofday/
                    std::random_device or std::chrono wall clocks.
                    All randomness must flow through mcd::Rng; all time
                    through the event queue.
  no-pointer-keyed-unordered
                    No unordered_map/unordered_set keyed by pointers.
                    Iteration order of such containers depends on
                    allocator addresses, so any simulation decision fed
                    from one varies run to run.
  event-priority    Every Event subclass must pass an explicit priority
                    to the Event base constructor; same-tick ordering
                    must never fall back to the default by accident.
  no-raw-new-delete No raw new/delete expressions outside src/sim/
                    (the kernel). Components embed state by value or
                    use containers; ad-hoc ownership is where lifetime
                    bugs (and ASan reports) come from.
  no-assert         No assert( outside src/common/check.hh. Raw
                    assert() compiles out under NDEBUG, silently
                    unchecking invariants in the build users run; use
                    MCDSIM_CHECK / MCDSIM_DCHECK / MCDSIM_INVARIANT.
  no-threading      No std::thread/jthread, mutexes, condition
                    variables, atomics, or futures outside src/exec/.
                    Threads live only in the execution layer, which
                    parallelizes whole runs; inside a simulation every
                    event executes on one thread in queue order, and
                    any concurrency there would let the host scheduler
                    leak into simulated results.
  no-raw-stderr     No fprintf(stderr, ...) / std::cerr / std::clog
                    outside src/common/logging.cc. Diagnostics flow
                    through warn()/inform()/traceLine() so parallel
                    runs interleave whole lines and tests can assert
                    on a single choke point.
  no-adhoc-number-parse
                    No strtoull/strtoul/strtol/strtod (and kin),
                    atoi/atol/atof, sscanf or std::sto* in src/.
                    They accept signs, whitespace, hex prefixes and
                    trailing junk, so a format parsed with them reads
                    non-canonical bytes without complaint. Parse
                    integers with mcd::parseUint (common/parse.hh) and
                    records with RecordReader (common/record.hh).

One more rule applies to examples/ and bench/ (never to src/):

  facade-only       The only quoted includes allowed are the facade
                    header "core/mcdsim.hh" (and "bench_common.hh"
                    inside bench/). Internal headers are not API:
                    deep includes pin downstream code to the layout
                    of src/ and dodge the deprecation path the facade
                    provides.

Suppress a finding with a trailing  // lint:allow(rule-name)  comment.

Usage:
  determinism_lint.py --root <repo-root>   lint the repo (exit 1 on findings)
  determinism_lint.py --self-test          verify every rule both fires on a
                                           seeded violation and stays quiet on
                                           clean code (exit 1 on failure)
"""

import argparse
import os
import re
import sys

SRC_EXTENSIONS = (".hh", ".cc")

ALLOW_RE = re.compile(r"//\s*lint:allow\(([a-z-]+)\)")


def strip_comments_and_strings(text):
    """Replace comment/string-literal contents with spaces, preserving
    line structure so reported line numbers stay correct."""
    out = []
    i = 0
    n = len(text)
    state = "code"  # code | line-comment | block-comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line-comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block-comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append('"')
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append("'")
                i += 1
                continue
            out.append(c)
        elif state == "line-comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
            i += 1
            continue
        elif state == "block-comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
            i += 1
            continue
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append(quote)
            else:
                out.append("\n" if c == "\n" else " ")
            i += 1
            continue
        i += 1
    return "".join(out)


WALLCLOCK_PATTERNS = [
    (re.compile(r"\bstd::rand\b"), "std::rand"),
    (re.compile(r"\bsrand\s*\("), "srand()"),
    (re.compile(r"(?<![\w:])rand\s*\("), "rand()"),
    (re.compile(r"(?<![\w.])\btime\s*\("), "time()"),
    (re.compile(r"(?<![\w.])\bclock\s*\(\s*\)"), "clock()"),
    (re.compile(r"\bclock_gettime\b"), "clock_gettime"),
    (re.compile(r"\bgettimeofday\b"), "gettimeofday"),
    (re.compile(r"\bsystem_clock\b"), "std::chrono::system_clock"),
    (re.compile(r"\bsteady_clock\b"), "std::chrono::steady_clock"),
    (re.compile(r"\bhigh_resolution_clock\b"),
     "std::chrono::high_resolution_clock"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
]


def check_wallclock(relpath, lines):
    for lineno, line in lines:
        for pat, what in WALLCLOCK_PATTERNS:
            if pat.search(line):
                yield (lineno,
                       f"{what} breaks run-to-run determinism; draw from "
                       "mcd::Rng / the event queue instead")
                break


POINTER_KEY_RE = re.compile(
    r"\bunordered_(?:map|set)\s*<[^<>,]*\*")


def check_pointer_keyed(relpath, lines):
    for lineno, line in lines:
        if POINTER_KEY_RE.search(line):
            yield (lineno,
                   "pointer-keyed unordered container: iteration order "
                   "depends on allocation addresses, so decisions fed from "
                   "it vary run to run; key by a stable id instead")


EVENT_SUBCLASS_RE = re.compile(
    r"\bclass\s+\w+[^;{]*:\s*(?:public\s+)?(?:mcd::)?Event\b")
EXPLICIT_PRIORITY_RE = re.compile(r"\bEvent\s*\(\s*[^)\s]")


def check_event_priority(relpath, lines):
    text = "\n".join(line for _, line in lines)
    m = EVENT_SUBCLASS_RE.search(text)
    if not m:
        return
    if not EXPLICIT_PRIORITY_RE.search(text):
        lineno = text[:m.start()].count("\n") + lines[0][0]
        yield (lineno,
               "Event subclass never passes an explicit priority to the "
               "Event base constructor; same-tick ordering must be chosen "
               "deliberately (see Event::defaultPriority)")


NEW_RE = re.compile(r"(?<![\w.:])new\b(?!\s*\()")
PLAIN_NEW_RE = re.compile(r"(?<![\w.:])new\b")
DELETE_RE = re.compile(r"(?<![\w.:])delete\b(?!\s*;)")
DELETED_FN_RE = re.compile(r"=\s*delete\b")


def check_raw_new_delete(relpath, lines):
    if relpath.startswith("src/sim/"):
        return
    for lineno, line in lines:
        if PLAIN_NEW_RE.search(line):
            yield (lineno,
                   "raw new outside the sim kernel; embed by value or use "
                   "a container/std::unique_ptr")
            continue
        if DELETE_RE.search(DELETED_FN_RE.sub("", line)):
            yield (lineno,
                   "raw delete outside the sim kernel; ownership belongs "
                   "in containers or std::unique_ptr")


def check_no_assert(relpath, lines):
    if relpath == "src/common/check.hh":
        return
    for lineno, line in lines:
        if "assert(" in line:
            yield (lineno,
                   "assert( compiles out under NDEBUG (the default "
                   "RelWithDebInfo build); use MCDSIM_CHECK / MCDSIM_DCHECK "
                   "/ MCDSIM_INVARIANT from common/check.hh")


THREADING_PATTERNS = [
    (re.compile(r"\bstd::(?:jthread|thread)\b"), "std::thread/jthread"),
    (re.compile(r"\bstd::(?:recursive_|shared_|timed_)*mutex\b"),
     "std::mutex family"),
    (re.compile(r"\bstd::condition_variable(?:_any)?\b"),
     "std::condition_variable"),
    (re.compile(r"\bstd::atomic\b"), "std::atomic"),
    (re.compile(r"\bstd::(?:async|future|promise|packaged_task)\b"),
     "std::future/async"),
    (re.compile(r"\bstd::(?:unique|scoped|shared)_lock\b"),
     "std::lock wrappers"),
    (re.compile(r"\bpthread_\w+"), "raw pthreads"),
]


def check_no_threading(relpath, lines):
    if relpath.startswith("src/exec/"):
        return
    for lineno, line in lines:
        for pat, what in THREADING_PATTERNS:
            if pat.search(line):
                yield (lineno,
                       f"{what} outside src/exec/: simulation code runs "
                       "single-threaded in event-queue order; concurrency "
                       "belongs in the execution layer")
                break


STDERR_PATTERNS = [
    (re.compile(r"\b(?:std::)?v?fprintf\s*\(\s*stderr\b"),
     "fprintf(stderr, ...)"),
    (re.compile(r"\bstd::cerr\b"), "std::cerr"),
    (re.compile(r"\bstd::clog\b"), "std::clog"),
]


def check_raw_stderr(relpath, lines):
    if relpath == "src/common/logging.cc":
        return
    for lineno, line in lines:
        for pat, what in STDERR_PATTERNS:
            if pat.search(line):
                yield (lineno,
                       f"{what} outside common/logging.cc: route "
                       "diagnostics through warn()/inform()/traceLine() "
                       "so output stays line-atomic under parallel runs")
                break


ADHOC_PARSE_RE = re.compile(
    r"(?<![\w.])(?:std::)?"
    r"(strto(?:ull|ul|ll|l|d|f|ld|imax|umax)|ato(?:i|l|ll|f)|v?sscanf|"
    r"sto(?:i|l|ll|ul|ull|f|d|ld))\s*\(")


def check_adhoc_number_parse(relpath, lines):
    for lineno, line in lines:
        m = ADHOC_PARSE_RE.search(line)
        if m:
            yield (lineno,
                   f"{m.group(1)}() accepts signs, whitespace and "
                   "trailing junk; parse through mcd::parseUint or "
                   "RecordReader so malformed input is a ConfigError")


QUOTED_INCLUDE_RE = re.compile(r'#\s*include\s*"([^"]+)"')


def check_facade_only(relpath, lines):
    allowed = {"core/mcdsim.hh"}
    if relpath.startswith("bench/"):
        allowed.add("bench_common.hh")
    for lineno, line in lines:
        m = QUOTED_INCLUDE_RE.search(line)
        if m and m.group(1) not in allowed:
            yield (lineno,
                   f"deep include \"{m.group(1)}\": examples/ and bench/ "
                   "see the simulator only through the facade header "
                   "core/mcdsim.hh (bench/ may also include "
                   "bench_common.hh); internal headers are not API")


RULES = [
    ("no-wallclock", check_wallclock),
    ("no-pointer-keyed-unordered", check_pointer_keyed),
    ("event-priority", check_event_priority),
    ("no-raw-new-delete", check_raw_new_delete),
    ("no-assert", check_no_assert),
    ("no-threading", check_no_threading),
    ("no-raw-stderr", check_raw_stderr),
    ("no-adhoc-number-parse", check_adhoc_number_parse),
]


def lint_file(relpath, text):
    """Return a list of (rule, lineno, message) findings."""
    raw_lines = text.splitlines()
    allowed = {}  # lineno -> set of allowed rule names
    for idx, raw in enumerate(raw_lines, 1):
        for m in ALLOW_RE.finditer(raw):
            allowed.setdefault(idx, set()).add(m.group(1))

    if relpath.startswith(("examples/", "bench/")):
        # Facade enforcement only, and on raw lines: include paths are
        # string literals, which stripping would blank out.
        rules = [("facade-only", check_facade_only)]
        lines = list(enumerate(raw_lines, 1))
    else:
        rules = RULES
        stripped = strip_comments_and_strings(text)
        lines = list(enumerate(stripped.splitlines(), 1))

    findings = []
    for rule, checker in rules:
        for lineno, message in checker(relpath, lines):
            if rule in allowed.get(lineno, ()):
                continue
            findings.append((rule, lineno, message))
    return findings


LINT_TREES = [
    ("src", SRC_EXTENSIONS),
    ("examples", (".cpp", ".cc", ".hh")),
    ("bench", (".cpp", ".cc", ".hh")),
]


def lint_tree(root):
    findings = []
    for tree, extensions in LINT_TREES:
        top = os.path.join(root, tree)
        for dirpath, _, filenames in os.walk(top):
            for fn in sorted(filenames):
                if not fn.endswith(extensions):
                    continue
                path = os.path.join(dirpath, fn)
                relpath = os.path.relpath(path, root).replace(os.sep, "/")
                with open(path, encoding="utf-8") as f:
                    text = f.read()
                for rule, lineno, message in lint_file(relpath, text):
                    findings.append((relpath, lineno, rule, message))
    return findings


# --- self test -------------------------------------------------------------

SELF_TEST_CASES = [
    # (rule expected to fire, relpath, snippet)
    ("no-wallclock", "src/core/bad.cc",
     "int seed() { return std::rand(); }\n"),
    ("no-wallclock", "src/core/bad2.cc",
     "#include <ctime>\nlong now() { return time(nullptr); }\n"),
    ("no-wallclock", "src/core/bad3.cc",
     "auto t = std::chrono::steady_clock::now();\n"),
    ("no-pointer-keyed-unordered", "src/core/bad4.cc",
     "std::unordered_map<Event *, int> pending;\n"),
    ("event-priority", "src/core/bad5.hh",
     "class TickEvent : public Event {\n"
     "  public:\n"
     "    TickEvent() {}\n"
     "    void process() override {}\n"
     "};\n"),
    ("no-raw-new-delete", "src/core/bad6.cc",
     "void f() { auto *p = new int(3); delete p; }\n"),
    ("no-assert", "src/core/bad7.cc",
     "#include <cassert>\nvoid f(int x) { assert(x > 0); }\n"),
    ("no-threading", "src/core/bad8.cc",
     "#include <thread>\nstd::jthread worker;\n"),
    ("no-threading", "src/mcd/bad9.cc",
     "std::mutex mtx;\nstd::condition_variable cv;\n"),
    ("no-threading", "src/dvfs/bad10.cc",
     "#include <atomic>\nstd::atomic<int> flag{0};\n"),
    ("no-raw-stderr", "src/core/bad11.cc",
     "#include <cstdio>\n"
     "void f() { std::fprintf(stderr, \"boom\\n\"); }\n"),
    ("no-raw-stderr", "src/mcd/bad12.cc",
     "#include <iostream>\nvoid g() { std::cerr << 1; }\n"),
    # The fault layer gets no special dispensation: injected faults
    # must be as deterministic as the simulation they perturb.
    ("no-wallclock", "src/fault/bad13.cc",
     "#include <random>\nstd::random_device entropy;\n"),
    ("no-threading", "src/fault/bad14.cc",
     "#include <atomic>\nstd::atomic<long> injected{0};\n"),
    ("no-adhoc-number-parse", "src/campaign/bad18.cc",
     "#include <cstdlib>\n"
     "auto n = std::strtoull(v.c_str(), &end, 10);\n"),
    ("no-adhoc-number-parse", "src/core/bad19.cc",
     "int jobs = std::stoi(text);\n"),
    ("no-adhoc-number-parse", "src/fault/bad20.cc",
     "int n = atoi(s); sscanf(s, \"%d\", &n);\n"),
    # Deep includes from outside src/ bypass the facade.
    ("facade-only", "examples/bad15.cpp",
     "#include \"core/runner.hh\"\nint main() {}\n"),
    ("facade-only", "bench/bad16.cc",
     "#include \"bench_common.hh\"\n"
     "#include \"campaign/run_cache.hh\"\n"),
    # bench_common.hh is a bench/-only dispensation.
    ("facade-only", "examples/bad17.cpp",
     "#include \"bench_common.hh\"\nint main() {}\n"),
]

SELF_TEST_CLEAN = [
    ("src/core/good.cc",
     "// std::rand() in a comment is fine\n"
     "const char *s = \"time(\";\n"
     "std::unordered_map<std::uint64_t, int> byId;\n"
     "class TickEvent : public Event {\n"
     "  public:\n"
     "    explicit TickEvent(int prio) : Event(prio) {}\n"
     "    void process() override {}\n"
     "};\n"
     "struct NoCopy { NoCopy(const NoCopy &) = delete; };\n"
     "MCDSIM_CHECK(s != nullptr, \"null\");\n"
     "static_assert (sizeof(int) == 4, \"layout\");\n"),
    ("src/sim/kernel_alloc.cc",
     "void g() { auto *p = new int(1); delete p; }\n"),
    ("src/core/allowed.cc",
     "long t = time(nullptr); // lint:allow(no-wallclock)\n"),
    # logging.cc is the one place raw stderr writes are allowed; a
    # comment or string mentioning stderr elsewhere is fine.
    ("src/common/logging.cc",
     "#include <cstdio>\n"
     "void warn(const char *m) { std::fprintf(stderr, \"%s\", m); }\n"),
    ("src/core/stderr_mention.cc",
     "// warnings go to stderr via warn()\n"
     "const char *w = \"std::cerr\";\n"),
    # Checked parsing, and names that merely contain a banned one.
    ("src/common/parse_style.cc",
     "std::uint64_t n = parseUint(text, \"--jobs\");\n"
     "double d = r.parseF64(token, key);\n"
     "std::stop_token tok; auto x = my_strtod_wrapper;\n"
     "const char *doc = \"strtoull(\";\n"),
    # The execution layer is the one place threads are allowed.
    ("src/exec/pool.cc",
     "#include <thread>\n"
     "std::jthread worker;\n"
     "std::mutex mtx;\n"
     "std::condition_variable_any cv;\n"
     "std::atomic<int> jobs{0};\n"),
    # Fault injection draws all randomness from seeded mcd::Rng
    # streams forked per (spec, domain) — that idiom must lint clean.
    ("src/fault/injector_style.cc",
     "const Rng base = Rng(seed).fork(0xFA171000ull + attempt);\n"
     "arm.rng[dom] = base.fork(key);\n"
     "if (arm.rng[dom].chance(arm.spec->rate)) {\n"
     "    occ += arm.rng[dom].gaussian(0.0, arm.spec->amplitude);\n"
     "}\n"),
    # The facade header and system includes are the whole sanctioned
    # diet of an example; harnesses also get bench_common.hh. Harness
    # code is exempt from the src/ rules (it legitimately prints to
    # stderr and measures wall time).
    ("examples/good_example.cpp",
     "#include \"core/mcdsim.hh\"\n"
     "#include <cstdio>\n"
     "int main() { std::fprintf(stderr, \"hi\\n\"); }\n"),
    ("bench/good_bench.cc",
     "#include \"bench_common.hh\"\n"
     "#include \"core/mcdsim.hh\"\n"
     "#include <chrono>\n"
     "auto t0 = std::chrono::steady_clock::now();\n"),
]


def self_test():
    failures = []
    for rule, relpath, snippet in SELF_TEST_CASES:
        findings = lint_file(relpath, snippet)
        fired = [f for f in findings if f[0] == rule]
        if not fired:
            failures.append(f"rule {rule} did not fire on seeded violation "
                            f"({relpath})")
    for relpath, snippet in SELF_TEST_CLEAN:
        findings = lint_file(relpath, snippet)
        if findings:
            failures.append(f"false positives on clean code {relpath}: "
                            f"{findings}")
    if failures:
        for f in failures:
            print(f"self-test FAILED: {f}", file=sys.stderr)
        return 1
    print(f"self-test OK: {len(SELF_TEST_CASES)} seeded violations caught, "
          f"{len(SELF_TEST_CLEAN)} clean files pass")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=None,
                        help="repository root (directory containing src/)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the linter catches seeded violations")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    findings = lint_tree(root)
    for relpath, lineno, rule, message in findings:
        print(f"{relpath}:{lineno}: [{rule}] {message}")
    if findings:
        print(f"{len(findings)} lint finding(s)", file=sys.stderr)
        return 1
    print("lint OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
