#!/usr/bin/env python3
"""star_lint: repo-contract linter for the STAR simulator.

Enforces the repo-specific determinism rules that no generic tool knows.
The whole value proposition of this codebase is *provable* determinism —
bit-identical payloads across batching policy x nodes x threads x fault
streams — and these rules are the textual half of that contract (the
runtime half is util/contract.hpp's STAR_CONTRACT layer):

  no-libc-rand       src/ never uses rand()/srand()/std::random_device/
                     <random>: every stochastic draw goes through the
                     seeded star::Rng (xoshiro256**), so a (seed,
                     code-path) pair fully determines every experiment.
  no-wall-clock      src/ never reads the wall clock (time(), system_clock,
                     gettimeofday, ...): model outputs must not depend on
                     when they were computed. steady_clock is allowed —
                     serving *timing stats* are wall-clock by design, but
                     they use the monotonic clock and never feed payloads.
  rng-explicit-seed  every star::Rng construction names its seed: a
                     default-seeded stream hides the (seed -> payload)
                     dependency the tests pin. Bare member declarations
                     are allowed only when the surrounding file (or the
                     header's sibling .cpp) visibly initialises them.
  const-compute-entry the engines' compute entry points exist and keep at
                     least one const overload — the shared-engine /
                     per-run-state split that makes B sequences on T
                     threads bit-identical to sequential runs. Losing the
                     const overload silently reintroduces shared mutable
                     state; a listed entry point that is missing from its
                     header is a violation too (a rename must update the
                     list, or the rule would stop checking anything).
  determinism-doc    headers declaring an engine-like class (…Engine,
                     …Sim, …Manager, …Server, …Scheduler, …Cluster)
                     document their determinism story (the docstring must
                     mention "determin…" somewhere in the header).
  hot-path-no-alloc  functions annotated // STAR_HOT (the audited
                     zero-allocation serve path, PR 10) never contain the
                     textual allocation tells: operator new, make_unique/
                     make_shared, std::to_string, eager expected_got()
                     messages, or local std::vector/std::string
                     declarations. The runtime half is util::AllocCounter;
                     this rule catches the regression at review time.

Usage:
  tools/star_lint.py                  # lint src/ under the repo root
  tools/star_lint.py path1 path2 ...  # lint specific files
  tools/star_lint.py --self-test      # run the embedded fixture suite
Exit codes: 0 clean, 1 violations found, 2 self-test/internal failure.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import Callable, Iterable, List, NamedTuple, Optional, Tuple


class Violation(NamedTuple):
    path: str
    line: int  # 1-based
    rule: str
    message: str


# --------------------------------------------------------------------------
# Source mangling: rules match CODE, not comments or string literals.
# --------------------------------------------------------------------------

def strip_comments_and_strings(text: str) -> str:
    """Blank out comments and string/char literals, preserving offsets.

    Every replaced character becomes a space (newlines survive), so line
    numbers computed against the stripped text match the original file.
    """
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                out[i] = " "
                i += 1
        elif c == "/" and nxt == "*":
            out[i] = out[i + 1] = " "
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n and text[i + 1] == "/"):
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i < n:
                out[i] = out[i + 1] = " "
                i += 2
        elif c in "\"'":
            quote = c
            out[i] = " "
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\" and i + 1 < n:
                    out[i] = " "
                    if text[i + 1] != "\n":
                        out[i + 1] = " "
                    i += 2
                    continue
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i < n:
                out[i] = " "
                i += 1
        else:
            i += 1
    return "".join(out)


def line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


# --------------------------------------------------------------------------
# Rule: no-libc-rand
# --------------------------------------------------------------------------

_RAND_PATTERNS: List[Tuple[re.Pattern, str]] = [
    (re.compile(r"\brand\s*\("), "rand() is unseeded global state"),
    (re.compile(r"\bsrand\s*\("), "srand() mutates global RNG state"),
    (re.compile(r"\brandom_device\b"), "std::random_device is nondeterministic"),
    (re.compile(r"\bmt19937(_64)?\b"), "std::mt19937 bypasses star::Rng"),
    (re.compile(r"#\s*include\s*<random>"), "<random> bypasses star::Rng"),
    (re.compile(r"\bdrand48\s*\("), "drand48() is global-state libc RNG"),
]


def rule_no_libc_rand(path: str, text: str, code: str) -> List[Violation]:
    del text
    found = []
    for pat, why in _RAND_PATTERNS:
        for m in pat.finditer(code):
            found.append(Violation(path, line_of(code, m.start()), "no-libc-rand",
                                   f"{why}; draw from a seeded star::Rng instead"))
    return found


# --------------------------------------------------------------------------
# Rule: no-wall-clock
# --------------------------------------------------------------------------

_CLOCK_PATTERNS: List[Tuple[re.Pattern, str]] = [
    (re.compile(r"\btime\s*\("), "time() reads the wall clock"),
    (re.compile(r"\bgettimeofday\b"), "gettimeofday reads the wall clock"),
    (re.compile(r"\bsystem_clock\b"), "system_clock is the wall clock"),
    (re.compile(r"\bclock\s*\(\s*\)"), "clock() reads process CPU time"),
    (re.compile(r"\blocaltime\b|\bgmtime\b"), "calendar time is wall-clock state"),
]


def rule_no_wall_clock(path: str, text: str, code: str) -> List[Violation]:
    del text
    found = []
    for pat, why in _CLOCK_PATTERNS:
        for m in pat.finditer(code):
            found.append(Violation(
                path, line_of(code, m.start()), "no-wall-clock",
                f"{why}; model payloads must not depend on when they run "
                "(steady_clock is fine for serving timing stats)"))
    return found


# --------------------------------------------------------------------------
# Rule: rng-explicit-seed
# --------------------------------------------------------------------------

_RNG_EMPTY_PAREN = re.compile(r"\bRng\s*\(\s*\)")
_RNG_EMPTY_BRACE = re.compile(r"\bRng\s*\{\s*\}")
_RNG_BARE_DECL = re.compile(r"\bRng\s+([A-Za-z_]\w*)\s*;")


def _seeding_evidence(name: str, haystacks: Iterable[str]) -> bool:
    """Does any haystack initialise `name` (ctor-init list, assignment)?"""
    pat = re.compile(r"\b" + re.escape(name) + r"\s*[({=]")
    return any(pat.search(h) for h in haystacks)


def rule_rng_explicit_seed(
        path: str, text: str, code: str,
        sibling_loader: Optional[Callable[[str], Optional[str]]] = None
) -> List[Violation]:
    del text
    if os.path.basename(path) in ("rng.hpp", "rng.cpp"):
        return []  # the Rng implementation itself
    found = []
    for m in _RNG_EMPTY_PAREN.finditer(code):
        found.append(Violation(
            path, line_of(code, m.start()), "rng-explicit-seed",
            "Rng() uses the default seed; name the seed expression explicitly"))
    for m in _RNG_EMPTY_BRACE.finditer(code):
        found.append(Violation(
            path, line_of(code, m.start()), "rng-explicit-seed",
            "Rng{} uses the default seed; name the seed expression explicitly"))
    for m in _RNG_BARE_DECL.finditer(code):
        name = m.group(1)
        haystacks = [code]
        if sibling_loader is not None:
            sib = sibling_loader(path)
            if sib is not None:
                haystacks.append(sib)
        if not _seeding_evidence(name, haystacks):
            found.append(Violation(
                path, line_of(code, m.start()), "rng-explicit-seed",
                f"'Rng {name};' is never visibly seeded (no '{name}(...)' "
                "ctor-init or assignment in this file or its sibling); "
                "default-seeded streams hide the seed -> payload dependency"))
    return found


def default_sibling_loader(path: str) -> Optional[str]:
    """For a header, the stripped text of its same-named .cpp (and back)."""
    base, ext = os.path.splitext(path)
    other = base + (".cpp" if ext in (".hpp", ".h") else ".hpp")
    try:
        with open(other, "r", encoding="utf-8") as f:
            return strip_comments_and_strings(f.read())
    except OSError:
        return None


# --------------------------------------------------------------------------
# Rule: const-compute-entry
# --------------------------------------------------------------------------

# (header suffix -> compute entry points): each listed method must be
# declared in that header, with at least one const-qualified declaration.
CONST_ENTRY_POINTS = {
    "src/core/matmul_engine.hpp": ["multiply", "stream_cost"],
    "src/core/sharded_matmul.hpp": ["stream_cost"],
    "src/core/softmax_engine.hpp": ["softmax_row_into", "forward_codes_into"],
    "src/core/batch_encoder.hpp": [
        "run_encoder_one", "run_encoder_one_into", "run_attention_one",
        "run_analytic_one"],
    "src/xbar/cam.hpp": ["search_row", "search_into"],
    "src/xbar/cam_sub.hpp": ["find_max_into", "max_subtract_into"],
}


def _declaration_trailers(code: str, method: str) -> List[str]:
    """For each declaration of `method`, the text between its closing
    parameter paren and the following ';' or '{' (where cv-qualifiers live).
    """
    trailers = []
    for m in re.finditer(r"\b" + re.escape(method) + r"\s*\(", code):
        i = m.end()  # just past '('
        depth = 1
        n = len(code)
        while i < n and depth > 0:
            if code[i] == "(":
                depth += 1
            elif code[i] == ")":
                depth -= 1
            i += 1
        j = i
        while j < n and code[j] not in ";{":
            j += 1
        trailers.append(code[i:j])
    return trailers


def rule_const_compute_entry(path: str, text: str, code: str) -> List[Violation]:
    del text
    norm = path.replace(os.sep, "/")
    methods = None
    for suffix, meths in CONST_ENTRY_POINTS.items():
        if norm.endswith(suffix):
            methods = meths
            break
    if methods is None:
        return []
    found = []
    for method in methods:
        trailers = _declaration_trailers(code, method)
        if not trailers:
            found.append(Violation(
                path, 1, "const-compute-entry",
                f"compute entry point '{method}' is not declared in {norm}; "
                "update CONST_ENTRY_POINTS if it was renamed"))
        elif not any(re.search(r"\bconst\b", t) for t in trailers):
            found.append(Violation(
                path, 1, "const-compute-entry",
                f"no const-qualified overload of '{method}' left in {norm}; "
                "the const datapath (shared engine, per-run state) is the "
                "thread-safety contract"))
    return found


# --------------------------------------------------------------------------
# Rule: determinism-doc
# --------------------------------------------------------------------------

_ENGINE_SUFFIXES = ("Engine", "Sim", "Manager", "Server", "Scheduler", "Cluster")
_CLASS_DECL = re.compile(r"\b(?:class|struct)\s+([A-Za-z_]\w*)\s*(?![\w;])")


def rule_determinism_doc(path: str, text: str, code: str) -> List[Violation]:
    if not path.endswith((".hpp", ".h")):
        return []
    found = []
    for m in _CLASS_DECL.finditer(code):
        name = m.group(1)
        if not name.endswith(_ENGINE_SUFFIXES):
            continue
        # Skip forward declarations: nothing but whitespace up to ';'.
        rest = code[m.end():].lstrip()
        if rest.startswith(";"):
            continue
        if "determin" not in text.lower():
            found.append(Violation(
                path, line_of(code, m.start()), "determinism-doc",
                f"header declares engine-like class '{name}' but never "
                "documents its determinism story (mention how (seed, "
                "code-path) determines results — grep 'determin')"))
            break  # one finding per header is enough
    return found


# --------------------------------------------------------------------------
# Rule: hot-path-no-alloc
# --------------------------------------------------------------------------

# Markers live in comments, so they are matched against the RAW text; the
# body they annotate is scanned in the stripped code (string literals in a
# require() message must not trip the patterns).
_HOT_MARKER = re.compile(r"//\s*STAR_HOT\b")

_HOT_ALLOC_PATTERNS: List[Tuple[re.Pattern, str]] = [
    (re.compile(r"\bnew\b"), "operator new allocates"),
    (re.compile(r"\bmake_unique\b|\bmake_shared\b"),
     "make_unique/make_shared allocate"),
    (re.compile(r"\bto_string\s*\("),
     "std::to_string builds a heap string"),
    (re.compile(r"\bexpected_got\s*\("),
     "expected_got builds its message eagerly, even when the check passes "
     "(use a literal message)"),
    # Local container declarations (references pass through: the '&' between
    # the type and the name keeps the pattern from matching).
    (re.compile(r"\b(?:std::\s*)?vector\s*<[^;]*?>\s+[A-Za-z_]\w*"),
     "local std::vector declaration allocates"),
    (re.compile(r"\b(?:std::\s*)?string\s+[A-Za-z_]\w*\s*[;({=]"),
     "local std::string declaration allocates"),
]


def _hot_function_bodies(text: str, code: str) -> List[Tuple[int, str]]:
    """(body start offset, body text) for each // STAR_HOT-marked function."""
    bodies = []
    for m in _HOT_MARKER.finditer(text):
        i = code.find("{", m.end())
        if i < 0:
            continue
        depth, j, n = 0, i, len(code)
        while j < n:
            if code[j] == "{":
                depth += 1
            elif code[j] == "}":
                depth -= 1
                if depth == 0:
                    break
            j += 1
        bodies.append((i + 1, code[i + 1:j]))
    return bodies


def rule_hot_path_no_alloc(path: str, text: str, code: str) -> List[Violation]:
    found = []
    for start, body in _hot_function_bodies(text, code):
        for pat, why in _HOT_ALLOC_PATTERNS:
            for m in pat.finditer(body):
                found.append(Violation(
                    path, line_of(code, start + m.start()), "hot-path-no-alloc",
                    f"{why}; functions marked // STAR_HOT are the audited "
                    "zero-allocation warm path (util::AllocCounter pins it "
                    "at runtime)"))
    return found


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

RULES = [
    rule_no_libc_rand,
    rule_no_wall_clock,
    rule_rng_explicit_seed,
    rule_const_compute_entry,
    rule_determinism_doc,
    rule_hot_path_no_alloc,
]


def lint_text(path: str, text: str,
              sibling_loader: Optional[Callable[[str], Optional[str]]] = None
              ) -> List[Violation]:
    code = strip_comments_and_strings(text)
    found: List[Violation] = []
    for rule in RULES:
        if rule is rule_rng_explicit_seed:
            found.extend(rule(path, text, code, sibling_loader))
        else:
            found.extend(rule(path, text, code))
    return found


def lint_file(path: str) -> List[Violation]:
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    return lint_text(path, text, default_sibling_loader)


def collect_default_targets(root: str) -> List[str]:
    src = os.path.join(root, "src")
    targets = []
    for dirpath, _dirnames, filenames in os.walk(src):
        for fn in sorted(filenames):
            if fn.endswith((".hpp", ".h", ".cpp")):
                targets.append(os.path.join(dirpath, fn))
    return targets


# --------------------------------------------------------------------------
# Self-test: every rule must fire on its seeded violation fixture and stay
# quiet on the matching clean fixture. This is the linter's own test suite,
# run by the lint CI job (tools/star_lint.py --self-test).
# --------------------------------------------------------------------------

_FIXTURES: List[Tuple[str, str, str, Optional[str]]] = [
    # (fixture path, source text, expected rule id or "" for clean, sibling)
    ("src/fake/bad_rand.cpp",
     "int f() { return rand() % 7; }\n", "no-libc-rand", None),
    ("src/fake/bad_random_header.cpp",
     "#include <random>\nint x;\n", "no-libc-rand", None),
    ("src/fake/ok_comment_rand.cpp",
     "// rand() would be wrong here; we use star::Rng\nint f();\n", "", None),
    ("src/fake/bad_time.cpp",
     "long f() { return time(nullptr); }\n", "no-wall-clock", None),
    ("src/fake/bad_system_clock.cpp",
     "auto f() { return std::chrono::system_clock::now(); }\n",
     "no-wall-clock", None),
    ("src/fake/ok_steady_clock.cpp",
     "auto f() { return std::chrono::steady_clock::now(); }\n", "", None),
    ("src/fake/bad_rng_default.cpp",
     "void f() { star::Rng rng = star::Rng(); (void)rng; }\n",
     "rng-explicit-seed", None),
    ("src/fake/bad_rng_bare.cpp",
     "struct S { Rng stream; };\n", "rng-explicit-seed", None),
    ("src/fake/ok_rng_seeded.cpp",
     "void f(unsigned long s) { star::Rng rng(s); (void)rng; }\n", "", None),
    ("src/fake/ok_rng_member.hpp",
     "struct S { S(); Rng stream_; };\n", "",
     "S::S() : stream_(0x5eedULL) {}\n"),
    ("src/core/matmul_engine.hpp",
     "struct Deterministic_MatmulEngine {\n"
     "  int multiply(int x);\n  int stream_cost(int b) const;\n};\n",
     "const-compute-entry", None),
    ("src/core/matmul_engine.hpp",
     "struct Deterministic_MatmulEngine {\n"
     "  int multiply(int x);\n  int multiply(int x, int rng) const;\n"
     "  int stream_cost(int b) const;\n};\n",
     "", None),
    ("src/core/matmul_engine.hpp",
     "struct Deterministic_MatmulEngine {\n"
     "  int stream_cost(int b) const;\n};\n",
     "const-compute-entry", None),
    ("src/fake/bad_engine_doc.hpp",
     "// A header with no docs about reproducibility.\n"
     "class FooEngine { public: int run(); };\n", "determinism-doc", None),
    ("src/fake/ok_engine_doc.hpp",
     "// Deterministic: (seed, code-path) fixes every draw.\n"
     "class FooEngine { public: int run(); };\n", "", None),
    ("src/fake/ok_engine_fwd.hpp",
     "class FooEngine;\nstruct Bar { FooEngine* e; };\n", "", None),
    ("src/fake/bad_hot_new.cpp",
     "// STAR_HOT\nint* f() { return new int(7); }\n",
     "hot-path-no-alloc", None),
    ("src/fake/bad_hot_tostring.cpp",
     "// STAR_HOT\nvoid f(int r, int n) {\n"
     "  require(r < n, \"row \" + std::to_string(r));\n}\n",
     "hot-path-no-alloc", None),
    ("src/fake/bad_hot_local_vector.cpp",
     "// STAR_HOT\nvoid f() { std::vector<double> tmp(8); (void)tmp; }\n",
     "hot-path-no-alloc", None),
    ("src/fake/bad_hot_expected_got.cpp",
     "// STAR_HOT\nvoid f(int a, int b) { require(a == b, expected_got(a, b)); }\n",
     "hot-path-no-alloc", None),
    ("src/fake/ok_hot_scratch_ref.cpp",
     "// STAR_HOT\nvoid f(std::vector<bool>& match) {\n"
     "  require(!match.empty(), \"f: match must be sized\");\n"
     "  match.assign(match.size(), false);\n}\n", "", None),
    ("src/fake/ok_cold_vector.cpp",
     "void cold() { std::vector<double> tmp(8); (void)tmp; }\n", "", None),
]


def self_test() -> int:
    failures = []
    for path, text, expected_rule, sibling in _FIXTURES:
        loader = (lambda _p, s=sibling:
                  strip_comments_and_strings(s) if s is not None else None)
        got = lint_text(path, text, loader)
        got_rules = sorted({v.rule for v in got})
        if expected_rule == "":
            if got:
                failures.append(f"{path}: expected clean, got {got}")
        else:
            if got_rules != [expected_rule]:
                failures.append(
                    f"{path}: expected [{expected_rule}], got {got_rules or got}")
    if failures:
        print("star_lint --self-test FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 2
    print(f"star_lint --self-test ok ({len(_FIXTURES)} fixtures, "
          f"{len(RULES)} rules)")
    return 0


def main(argv: List[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("paths", nargs="*",
                    help="files to lint (default: every .hpp/.cpp under <root>/src)")
    ap.add_argument("--root", default=os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), help="repo root (default: the linter's parent)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the embedded fixture suite and exit")
    args = ap.parse_args(argv)

    if args.self_test:
        return self_test()

    targets = args.paths or collect_default_targets(args.root)
    violations: List[Violation] = []
    for path in targets:
        try:
            violations.extend(lint_file(path))
        except OSError as e:
            print(f"star_lint: cannot read {path}: {e}", file=sys.stderr)
            return 2
    for v in sorted(violations):
        print(f"{v.path}:{v.line}: [{v.rule}] {v.message}")
    if violations:
        print(f"star_lint: {len(violations)} violation(s) in "
              f"{len({v.path for v in violations})} file(s)", file=sys.stderr)
        return 1
    print(f"star_lint: {len(targets)} file(s) clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
