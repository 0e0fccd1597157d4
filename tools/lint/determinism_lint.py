#!/usr/bin/env python3
"""Determinism contract linter (DESIGN.md §15).

Every subsystem in this repository rests on one invariant: bit-identical
results across thread counts, cache hits, and resumes. The golden
fingerprint tests enforce that contract dynamically; this linter enforces
it statically, by flagging the handful of C++ constructs that historically
break bit-identity:

  unordered-iter              iteration over std::unordered_{map,set}
                              feeding output / accumulation / container
                              construction (hash order is run-dependent).
                              The ORDERED-REDUCTION idiom is recognized
                              and exempt: a loop that only gathers into
                              containers which are std::sort/stable_sort-ed
                              right after the loop (gather, sort into a
                              pinned total order, then consume) imposes
                              its own order, so hash order cannot reach
                              the output
  pointer-key                 pointer values as associative-container keys
                              (address order varies run to run under ASLR
                              and allocator state)
  raw-entropy                 std::rand / random_device / time(nullptr) /
                              argless clock reads outside obs::RunManifest
                              (ambient entropy leaking into results)
  threadpool-shared-mutation  non-atomic mutation of by-reference captured
                              state inside ThreadPool task lambdas without
                              a named synchronization object
  fp-unordered-reduction      floating-point += reduction in a loop over
                              an unordered container (FP addition is not
                              associative; hash order changes the sum)

Usage:
    determinism_lint.py [--list-rules] PATH...

PATH arguments are files or directories (searched recursively for
.cpp/.cc/.hpp/.h). Diagnostics are `file:line: [rule] message`.

Exit codes: 0 clean, 1 findings, 2 suppression/usage errors.

Suppressions: a finding is silenced by a comment on the same line or on
the line directly above:

    // mcs-lint: allow(<rule>) <justification>

The justification is mandatory and the rule name must be one of the rules
above — an unknown rule name or an empty justification is itself a fatal
error (exit 2), so suppressions cannot rot silently. Suppressions that no
longer match any finding are reported as warnings on stderr.

A second annotation form documents WHY a construct adjacent to a rule's
territory is contract-safe without requiring a matching finding (audit
trail for e.g. lookup-only unordered maps that are never iterated):

    // mcs-lint: note(<rule>) <justification>

note() rule names and justifications are validated exactly like allow().
"""

from __future__ import annotations

import argparse
import bisect
import os
import re
import sys
from dataclasses import dataclass, field

RULES = {
    "unordered-iter":
        "iteration over an unordered container feeds output/accumulation/"
        "container construction — hash order is run-dependent",
    "pointer-key":
        "pointer used as associative-container key — address order varies "
        "run to run",
    "raw-entropy":
        "ambient entropy (rand/random_device/time/clock) outside "
        "obs::RunManifest",
    "threadpool-shared-mutation":
        "non-atomic mutation of captured shared state inside a ThreadPool "
        "task lambda without a named synchronization object",
    "fp-unordered-reduction":
        "floating-point reduction over an unordered container — FP "
        "addition is not associative, hash order changes the sum",
}

# The one blanket exemption the contract itself defines: RunManifest is
# the designated home for wall-clock/host provenance, which never feeds
# results (ISSUE: "outside obs::RunManifest").
RAW_ENTROPY_EXEMPT_SUFFIXES = ("src/obs/manifest.cpp", "src/obs/manifest.hpp")

CXX_EXTENSIONS = (".cpp", ".cc", ".cxx", ".hpp", ".h", ".hh")

SUPPRESS_RE = re.compile(r"mcs-lint:\s*(allow|note)\(([^)]*)\)\s*(.*)")


@dataclass
class Finding:
    path: str
    line: int  # 1-based
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclass
class Suppression:
    line: int  # 1-based line the comment sits on
    rule: str
    justification: str
    # "allow" silences a matching finding and warns when stale; "note"
    # documents WHY a construct near a rule's territory is contract-safe
    # (e.g. a lookup-only unordered map) without requiring a finding.
    kind: str = "allow"
    used: bool = False


@dataclass
class SourceFile:
    path: str
    raw: str
    code: str = ""  # comments/strings blanked, same offsets as raw
    line_starts: list = field(default_factory=list)
    suppressions: list = field(default_factory=list)
    errors: list = field(default_factory=list)  # fatal suppression errors

    def line_of(self, offset: int) -> int:
        return bisect.bisect_right(self.line_starts, offset)


def sanitize(src: SourceFile) -> None:
    """Blank comments, string and char literals (preserving offsets and
    newlines) and collect mcs-lint suppression comments."""
    raw = src.raw
    out = list(raw)
    n = len(raw)
    i = 0
    src.line_starts = [0]
    for k, ch in enumerate(raw):
        if ch == "\n":
            src.line_starts.append(k + 1)

    def blank(a: int, b: int) -> None:
        for k in range(a, b):
            if out[k] != "\n":
                out[k] = " "

    def record_comment(a: int, b: int) -> None:
        text = raw[a:b]
        m = SUPPRESS_RE.search(text)
        if not m:
            return
        kind = m.group(1)
        rule = m.group(2).strip()
        justification = m.group(3).strip().rstrip("*/").strip()
        line = src.line_of(a)
        if rule not in RULES:
            src.errors.append(Finding(
                src.path, line, "suppression-error",
                f"unknown rule '{rule}' in mcs-lint: {kind}(...) — known "
                f"rules: {', '.join(sorted(RULES))}"))
            return
        if not justification:
            src.errors.append(Finding(
                src.path, line, "suppression-error",
                f"{kind}({rule}) without a justification — every "
                "suppression must say why the construct is safe"))
            return
        src.suppressions.append(Suppression(line, rule, justification, kind))

    while i < n:
        ch = raw[i]
        nxt = raw[i + 1] if i + 1 < n else ""
        if ch == "/" and nxt == "/":
            end = raw.find("\n", i)
            end = n if end < 0 else end
            record_comment(i, end)
            blank(i, end)
            i = end
        elif ch == "/" and nxt == "*":
            end = raw.find("*/", i + 2)
            end = n if end < 0 else end + 2
            record_comment(i, end)
            blank(i, end)
            i = end
        elif ch == "R" and nxt == '"':
            # Raw string literal R"delim(...)delim"
            m = re.match(r'R"([^(\s]*)\(', raw[i:])
            if m:
                closer = ")" + m.group(1) + '"'
                end = raw.find(closer, i + m.end())
                end = n if end < 0 else end + len(closer)
                blank(i + 1, end)
                i = end
            else:
                i += 1
        elif ch == '"':
            j = i + 1
            while j < n and raw[j] != '"':
                j += 2 if raw[j] == "\\" else 1
            blank(i + 1, min(j, n))
            i = min(j, n) + 1
        elif ch == "'":
            # C++14 digit separator (1'000, 0x5a70'5ea7), not a literal.
            prev = raw[i - 1] if i > 0 else ""
            if prev in "0123456789abcdefABCDEF" and nxt in \
                    "0123456789abcdefABCDEF":
                i += 1
                continue
            j = i + 1
            while j < n and raw[j] != "'":
                j += 2 if raw[j] == "\\" else 1
            blank(i + 1, min(j, n))
            i = min(j, n) + 1
        else:
            i += 1
    src.code = "".join(out)


def match_forward(code: str, start: int, open_ch: str, close_ch: str) -> int:
    """Offset one past the bracket closing code[start] (which must be
    open_ch), or len(code) when unbalanced."""
    depth = 0
    for k in range(start, len(code)):
        c = code[k]
        if c == open_ch:
            depth += 1
        elif c == close_ch:
            depth -= 1
            if depth == 0:
                return k + 1
    return len(code)


def split_top_level(text: str, sep: str = ",") -> list:
    parts, depth, cur = [], 0, []
    for c in text:
        if c in "<([{":
            depth += 1
        elif c in ">)]}":
            depth -= 1
        if c == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(c)
    parts.append("".join(cur))
    return parts


UNORDERED_DECL_RE = re.compile(r"\bunordered_(?:map|set|multimap|multiset)\s*<")
ASSOC_DECL_RE = re.compile(
    r"\b(?:std\s*::\s*)?((?:unordered_)?(?:map|set|multimap|multiset))\s*<")
FP_DECL_RE = re.compile(r"\b(?:double|float)\b[\s&]*(\w+)\s*[=;{]")
FOR_RE = re.compile(r"\bfor\s*\(")
ACCUMULATE_RE = re.compile(r"\b(?:std\s*::\s*)?accumulate\s*\(")
DECL_NAME_AFTER_TEMPLATE_RE = re.compile(r"\s*&?\s*(\w+)\s*(?:[;={(,)]|$)")

RAW_ENTROPY_RE = re.compile(
    r"\bstd\s*::\s*rand\b|\brand\s*\(\s*\)|\bsrand\s*\(|\brandom_device\b"
    r"|\btime\s*\(\s*(?:nullptr|NULL|0)\s*\)"
    r"|::\s*now\s*\(\s*\)|\bclock\s*\(\s*\)|\bgettimeofday\b|\bgetrusage\b")

SINK_RE = re.compile(
    r"<<|\.\s*(?:push_back|emplace_back|insert|emplace|append|push|"
    r"write)\s*\(|\bprintf\b|\bfprintf\b|\bsnprintf\b")
# Container-method sinks with their receiver, for the ordered-reduction
# exemption (stream/printf sinks can never be "sorted later").
METHOD_SINK_RE = re.compile(
    r"(\w+)\s*\.\s*(?:push_back|emplace_back|insert|emplace|append|push)"
    r"\s*\(")
STREAM_SINK_RE = re.compile(
    r"<<|\.\s*write\s*\(|\bprintf\b|\bfprintf\b|\bsnprintf\b")
# How far past the gather loop a sort may sit and still count as "right
# after" (the gather/sort/consume idiom keeps them adjacent; a sort half
# a file away proves nothing about this loop's sink).
SORT_WINDOW = 1500
# `x +=` inside an unordered loop: integer accumulation is associative
# and therefore order-free; FP and everything else (strings, auto, user
# types) is order-dependent and flagged.
INT_DECL_RE = re.compile(
    r"\b(?:unsigned|int|long|short|std\s*::\s*u?int\d+_t|u?int\d+_t|"
    r"std\s*::\s*size_t|size_t|std\s*::\s*ptrdiff_t)"
    r"(?:\s+(?:unsigned|int|long|short))*\s*&?\s*(\w+)\s*[=;{]")

POOL_CALL_RE = re.compile(r"\b(?:submit|parallel_for)\s*\(")
LAMBDA_RE = re.compile(r"\[")
LOCK_RE = re.compile(
    r"\block_guard\b|\bunique_lock\b|\bscoped_lock\b|\bshared_lock\b|"
    r"\.\s*lock\s*\(|\bmutex\b")
ATOMIC_OP_RE = re.compile(
    r"\bfetch_add\b|\bfetch_sub\b|\bcompare_exchange\w*\b|"
    r"\.\s*store\s*\(|\.\s*load\s*\(|\bmemory_order\b|\batomic\b")
MUTATION_RE = re.compile(
    r"(?:^|[;{}]\s*|\n\s*)([A-Za-z_]\w*)\s*"
    r"(=(?!=)|\+=|-=|\*=|/=|\.\s*(?:push_back|emplace_back|insert|emplace|"
    r"clear|resize|pop_back|erase|push|append)\s*\()")
LOCAL_DECL_RE = re.compile(
    r"(?:^|[;{}(]\s*|\n\s*)(?:const\s+)?"
    r"(?:auto|int|bool|char|float|double|long|unsigned|std\s*::\s*[\w:]+"
    r"(?:<[^;{}]*?>)?|[A-Z]\w*(?:\s*::\s*\w+)*(?:<[^;{}]*?>)?)"
    r"\s*[&*]?\s+(\w+)\s*[=;{(]")
STRUCTURED_BINDING_RE = re.compile(r"\bauto\s*&?\s*\[([^\]]*)\]")


def unordered_container_names(code: str) -> set:
    """Names declared with an unordered container type anywhere in the
    file (variables, members, parameters). File-wide scope is deliberate:
    false sharing of a name across functions only risks a false positive,
    which the fixture suite keeps in check."""
    names = set()
    for m in UNORDERED_DECL_RE.finditer(code):
        close = match_forward(code, m.end() - 1, "<", ">")
        tail = DECL_NAME_AFTER_TEMPLATE_RE.match(code, close)
        if tail and tail.group(1) not in ("const", "return"):
            names.add(tail.group(1))
    return names


def fp_names(code: str) -> set:
    return {m.group(1) for m in FP_DECL_RE.finditer(code)}


def int_names(code: str) -> set:
    return {m.group(1) for m in INT_DECL_RE.finditer(code)}


def iter_for_loops(code: str):
    """Yield (for_offset, header_text, body_text, body_offset)."""
    for m in FOR_RE.finditer(code):
        open_paren = m.end() - 1
        close = match_forward(code, open_paren, "(", ")")
        header = code[open_paren + 1:close - 1]
        k = close
        while k < len(code) and code[k] in " \t\n":
            k += 1
        if k < len(code) and code[k] == "{":
            body_end = match_forward(code, k, "{", "}")
            body = code[k + 1:body_end - 1]
            yield m.start(), header, body, k + 1
        else:
            body_end = code.find(";", k)
            body_end = len(code) if body_end < 0 else body_end
            yield m.start(), header, code[k:body_end], k


def loop_is_unordered(header: str, unordered: set) -> bool:
    parts = split_top_level(header, ":")
    if len(parts) == 2:  # range-for
        expr = parts[1]
        if "unordered_" in expr:
            return True
        return any(re.search(rf"\b{re.escape(n)}\b", expr)
                   for n in unordered)
    # classic for: iterator over an unordered container
    return any(re.search(rf"\b{re.escape(n)}\s*\.\s*(?:c?begin|c?end)\b",
                         header) for n in unordered)


def gather_is_sorted_after(body: str, code_after: str) -> bool:
    """The ordered-reduction exemption: every sink in the loop body is a
    container method call whose receiver is std::sort/stable_sort-ed
    within SORT_WINDOW chars after the loop (gather in arbitrary order,
    sort into a pinned total order, consume).
    Stream/printf sinks disqualify — their order is already emitted."""
    if STREAM_SINK_RE.search(body):
        return False
    receivers = {m.group(1) for m in METHOD_SINK_RE.finditer(body)}
    if not receivers:
        return False
    window = code_after[:SORT_WINDOW]
    return all(
        re.search(rf"\b(?:std\s*::\s*)?(?:stable_)?sort\s*\(\s*"
                  rf"{re.escape(name)}\s*\.\s*c?begin\b", window)
        for name in receivers)


def check_unordered_iteration(src: SourceFile, findings: list) -> None:
    unordered = unordered_container_names(src.code)
    fps = fp_names(src.code)
    ints = int_names(src.code) - fps  # shared name: conservative, flag
    for off, header, body, body_off in iter_for_loops(src.code):
        if not loop_is_unordered(header, unordered):
            continue
        line = src.line_of(off)
        fp_hit = None
        nonint_hit = None
        for m in re.finditer(r"(\w+)\s*\+=", body):
            if m.group(1) in fps:
                fp_hit = m.group(1)
                break
            if m.group(1) not in ints:
                nonint_hit = m.group(1)
        if fp_hit:
            findings.append(Finding(
                src.path, line, "fp-unordered-reduction",
                f"'{fp_hit} +=' accumulates a floating-point value in "
                "hash-table order; the sum depends on the run"))
        sink_hit = SINK_RE.search(body) is not None
        if sink_hit and not fp_hit and not nonint_hit and \
                gather_is_sorted_after(
                    body, src.code[body_off + len(body):]):
            sink_hit = False  # ordered reduction: sorted before use
        if fp_hit or nonint_hit or sink_hit:
            findings.append(Finding(
                src.path, line, "unordered-iter",
                "loop over an unordered container feeds output/"
                "accumulation/container construction; iterate a sorted "
                "copy or an order-stable index instead"))
    # std::accumulate directly over an unordered container's range
    for m in ACCUMULATE_RE.finditer(src.code):
        close = match_forward(src.code, m.end() - 1, "(", ")")
        args = src.code[m.end():close - 1]
        if "unordered_" in args or any(
                re.search(rf"\b{re.escape(n)}\s*\.\s*c?begin\b", args)
                for n in unordered):
            findings.append(Finding(
                src.path, src.line_of(m.start()), "fp-unordered-reduction",
                "std::accumulate over an unordered container's range; "
                "the fold order depends on the run"))


def check_pointer_keys(src: SourceFile, findings: list) -> None:
    for m in ASSOC_DECL_RE.finditer(src.code):
        kind = m.group(1)
        close = match_forward(src.code, m.end() - 1, "<", ">")
        args = split_top_level(src.code[m.end():close - 1])
        if not args:
            continue
        key = args[0].strip()
        if key.endswith("*") and not key.endswith("**"):
            key_short = " ".join(key.split())
            findings.append(Finding(
                src.path, src.line_of(m.start()), "pointer-key",
                f"{kind} keyed on '{key_short}': iteration/comparison "
                "order follows the pointer value, which varies run to "
                "run; key on a stable id instead"))


def check_raw_entropy(src: SourceFile, findings: list) -> None:
    norm = src.path.replace(os.sep, "/")
    if norm.endswith(RAW_ENTROPY_EXEMPT_SUFFIXES):
        return
    for m in RAW_ENTROPY_RE.finditer(src.code):
        token = " ".join(m.group(0).split())
        findings.append(Finding(
            src.path, src.line_of(m.start()), "raw-entropy",
            f"'{token}' reads ambient entropy; results must derive all "
            "randomness from the seeded RNG and all timestamps from "
            "obs::RunManifest"))


def lambda_param_names(code: str, after_capture: int) -> set:
    if after_capture < len(code) and code[after_capture] == "(":
        close = match_forward(code, after_capture, "(", ")")
        params = code[after_capture + 1:close - 1]
        names = set()
        for part in split_top_level(params):
            words = re.findall(r"\w+", part)
            if words:
                names.add(words[-1])
        return names, close
    return set(), after_capture


def check_threadpool_mutation(src: SourceFile, findings: list) -> None:
    code = src.code
    for call in POOL_CALL_RE.finditer(code):
        call_end = match_forward(code, code.find("(", call.start()), "(", ")")
        region = code[call.start():call_end]
        base = call.start()
        for lm in LAMBDA_RE.finditer(region):
            cap_start = base + lm.start()
            cap_end = match_forward(code, cap_start, "[", "]")
            capture = code[cap_start + 1:cap_end - 1]
            # Only lambdas; skip array subscripts: a capture list is
            # followed (after optional params/specifiers) by '{'.
            params, k = lambda_param_names(code, cap_end)
            while k < len(code) and code[k] in " \t\n":
                k += 1
            # skip specifiers like mutable / noexcept / -> T
            spec = re.match(r"(?:mutable|noexcept|constexpr|->\s*[\w:<>,&*\s]+?)*\s*",
                            code[k:cap_end + 400])
            k2 = k + (spec.end() if spec else 0)
            while k2 < len(code) and code[k2] in " \t\n":
                k2 += 1
            if k2 >= len(code) or code[k2] != "{":
                continue
            body_end = match_forward(code, k2, "{", "}")
            body = code[k2 + 1:body_end - 1]

            by_ref_all = bool(re.match(r"\s*&\s*(?:,|$)", capture))
            by_ref = {m.group(1)
                      for m in re.finditer(r"&\s*(\w+)", capture)}
            by_value = {m.group(1) for m in re.finditer(
                r"(?:^|,)\s*(\w+)\s*(?:=[^,\]]*)?(?:,|$)", capture)}

            if LOCK_RE.search(body):
                continue  # a named synchronization object governs the body

            locals_ = {m.group(1)
                       for m in LOCAL_DECL_RE.finditer(body)} | params
            for sb in STRUCTURED_BINDING_RE.finditer(body):
                locals_ |= set(re.findall(r"\w+", sb.group(1)))

            for mut in MUTATION_RE.finditer(body):
                name = mut.group(1)
                if name in locals_ or name in ("this", "return", "break",
                                               "continue", "if", "else",
                                               "while", "for", "case"):
                    continue
                if name in by_value and name not in by_ref:
                    continue
                if not (by_ref_all or name in by_ref):
                    continue
                # Indexed writes (results[i] = ...) are the sanctioned
                # disjoint-slot pattern; the subscript picks a private slot.
                stmt_start = mut.start(1)
                stmt_end = body.find(";", mut.end())
                stmt_end = len(body) if stmt_end < 0 else stmt_end
                stmt = body[stmt_start:stmt_end]
                if re.match(rf"{re.escape(name)}\s*\[", stmt):
                    continue
                if ATOMIC_OP_RE.search(stmt):
                    continue
                findings.append(Finding(
                    src.path, src.line_of(k2 + 1 + mut.start(1)),
                    "threadpool-shared-mutation",
                    f"task lambda mutates captured '{name}' without a "
                    "named synchronization object (mutex/lock/atomic) and "
                    "without a per-task slot index"))


CHECKS = (
    check_unordered_iteration,
    check_pointer_keys,
    check_raw_entropy,
    check_threadpool_mutation,
)


def lint_file(path: str, text: str = None):
    """Returns (findings, errors, warnings) for one file."""
    if text is None:
        with open(path, "r", encoding="utf-8", errors="replace") as fh:
            text = fh.read()
    src = SourceFile(path=path, raw=text)
    sanitize(src)

    findings = []
    for check in CHECKS:
        check(src, findings)

    # A suppression governs its own line when that line carries code, or
    # else the next code-bearing line (comment blocks may run several
    # lines between the annotation and the construct).
    code_lines = src.code.split("\n")

    def target_line(s: Suppression) -> int:
        if s.line <= len(code_lines) and code_lines[s.line - 1].strip():
            return s.line
        for ln in range(s.line + 1, len(code_lines) + 1):
            if code_lines[ln - 1].strip():
                return ln
        return s.line

    kept = []
    for f in findings:
        suppressed = False
        for s in src.suppressions:
            if s.kind == "allow" and s.rule == f.rule and \
                    f.line in (s.line, target_line(s)):
                s.used = True
                suppressed = True
        if not suppressed:
            kept.append(f)

    warnings = [
        f"{path}:{s.line}: warning: allow({s.rule}) matches no finding "
        "(stale suppression?)"
        for s in src.suppressions if s.kind == "allow" and not s.used
    ]
    return kept, src.errors, warnings


def collect_paths(args_paths):
    files = []
    for p in args_paths:
        if os.path.isfile(p):
            files.append(p)
        elif os.path.isdir(p):
            for root, _dirs, names in os.walk(p):
                for name in sorted(names):
                    if name.endswith(CXX_EXTENSIONS):
                        files.append(os.path.join(root, name))
        else:
            print(f"determinism_lint: no such path: {p}", file=sys.stderr)
            sys.exit(2)
    return sorted(files)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Static determinism-contract linter (DESIGN.md §15)")
    parser.add_argument("paths", nargs="*", help="files or directories")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress stale-suppression warnings")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in sorted(RULES):
            print(f"{rule}: {RULES[rule]}")
        return 0
    if not args.paths:
        parser.error("no paths given (try: determinism_lint.py src apps bench)")

    all_findings, all_errors, all_warnings = [], [], []
    for path in collect_paths(args.paths):
        findings, errors, warnings = lint_file(path)
        all_findings += findings
        all_errors += errors
        all_warnings += warnings

    for f in all_errors:
        print(f.render())
    for f in all_findings:
        print(f.render())
    if not args.quiet:
        for w in all_warnings:
            print(w, file=sys.stderr)

    if all_errors:
        print(f"determinism_lint: {len(all_errors)} suppression error(s)",
              file=sys.stderr)
        return 2
    if all_findings:
        print(f"determinism_lint: {len(all_findings)} finding(s)",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
