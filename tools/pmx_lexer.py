#!/usr/bin/env python3
"""Lexing, finding, and baseline machinery for pmx-analyze.

Every pass operates on the same view of a C++ source file: per-line code
with comment and string bodies blanked out (so prose never trips a rule and
string contents never hide one), plus per-line comment text from which the
single suppression mechanism -- ``// pmx-lint: allow(<rule>)`` on the
offending line -- is parsed. Findings carry a fingerprint (rule + normalized
source line) so committed baselines survive unrelated edits that move a
known finding up or down a file.

Baseline JSON schema:

    {"findings": [{"file": ..., "rule": ..., "fingerprint": ...,
                   "justification": "why this is acknowledged"}, ...]}

Every entry needs a nonempty ``justification``: the contract may only be
suspended with a written reason.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

SOURCE_EXTENSIONS = (".hpp", ".cpp")
DEFAULT_ROOTS = ("src", "bench", "tests", "examples", "tools")
# Fixture corpus intentionally violates every rule; never lint it as code.
EXCLUDED_PARTS = ("lint_fixtures",)

ALLOW_RE = re.compile(r"pmx-lint:\s*allow\(([a-zA-Z0-9_,\s-]+)\)")


class Finding:
    __slots__ = ("path", "line", "rule", "message", "code")

    def __init__(self, path: str, line: int, rule: str, message: str, code: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message
        self.code = code

    def fingerprint(self) -> str:
        normalized = " ".join(self.code.split())
        digest = hashlib.sha1(
            f"{self.rule}\x00{normalized}".encode()
        ).hexdigest()
        return digest[:16]

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text: str):
    """Return (code_lines, comment_lines): per-line source with comments and
    string/char literal bodies blanked out, and per-line comment text (for
    allow() extraction). Handles //, /* */, "...", '...', and R"(...)"."""
    code = []
    comments = []
    code_line: list[str] = []
    comment_line: list[str] = []
    i = 0
    n = len(text)
    state = "code"  # code | line_comment | block_comment | string | char | raw
    raw_delim = ""
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if ch == "\n":
            code.append("".join(code_line))
            comments.append("".join(comment_line))
            code_line, comment_line = [], []
            if state == "line_comment":
                state = "code"
            i += 1
            continue
        if state == "code":
            if ch == "/" and nxt == "/":
                state = "line_comment"
                i += 2
                continue
            if ch == "/" and nxt == "*":
                state = "block_comment"
                i += 2
                continue
            if ch == "R" and nxt == '"':
                m = re.match(r'R"([^(\s]*)\(', text[i:])
                if m:
                    raw_delim = m.group(1)
                    state = "raw"
                    code_line.append('R""')
                    i += len(m.group(0))
                    continue
            if ch == '"':
                state = "string"
                code_line.append('"')
                i += 1
                continue
            if ch == "'":
                state = "char"
                code_line.append("'")
                i += 1
                continue
            code_line.append(ch)
            i += 1
        elif state == "line_comment":
            comment_line.append(ch)
            i += 1
        elif state == "block_comment":
            if ch == "*" and nxt == "/":
                state = "code"
                i += 2
            else:
                comment_line.append(ch)
                i += 1
        elif state == "string":
            if ch == "\\":
                i += 2
            elif ch == '"':
                code_line.append('"')
                state = "code"
                i += 1
            else:
                i += 1
        elif state == "char":
            if ch == "\\":
                i += 2
            elif ch == "'":
                code_line.append("'")
                state = "code"
                i += 1
            else:
                i += 1
        elif state == "raw":
            end = f'){raw_delim}"'
            if text.startswith(end, i):
                state = "code"
                i += len(end)
            else:
                i += 1
    if code_line or comment_line or (text and not text.endswith("\n")):
        code.append("".join(code_line))
        comments.append("".join(comment_line))
    return code, comments


def allowed_rules(comment: str) -> set[str]:
    rules: set[str] = set()
    for m in ALLOW_RE.finditer(comment):
        for rule in m.group(1).split(","):
            rules.add(rule.strip())
    return rules


class LexedFile:
    """One source file, lexed once and shared by every pass."""

    __slots__ = ("path", "rel", "code", "comments", "raw")

    def __init__(self, path: Path, rel: str):
        text = path.read_text(encoding="utf-8")
        self.path = path
        self.rel = rel
        self.code, self.comments = strip_comments_and_strings(text)
        self.raw = text.splitlines()

    def allow(self, lineno: int) -> set[str]:
        if 0 < lineno <= len(self.comments):
            return allowed_rules(self.comments[lineno - 1])
        return set()

    def source_line(self, lineno: int) -> str:
        if 0 < lineno <= len(self.raw):
            return self.raw[lineno - 1]
        return ""

    def emit(self, findings: list[Finding], lineno: int, rule: str,
             message: str) -> None:
        if rule in self.allow(lineno):
            return
        findings.append(
            Finding(self.rel, lineno, rule, message, self.source_line(lineno)))


def discover(root: Path, paths: list[str],
             default_roots=DEFAULT_ROOTS) -> list[Path]:
    """Explicit file arguments are always analyzed; directory walks skip the
    fixture corpus (which violates every rule on purpose)."""
    files: list[Path] = []
    targets = paths if paths else list(default_roots)
    for target in targets:
        p = (root / target) if not Path(target).is_absolute() else Path(target)
        if p.is_file():
            files.append(p)
        elif p.is_dir():
            files.extend(
                f
                for ext in SOURCE_EXTENSIONS
                for f in sorted(p.rglob(f"*{ext}"))
                if not any(part in EXCLUDED_PARTS for part in f.parts)
            )
    return files


def load_baseline(path: Path):
    """Return {key: count} of acknowledged findings. Raise ValueError on an
    entry lacking a written reason: debt must be justified, not just listed.
    """
    data = json.loads(path.read_text(encoding="utf-8"))
    counts: dict[str, int] = {}
    for entry in data.get("findings", []):
        if not entry.get("justification", "").strip():
            raise ValueError(
                f"baseline entry for {entry.get('file')} [{entry.get('rule')}]"
                " has no justification; the architecture contract may only be"
                " suspended with a written reason")
        key = f"{entry['file']}\x00{entry['rule']}\x00{entry['fingerprint']}"
        counts[key] = counts.get(key, 0) + 1
    return counts


def write_baseline(path: Path, findings: list[Finding]) -> None:
    """Record `findings` with empty justification fields to fill in."""
    payload = {
        "findings": [
            {"file": fi.path, "rule": fi.rule,
             "fingerprint": fi.fingerprint(), "justification": ""}
            for fi in findings
        ]
    }
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def subtract_baseline(findings: list[Finding], baseline) -> list[Finding]:
    """Return only the findings not fingerprint-matched by the baseline."""
    remaining = dict(baseline)
    fresh: list[Finding] = []
    for fi in findings:
        key = f"{fi.path}\x00{fi.rule}\x00{fi.fingerprint()}"
        if remaining.get(key, 0) > 0:
            remaining[key] -= 1
        else:
            fresh.append(fi)
    return fresh
