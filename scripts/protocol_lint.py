#!/usr/bin/env python3
"""Protocol lint: repo-specific static checks no generic linter knows about.

The simulator's claims (EXPERIMENTS.md, the theorem checks in tests/) are
only meaningful if the codebase upholds a handful of protocol-level
conventions. This engine tokenizes every file under src/ with a small C++
lexer (comments, strings, raw strings, char literals and preprocessor
lines are isolated as single tokens) and runs per-rule passes over the
token streams, so string contents and comments can never produce findings
and suppression markers are tracked precisely per (line, rule).

  R1  nondeterminism  Executions must be pure functions of the seed. All
                      randomness flows through the seeded PRNGs in
                      common/prng.h / hashing/shared_random.h; wall-clock
                      time, rand(), std::random_device, pid/env lookups and
                      address-based hashing are banned in src/.
  R2  msgkind         Every message tag (enum class Tag : sim::MsgKind
                      enumerator, or file-local `constexpr sim::MsgKind`)
                      must be referenced at least once outside its
                      definition. A tag that is declared but never handled
                      means a dispatch switch silently drops a message kind.
  R3  bits-width      Wire-size ("bits") accumulation must use 64-bit
                      types: a quadratic baseline at n = 1e5 with
                      Omega(n)-bit messages overflows 32-bit counters and
                      the overflow is exactly the kind of bug that fakes a
                      subquadratic result.
  R4  unordered-iter  Iterating an unordered container feeds its
                      address-dependent order into message emission, traces
                      or stats. Unordered containers are allowed for
                      lookup/membership only; iteration requires an ordered
                      container (or an explicit allow marker).
  R5  header-hygiene  Every header under src/ must compile standalone
                      (include-what-you-use smoke test with
                      `g++ -fsyntax-only`). Results are memoized in a
                      content-hash cache keyed on the header's transitive
                      repo includes AND this script's own content hash (a
                      rule change invalidates old verdicts), so incremental
                      runs stay fast.
  R6  threading       The simulator is deterministic by design (ROADMAP
                      invariant; docs/PERFORMANCE.md): <thread>, <mutex>,
                      <shared_mutex>, <condition_variable>, <future>,
                      <stop_token> and the std::thread/std::jthread/
                      std::mutex/std::async/std::atomic families are banned
                      under src/ — with exactly one sanctioned exception,
                      src/sim/parallel/, the shard-parallel worker pool
                      whose fork/join discipline keeps engine output
                      byte-identical to the serial run (docs/PERFORMANCE.md
                      "Shard-parallel engine"). Everywhere else under src/
                      the ban stands; protocol and engine code reach
                      parallelism only through sim::parallel::ShardPlan.
  R7  dense-of-range  Protocol code (src/byzantine/, src/crash/) must not
                      call SetFingerprint/RabinFingerprint::of_range: those
                      evaluate a fingerprint by walking a dense BitVec over
                      the identity space — an O(N)-shaped scan that the
                      bucketed IdentityList's incremental summaries exist to
                      avoid (docs/PERFORMANCE.md "Protocol hot path").
                      of_range belongs in tests and cross-checks only.
  R8  raw-output      No raw std::cout/std::cerr/std::clog or stdio output
                      (printf/fprintf/puts/fputs/putchar/fputc) under src/:
                      library code reports through its sanctioned sinks —
                      TraceSink, RunStats, obs::Telemetry, the caller-
                      supplied std::ostream exporters and the doctor's
                      pre-rendered explanation strings (obs/doctor.h,
                      docs/OBSERVABILITY.md) — so the sanctioned output
                      owners outside src/ (CLIs under examples/, the
                      renaming_doctor CLI under tools/, and the benches)
                      own every byte that reaches a terminal. The
                      RENAMING_CHECK abort path in common/check.h carries an
                      explicit allow marker.
  R9  wire-schema     Declared message widths must flow from
                      sim/wire_schema.h. At every sim::make_message /
                      note_messages call site the bits argument must not
                      contain a numeric literal, and any width-named
                      identifier it references must (when initialized in
                      the same file) derive from wire_bits()/
                      wire::make_message or the named adversarial probe
                      constants — a stale hand-written width silently
                      falsifies every budget gate and BENCH_* cell.
  R10 stale-allow     A // lint:allow(<rule>) marker that suppresses
                      nothing is itself an error: stale markers hide the
                      next real finding on that line. Markers naming an
                      unknown rule are reported too (typo protection).
  R11 kind-coverage   Every row of the message-kind table (kWireSchemas
                      in sim/wire_schema.h, the one declaration of a
                      shipped kind's name, phase and wire layout) must
                      have a protocol dispatch declaration for its kind
                      (an `enum class ... : sim::MsgKind` enumerator or a
                      file-local `constexpr sim::MsgKind`) somewhere under
                      src/.
  R12 full-width-alloc The engine's steady-state round loop must never
                      allocate full-width (O(n)) structures: that is what
                      keeps million-node runs at O(active) memory
                      per round (docs/PERFORMANCE.md §10). In
                      sim/engine.cc every .reserve / .resize / .assign
                      call or container construction whose size expression
                      mentions the node count `n` must sit between the
                      `// lint:engine-setup-begin` and
                      `// lint:engine-setup-end` markers — the one
                      sanctioned setup section; anywhere else in the file
                      it is a finding.
  R13 wall-clock      Wall time lives in the obs layer only. The
                      determinism contract (docs/OBSERVABILITY.md §8)
                      sanctions exactly one clock under src/ —
                      obs::now_ns() in obs/telemetry.cc — and exactly one
                      set of surfaces where its readings may appear
                      (telemetry, the progress heartbeat, the shard
                      profile). Outside src/obs/, `#include <chrono>`,
                      any `std::chrono` usage, clock_gettime() and
                      timespec_get() are banned: code that wants a
                      timestamp calls obs::now_ns(), so a grep for chrono
                      tells you every place wall time can possibly leak
                      from. (R1 already catches the `::now()` call sites;
                      this rule catches duration arithmetic, includes and
                      POSIX clocks that R1's pattern misses.)
  R15 binary-io       One artifact codec. Under src/obs/, byte-level stream
                      I/O — put_u*/get_u*/put_bytes/get_bytes-style
                      helpers, and .put/.get/.read/.write/.gcount on a
                      name declared with a stream type — lives in
                      obs/binio.h only. Every RNMJ/RNSP/RNPV reader and
                      writer goes through its Writer/Reader, so the
                      shared header checks and length bounds cannot fork
                      into private copies again.
  R16 run-info        One observer lifecycle. Outside src/obs/ and
                      src/sim/observers.h, src/ code must not call
                      set_run_info(): the run-info labelling lives in
                      sim::Observers::begin(), so a run_* entry point
                      cannot drift from the others.

Findings can be suppressed per line with `// lint:allow(<rule>)` where
<rule> is one of: nondeterminism, msgkind, bits-width,
unordered-iteration, threading, dense-of-range, raw-output, wire-schema,
full-width-alloc, wall-clock.
Suppressions are tracked: a marker that matches no finding fails R10.

Exit status: 0 if clean, 1 if any violation, 2 on usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SOURCE_SUFFIXES = {".h", ".cc"}

ALLOW_RE = re.compile(r"//\s*lint:allow\(([a-z0-9-]+)\)")

# Rules whose findings are per-line and therefore suppressible via markers.
SUPPRESSIBLE = {
    "nondeterminism",
    "msgkind",
    "bits-width",
    "unordered-iteration",
    "threading",
    "dense-of-range",
    "raw-output",
    "wire-schema",
    "full-width-alloc",
    "wall-clock",
}

# ---------------------------------------------------------------------------
# Lexer: a minimal C++ tokenizer.
#
# Token kinds:
#   id       identifier / keyword
#   num      pp-number (integer or floating literal, any base/suffix)
#   str      string literal (ordinary or raw), content dropped
#   char     character literal, content dropped
#   punct    operator / punctuator (maximal munch for the ones we match on)
#   comment  // or /* */ comment, full text kept (allow markers live here)
#   pp       whole preprocessor line (including continuations)


class Token:
    __slots__ = ("kind", "text", "line")

    def __init__(self, kind: str, text: str, line: int):
        self.kind = kind
        self.text = text
        self.line = line

    def __repr__(self) -> str:  # debugging aid
        return f"Token({self.kind}, {self.text!r}, L{self.line})"


_PUNCT3 = ("<<=", ">>=", "->*", "...", "<=>")
_PUNCT2 = (
    "::", "->", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "+=", "-=",
    "*=", "/=", "%=", "&=", "|=", "^=", "++", "--", "##",
)
_ID_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_ID_CONT = _ID_START | set("0123456789")
_RAW_PREFIXES = {"R", "u8R", "uR", "LR"}


def lex(text: str) -> list[Token]:
    tokens: list[Token] = []
    i, line = 0, 1
    n = len(text)
    at_line_start = True
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            at_line_start = True
            continue
        if c in " \t\r\f\v":
            i += 1
            continue
        if c == "/" and text.startswith("//", i):
            j = text.find("\n", i)
            j = n if j == -1 else j
            tokens.append(Token("comment", text[i:j], line))
            i = j
            continue
        if c == "/" and text.startswith("/*", i):
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            seg = text[i:j]
            tokens.append(Token("comment", seg, line))
            line += seg.count("\n")
            i = j
            continue
        if c == "#" and at_line_start:
            # Whole preprocessor line, honoring backslash continuations.
            j = i
            while True:
                k = text.find("\n", j)
                if k == -1:
                    k = n
                    break
                if text[k - 1] == "\\":
                    j = k + 1
                    continue
                break
            seg = text[i:k]
            tokens.append(Token("pp", seg, line))
            line += seg.count("\n")
            i = k
            continue
        at_line_start = False
        if c == '"':
            start = i
            i += 1
            while i < n and text[i] not in '"\n':
                i += 2 if text[i] == "\\" else 1
            if i < n and text[i] == '"':
                i += 1
            tokens.append(Token("str", text[start:i], line))
            continue
        if c == "'":
            start = i
            i += 1
            while i < n and text[i] not in "'\n":
                i += 2 if text[i] == "\\" else 1
            if i < n and text[i] == "'":
                i += 1
            tokens.append(Token("char", text[start:i], line))
            continue
        if c in _ID_START:
            start = i
            while i < n and text[i] in _ID_CONT:
                i += 1
            word = text[start:i]
            if word in _RAW_PREFIXES and i < n and text[i] == '"':
                # Raw string literal: R"delim( ... )delim".
                m = re.match(r'"([^\s()\\]{0,16})\(', text[i:])
                if m:
                    close = ")" + m.group(1) + '"'
                    j = text.find(close, i + m.end())
                    j = n if j == -1 else j + len(close)
                    seg = text[start:j]
                    tokens.append(Token("str", seg, line))
                    line += seg.count("\n")
                    i = j
                    continue
            tokens.append(Token("id", word, line))
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            # pp-number: digits, letters, dots, digit separators, exponents.
            start = i
            i += 1
            while i < n:
                ch = text[i]
                if ch in _ID_CONT or ch in ".'":
                    i += 1
                elif ch in "+-" and text[i - 1] in "eEpP":
                    i += 1
                else:
                    break
            tokens.append(Token("num", text[start:i], line))
            continue
        for p in _PUNCT3:
            if text.startswith(p, i):
                tokens.append(Token("punct", p, line))
                i += len(p)
                break
        else:
            for p in _PUNCT2:
                if text.startswith(p, i):
                    tokens.append(Token("punct", p, line))
                    i += len(p)
                    break
            else:
                tokens.append(Token("punct", c, line))
                i += 1
    return tokens


class SourceFile:
    """One lexed file plus its allow markers and significant-token view."""

    def __init__(self, path: Path, root: Path):
        self.path = path
        self.rel = path.relative_to(root).as_posix()
        self.text = path.read_text()
        self.tokens = lex(self.text)
        # Significant tokens: what the rule passes scan. Preprocessor lines
        # are kept out (R6 inspects them separately via pp_tokens).
        self.sig = [t for t in self.tokens if t.kind not in ("comment", "pp")]
        self.pp_tokens = [t for t in self.tokens if t.kind == "pp"]
        # line -> set of rule names allowed on that line.
        self.allows: dict[int, set[str]] = {}
        for t in self.tokens:
            if t.kind != "comment":
                continue
            for m in ALLOW_RE.finditer(t.text):
                self.allows.setdefault(t.line, set()).add(m.group(1))


class Violation:
    def __init__(self, rule: str, path: Path, line: int, message: str):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# ---------------------------------------------------------------------------
# Token-stream helpers


def seq_at(sig: list[Token], i: int, *texts: str) -> bool:
    """True when sig[i:] starts with exactly `texts`."""
    if i + len(texts) > len(sig):
        return False
    return all(sig[i + k].text == t for k, t in enumerate(texts))


def skip_std(sig: list[Token], i: int) -> int:
    """Returns the index past an optional `std ::` prefix at i."""
    if seq_at(sig, i, "std", "::"):
        return i + 2
    return i


def balanced_end(sig: list[Token], i: int, open_: str, close: str) -> int:
    """Index just past the token closing the group opened at sig[i]."""
    depth = 0
    j = i
    while j < len(sig):
        if sig[j].text == open_:
            depth += 1
        elif sig[j].text == close:
            depth -= 1
            if depth == 0:
                return j + 1
        j += 1
    return len(sig)


def split_args(sig: list[Token], i: int) -> tuple[list[list[Token]], int]:
    """Splits the parenthesized argument list opening at sig[i] == '(' into
    top-level comma-separated token slices. Returns (args, index past ')')."""
    assert sig[i].text == "("
    end = balanced_end(sig, i, "(", ")")
    args: list[list[Token]] = []
    cur: list[Token] = []
    depth = 0
    for t in sig[i + 1 : end - 1]:
        if t.text in "([{":
            depth += 1
        elif t.text in ")]}":
            depth -= 1
        elif t.text == "," and depth == 0:
            args.append(cur)
            cur = []
            continue
        cur.append(t)
    if cur or args:
        args.append(cur)
    return args, end


# ---------------------------------------------------------------------------
# R1: nondeterminism sources

_CHRONO_CLOCKS = {"system_clock", "steady_clock", "high_resolution_clock"}


def check_nondeterminism(files: list[SourceFile]) -> list[Violation]:
    out = []

    def hit(f: SourceFile, t: Token, why: str) -> None:
        out.append(
            Violation(
                "nondeterminism",
                f.path,
                t.line,
                f"{why}; all randomness must flow through the seeded PRNGs "
                "in common/prng.h",
            )
        )

    for f in files:
        sig = f.sig
        for i, t in enumerate(sig):
            if t.kind != "id":
                continue
            prev = sig[i - 1].text if i > 0 else ""
            member = prev in (".", "->")
            if member:
                continue  # x.time(), outbox->rand(): member calls are theirs
            if t.text in ("rand", "srand") and seq_at(sig, i + 1, "("):
                hit(f, t, f"{t.text}() (unseeded global PRNG)")
            elif t.text == "random_device":
                hit(f, t, "std::random_device (entropy source)")
            elif t.text == "time" and seq_at(sig, i + 1, "("):
                hit(f, t, "time() (wall clock)")
            elif t.text == "clock" and seq_at(sig, i + 1, "(", ")"):
                hit(f, t, "clock() (wall clock)")
            elif t.text == "gettimeofday":
                hit(f, t, "gettimeofday (wall clock)")
            elif t.text in _CHRONO_CLOCKS and seq_at(sig, i + 1, "::", "now"):
                hit(f, t, "chrono clock (wall clock)")
            elif t.text == "getpid" and seq_at(sig, i + 1, "("):
                hit(f, t, "getpid() (process-dependent value)")
            elif t.text == "getenv" and seq_at(sig, i + 1, "("):
                hit(f, t, "getenv() (environment-dependent value)")
            elif (
                t.text == "hash"
                and prev == "::"
                and i >= 2
                and sig[i - 2].text == "std"
                and seq_at(sig, i + 1, "<")
            ):
                end = balanced_end(sig, i + 1, "<", ">")
                if any(x.text == "*" for x in sig[i + 1 : end]):
                    hit(f, t, "std::hash over a pointer type (address-based "
                              "hashing)")
    return out


# ---------------------------------------------------------------------------
# R2: every message kind is handled somewhere


def _tag_enums(f: SourceFile):
    """Yields (enum_name, [(enumerator, line)], body_range) for every
    `enum class X : [sim::]MsgKind { ... }` in f."""
    sig = f.sig
    for i, t in enumerate(sig):
        if t.text != "enum" or not seq_at(sig, i, "enum", "class"):
            continue
        if i + 3 >= len(sig) or sig[i + 2].kind != "id":
            continue
        name = sig[i + 2].text
        j = i + 3
        if sig[j].text != ":":
            continue
        j = skip_std(sig, j + 1)
        if seq_at(sig, j, "sim", "::"):
            j += 2
        if j >= len(sig) or sig[j].text != "MsgKind":
            continue
        j += 1
        if j >= len(sig) or sig[j].text != "{":
            continue
        end = balanced_end(sig, j, "{", "}")
        enumerators = []
        expect = True  # next id at depth 1 is an enumerator name
        depth = 0
        for k in range(j, end):
            tk = sig[k]
            if tk.text == "{":
                depth += 1
            elif tk.text == "}":
                depth -= 1
            elif depth == 1:
                if expect and tk.kind == "id":
                    enumerators.append((tk.text, tk.line, k))
                    expect = False
                elif tk.text == ",":
                    expect = True
        yield name, enumerators, (j, end)


def _constexpr_kinds(f: SourceFile):
    """Yields (name, line, value_index) for `constexpr [sim::]MsgKind k = v`."""
    sig = f.sig
    for i, t in enumerate(sig):
        if t.text != "constexpr":
            continue
        j = i + 1
        if seq_at(sig, j, "sim", "::"):
            j += 2
        if not seq_at(sig, j, "MsgKind"):
            continue
        j += 1
        if j + 1 < len(sig) and sig[j].kind == "id" and sig[j + 1].text == "=":
            yield sig[j].text, sig[j].line, j + 2


def check_msgkind_exhaustive(files: list[SourceFile]) -> list[Violation]:
    out = []
    for f in files:
        sig = f.sig

        # File-local constexpr MsgKind constants: must be referenced in the
        # same translation unit outside their definition line.
        for name, line, _ in _constexpr_kinds(f):
            refs = sum(
                1
                for t in sig
                if t.kind == "id" and t.text == name and t.line != line
            )
            if refs == 0:
                out.append(
                    Violation(
                        "msgkind",
                        f.path,
                        line,
                        f"message kind {name} is declared but never handled "
                        "at any dispatch site in this file",
                    )
                )

        # enum class Tag : sim::MsgKind enumerators: must be referenced as
        # Enum::kName somewhere in the same protocol directory (outside the
        # enum body itself).
        for enum_name, enumerators, (body_lo, body_hi) in _tag_enums(f):
            proto_dir = f.path.parent
            body_ids = set(range(body_lo, body_hi))
            for name, line, decl_idx in enumerators:
                refs = 0
                for other in files:
                    if other.path.parent != proto_dir:
                        continue
                    osig = other.sig
                    for k, tk in enumerate(osig):
                        if tk.text != name or tk.kind != "id":
                            continue
                        if other is f and k in body_ids:
                            continue
                        if k >= 2 and osig[k - 1].text == "::" and \
                                osig[k - 2].text == enum_name:
                            refs += 1
                if refs == 0:
                    out.append(
                        Violation(
                            "msgkind",
                            f.path,
                            line,
                            f"{enum_name}::{name} is declared but never "
                            f"handled at any dispatch site under "
                            f"{proto_dir.name}/ — a switch over {enum_name} "
                            "is silently dropping this message kind",
                        )
                    )
    return out


# ---------------------------------------------------------------------------
# R3: wire-size accounting uses 64-bit types

_NARROW_TYPES = {
    "uint8_t", "uint16_t", "uint32_t", "int8_t", "int16_t", "int32_t",
    "unsigned", "int", "short",
}
_BITSY = re.compile(r"[Bb]its")


def check_bits_width(files: list[SourceFile]) -> list[Violation]:
    out = []
    for f in files:
        sig = f.sig
        narrow: dict[str, int] = {}
        for i, t in enumerate(sig):
            if t.kind != "id" or t.text not in _NARROW_TYPES:
                continue
            j = i + 1
            if t.text == "unsigned" and j < len(sig) and \
                    sig[j].text in ("short", "int"):
                j += 1
            if j >= len(sig) or sig[j].kind != "id":
                continue
            name = sig[j].text
            if not _BITSY.search(name):
                continue
            if j + 1 < len(sig) and sig[j + 1].text in ("=", ";", "{"):
                narrow[name] = t.line
        if not narrow:
            continue
        for i, t in enumerate(sig):
            if t.kind != "id" or t.text not in narrow:
                continue
            if seq_at(sig, i + 1, "+=") or seq_at(sig, i + 1, "-="):
                out.append(
                    Violation(
                        "bits-width",
                        f.path,
                        t.line,
                        f"accumulating into '{t.text}' declared with a "
                        f"<64-bit type at line {narrow[t.text]}; wire-size "
                        "totals must use std::uint64_t (a quadratic "
                        "baseline overflows 32 bits)",
                    )
                )
    return out


# ---------------------------------------------------------------------------
# R4: no iteration over unordered containers


def check_unordered_iteration(files: list[SourceFile]) -> list[Violation]:
    out = []
    for f in files:
        sig = f.sig
        names: set[str] = set()
        for i, t in enumerate(sig):
            if t.kind != "id" or not t.text.startswith("unordered_"):
                continue
            if i < 2 or sig[i - 1].text != "::" or sig[i - 2].text != "std":
                continue
            if not seq_at(sig, i + 1, "<"):
                continue
            end = balanced_end(sig, i + 1, "<", ">")
            if end < len(sig) and sig[end].kind == "id" and \
                    end + 1 < len(sig) and sig[end + 1].text in (";", "{", "="):
                names.add(sig[end].text)
        if not names:
            continue
        for i, t in enumerate(sig):
            if t.kind != "id" or t.text not in names:
                continue
            hit = False
            # Explicit iterators: name.begin( / name.cbegin(.
            if seq_at(sig, i + 1, ".", "begin", "(") or \
                    seq_at(sig, i + 1, ".", "cbegin", "("):
                hit = True
            # Range-for: `for ( ... : name )` with name right after the ':'.
            if i >= 1 and sig[i - 1].text == ":":
                j = i - 2
                depth = 0
                while j >= 0:
                    if sig[j].text == ")":
                        depth += 1
                    elif sig[j].text == "(":
                        if depth == 0:
                            break
                        depth -= 1
                    elif sig[j].text == ";" and depth == 0:
                        j = -1  # classic for loop, not a range-for
                        break
                    j -= 1
                if j >= 1 and sig[j - 1].text == "for":
                    hit = True
            if hit:
                out.append(
                    Violation(
                        "unordered-iteration",
                        f.path,
                        t.line,
                        f"iterating unordered container '{t.text}': its "
                        "order is address-dependent and would leak "
                        "nondeterminism into traces/messages; use an "
                        "ordered container or add "
                        "// lint:allow(unordered-iteration) with a "
                        "justification",
                    )
                )
    return out


# ---------------------------------------------------------------------------
# R6: no threading primitives in the simulator

_THREAD_HEADER_RE = re.compile(
    r"#\s*include\s*<(thread|mutex|shared_mutex|condition_variable|"
    r"future|stop_token|semaphore|barrier|latch|atomic)>"
)
_THREAD_PRIMS = {
    "thread", "jthread", "mutex", "recursive_mutex", "shared_mutex",
    "timed_mutex", "condition_variable", "future", "promise", "async",
    "lock_guard", "unique_lock", "scoped_lock", "shared_lock",
    "counting_semaphore", "binary_semaphore", "barrier", "latch",
    "call_once", "once_flag",
}


# The one place under src/ where threading primitives are sanctioned: the
# shard-parallel worker pool. Its fork/join discipline (serial merge in
# fixed shard order) is what keeps the rest of src/ entitled to assume
# deterministic, effectively single-threaded execution.
THREADING_ALLOWED_PREFIX = "sim/parallel/"


def check_threading(files: list[SourceFile]) -> list[Violation]:
    out = []

    def hit(f: SourceFile, line: int, why: str) -> None:
        out.append(
            Violation(
                "threading",
                f.path,
                line,
                f"{why} in simulator code; src/ is deterministic and "
                "single-threaded outside the sanctioned worker pool — "
                "parallelism belongs in src/sim/parallel/ only",
            )
        )

    for f in files:
        if f.rel.startswith(THREADING_ALLOWED_PREFIX):
            continue
        for t in f.pp_tokens:
            if _THREAD_HEADER_RE.search(t.text):
                hit(f, t.line, "threading/atomics header")
        sig = f.sig
        for i, t in enumerate(sig):
            if t.kind != "id":
                continue
            if i < 2 or sig[i - 1].text != "::" or sig[i - 2].text != "std":
                continue
            if t.text in _THREAD_PRIMS or t.text.startswith("atomic"):
                hit(f, t.line, "threading/atomics primitive")
    return out


# ---------------------------------------------------------------------------
# R7: protocol code must not evaluate fingerprints over the dense id space

DENSE_SCAN_DIRS = {"byzantine", "crash"}


def check_dense_of_range(files: list[SourceFile]) -> list[Violation]:
    out = []
    for f in files:
        if f.path.parent.name not in DENSE_SCAN_DIRS:
            continue
        sig = f.sig
        for i, t in enumerate(sig):
            if t.text == "of_range" and i >= 1 and sig[i - 1].text == "." \
                    and seq_at(sig, i + 1, "("):
                out.append(
                    Violation(
                        "dense-of-range",
                        f.path,
                        t.line,
                        "of_range scans a dense BitVec over the identity "
                        "space; protocol code must use IdentityList's "
                        "incremental summaries (summarize/rank/ids_in) "
                        "instead — of_range is for tests and cross-checks "
                        "only",
                    )
                )
    return out


# ---------------------------------------------------------------------------
# R8: no raw terminal output in library code

_STREAMS = {"cout", "cerr", "clog"}
# Exact-token matching keeps snprintf/vsnprintf (format-into-buffer) legal.
_STDIO_CALLS = {
    "printf", "fprintf", "vprintf", "vfprintf", "puts", "fputs", "putchar",
    "fputc",
}


def check_raw_output(files: list[SourceFile]) -> list[Violation]:
    out = []

    def hit(f: SourceFile, line: int, why: str) -> None:
        out.append(
            Violation(
                "raw-output",
                f.path,
                line,
                f"{why} in library code; report through "
                "TraceSink/RunStats/obs::Telemetry, a caller-supplied "
                "std::ostream, or a returned explanation string like "
                "obs/doctor.h (docs/OBSERVABILITY.md) — terminal output "
                "belongs to examples/, tools/ and bench/ outside src/",
            )
        )

    for f in files:
        sig = f.sig
        for i, t in enumerate(sig):
            if t.kind != "id":
                continue
            if t.text in _STREAMS and i >= 2 and sig[i - 1].text == "::" \
                    and sig[i - 2].text == "std":
                hit(f, t.line, "raw std::cout/cerr/clog stream")
            elif t.text in _STDIO_CALLS and seq_at(sig, i + 1, "(") and \
                    (i == 0 or sig[i - 1].text not in (".", "->")):
                hit(f, t.line, "stdio output call")
    return out


# ---------------------------------------------------------------------------
# R9: declared message widths flow from sim/wire_schema.h

# Identifiers that prove a width expression derives from the schema.
_SCHEMA_SOURCES = {
    "wire_bits", "make_blob_message",
    "kForgedNewProbeBits", "kSpoofProbeBits",
}
# Files that ARE the schema layer: the table itself and the raw Message
# builder it wraps. Their internals define the widths everyone else derives.
_SCHEMA_LAYER = {"sim/wire_schema.h", "sim/message.h"}


def _width_initializers(f: SourceFile, name: str):
    """Yields (line, tokens) for every in-file initializer of `name`:
    `name = expr;`, `name(expr)` / `name{expr}` (ctor-init or brace init),
    and `name() [const] { body }` (width helper function definitions)."""
    sig = f.sig
    for i, t in enumerate(sig):
        if t.kind != "id" or t.text != name or i + 1 >= len(sig):
            continue
        nxt = sig[i + 1].text
        if nxt == "=" and not seq_at(sig, i + 1, "=="):
            j = i + 2
            depth = 0
            start = j
            while j < len(sig):
                if sig[j].text in "([{":
                    depth += 1
                elif sig[j].text in ")]}":
                    depth -= 1
                elif sig[j].text in (";", ",") and depth <= 0:
                    break
                j += 1
            yield t.line, sig[start:j]
        elif nxt in ("(", "{"):
            close = ")" if nxt == "(" else "}"
            end = balanced_end(sig, i + 1, nxt, close)
            inner = sig[i + 2 : end - 1]
            if inner:
                yield t.line, inner
            elif nxt == "(":
                # Possible width-helper definition: name() [const] { body }.
                j = end
                if j < len(sig) and sig[j].text == "const":
                    j += 1
                if j < len(sig) and sig[j].text == "{":
                    yield t.line, sig[j : balanced_end(sig, j, "{", "}")]


def _check_width_expr(f: SourceFile, arg: list[Token], call_line: int,
                      out: list[Violation], seen: set[str]) -> None:
    """Flags numeric literals in a bits-argument expression, then traces any
    width-named identifiers it references to their in-file initializers."""
    for t in arg:
        if t.kind == "num":
            out.append(
                Violation(
                    "wire-schema",
                    f.path,
                    t.line,
                    f"raw bit-width literal '{t.text}' in a message-width "
                    "argument; widths must flow from sim/wire_schema.h "
                    "(wire_bits(), wire::make_message, or a named probe "
                    "constant)",
                )
            )
    texts = {t.text for t in arg if t.kind == "id"}
    if texts & _SCHEMA_SOURCES:
        return  # directly schema-derived
    for i, t in enumerate(arg):
        if t.kind != "id" or not _BITSY.search(t.text):
            continue
        if i >= 1 and arg[i - 1].text in (".", "->", "::"):
            continue  # member of another object; checked where it is set
        if t.text in seen:
            continue
        seen.add(t.text)
        for line, init in _width_initializers(f, t.text):
            if {x.text for x in init if x.kind == "id"} & _SCHEMA_SOURCES:
                continue
            for x in init:
                if x.kind == "num":
                    out.append(
                        Violation(
                            "wire-schema",
                            f.path,
                            line,
                            f"width '{t.text}' (used as a message-width "
                            f"argument at line {call_line}) is initialized "
                            f"from a raw literal '{x.text}' instead of "
                            "sim/wire_schema.h",
                        )
                    )


def check_wire_schema(files: list[SourceFile]) -> list[Violation]:
    out: list[Violation] = []
    for f in files:
        if f.rel in _SCHEMA_LAYER:
            continue
        sig = f.sig
        seen: set[str] = set()
        for i, t in enumerate(sig):
            if t.kind != "id" or not seq_at(sig, i + 1, "("):
                continue
            # A call site is never directly preceded by a plain identifier
            # or '>' — that shape is a declaration (`void note_messages(`,
            # `Message make_message(`) or a template one.
            if i >= 1 and (sig[i - 1].kind == "id" or sig[i - 1].text == ">"):
                continue
            if t.text == "make_message":
                # wire::make_message derives its width from the schema.
                if i >= 2 and sig[i - 1].text == "::" and \
                        sig[i - 2].text == "wire":
                    continue
                args, _ = split_args(sig, i + 1)
                if len(args) >= 2:
                    _check_width_expr(f, args[1], t.line, out, seen)
            elif t.text == "note_messages":
                # RunStats(count, bits) / Telemetry(kind, count, bits):
                # the width is the last argument either way.
                args, _ = split_args(sig, i + 1)
                if len(args) >= 2:
                    _check_width_expr(f, args[-1], t.line, out, seen)
    return out


# ---------------------------------------------------------------------------
# R11: every message-kind table row has a dispatch declaration

_SCHEMA_FILE = "sim/wire_schema.h"


def _int_literal(text: str) -> int | None:
    try:
        return int(text.rstrip("uUlL"), 0)
    except ValueError:
        return None


def _table_kinds(f: SourceFile, table: str) -> dict[int, int]:
    """First number of each top-level {...} entry of `table` (the kind)."""
    sig = f.sig
    for i, t in enumerate(sig):
        if t.text != table:
            continue
        j = i + 1
        while j < len(sig) and sig[j].text != "{":
            if sig[j].text == ";":
                break
            j += 1
        if j >= len(sig) or sig[j].text != "{":
            continue
        end = balanced_end(sig, j, "{", "}")
        kinds = {}
        k = j + 1
        while k < end - 1:
            if sig[k].text == "{":
                entry_end = balanced_end(sig, k, "{", "}")
                for tk in sig[k + 1 : entry_end]:
                    if tk.kind == "num":
                        v = _int_literal(tk.text)
                        if v is not None:
                            kinds[v] = tk.line
                        break
                k = entry_end
            else:
                k += 1
        return kinds
    return {}


def _declared_kinds(files: list[SourceFile]) -> dict[int, str]:
    """All kind values declared by a Tag enumerator or constexpr MsgKind."""
    declared: dict[int, str] = {}
    for f in files:
        sig = f.sig
        for _, enumerators, (lo, hi) in _tag_enums(f):
            for name, _, decl_idx in enumerators:
                if decl_idx + 2 < len(sig) and \
                        sig[decl_idx + 1].text == "=" and \
                        sig[decl_idx + 2].kind == "num":
                    v = _int_literal(sig[decl_idx + 2].text)
                    if v is not None:
                        declared.setdefault(v, f"{f.rel} ({name})")
        for name, _, val_idx in _constexpr_kinds(f):
            if val_idx < len(sig) and sig[val_idx].kind == "num":
                v = _int_literal(sig[val_idx].text)
                if v is not None:
                    declared.setdefault(v, f"{f.rel} ({name})")
    return declared


def check_kind_coverage(files: list[SourceFile]) -> list[Violation]:
    schema_file = next((f for f in files if f.rel == _SCHEMA_FILE), None)
    if schema_file is None:
        return []  # nothing to pin against (fixture trees without a table)
    rows = _table_kinds(schema_file, "kWireSchemas")
    declared = _declared_kinds(files)
    return [
        Violation(
            "kind-coverage",
            schema_file.path,
            line,
            f"message-kind table row for kind {kind} has no dispatch "
            "declaration anywhere under src/ (expected an `enum class ... : "
            "sim::MsgKind` enumerator or a `constexpr sim::MsgKind`)",
        )
        for kind, line in sorted(rows.items())
        if kind not in declared
    ]


# ---------------------------------------------------------------------------
# R12: the engine round loop never allocates full-width structures

_ENGINE_FILE = "sim/engine.cc"
_ALLOC_MEMBERS = {"reserve", "resize", "assign"}
_SETUP_BEGIN = "lint:engine-setup-begin"
_SETUP_END = "lint:engine-setup-end"
_CONTAINERS = {"vector", "deque", "valarray", "basic_string", "string"}


def _mentions_node_count(tokens: list[Token]) -> bool:
    """True when a size expression references the bare node count `n`
    (member accesses like order.n and qualified names are someone else's
    count and do not pin this file's full width)."""
    for i, t in enumerate(tokens):
        if t.kind != "id" or t.text != "n":
            continue
        if i >= 1 and tokens[i - 1].text in (".", "->", "::"):
            continue
        return True
    return False


def check_full_width_alloc(files: list[SourceFile]) -> list[Violation]:
    out = []
    for f in files:
        if f.rel != _ENGINE_FILE:
            continue
        # The sanctioned setup section(s): marker comments pair up in file
        # order. An unmatched begin extends to end-of-file (still bounded:
        # the closing marker's absence shows up as every later allocation
        # quietly passing, so require the pair to be complete).
        begins = [t.line for t in f.tokens
                  if t.kind == "comment" and _SETUP_BEGIN in t.text]
        ends = [t.line for t in f.tokens
                if t.kind == "comment" and _SETUP_END in t.text]
        ranges = list(zip(begins, ends))

        def in_setup(line: int) -> bool:
            return any(lo <= line <= hi for lo, hi in ranges)

        def hit(line: int, what: str) -> None:
            out.append(
                Violation(
                    "full-width-alloc",
                    f.path,
                    line,
                    f"{what} sized by the node count outside the "
                    "lint:engine-setup markers; the steady-state round "
                    "loop must stay O(active) — move the allocation into "
                    "the setup section or size it by the active set "
                    "(docs/PERFORMANCE.md \"Million-node mode\")",
                )
            )

        sig = f.sig
        for i, t in enumerate(sig):
            if t.kind != "id":
                continue
            if t.text in _ALLOC_MEMBERS and i >= 1 and \
                    sig[i - 1].text in (".", "->") and seq_at(sig, i + 1, "("):
                args, _ = split_args(sig, i + 1)
                if args and _mentions_node_count(args[0]) and \
                        not in_setup(t.line):
                    hit(t.line, f".{t.text}()")
            elif t.text in _CONTAINERS and seq_at(sig, i + 1, "<"):
                end = balanced_end(sig, i + 1, "<", ">")
                j = end
                if j < len(sig) and sig[j].kind == "id" and \
                        j + 1 < len(sig) and sig[j + 1].text in ("(", "{"):
                    open_ = sig[j + 1].text
                    close = ")" if open_ == "(" else "}"
                    body_end = balanced_end(sig, j + 1, open_, close)
                    if _mentions_node_count(sig[j + 2 : body_end - 1]) and \
                            not in_setup(t.line):
                        hit(t.line, f"{t.text} construction")
    return out


# ---------------------------------------------------------------------------
# R13: wall-clock hygiene — raw clocks live in the obs layer only

_WALLCLOCK_HEADER_RE = re.compile(r"#\s*include\s*<(chrono|ctime|sys/time\.h)>")
_WALLCLOCK_CALLS = {"clock_gettime", "timespec_get"}

# The sanctioned owner of wall time: the observability layer, whose output
# (telemetry, progress heartbeat, shard profile) is the contract's
# nondeterministic surface. Everything else under src/ measures through
# obs::now_ns().
WALLCLOCK_ALLOWED_PREFIX = "obs/"


def check_wall_clock(files: list[SourceFile]) -> list[Violation]:
    out = []

    def hit(f: SourceFile, line: int, why: str) -> None:
        out.append(
            Violation(
                "wall-clock",
                f.path,
                line,
                f"{why} outside src/obs/; wall time is owned by the obs "
                "layer — measure through obs::now_ns() (obs/telemetry.h) "
                "and keep the reading out of traces, journals and "
                "RunStats (docs/OBSERVABILITY.md)",
            )
        )

    for f in files:
        if f.rel.startswith(WALLCLOCK_ALLOWED_PREFIX):
            continue
        for t in f.pp_tokens:
            m = _WALLCLOCK_HEADER_RE.search(t.text)
            if m:
                hit(f, t.line, f"#include <{m.group(1)}>")
        sig = f.sig
        for i, t in enumerate(sig):
            if t.kind != "id":
                continue
            prev = sig[i - 1].text if i > 0 else ""
            if t.text == "chrono" and (seq_at(sig, i + 1, "::")
                                       or (prev == "::" and i >= 2
                                           and sig[i - 2].text == "std")):
                hit(f, t.line, "std::chrono usage")
            elif t.text in _WALLCLOCK_CALLS and seq_at(sig, i + 1, "(") \
                    and prev not in (".", "->"):
                hit(f, t.line, f"{t.text}() (raw OS clock)")
    return out


# ---------------------------------------------------------------------------
# R15: one binary codec — byte-level stream I/O in src/obs/ lives in binio.h

_BINIO_FILE = "obs/binio.h"
_CODEC_HELPER_RE = re.compile(r"^(put|get)_(bytes|[ui](8|16|32|64))$")
_STREAM_TYPES = {
    "istream", "ostream", "iostream", "ifstream", "ofstream", "fstream",
    "istringstream", "ostringstream", "stringstream",
}
_BYTE_IO_MEMBERS = {"put", "get", "read", "write", "gcount"}


def _stream_names(sig: list[Token]) -> set[str]:
    """Names declared with a stream type: `std::istream& in`,
    `std::ofstream out(path)`, `std::ostream* sink`."""
    names = set()
    for i, t in enumerate(sig):
        if t.text not in _STREAM_TYPES:
            continue
        j = i + 1
        while j < len(sig) and sig[j].text in ("&", "&&", "*", "const"):
            j += 1
        if j < len(sig) and sig[j].kind == "id":
            names.add(sig[j].text)
    return names


def check_binary_io(files: list[SourceFile]) -> list[Violation]:
    out = []

    def hit(f: SourceFile, line: int, what: str) -> None:
        out.append(
            Violation(
                "binary-io",
                f.path,
                line,
                f"{what} in src/obs/ outside {_BINIO_FILE}; artifact bytes "
                "go through binio::Writer/Reader, the one codec "
                "(docs/OBSERVABILITY.md \"Binary artifacts\")",
            )
        )

    for f in files:
        if not f.rel.startswith("obs/") or f.rel == _BINIO_FILE:
            continue
        sig = f.sig
        streams = _stream_names(sig)
        for i, t in enumerate(sig):
            if t.kind != "id" or not seq_at(sig, i + 1, "("):
                continue
            if _CODEC_HELPER_RE.match(t.text):
                hit(f, t.line, f"{t.text}() codec helper")
            elif t.text in _BYTE_IO_MEMBERS and i >= 2 and \
                    sig[i - 1].text in (".", "->") and \
                    sig[i - 2].text in streams:
                hit(f, t.line,
                    f"{sig[i - 2].text}{sig[i - 1].text}{t.text}() byte I/O")
    return out


# ---------------------------------------------------------------------------
# R16: one observer lifecycle — run-info labelling lives in sim/observers.h
# (and the obs layer that defines it)

_OBSERVERS_FILE = "sim/observers.h"


def check_run_info(files: list[SourceFile]) -> list[Violation]:
    out = []
    for f in files:
        if f.rel.startswith("obs/") or f.rel == _OBSERVERS_FILE:
            continue
        sig = f.sig
        for i, t in enumerate(sig):
            if t.kind != "id" or t.text != "set_run_info" or \
                    not seq_at(sig, i + 1, "("):
                continue
            out.append(
                Violation(
                    "run-info",
                    f.path,
                    t.line,
                    f"set_run_info() call outside {_OBSERVERS_FILE}; attach "
                    "observers through sim::Observers, whose begin() labels "
                    "the run (docs/OBSERVABILITY.md \"Attaching observers\")",
                )
            )
    return out


# ---------------------------------------------------------------------------
# R5: headers are self-contained (with a content-hash cache)

_INCLUDE_RE = re.compile(r'#\s*include\s*"([^"]+)"')


def _include_closure(files_by_rel: dict[str, SourceFile], rel: str,
                     seen: set[str]) -> None:
    if rel in seen:
        return
    seen.add(rel)
    f = files_by_rel.get(rel)
    if f is None:
        return
    for t in f.pp_tokens:
        m = _INCLUDE_RE.search(t.text)
        if m:
            _include_closure(files_by_rel, m.group(1), seen)


def _lint_engine_hash() -> str:
    """Content hash of this script itself. Mixed into every cache key so a
    rule-set or engine change invalidates stale verdicts instead of letting
    the cache keep vouching for headers a newer rule would reject."""
    cached = getattr(_lint_engine_hash, "_memo", None)
    if cached is None:
        try:
            cached = hashlib.sha256(Path(__file__).read_bytes()).hexdigest()
        except OSError:
            cached = "unreadable-lint-engine"
        _lint_engine_hash._memo = cached
    return cached


def _header_fingerprint(files_by_rel: dict[str, SourceFile], rel: str,
                        compiler: str) -> str:
    """Content hash over the header and its transitive repo includes, the
    compiler identity, and the lint engine's own content hash — any change
    to any of them re-triggers the syntax-only check."""
    closure: set[str] = set()
    _include_closure(files_by_rel, rel, closure)
    h = hashlib.sha256()
    h.update(compiler.encode())
    h.update(_lint_engine_hash().encode())
    for dep in sorted(closure):
        f = files_by_rel.get(dep)
        if f is not None:
            h.update(dep.encode())
            h.update(f.text.encode())
    return h.hexdigest()


def check_header_hygiene(files: list[SourceFile], src: Path, compiler: str,
                         cache_path: Path | None) -> list[Violation]:
    if shutil.which(compiler) is None:
        print(
            f"protocol_lint: warning: '{compiler}' not found; "
            "skipping header self-containment checks",
            file=sys.stderr,
        )
        return []
    files_by_rel = {f.rel: f for f in files}
    headers = sorted(
        (f for f in files if f.path.suffix == ".h"), key=lambda f: f.rel
    )

    cache: dict[str, str] = {}
    if cache_path is not None and cache_path.is_file():
        try:
            cache = json.loads(cache_path.read_text())
        except (json.JSONDecodeError, OSError):
            cache = {}

    violations = []
    fresh: dict[str, str] = {}
    with tempfile.TemporaryDirectory(prefix="protocol_lint_") as tmp:
        tu = Path(tmp) / "tu.cc"
        for header in headers:
            fp = _header_fingerprint(files_by_rel, header.rel, compiler)
            if cache.get(header.rel) == fp:
                fresh[header.rel] = fp  # clean last time, unchanged since
                continue
            tu.write_text(f'#include "{header.rel}"\nint main() '
                          "{ return 0; }\n")
            proc = subprocess.run(
                [compiler, "-std=c++20", "-fsyntax-only", "-Wall", "-Wextra",
                 f"-I{src}", str(tu)],
                capture_output=True,
                text=True,
            )
            if proc.returncode != 0:
                first = proc.stderr.strip().splitlines()
                detail = first[0] if first else "compilation failed"
                violations.append(
                    Violation(
                        "header-hygiene",
                        header.path,
                        1,
                        f"header is not self-contained: {detail}",
                    )
                )
            else:
                fresh[header.rel] = fp  # only clean results are memoized
    if cache_path is not None:
        try:
            cache_path.parent.mkdir(parents=True, exist_ok=True)
            cache_path.write_text(json.dumps(fresh, indent=1, sort_keys=True))
        except OSError as e:
            print(f"protocol_lint: warning: cannot write cache: {e}",
                  file=sys.stderr)
    return violations


# ---------------------------------------------------------------------------
# Engine: run rule passes, apply suppressions, report stale markers (R10)

RULES = (
    "nondeterminism",
    "msgkind",
    "bits-width",
    "unordered-iteration",
    "header-hygiene",
    "threading",
    "dense-of-range",
    "raw-output",
    "wire-schema",
    "stale-allow",
    "kind-coverage",
    "full-width-alloc",
    "wall-clock",
    "binary-io",
    "run-info",
)


def run_rules(files: list[SourceFile], src: Path, selected: list[str],
              compiler: str, cache_path: Path | None):
    """Returns (violations, suppressed) after marker filtering + R10."""
    raw: list[Violation] = []
    if "nondeterminism" in selected:
        raw += check_nondeterminism(files)
    if "msgkind" in selected:
        raw += check_msgkind_exhaustive(files)
    if "bits-width" in selected:
        raw += check_bits_width(files)
    if "unordered-iteration" in selected:
        raw += check_unordered_iteration(files)
    if "threading" in selected:
        raw += check_threading(files)
    if "dense-of-range" in selected:
        raw += check_dense_of_range(files)
    if "raw-output" in selected:
        raw += check_raw_output(files)
    if "wire-schema" in selected:
        raw += check_wire_schema(files)
    if "kind-coverage" in selected:
        raw += check_kind_coverage(files)
    if "full-width-alloc" in selected:
        raw += check_full_width_alloc(files)
    if "wall-clock" in selected:
        raw += check_wall_clock(files)
    if "binary-io" in selected:
        raw += check_binary_io(files)
    if "run-info" in selected:
        raw += check_run_info(files)
    if "header-hygiene" in selected:
        raw += check_header_hygiene(files, src, compiler, cache_path)

    files_by_path = {f.path: f for f in files}
    violations: list[Violation] = []
    suppressed: list[Violation] = []
    used: set[tuple[Path, int, str]] = set()
    for v in raw:
        f = files_by_path.get(v.path)
        if f is not None and v.rule in f.allows.get(v.line, ()):
            used.add((v.path, v.line, v.rule))
            suppressed.append(v)
        else:
            violations.append(v)

    # R10: a marker that suppressed nothing is itself a finding. Markers for
    # rules outside the selected set are skipped (a partial run cannot judge
    # them); markers naming no known rule are always errors.
    if "stale-allow" in selected:
        for f in files:
            for line, rules in sorted(f.allows.items()):
                for rule in sorted(rules):
                    if rule not in SUPPRESSIBLE:
                        violations.append(
                            Violation(
                                "stale-allow",
                                f.path,
                                line,
                                f"lint:allow({rule}) names an unknown or "
                                "non-suppressible rule",
                            )
                        )
                    elif rule in selected and \
                            (f.path, line, rule) not in used:
                        violations.append(
                            Violation(
                                "stale-allow",
                                f.path,
                                line,
                                f"lint:allow({rule}) suppresses nothing — "
                                "stale markers hide the next real finding "
                                "on this line; remove it",
                            )
                        )

    violations.sort(key=lambda v: (str(v.path), v.line, v.rule))
    return violations, suppressed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        type=Path,
        default=Path(__file__).resolve().parent.parent,
        help="repository root (default: parent of scripts/)",
    )
    parser.add_argument(
        "--rules",
        default="all",
        help="comma-separated rule subset: " + ",".join(RULES)
        + " (default: all)",
    )
    parser.add_argument(
        "--compiler",
        default="g++",
        help="compiler used for the header self-containment smoke test",
    )
    parser.add_argument(
        "--report",
        type=Path,
        default=None,
        help="write a JSON report (violations + suppressions) to this path",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the header-hygiene content-hash cache",
    )
    parser.add_argument(
        "--cache",
        type=Path,
        default=None,
        help="header-hygiene cache file "
        "(default: <root>/build/.protocol_lint_cache.json)",
    )
    args = parser.parse_args()

    src = args.root / "src"
    if not src.is_dir():
        print(f"protocol_lint: error: {src} is not a directory",
              file=sys.stderr)
        return 2

    if args.rules == "all":
        selected = list(RULES)
    else:
        selected = [r.strip() for r in args.rules.split(",") if r.strip()]
        unknown = [r for r in selected if r not in RULES]
        if unknown:
            print(
                f"protocol_lint: error: unknown rule(s) {', '.join(unknown)}",
                file=sys.stderr,
            )
            return 2

    cache_path = None
    if not args.no_cache:
        cache_path = args.cache or (
            args.root / "build" / ".protocol_lint_cache.json"
        )

    files = [SourceFile(p, src) for p in sorted(src.rglob("*"))
             if p.suffix in SOURCE_SUFFIXES and p.is_file()]

    violations, suppressed = run_rules(files, src, selected, args.compiler,
                                       cache_path)

    for v in violations:
        print(v)

    if args.report is not None:
        def as_dict(v: Violation) -> dict:
            return {
                "rule": v.rule,
                "path": str(v.path),
                "line": v.line,
                "message": v.message,
            }

        report = {
            "ok": not violations,
            "rules": selected,
            "files_scanned": len(files),
            "violations": [as_dict(v) for v in violations],
            "suppressed": [as_dict(v) for v in suppressed],
        }
        args.report.parent.mkdir(parents=True, exist_ok=True)
        args.report.write_text(json.dumps(report, indent=1) + "\n")

    if violations:
        print(f"protocol_lint: {len(violations)} violation(s)",
              file=sys.stderr)
        return 1
    print(f"protocol_lint: OK ({', '.join(selected)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
