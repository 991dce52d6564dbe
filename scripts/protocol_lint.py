#!/usr/bin/env python3
"""Protocol lint: repo-specific static checks no generic linter knows about.

The simulator's claims (EXPERIMENTS.md, the theorem checks in tests/) are
only meaningful if the codebase upholds a handful of protocol-level
conventions. This engine tokenizes every file under src/ with a small C++
lexer (comments, strings, raw strings, char literals and preprocessor
lines are isolated as single tokens) and runs per-rule passes over the
token streams, so string contents and comments can never produce findings
and suppression markers are tracked precisely per (line, rule).

Five former rules are compile-time facts now and have no pass here
(docs/TOOLING.md "Compile-time facts"): R5 header hygiene (one generated
TU per src/ header in the build), R7 dense of_range (test-only header),
R9 wire widths (sim::WireBits), R11 kind coverage (kWireSchemas rows are
keyed by sim::wire::Kind) and R16 run info (set_run_info is private to
sim::Observers). Their numbers stay retired.

  R1  nondeterminism  Executions must be pure functions of the seed. All
                      randomness flows through the seeded PRNGs in
                      common/prng.h / hashing/shared_random.h; wall-clock
                      time, rand(), std::random_device, pid/env lookups and
                      address-based hashing are banned in src/.
  R2  msgkind         Every sim::wire::Kind enumerator (sim/wire_schema.h,
                      the one declaration of each message kind) must be
                      named as Kind::<enumerator> in some other file under
                      src/. A kind that is declared but never sent or
                      handled is a row no protocol speaks.
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
  R10 stale-allow     A // lint:allow(<rule>) marker that suppresses
                      nothing is itself an error: stale markers hide the
                      next real finding on that line. Markers naming an
                      unknown rule are reported too (typo protection).
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

Findings can be suppressed per line with `// lint:allow(<rule>)` where
<rule> is one of: nondeterminism, msgkind, bits-width,
unordered-iteration, threading, raw-output, full-width-alloc, wall-clock.
Suppressions are tracked: a marker that matches no finding fails R10.

Exit status: 0 if clean, 1 if any violation, 2 on usage error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
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
    "raw-output",
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
# R2: every message kind is named outside its declaration

_KIND_FILE = "sim/wire_schema.h"


def _kind_enumerators(f: SourceFile) -> list[tuple[str, int]]:
    """(name, line) of each enumerator of `enum class Kind : ... { }`."""
    sig = f.sig
    for i in range(len(sig) - 3):
        if not seq_at(sig, i, "enum", "class", "Kind", ":"):
            continue
        j = i + 4
        while j < len(sig) and sig[j].text != "{":
            j += 1
        end = balanced_end(sig, j, "{", "}")
        out, expect = [], True
        for tk in sig[j + 1 : end - 1]:
            if expect and tk.kind == "id":
                out.append((tk.text, tk.line))
                expect = False
            elif tk.text == ",":
                expect = True
        return out
    return []


def check_msgkind_exhaustive(files: list[SourceFile]) -> list[Violation]:
    decl = next((f for f in files if f.rel == _KIND_FILE), None)
    if decl is None:
        return []
    named: set[str] = set()
    for f in files:
        if f is decl:
            continue
        sig = f.sig
        for k in range(2, len(sig)):
            if sig[k - 1].text == "::" and sig[k - 2].text == "Kind":
                named.add(sig[k].text)
    return [
        Violation(
            "msgkind",
            decl.path,
            line,
            f"Kind::{name} is declared but never named outside "
            f"{_KIND_FILE}: no protocol sends or handles this kind",
        )
        for name, line in _kind_enumerators(decl)
        if name not in named
    ]


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
# Engine: run rule passes, apply suppressions, report stale markers (R10)

RULES = (
    "nondeterminism",
    "msgkind",
    "bits-width",
    "unordered-iteration",
    "threading",
    "raw-output",
    "stale-allow",
    "full-width-alloc",
    "wall-clock",
    "binary-io",
)


def run_rules(files: list[SourceFile], selected: list[str]):
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
    if "raw-output" in selected:
        raw += check_raw_output(files)
    if "full-width-alloc" in selected:
        raw += check_full_width_alloc(files)
    if "wall-clock" in selected:
        raw += check_wall_clock(files)
    if "binary-io" in selected:
        raw += check_binary_io(files)

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
        "--report",
        type=Path,
        default=None,
        help="write a JSON report (violations + suppressions) to this path",
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

    files = [SourceFile(p, src) for p in sorted(src.rglob("*"))
             if p.suffix in SOURCE_SUFFIXES and p.is_file()]

    violations, suppressed = run_rules(files, selected)

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
