#!/usr/bin/env python3
"""Greppable concurrency invariants of the tree (see docs/CONCURRENCY.md).

Eight rules, enforced with nothing but the standard library:

  1. no raw `std::thread` under src/ outside the allowlisted files that
     implement the threading substrate itself (ThreadPool) or a
     documented thread-per-connection / reader-loop design;
  2. no `.detach()` anywhere — every thread is joined by an owner;
  3. no `std::mutex` / `std::lock_guard` / `std::unique_lock` /
     `std::condition_variable` under src/ outside common/mutex.h: all
     locking goes through the Clang-capability-annotated wrappers so the
     `-Werror=thread-safety` analysis sees it;
  4. heuristic: inside a closure handed to a dispatcher
     (`Submit(...)` / `ParallelFor(...)` / `ParallelForCancellable(...)`),
     a `++`/`--`/`+=`/`-=` mutation must target a counter that is
     `std::atomic` in the same file, be declared locally in the closure,
     or happen after the closure acquired a MutexLock;
  5. no bare `SleepForMicros` under src/core/ outside core/resilience.cc:
     client-side retry pauses must go through core::Backoff /
     SleepBudgeted so they are jittered and capped by the request's
     deadline (docs/RESILIENCE.md) — a flat sleep in a retry loop is a
     synchronized retry storm waiting to happen;
  6. the httpd server is a single-reactor design (docs/SERVER.md):
     connection state is touched only from the reactor thread or from
     worker-pool tasks that communicate through completions, so inside
     src/httpd/ only server.{h,cc} may even mention std::thread, and
     server.cc may construct exactly one (the reactor). A second thread
     in that directory means somebody is sharing ServerConnection
     across threads again;
  7. mux frame writes are serialized: in src/muxhttp/ and
     src/core/mux_transport.{h,cc} a raw `socket->WriteAll(...)` may
     appear only inside a helper named `*Locked` whose declaration (in
     the same file or its .h/.cc sibling) carries a REQUIRES(...)
     capability annotation.  Frames from concurrent streams interleave
     on one connection, so an unguarded write tears frames mid-header;
  8. one sequential read-ahead window: under src/, only
     core/read_ahead_stream.{h,cc} may declare a class or struct whose
     name contains `ReadAhead`. Every buffered sequential read (DavPosix
     at any window depth, the xrootd ablation) runs through
     core::ReadAheadStream; a second window class is a copy that will
     drift from it (TreeCache's cluster window is not a byte-stream
     window and is named accordingly).

Exit status 0 = clean, 1 = violations (listed on stderr).
"""

import pathlib
import re
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SKIP_DIRS = {"build", "build-debug", ".git"}

# Rule 1 allowlist: the substrate and the documented raw-thread designs.
ALLOWED_STD_THREAD = {
    "src/common/thread_pool.h",    # the pool owns its workers
    "src/common/thread_pool.cc",
    "src/httpd/server.h",          # the single reactor thread (rule 6)
    "src/httpd/server.cc",
    "src/muxhttp/mux.h",           # accept + per-connection threads
    "src/muxhttp/mux.cc",
    "src/core/mux_transport.h",    # mux client demux reader loop
    "src/core/mux_transport.cc",
    "src/xrootd/xrd_server.h",     # thread-per-connection
    "src/xrootd/xrd_server.cc",
    "src/xrootd/xrd_client.h",     # client reader loop
    "src/xrootd/xrd_client.cc",
}

RAW_LOCKING_RE = re.compile(
    r"std::(mutex|recursive_mutex|shared_mutex|timed_mutex|lock_guard|"
    r"unique_lock|shared_lock|scoped_lock|condition_variable(_any)?)\b")
# hardware_concurrency() is a static query, not a thread.
STD_THREAD_RE = re.compile(
    r"std::(thread|jthread)\b(?!::hardware_concurrency)")
DETACH_RE = re.compile(r"\.detach\s*\(")
BARE_SLEEP_RE = re.compile(r"\bSleepForMicros\s*\(")
# Rule 5: the one file allowed to sleep in src/core — the sanctioned
# jittered/budgeted pause primitives themselves.
ALLOWED_CORE_SLEEP = {"src/core/resilience.cc"}
DISPATCH_RE = re.compile(r"\b(Submit|ParallelFor|ParallelForCancellable)\s*\(")
# Rule 7: files whose socket writes carry interleaved mux frames.
MUX_WRITE_FILES_RE = re.compile(
    r"^src/(muxhttp/|core/mux_transport\.(h|cc)$)")
WRITE_ALL_RE = re.compile(r"\bWriteAll\s*\(")
# Rule 8: the one home of the sequential read-ahead window.
READ_AHEAD_CLASS_RE = re.compile(r"\b(?:class|struct)\s+(\w*ReadAhead\w*)")
ALLOWED_READ_AHEAD = {"src/core/read_ahead_stream.h",
                      "src/core/read_ahead_stream.cc"}
MUTATION_RE = re.compile(
    r"(?:\+\+|--)\s*([A-Za-z_]\w*)\b|\b([A-Za-z_]\w*)\s*(?:\+\+|--|\+=|-=)")


def source_files(subdirs):
    for sub in subdirs:
        base = REPO_ROOT / sub
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in (".h", ".cc"):
                continue
            if SKIP_DIRS.intersection(p.name for p in path.parents):
                continue
            yield path


def strip_comments_and_strings(text):
    """Blanks out comments and string/char literals, preserving offsets
    and newlines so line numbers keep working."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if text.startswith("//", i):
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif text.startswith("/*", i):
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append("".join(ch if ch == "\n" else " "
                               for ch in text[i:j]))
            i = j
        elif (c == "'" and i > 0 and text[i - 1] in "0123456789abcdefABCDEF"
              and i + 1 < n and text[i + 1] in "0123456789abcdefABCDEF"):
            # C++14 digit separator (20'000, 0xFFFF'FFFF), not a char
            # literal — treating it as one would blank out real code up
            # to the next apostrophe.
            out.append(c)
            i += 1
        elif c in "\"'":
            j = i + 1
            while j < n and text[j] != c:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(c + " " * (j - i - 2) + (c if j - i >= 2 else ""))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


def matching_brace(text, open_pos):
    """Offset just past the brace matching text[open_pos] == '{'."""
    depth = 0
    for i in range(open_pos, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(text)


def lambda_body_at(text, bracket_pos):
    """Given the '[' opening a lambda capture, returns (start, end)
    offsets of its `{...}` body, or None."""
    close = text.find("]", bracket_pos)
    if close < 0:
        return None
    i = close + 1
    depth = 0
    while i < len(text):
        c = text[i]
        if c == "(" or c == "<":
            depth += 1
        elif c == ")" or c == ">":
            depth -= 1
        elif c == "{" and depth <= 0:
            return (i, matching_brace(text, i))
        elif c in ";," and depth <= 0:
            return None
        i += 1
    return None


def dispatcher_closures(text):
    """Yields (start, end) body spans of closures handed to a
    dispatcher: inline lambdas, and named lambdas passed by name or via
    std::move."""
    for match in DISPATCH_RE.finditer(text):
        paren = text.find("(", match.end() - 1)
        if paren < 0:
            continue
        # Inline lambda argument(s).
        args_end = paren
        depth = 0
        for i in range(paren, len(text)):
            if text[i] == "(":
                depth += 1
            elif text[i] == ")":
                depth -= 1
                if depth == 0:
                    args_end = i
                    break
            elif text[i] == "[" and depth == 1:
                body = lambda_body_at(text, i)
                if body:
                    yield body
        args = text[paren + 1:args_end]
        named = re.search(r"std::move\s*\(\s*(\w+)\s*\)|^\s*(\w+)\s*$", args)
        if named:
            name = named.group(1) or named.group(2)
            decl = re.search(r"auto\s+" + re.escape(name) + r"\s*=\s*\[",
                             text[:match.start()])
            if decl:
                body = lambda_body_at(text, decl.end() - 1)
                if body:
                    yield body


def skip_paren_group(text, open_pos):
    """Offset of the ')' matching text[open_pos] == '(' (or len(text)).
    Returns -1 if depth goes negative first (we started inside a larger
    expression, e.g. a call in an if-condition)."""
    depth = 0
    for i in range(open_pos, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return i
            if depth < 0:
                return -1
    return len(text)


def locked_fn_spans(text):
    """Yields (name, body_start, body_end) for every function DEFINITION
    whose name ends in 'Locked' (declarations and call sites skipped)."""
    for m in re.finditer(r"\b(\w+Locked)\s*\(", text):
        close = skip_paren_group(text, text.find("(", m.end() - 1))
        if close < 0 or close >= len(text):
            continue
        j = close + 1
        depth = 0
        while j < len(text) and (depth > 0 or text[j] not in ";{"):
            if text[j] == "(":
                depth += 1
            elif text[j] == ")":
                depth -= 1
                if depth < 0:
                    break
            j += 1
        if j >= len(text) or text[j] != "{" or depth != 0:
            continue
        yield (m.group(1), j, matching_brace(text, j))


def declares_requires(text, name):
    """True if some declaration/definition of `name` in `text` carries a
    REQUIRES(...) annotation between its parameter list and body/';'."""
    for m in re.finditer(r"\b" + re.escape(name) + r"\s*\(", text):
        close = skip_paren_group(text, text.find("(", m.end() - 1))
        if close < 0 or close >= len(text):
            continue
        j = close + 1
        seg = []
        depth = 0
        while j < len(text) and (depth > 0 or text[j] not in ";{"):
            if text[j] == "(":
                depth += 1
            elif text[j] == ")":
                depth -= 1
                if depth < 0:
                    break
            seg.append(text[j])
            j += 1
        if "REQUIRES" in "".join(seg):
            return True
    return False


def check_mux_writes(rel, text):
    """Rule 7: WriteAll in mux frame code only inside annotated *Locked
    helpers. Returns (problems, used_names) — REQUIRES presence is
    checked by the caller against the .h/.cc sibling pair."""
    problems = []
    used_names = set()
    spans = list(locked_fn_spans(text))
    for m in WRITE_ALL_RE.finditer(text):
        inside = [name for name, start, end in spans
                  if start <= m.start() < end]
        if inside:
            used_names.add(inside[0])
        else:
            problems.append(
                (rel, line_of(text, m.start()),
                 "raw WriteAll outside a *Locked helper — mux frames from "
                 "concurrent streams share one socket; route every write "
                 "through a REQUIRES-annotated *Locked function"))
    return problems, used_names


def check_mutations(path, text):
    problems = []
    atomics = set(re.findall(r"atomic(?:<[^;{]*?>)?>?\s+(\w+)", text))
    atomics |= set(re.findall(r"atomic<[^;{]*?>\s*>\s*(\w+)", text))
    for start, end in dispatcher_closures(text):
        body = text[start:end]
        lock_pos = body.find("MutexLock")
        for m in MUTATION_RE.finditer(body):
            name = m.group(1) or m.group(2)
            if name in atomics:
                continue
            if 0 <= lock_pos < m.start():
                continue  # mutation after the closure took a lock
            # Locally declared in the closure (loop indices, scratch)?
            decl = re.search(
                r"(?:auto|size_t|int|unsigned|u?int\d+_t|long|double|float)"
                r"[\w\s:<>,*&]*\b" + re.escape(name) + r"\b\s*[={;)]",
                body[:m.start()])
            if decl:
                continue
            problems.append(
                (line_of(text, start + m.start()),
                 f"non-atomic counter '{name}' mutated inside a "
                 "dispatcher closure (make it std::atomic, or guard it "
                 "with a MutexLock taken in the closure)"))
    return problems


def main() -> int:
    problems = []
    for path in source_files(["src"]):
        rel = str(path.relative_to(REPO_ROOT))
        text = strip_comments_and_strings(
            path.read_text(encoding="utf-8"))
        if rel != "src/common/mutex.h":
            for m in RAW_LOCKING_RE.finditer(text):
                problems.append(
                    (rel, line_of(text, m.start()),
                     f"raw std::{m.group(1)} — use the annotated wrappers "
                     "in common/mutex.h"))
        if rel not in ALLOWED_STD_THREAD:
            for m in STD_THREAD_RE.finditer(text):
                problems.append(
                    (rel, line_of(text, m.start()),
                     "raw std::thread outside the allowlist — schedule "
                     "work on a ThreadPool instead"))
        for lineno, message in check_mutations(path, text):
            problems.append((rel, lineno, message))
        if rel.startswith("src/httpd/"):
            if rel in ("src/httpd/server.h", "src/httpd/server.cc"):
                constructions = re.findall(r"std::thread\s*\(", text)
                if rel.endswith(".cc") and len(constructions) > 1:
                    problems.append(
                        (rel, 1,
                         f"{len(constructions)} std::thread constructions — "
                         "the reactor design allows exactly one; route "
                         "other work through the worker ThreadPool"))
            else:
                for m in STD_THREAD_RE.finditer(text):
                    problems.append(
                        (rel, line_of(text, m.start()),
                         "std::thread in src/httpd outside server.{h,cc} — "
                         "connection state is reactor-owned; use the "
                         "worker pool + completions instead"))
        if MUX_WRITE_FILES_RE.match(rel):
            mux_problems, used_names = check_mux_writes(rel, text)
            problems.extend(mux_problems)
            if used_names:
                sibling = (path.with_suffix(".h") if path.suffix == ".cc"
                           else path.with_suffix(".cc"))
                combined = text
                if sibling.is_file():
                    combined += "\n" + strip_comments_and_strings(
                        sibling.read_text(encoding="utf-8"))
                for name in sorted(used_names):
                    if not declares_requires(combined, name):
                        problems.append(
                            (rel, 1,
                             f"mux write helper '{name}' has no "
                             "REQUIRES(...) annotation on any declaration "
                             "— the write mutex must be a declared "
                             "capability so Clang checks the callers"))
        if rel not in ALLOWED_READ_AHEAD:
            for m in READ_AHEAD_CLASS_RE.finditer(text):
                problems.append(
                    (rel, line_of(text, m.start()),
                     f"'{m.group(1)}' declared outside "
                     "core/read_ahead_stream.{h,cc} — sequential read-ahead "
                     "has one window; configure core::ReadAheadStream "
                     "instead of adding another"))
        if rel.startswith("src/core/") and rel not in ALLOWED_CORE_SLEEP:
            for m in BARE_SLEEP_RE.finditer(text):
                problems.append(
                    (rel, line_of(text, m.start()),
                     "bare SleepForMicros in src/core — retry pauses must "
                     "go through core::Backoff::SleepWithJitter or "
                     "core::SleepBudgeted (deadline-capped, jittered)"))
    for path in source_files(["src", "tests", "bench", "examples"]):
        rel = str(path.relative_to(REPO_ROOT))
        text = strip_comments_and_strings(
            path.read_text(encoding="utf-8"))
        for m in DETACH_RE.finditer(text):
            problems.append(
                (rel, line_of(text, m.start()),
                 ".detach() is banned — every thread must be joined"))
    for rel, lineno, message in problems:
        print(f"{rel}:{lineno}: {message}", file=sys.stderr)
    if problems:
        return 1
    print("concurrency lint OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
