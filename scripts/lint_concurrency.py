#!/usr/bin/env python3
"""Concurrency lint gate for the GLTO runtime (CI: fails the build on hit).

Five rules, all scoped to runtime code under src/ (tests and examples may
stage races with raw sleeps; the runtime itself must not):

  naked-sleep      std::this_thread::sleep_for / sleep_until / usleep /
                   nanosleep anywhere in the runtime. A raw sleep parks a
                   whole OS thread carrying many ULTs: it cannot be cut
                   short by an unpark, keeps the worker from running other
                   units, and is invisible to the stall watchdog. Blocking
                   code must go through the one park path
                   (sched::sync_detail::park_current) — for retry backoff
                   that means sched::backoff_until, a timed park that
                   suspends a ULT while its worker runs other units and
                   stays watchdog-bracketed. src/sched/chaos.cpp is
                   allowlisted: its delay injection exists precisely to
                   simulate an ill-timed preemption.

  naked-park       a direct Parker .park_for_us( / .park_until( call
                   outside the park machinery (src/sched/sync.cpp,
                   src/sched/ws_core.hpp, src/common/parker.hpp). A bare
                   park is a sleep with extra steps: on a ULT it blocks
                   the carrier thread instead of suspending through the
                   one park path, and it skips the watchdog bracketing, so
                   an app-level backoff written this way hides a stall and
                   wastes the worker. Retry/backoff delays must call
                   sched::backoff_until.

  raw-pthread      pthread_mutex_* anywhere in the runtime. Runtime
                   code must use sched::Mutex / common::SpinLock /
                   common::CheckedMutex so lock discipline stays visible
                   to Clang Thread Safety Analysis and to the ULT
                   scheduler (a pthread mutex blocks the carrier thread).

  context-owner    make_fcontext( or StackPool::global().acquire( /
                   .release( outside src/fctx/ and the ULT engine
                   (src/sched/ult_engine.cpp). The engine is the one owner
                   of contexts and pooled stacks: binding at first
                   dispatch, release at Done and the primary thread's
                   scheduler context all live there, so a backend that
                   builds its own context or takes its own stack is a copy
                   of the engine growing back.

  relaxed-handoff  a memory_order_relaxed *store* whose own line or the
                   comment block immediately above it says "handoff".
                   A handoff is by definition a publication point: the
                   receiving side reads fields the handing-off side wrote,
                   so the store needs release ordering (and under TSan a
                   relaxed handoff reports as a race on the payload).

Waiver: append `// lint: allow(<rule>) <reason>` to the offending line,
e.g. `p.park_for_us(50);  // lint: allow(naked-park) probe thread, no ULTs`.
The reason is mandatory — a bare `allow(...)` does not match. Waivers are
for sites where the flagged pattern is intentional and argued in the
reason; CI reviews them by grepping this marker.

Usage: scripts/lint_concurrency.py [repo-root]   (exit 1 on any finding)
"""

import os
import re
import sys

SLEEP_RE = re.compile(
    r"\bsleep_for\s*\(|\bsleep_until\s*\(|\busleep\s*\(|\bnanosleep\s*\(")
PARK_RE = re.compile(r"\.\s*park_(?:for_us|until)\s*\(")
PTHREAD_RE = re.compile(r"\bpthread_mutex_\w+")
CONTEXT_RE = re.compile(
    r"\bmake_fcontext\s*\(|StackPool::global\(\)\s*\.\s*(?:acquire|release)\s*\(")
RELAXED_STORE_RE = re.compile(r"\.store\s*\([^;]*memory_order_relaxed")
COMMENT_RE = re.compile(r"^\s*(//|/\*|\*)")
WAIVER_RE = re.compile(r"//\s*lint:\s*allow\((?P<rule>[\w-]+)\)\s*\S")

SLEEP_ALLOWLIST = {
    os.path.join("src", "sched", "chaos.cpp"),  # intentional delay injection
}
PARK_ALLOWLIST = {
    os.path.join("src", "sched", "sync.cpp"),     # park path off a ULT
    os.path.join("src", "sched", "ws_core.hpp"),  # scheduler idle parking
    os.path.join("src", "common", "parker.hpp"),  # the Parker itself
}
CONTEXT_ALLOW_DIR = os.path.join("src", "fctx") + os.sep
CONTEXT_ALLOWLIST = {
    os.path.join("src", "sched", "ult_engine.cpp"),  # the one ULT engine
}

EXTS = (".cpp", ".hpp", ".h", ".cc", ".hh")


def comment_block_above(lines, idx):
    """Contiguous comment lines immediately preceding lines[idx], as text."""
    out = []
    j = idx - 1
    while j >= 0 and COMMENT_RE.match(lines[j]):
        out.append(lines[j])
        j -= 1
    return "\n".join(out)


def waived(line, rule):
    m = WAIVER_RE.search(line)
    return m is not None and m.group("rule") == rule


def lint_file(root, rel, findings):
    path = os.path.join(root, rel)
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            lines = f.read().splitlines()
    except OSError as e:
        findings.append((rel, 0, "io", str(e)))
        return

    in_block_comment = False
    for i, line in enumerate(lines):
        # Cheap block-comment tracking: skip lines living inside /* ... */.
        if in_block_comment:
            if "*/" in line:
                in_block_comment = False
            continue
        code = line.split("//", 1)[0]
        if "/*" in code and "*/" not in code:
            in_block_comment = True
        lineno = i + 1

        if (
            rel not in SLEEP_ALLOWLIST
            and SLEEP_RE.search(code)
            and not waived(line, "naked-sleep")
        ):
            findings.append((
                rel, lineno, "naked-sleep",
                "raw sleep in runtime code: route the wait through the "
                "one park path (sched::backoff_until or a sched:: "
                "primitive) so it can be cut short, lets the worker run "
                "other units, and stays watchdog-visible",
            ))

        if (
            rel not in PARK_ALLOWLIST
            and PARK_RE.search(code)
            and not waived(line, "naked-park")
        ):
            findings.append((
                rel, lineno, "naked-park",
                "direct Parker park outside the park machinery: use "
                "sched::backoff_until so a ULT suspends through the one "
                "park path and the delay stays watchdog-bracketed",
            ))

        if PTHREAD_RE.search(code) and not waived(line, "raw-pthread"):
            findings.append((
                rel, lineno, "raw-pthread",
                "pthread_mutex_* in runtime code: use sched::Mutex "
                "(ULT-blocking), common::SpinLock, or common::CheckedMutex "
                "so lock discipline stays analyzable",
            ))

        if (
            not rel.startswith(CONTEXT_ALLOW_DIR)
            and rel not in CONTEXT_ALLOWLIST
            and CONTEXT_RE.search(code)
            and not waived(line, "context-owner")
        ):
            findings.append((
                rel, lineno, "context-owner",
                "fcontext or pooled stack handled outside src/fctx/ and "
                "the ULT engine: go through sched/ult_engine.hpp so "
                "contexts and stacks keep one owner",
            ))

        if RELAXED_STORE_RE.search(code) and not waived(line, "relaxed-handoff"):
            context = line + "\n" + comment_block_above(lines, i)
            if "handoff" in context.lower():
                findings.append((
                    rel, lineno, "relaxed-handoff",
                    "relaxed store at a site documented as a handoff: a "
                    "handoff publishes payload the receiver reads, so the "
                    "store needs memory_order_release",
                ))


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    findings = []
    scanned = 0
    for dirpath, _dirnames, filenames in os.walk(os.path.join(root, "src")):
        for name in sorted(filenames):
            if not name.endswith(EXTS):
                continue
            rel = os.path.relpath(os.path.join(dirpath, name), root)
            scanned += 1
            lint_file(root, rel, findings)

    for rel, lineno, rule, msg in sorted(findings):
        print(f"{rel}:{lineno}: [{rule}] {msg}")
    print(f"lint_concurrency: {scanned} files scanned, "
          f"{len(findings)} finding(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
