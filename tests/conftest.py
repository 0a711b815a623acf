"""Shared test helpers: seeded random graphs, the acceptance summary and
the check that a test run leaves `git status` as it found it."""

from __future__ import annotations

import random
import subprocess

import pytest

from walklabel.graphs import Graph

_ACCEPTANCE: dict[int, tuple[bool, str]] = {}
_GIT_STATUS: dict[str, list[str] | None] = {}


def record_acceptance(num: int, ok: bool, detail: str = "") -> bool:
    """Record one acceptance criterion outcome for the terminal summary."""
    _ACCEPTANCE[num] = (ok, detail)
    return ok


def _git_status(root) -> list[str] | None:
    """The lines of `git status --porcelain` in root, or None outside a git
    checkout or without git."""
    try:
        out = subprocess.run(["git", "status", "--porcelain"], cwd=root, capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.splitlines() if out.returncode == 0 else None


def pytest_sessionstart(session):
    _GIT_STATUS["before"] = _git_status(session.config.rootpath)


@pytest.hookimpl(tryfirst=True)  # before plugins that write their reports
def pytest_sessionfinish(session, exitstatus):
    """Fail the run if its tests changed `git status`: a test that writes
    into the checkout must write to a temporary directory instead."""
    before = _GIT_STATUS.get("before")
    after = None if before is None else _git_status(session.config.rootpath)
    if after is None:
        return
    _GIT_STATUS["changed"] = sorted(set(before) ^ set(after))
    if _GIT_STATUS["changed"]:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    changed = _GIT_STATUS.get("changed")
    if changed is not None:
        terminalreporter.section("git status")
        detail = "unchanged" if not changed else "changed: " + ", ".join(line.strip() for line in changed)
        terminalreporter.write_line(f"GIT STATUS: {'FAIL' if changed else 'PASS'}  [{detail}]")
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_ACCEPTANCE):
        ok, detail = _ACCEPTANCE[num]
        line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f"  [{detail}]"
        terminalreporter.write_line(line)


def random_connected_graph(rng: random.Random, n: int) -> Graph:
    """Random connected simple graph: a random spanning tree plus a random
    number of extra edges. Deterministic for a given rng state."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    extra = rng.randrange(n * (n - 1) // 2 + 1)
    for _ in range(extra):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph(n, sorted(edges))
