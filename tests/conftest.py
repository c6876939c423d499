import importlib
import os
import warnings
from contextlib import suppress
from pathlib import Path

import numpy as np
import pytest

import truncosc

ACCEPTANCE_KEY = pytest.StashKey[list]()

# When a @given test fails, hypothesis's pytest plugin imports its patch
# writer, whose libcst import warns (mypy_extensions.TypedDict is
# deprecated); under filterwarnings = "error" that warning escapes the
# plugin's report hook as an INTERNALERROR and ends the session.  Importing
# it here, with that warning ignored, leaves the later import nothing to do.
with warnings.catch_warnings(), suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    importlib.import_module("hypothesis.extra._patching")


@pytest.fixture
def rng():
    """Seeded generator so property-style tests are reproducible."""
    return np.random.default_rng(20260815)


@pytest.fixture
def cli_env():
    """Environment for child interpreters that must import this checkout.

    PYTHONPATH is the absolute directory holding the imported package, so a
    child started in any working directory finds the same sources.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(truncosc.__file__).resolve().parent.parent)
    return env


@pytest.fixture
def criterion(request):
    """Record one scoreboard line per acceptance criterion, then assert.

    The lines are replayed in the terminal summary so they survive output
    capture and end up in any teed log.
    """
    lines = request.config.stash.setdefault(ACCEPTANCE_KEY, [])

    def _record(num: int, ok: bool, detail: str) -> None:
        status = "PASS" if ok else "FAIL"
        lines.append(f"criterion {num:02d} {status} — {detail}")
        assert ok, f"criterion {num:02d}: {detail}"

    return _record


def pytest_terminal_summary(terminalreporter):
    lines = terminalreporter.config.stash.get(ACCEPTANCE_KEY, None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(lines):
            terminalreporter.write_line(line)
