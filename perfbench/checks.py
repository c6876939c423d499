"""Output checks for the CSVs the benchmark's CLI invocations write.

A CSV passes when its command's invariants hold and, if the exact
invocation has a digest in ``digests.json``, when its sha256 matches.  The
digests pin the byte-identical-CSV contract: they are recorded for the
reference inputs (seed 0) and for ``validate``, whose inputs no seed
changes.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"

UNCERTAINTY_FLOOR = 0.5 - 5e-3
DENSITY_ROWS = 600

_HEADERS = {
    "validate": ["check", "status", "detail"],
    "uncertainty": ["z_abs", "sigma_x", "sigma_p", "product"],
    "entropy": ["z_abs", "theta", "phi", "S", "S_converged", "cutoff"],
}


def load_digests(path: Path = DIGESTS_PATH) -> dict[str, str]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def invocation_key(args: list[str]) -> str:
    """The digest key of one CLI invocation: its arguments, space-joined."""
    return " ".join(args)


def _numbers(row: list[str]) -> list[float]:
    return [float(cell) for cell in row]


def _invariant_problems(command: str, header: list[str], rows: list[list[str]],
                        steps: int) -> list[str]:
    if command == "validate":
        if header != _HEADERS["validate"] or not rows:
            return ["validate CSV has no check rows"]
        return [f"validate check {row[0]} is FAIL" for row in rows if row[1] == "FAIL"]
    if command == "density":
        if header[0] != "x" or len(header) != steps + 1 or len(rows) != DENSITY_ROWS:
            return [f"density CSV is {len(rows)}x{len(header)}, "
                    f"expected {DENSITY_ROWS}x{steps + 1}"]
        bad = [v for row in rows for v in _numbers(row[1:])
               if not (math.isfinite(v) and v >= 0.0)]
        return [f"{len(bad)} density values are negative or not finite"] if bad else []
    if header != _HEADERS[command] or len(rows) != steps:
        return [f"{command} CSV has header {header} and {len(rows)} rows, "
                f"expected {_HEADERS[command]} and {steps} rows"]
    problems = []
    for row in rows:
        if command == "uncertainty":
            product = float(row[3])
            if not (math.isfinite(product) and product >= UNCERTAINTY_FLOOR):
                problems.append(f"uncertainty product {row[3]} at |z|={row[0]} "
                                f"is below {UNCERTAINTY_FLOOR}")
        else:
            s = float(row[3])
            if not 0.0 <= s < 1.0:
                problems.append(f"entropy S={row[3]} at |z|={row[0]} is outside [0, 1)")
            if row[4] != "true":
                problems.append(f"entropy at |z|={row[0]} is not converged")
    return problems


def check_csv(args: list[str], data: bytes | None, digests: dict[str, str]) -> list[str]:
    """Problems found in the CSV written by ``truncosc ARGS``; empty when it passes."""
    if data is None:
        return ["no CSV written"]
    expected = digests.get(invocation_key(args))
    if expected is not None and hashlib.sha256(data).hexdigest() != expected:
        return ["CSV sha256 differs from the recorded digest"]
    command = args[args.index("--command") + 1]
    steps = int(args[args.index("--steps") + 1]) if "--steps" in args else 9
    lines = data.decode("utf-8").split("\n")
    if not lines[0].startswith("# config="):
        return ["CSV lacks its config comment line"]
    table = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
    if not table:
        return ["CSV has no header"]
    try:
        return _invariant_problems(command, table[0], table[1:], steps)
    except (ValueError, IndexError) as exc:
        return [f"malformed {command} CSV: {exc}"]
