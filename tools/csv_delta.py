"""Print every cell that differs between two tools/seed_csvs.py OUTDIRs.

usage: python3 tools/csv_delta.py OLD NEW

OLD and NEW are OUTDIRs that ``tools/seed_csvs.py`` wrote from two trees.
The tool prints

  added PATH / removed PATH     a file found in one OUTDIR only
  PATH:LINE COLUMN: OLD -> NEW  each changed cell of a CSV, COLUMN being the
                                header's name for it (its 1-based position
                                on the lines before the header)
  PATH: N cells changed; ...    the CSV's largest absolute and relative change
                                over the cells that read as numbers in both
  PATH changed                  any other file whose bytes differ (help.txt)
  digest KEY: SHA256            the new sha256 of each changed CSV whose
                                invocation has a ``perfbench/digests.json``
                                key, the value to record there

It prints nothing and exits 0 when the OUTDIRs are identical, exits 1
otherwise, and exits 2 on a usage error.  It reads ``perfbench/`` the way
``seed_csvs.py`` does and writes nothing.
"""
from __future__ import annotations

import csv
import hashlib
import io
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from checks import invocation_key, load_digests
from seed_csvs import jobs


def _files(outdir: Path) -> dict[str, bytes]:
    return {path.relative_to(outdir).as_posix(): path.read_bytes()
            for path in sorted(outdir.rglob("*")) if path.is_file()}


def _rows(data: bytes) -> list[list[str]]:
    return list(csv.reader(io.StringIO(data.decode("utf-8"), newline="")))


def _number(cell: str) -> float | None:
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def csv_delta(path: str, old: bytes, new: bytes) -> list[str]:
    """One line per changed cell of a CSV, then its largest changes."""
    old_rows, new_rows = _rows(old), _rows(new)
    header_at = next((i for i, row in enumerate(new_rows)
                      if row and not row[0].startswith("#")), len(new_rows))
    header = new_rows[header_at] if header_at < len(new_rows) else []
    lines, largest_abs, largest_rel = [], 0.0, 0.0
    for i in range(max(len(old_rows), len(new_rows))):
        old_row = old_rows[i] if i < len(old_rows) else []
        new_row = new_rows[i] if i < len(new_rows) else []
        for j in range(max(len(old_row), len(new_row))):
            before = old_row[j] if j < len(old_row) else ""
            after = new_row[j] if j < len(new_row) else ""
            if before == after:
                continue
            column = header[j] if i > header_at and j < len(header) else str(j + 1)
            lines.append(f"{path}:{i + 1} {column}: {before} -> {after}")
            x, y = _number(before), _number(after)
            if x is not None and y is not None:
                largest_abs = max(largest_abs, abs(y - x))
                largest_rel = max(largest_rel, abs(y - x) / abs(x) if x else math.inf)
    lines.append(f"{path}: {len(lines)} cells changed; largest absolute change "
                 f"{largest_abs:.3g}, largest relative change {largest_rel:.3g}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(Path(arg).is_dir() for arg in argv):
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    old, new = (_files(Path(arg)) for arg in argv)
    lines = [f"removed {path}" for path in old if path not in new]
    lines += [f"added {path}" for path in new if path not in old]
    changed = [path for path in old if path in new and old[path] != new[path]]
    for path in changed:
        if path.endswith(".csv"):
            lines += csv_delta(path, old[path], new[path])
    lines += [f"{path} changed" for path in changed if not path.endswith(".csv")]
    digests = load_digests()
    for path, args in jobs():
        key = invocation_key(args)
        if path in changed and key in digests:
            lines.append(f"digest {key}: {hashlib.sha256(new[path]).hexdigest()}")
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
