"""Write the CSV of every benchmark invocation for seeds 0-20, and --help.

usage: python3 tools/seed_csvs.py SRC OUTDIR

SRC is the directory that holds the ``truncosc`` package to run (the
``src`` directory of a checkout).  The invocations are those of
``invocations()`` in this checkout's ``perfbench/run.py``: ``validate``
once, and the ``observables`` and ``entropy`` invocations of each seed,
148 CSVs in all.  One child interpreter imports ``truncosc`` from SRC
alone and runs them in turn through ``truncosc.cli.main``, started as the
benchmark starts its children (``OPENBLAS_NUM_THREADS`` = nproc); importing
``truncosc`` first sets one OpenBLAS thread, and the summary line prints
the count the child ran with: that of numpy's OpenBLAS, the first one
``perfbench/child.py``'s ``_openblas()`` finds, not that of the copy scipy
loads for ``validate``.  It writes

  OUTDIR/validate.csv
  OUTDIR/seed-NN/<name>.csv   for NN = 00 .. 20
  OUTDIR/help.txt             the --help text at 80 columns

so that ``diff -r`` of the OUTDIRs of two trees shows every byte a change
moved.  Each CSV is also checked by ``perfbench/checks.py``: its command's
invariants, and for the seed-0 and validate CSVs the digests recorded in
``perfbench/digests.json``.  Exits 1 when an invocation fails or a check
finds a problem (every file is written either way), 0 otherwise.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from checks import check_csv, load_digests
from run import WORKLOADS, invocations

SEEDS = range(21)

# Runs [[out, args], ...] read from stdin through truncosc.cli.main, in the
# directory it is started in; prints where truncosc came from, the exit code
# of each invocation and the OpenBLAS thread count as JSON.
CHILD = r"""
import contextlib, io, json, os, sys
sys.path.insert(0, sys.argv[1])
import truncosc
from truncosc import cli
sys.path.insert(0, sys.argv[2])
from child import _openblas
codes = []
for out, args in json.load(sys.stdin):
    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(cli.main(args))
text = io.StringIO()
with contextlib.redirect_stdout(text), contextlib.suppress(SystemExit):
    cli.main(["--help"])
with open("help.txt", "w", encoding="utf-8") as fh:
    fh.write(text.getvalue())
print(json.dumps({"truncosc": truncosc.__file__, "codes": codes,
                  "openblas_threads": _openblas()["threads"]}))
"""


def jobs() -> list[tuple[str, list[str]]]:
    """(output path under OUTDIR, benchmark arguments) of every invocation."""
    out = []
    for workload in WORKLOADS:
        for seed in ([0] if workload == "validate" else SEEDS):
            for name, args in invocations(workload, seed):
                out.append((name if workload == "validate" else f"seed-{seed:02d}/{name}", args))
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    src, outdir = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    if not (src / "truncosc" / "__init__.py").is_file():
        print(f"seed_csvs: {src} holds no truncosc package", file=sys.stderr)
        return 2
    outdir.mkdir(parents=True, exist_ok=True)
    todo = jobs()
    # each CSV goes to its own path; the --out value is not part of any CSV
    runs = [[path, args[:-1] + [path]] for path, args in todo]
    nproc = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=nproc, OMP_NUM_THREADS=nproc, COLUMNS="80")
    child = subprocess.run([sys.executable, "-I", "-B", "-c", CHILD, str(src),
                            str(ROOT / "perfbench")], cwd=outdir, env=env,
                           input=json.dumps(runs), capture_output=True, text=True, check=False)
    if child.returncode != 0:
        print(child.stderr, file=sys.stderr)
        return 1
    report = json.loads(child.stdout.splitlines()[-1])
    if not Path(report["truncosc"]).resolve().is_relative_to(src):
        print(f"seed_csvs: imported {report['truncosc']}, not the package in {src}",
              file=sys.stderr)
        return 1
    digests = load_digests()
    problems = []
    for (path, args), code in zip(todo, report["codes"]):
        csv = outdir / path
        found = [f"exit {code}"] if code != 0 else check_csv(
            args, csv.read_bytes() if csv.is_file() else None, digests)
        problems += [f"{path}: {p}" for p in found]
    for line in problems:
        print(line, file=sys.stderr)
    print(f"seed_csvs: {len(todo)} CSVs and help.txt in {outdir}; "
          f"OpenBLAS threads: {report['openblas_threads']}; {len(problems)} problems",
          file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
