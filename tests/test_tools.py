"""tools/seed_csvs.py: its invocation list, and every invocation run against
the benchmark's checks; tools/csv_delta.py on synthetic OUTDIRs."""
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import truncosc

ROOT = Path(__file__).resolve().parents[1]


def test_seed_csvs_gives_each_benchmark_invocation_its_own_csv():
    # in a child, so that perfbench's bare module names (run, checks, ...)
    # stay out of this session's imports
    code = ("import json, sys; sys.path.insert(0, 'tools'); import seed_csvs; "
            "print(json.dumps(seed_csvs.jobs()))")
    res = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                         text=True, check=True)
    jobs = json.loads(res.stdout)
    assert len(jobs) == 148  # validate once, 7 invocations for each of 21 seeds
    assert len({path for path, _ in jobs}) == len(jobs)
    # the tool swaps the last argument, the --out value, for the job's path
    assert all(args[-2] == "--out" and path.split("/")[-1] == args[-1] for path, args in jobs)


def test_every_benchmark_invocation_passes_the_benchmark_checks(tmp_path):
    # the checks the benchmark applies to its outputs: the recorded digests
    # (seed 0 and validate), converged entropy rows, uncertainty products of
    # at least 0.495 and 600 finite, non-negative density rows for every seed
    code = ("import sys; sys.path.insert(0, 'tools'); import seed_csvs; "
            "from checks import invocation_key, load_digests; digests = load_digests(); "
            "print(sum(invocation_key(args) in digests for _, args in seed_csvs.jobs()))")
    digested = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                              text=True, check=True)
    assert int(digested.stdout) == 8
    src = Path(truncosc.__file__).resolve().parents[1]
    res = subprocess.run([sys.executable, "tools/seed_csvs.py", str(src), str(tmp_path)],
                         cwd=ROOT, capture_output=True, text=True, check=False)
    assert res.returncode == 0, res.stderr
    # started with one OpenBLAS thread per CPU, the child runs one; the count
    # is read from /proc/self/maps, and reads None where there is none
    threads = 1 if Path("/proc/self/maps").is_file() else None
    assert f"; OpenBLAS threads: {threads}; 0 problems" in res.stderr


def _outdir(root: Path, files: dict[str, str]) -> Path:
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text, encoding="utf-8")
    return root


def _csv_delta(*outdirs: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "tools/csv_delta.py", *map(str, outdirs)], cwd=ROOT,
                          capture_output=True, text=True, check=False)


def test_csv_delta_names_every_changed_cell_and_the_digest_to_record(tmp_path):
    head = "# config=abc basis=64 version=0.1.0\nz_abs,theta,phi,S,S_converged,cutoff\n"
    old_row, new_row = "0.5,1,0,0.25,true,64\n", "0.5,1,0,0.2,true,64\n"
    common = {"validate.csv": "# v\ncheck,status,detail\na,PASS,ok\n"}
    old = _outdir(tmp_path / "old", {**common, "seed-00/entropy-lowering.csv": head + old_row,
                                     "seed-01/gone.csv": "x\n", "help.txt": "usage: a\n"})
    new = _outdir(tmp_path / "new", {**common, "seed-00/entropy-lowering.csv": head + new_row,
                                     "seed-01/born.csv": "x\n", "help.txt": "usage: b\n"})
    res = _csv_delta(old, new)
    assert res.returncode == 1, res.stderr
    digest = hashlib.sha256((head + new_row).encode()).hexdigest()
    assert res.stdout.splitlines() == [
        "removed seed-01/gone.csv",
        "added seed-01/born.csv",
        "seed-00/entropy-lowering.csv:3 S: 0.25 -> 0.2",
        "seed-00/entropy-lowering.csv: 1 cells changed; largest absolute change 0.05, "
        "largest relative change 0.2",
        "help.txt changed",
        f"digest --command entropy --out entropy-lowering.csv: {digest}",
    ]


def test_csv_delta_is_silent_on_identical_outdirs(tmp_path):
    files = {"validate.csv": "# v\ncheck,status,detail\na,PASS,ok\n", "help.txt": "usage\n"}
    res = _csv_delta(_outdir(tmp_path / "old", files), _outdir(tmp_path / "new", files))
    assert (res.returncode, res.stdout) == (0, "")
    assert _csv_delta(tmp_path / "old").returncode == 2
