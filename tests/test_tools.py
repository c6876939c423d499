"""tools/seed_csvs.py: the invocation list it runs, without running it."""
import json
import subprocess
import sys
from pathlib import Path

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
