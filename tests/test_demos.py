"""Smoke runs of the narrative scripts under demos/ and of the README's examples."""

import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"```python\n(.*?)```",
                           (ROOT / "README.md").read_text(encoding="utf-8"), re.S)


def test_all_four_demos_are_found():
    assert [p.name for p in DEMOS] == [
        "density_profiles.py", "entropy_scan_demo.py",
        "partner_potential.py", "uncertainty_products.py"]


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_and_prints(script, capsys):
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out.strip()


def test_readme_has_python_examples():
    assert README_BLOCKS


@pytest.mark.parametrize("block", README_BLOCKS,
                         ids=[f"block{i}" for i in range(len(README_BLOCKS))])
def test_readme_python_block_runs_and_prints(block, capsys):
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()
