"""Smoke runs of the narrative scripts under demos/."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_all_four_demos_are_found():
    assert [p.name for p in DEMOS] == [
        "density_profiles.py", "entropy_scan_demo.py",
        "partner_potential.py", "uncertainty_products.py"]


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_and_prints(script, capsys):
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out.strip()
