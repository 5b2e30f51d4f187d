"""Each narrative demo runs to its end (demo 01 is run by acceptance 1a,
demo 07 needs a shell and runs the CLI chain that test_cli covers)."""
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("script", [
    "02_simulate_fit_rank.py",
    "03_descriptive_tables.py",
    "04_diagnostics_battery.py",
    "05_balance_bootstrap.py",
    "06_lasso_vs_anchoring.py",
])
def test_demo_runs(script, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # whatever a demo writes stays out of the checkout
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    assert capsys.readouterr().out.strip()
