"""Every demo script runs end to end against the current library API."""

import pathlib
import runpy

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "name",
    [
        "01_optimal_binary_decisions",
        "02_one_bit_vs_one_qubit",
        "03_universal_hashing",
        "04_privacy_amplification",
    ],
)
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out
