"""The demos run in-process and print what their docstrings promise."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def run_demo(capsys, name):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    return capsys.readouterr().out


@pytest.mark.parametrize("name", ["families_tour.py", "hahn_calculus.py"])
def test_demo_runs(capsys, name):
    assert run_demo(capsys, name)


def test_oracle_demo_discrepancies_only_in_hahn(capsys):
    # documented discrepancies are tagged only where the README predicts them
    out = run_demo(capsys, "matrix_element_oracle.py")
    blocks, title = {}, None
    for line in out.splitlines():
        if line and not line.startswith(" "):
            title = line
        blocks.setdefault(title, []).append(line)
    tagged = {title for title, lines in blocks.items()
              if any("documented discrepancy" in line for line in lines)}
    assert tagged == {"hahn:"}
    # a mismatch off the predicted cells would be tagged MISMATCH
    assert not any("MISMATCH" in line for line in out.splitlines()
                   if "closed =" in line)
    omega_zero = [t for t in blocks if t and t.startswith("at omega = 0")]
    assert len(omega_zero) == 1
    section = blocks[omega_zero[0]]
    assert len(section) == 4 and not any("MISMATCH" in line for line in section)