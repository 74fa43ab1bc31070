"""Golden reports: four stored CLI outputs that pin the report bytes.

Each file under ``tests/data`` is the stdout of the command beside it.  A
fresh run must print exactly those bytes, and a stored experiment report,
loaded with ``ExperimentReport.from_dict`` and rendered again, must give them
back.  The files were written with numpy 2.4.6; the sampled values depend on
numpy's multinomial draws, so another numpy release may move them.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from merminsim import ExperimentReport, render_report
from merminsim.cli import main

DATA = Path(__file__).parent / "data"

GOLDEN = {
    "run_3q_mermin_seed0.json": ["run", "--qubits", "3", "--setup", "mermin", "--seed", "0"],
    "run_4q_al_seed7_p02_expanded.json": [
        "run", "--qubits", "4", "--setup", "al", "--seed", "7",
        "--noise", "0.02,0.02,0.02", "--expand-permutations",
    ],
    "run_5q_al-mod_seed12345_p01.json": [
        "run", "--qubits", "5", "--setup", "al-mod", "--seed", "12345", "--noise", "0.01,0.01,0.01",
    ],
    "exchange_3q_seed0.json": ["exchange-test", "--qubits", "3", "--seed", "0"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_fresh_run_renders_the_golden_bytes(name, capsys):
    assert main(GOLDEN[name]) == 0
    assert capsys.readouterr().out == (DATA / name).read_text()


@pytest.mark.parametrize("name", sorted(n for n in GOLDEN if n.startswith("run_")))
def test_stored_report_reloads_to_the_golden_bytes(name):
    text = (DATA / name).read_text()
    assert render_report(ExperimentReport.from_dict(json.loads(text)), "json") == text


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_file_is_json_dumps_of_its_content(name):
    # The writer's templates must keep json.dumps's layout: sorted keys, two-space indent.
    text = (DATA / name).read_text()
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
