"""Command-line interface: exit codes, formats, and output files."""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import merminsim
from merminsim import ExperimentConfig, InvariantError, cli, harness, run_experiment
from merminsim.circuits import QUBIT_COUNTS, SETUP_IDS, all_setup_configs, setup_config
from merminsim.cli import main


def test_run_prints_json_report(capsys):
    code = main(["run", "--qubits", "3", "--setup", "mermin", "--seed", "1"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["qubits"] == 3
    assert payload["result"]["value"] == pytest.approx(4.0, abs=1e-9)
    assert payload["verdict"] == "VIOLATES_LR"


def test_run_is_deterministic(capsys):
    argv = ["run", "--qubits", "4", "--setup", "al", "--seed", "9"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second


def test_run_csv_and_md_formats(capsys):
    assert main(["run", "--qubits", "3", "--setup", "al", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("row,y_count,axes,")
    assert main(["run", "--qubits", "3", "--setup", "al", "--format", "md"]) == 0
    assert capsys.readouterr().out.startswith("# Mermin test: 3 qubits")


def test_run_with_noise_and_output_file(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code = main(
        [
            "run",
            "--qubits",
            "3",
            "--setup",
            "mermin",
            "--noise",
            "0.01,0.02,0.005",
            "--shots",
            "2048",
            "--out",
            str(out_file),
        ]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    payload = json.loads(out_file.read_text())
    assert payload["config"]["noise"] == {"p1": 0.01, "p2": 0.02, "readout_flip": 0.005}
    assert payload["config"]["shots"] == 2048


@pytest.mark.parametrize(
    "command", [["run", "--qubits", "3", "--setup", "mermin"], ["exchange-test"]], ids=["run", "exchange-test"]
)
def test_unwritable_output_file_exits_one(command, tmp_path, capsys):
    # A missing directory used to end in a FileNotFoundError traceback.
    out_file = tmp_path / "missing" / "report.json"
    assert main([*command, "--out", str(out_file)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out_file.exists()
    assert captured.err.startswith("merminsim: cannot write the report: ")
    assert len(captured.err.splitlines()) == 1


def test_exchange_test_command(capsys):
    code = main(["exchange-test", "--seed", "4"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["spread"] == 0.0
    assert len(payload["terms"]) == 3


def test_bounds_command(capsys):
    code = main(["bounds", "--qubits", "4", "--setup", "al"])
    assert code == 0
    out = capsys.readouterr().out
    assert "lr_bound (brute force): 4.0" in out
    assert "verification: OK" in out


def test_verify_command(capsys):
    code = main(["verify"])
    assert code == 0
    out = capsys.readouterr().out
    assert "all invariant checks passed" in out
    assert "FAIL" not in out


def test_audit_commands_never_import_numpy_random():
    # A process that draws nothing stays light: verify and bounds recheck the
    # catalog without loading numpy's random module.
    code = (
        "import contextlib, io, sys\n"
        "from merminsim import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['verify']) == 0\n"
        "    assert cli.main(['bounds', '--qubits', '5', '--setup', 'al']) == 0\n"
        "assert 'numpy.random' not in sys.modules, 'numpy.random was imported'\n"
    )
    src = str(Path(merminsim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--qubits", "6", "--setup", "mermin"],
        ["run", "--qubits", "3"],
        ["run", "--qubits", "3", "--setup", "bogus"],
        ["bogus-command"],
        [],
        ["run", "--workers", "2"],
    ],
)
def test_usage_errors_exit_one(argv, capsys):
    # argparse prints its usage and error lines, but the exit code is 1, not its 2.
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert lines[0].startswith("usage: merminsim")
    assert lines[-1].startswith("merminsim") and ": error: " in lines[-1]


def test_bad_noise_string_exits_one(capsys):
    assert main(["run", "--qubits", "3", "--setup", "mermin", "--noise", "0.5"]) == 1
    assert "invalid configuration" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra",
    [
        ["--violation-sigmas", "nan"],
        ["--violation-sigmas", "inf"],
        ["--shots", "2.5"],
        ["--seed", "1.7"],
        ["--workers", "2"],
        ["--shots", str(10**20)],
    ],
    ids=[
        "nan-sigmas", "inf-sigmas", "fractional-shots", "fractional-seed", "removed-workers-flag",
        "shots-beyond-int64",
    ],
)
def test_invalid_run_inputs_exit_one(extra, capsys):
    assert main(["run", "--qubits", "3", "--setup", "mermin", *extra]) == 1
    assert capsys.readouterr().out == ""


def test_non_finite_report_exits_one(monkeypatch, capsys):
    # A report carrying nan must never be printed as (invalid) JSON.
    real = cli.run_experiment

    def nan_report(cfg):
        return dataclasses.replace(real(cfg), value=float("nan"))

    monkeypatch.setattr(cli, "run_experiment", nan_report)
    assert main(["run", "--qubits", "3", "--setup", "mermin"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid configuration" in captured.err


@pytest.mark.parametrize("field", ["lr_bound", "qm_value", "ghz_phase"])
def test_corrupted_catalog_entry_exits_two(field, monkeypatch, capsys):
    # A stored bound off by one, or a GHZ phase the polynomial no longer has
    # as an eigenvector, must stop every report and the bounds audit.
    def corrupted(n, setup):
        sc = setup_config(n, setup)
        if field == "ghz_phase":
            return dataclasses.replace(sc, ghz_phase=sc.ghz_phase + 0.3)
        poly = dataclasses.replace(sc.polynomial, **{field: getattr(sc.polynomial, field) + 1})
        return dataclasses.replace(sc, polynomial=poly)

    monkeypatch.setattr(harness, "setup_config", corrupted)
    monkeypatch.setattr(cli, "setup_config", corrupted)
    with pytest.raises(InvariantError):
        run_experiment(ExperimentConfig(qubits=4, setup="al"))
    assert main(["run", "--qubits", "4", "--setup", "al"]) == 2
    assert main(["bounds", "--qubits", "4", "--setup", "al"]) == 2
    captured = capsys.readouterr()
    assert "verification: OK" not in captured.out
    assert captured.err.count("internal invariant failure") == 2


def test_cli_choices_follow_the_catalog():
    subparsers = next(a for a in cli.build_parser()._actions if a.dest == "command").choices
    for command in ("run", "exchange-test", "bounds"):
        options = {a.dest: a.choices for a in subparsers[command]._actions}
        assert tuple(options["qubits"]) == QUBIT_COUNTS == (3, 4, 5)
        if command != "exchange-test":
            assert tuple(options["setup"]) == SETUP_IDS == ("mermin", "al", "al-mod")
    assert [(sc.n, sc.setup.value) for sc in all_setup_configs()] == [
        (n, s) for n in QUBIT_COUNTS for s in SETUP_IDS
    ]


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "merminsim" in capsys.readouterr().out
