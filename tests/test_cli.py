"""Command-line interface: exit codes, formats, and output files."""

from __future__ import annotations

import contextlib
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import merminsim
from merminsim import ExperimentConfig, InvariantError, cli, harness, run_experiment
from merminsim.circuits import QUBIT_COUNTS, SETUP_IDS, SetupConfig, all_setup_configs, setup_config
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


def _python(*args: str, stdout: int = subprocess.PIPE, **env: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports this checkout's ``merminsim``,
    with ``env`` added to this process's environment."""
    src = str(Path(merminsim.__file__).resolve().parents[1])
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], env=env, stdout=stdout, stderr=subprocess.PIPE, timeout=120)


def _run_entry(argv: list[str], setup: str, **kwargs) -> subprocess.CompletedProcess:
    """Run ``python -m merminsim argv`` through runpy in a fresh interpreter,
    after the statements in ``setup``; ``kwargs`` go to ``_python``."""
    code = f"import runpy, sys\n{setup}\nsys.argv = {['merminsim', *argv]!r}\n"
    return _python("-c", code + "runpy.run_module('merminsim', run_name='__main__', alter_sys=True)\n", **kwargs)


@contextlib.contextmanager
def _reader_gone():
    """The write end of a pipe whose read end is already closed."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        yield write_end
    finally:
        os.close(write_end)


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
    done = _python("-c", code)
    assert done.returncode == 0, done.stderr.decode()


@pytest.mark.parametrize(
    "argv, exit_code",
    [
        (["run", "--qubits", "5", "--setup", "al-mod", "--noise", "0.01,0.01,0.01", "--expand-permutations",
          "--shots", "2048"], 0),
        (["run", "--qubits", "3", "--setup", "mermin", "--seed", "3", "--format", "csv"], 0),
        (["run", "--qubits", "4", "--setup", "al", "--seed", "7", "--format", "md"], 0),
        (["run", "--qubits", "5", "--setup", "al-mod", "--expand-permutations", "--out", "OUT"], 0),
        (["exchange-test", "--noise", "0.01,0.01,0.01", "--format", "md"], 0),
        (["bounds", "--qubits", "5", "--setup", "al"], 0),
        (["verify"], 0),
        (["run", "--qubits", "3", "--setup", "mermin", "--shots", "0"], 1),
    ],
    ids=["run-json", "run-csv", "run-md", "run-out", "exchange-md", "bounds", "verify", "shots-zero"],
)
def test_process_entry_prints_what_main_prints(argv, exit_code, tmp_path, capsys):
    # ``python -m merminsim`` goes through ``console_main``, which ends the
    # process with os._exit once the output is flushed; that must not move a
    # byte or an exit code, on stdout or in an --out file.
    in_process, child = ([str(tmp_path / f) if a == "OUT" else a for a in argv] for f in ("main.out", "child.out"))
    assert main(in_process) == exit_code
    captured = capsys.readouterr()
    done = _python("-m", "merminsim", *child)
    assert done.returncode == exit_code
    assert done.stdout == captured.out.encode()
    assert done.stderr.decode() == captured.err
    if "OUT" in argv:
        assert (tmp_path / "child.out").read_bytes() == (tmp_path / "main.out").read_bytes()


def test_main_leaves_the_collector_alone(capsys):
    # A library caller's heap stays collectable: main never touches the collector.
    frozen, enabled = gc.get_freeze_count(), gc.isenabled()
    for argv in (["run", "--qubits", "3", "--setup", "mermin"], ["verify"], ["bogus-command"]):
        main(argv)
        assert (gc.get_freeze_count(), gc.isenabled()) == (frozen, enabled)
    capsys.readouterr()


def test_process_entry_runs_atexit_handlers_once_after_the_output(capsys):
    # The entry runs the atexit callbacks itself, then flushes and skips
    # finalisation, so a handler's output must follow the whole report, once.
    argv = ["bounds", "--qubits", "3", "--setup", "mermin"]
    assert main(argv) == 0
    report = capsys.readouterr().out
    done = _run_entry(argv, "import atexit\natexit.register(print, 'atexit handler ran')")
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout.decode() == report + "atexit handler ran\n"


@pytest.mark.parametrize("closed", [False, True], ids=["stdout-open", "stdout-closed"])
def test_process_entry_exits_two_on_an_invariant_failure(closed):
    # A brute force that disagrees with the stored LR bound fails the recheck.
    # bounds has printed lines by then: if stdout is closed, flushing them
    # fails too, and the invariant failure's code and line still stand alone.
    setup = (
        "from merminsim import harness, lhv\n"
        "harness.lr_bound_bruteforce = lambda p, k=1: lhv.lr_bound_bruteforce(p, k) + (k == 1)"
    )
    argv = ["bounds", "--qubits", "3", "--setup", "mermin"]
    with _reader_gone() if closed else contextlib.nullcontext(subprocess.PIPE) as stdout:
        done = _run_entry(argv, setup, stdout=stdout, PYTHONUNBUFFERED="")
    assert done.returncode == 2
    err = done.stderr.decode()
    assert len(err.splitlines()) == 1 and err.startswith("merminsim: internal invariant failure: 3q/mermin LR bound")
    assert closed or done.stdout.decode().startswith("qubits: 3\n")


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv",
    [["verify"], ["bounds", "--qubits", "4", "--setup", "al"],
     ["run", "--qubits", "5", "--setup", "al-mod", "--expand-permutations"]],
    ids=["verify", "bounds", "run-5q-expanded"],
)
def test_closed_stdout_exits_one_with_one_line(argv, unbuffered):
    # A reader that has gone away used to cost a BrokenPipeError traceback.
    # Buffered, the write fails when console_main flushes stdout; unbuffered,
    # when the command writes.
    with _reader_gone() as stdout:
        done = _python("-m", "merminsim", *argv, stdout=stdout, PYTHONUNBUFFERED=unbuffered)
    assert done.returncode == 1
    err = done.stderr.decode()
    assert len(err.splitlines()) == 1 and err.startswith("merminsim: cannot write the report: "), err
    assert "Traceback" not in err


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
        return real(cfg)._replace(value=float("nan"))

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
            # SetupConfig refuses this phase, so set the fields past its checks.
            bad = object.__new__(SetupConfig)
            bad._set(sc.n, sc.setup, sc.ghz_phase + 0.3, sc.polynomial)
            return bad
        poly = sc.polynomial._replace(**{field: getattr(sc.polynomial, field) + 1})
        return sc._replace(polynomial=poly)

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
