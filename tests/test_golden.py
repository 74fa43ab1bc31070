"""Golden reports: four stored CLI outputs and three digests that pin the
report bytes.

Each file under ``tests/data`` is the stdout of the command beside it.  A
fresh run must print exactly those bytes, and a stored experiment report,
loaded with ``ExperimentReport.from_dict`` and rendered again, must give them
back.  The digests cover every cell in every format at four noise levels,
the exchange reports apart from the experiment reports (so a byte move
shows which of the two it touched), and the audit commands' output, so a
change of summation order anywhere in estimation or combination shows on
every Python version the tests run on.
The files and digests were made with numpy 2.4.6.  The sampled values depend
on numpy's PCG64 bit generator and on its legacy ``RandomState.multinomial``
(each row drawn from a state set by ``sampling.generator_state``), a stream
numpy's RNG policy (NEP 19) freezes, so a numpy release should not move
them; CI checks that at the oldest numpy ``pyproject.toml`` allows.  The term
seeds and the ``bounds`` and ``verify`` output do not depend on numpy's
draws.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from conftest import string_keyed_expectation
from merminsim import (
    ExperimentConfig,
    ExperimentReport,
    NoiseModel,
    PauliString,
    ghz_circuit,
    measurement_transform,
    outcome_probabilities,
    render_exchange_report,
    render_report,
    run_exchange_test,
    run_experiment,
)
from merminsim.cli import main
from merminsim.sampling import checked_weights

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


def test_a_golden_term_is_drawn_from_its_stored_seed_by_the_documented_recipe():
    # The README's recipe, with numpy and hashlib alone, from the term's seed
    # to its counts; the estimate of those counts is the stored one.
    d = json.loads((DATA / "run_5q_al-mod_seed12345_p01.json").read_text())
    cfg, term = d["config"], d["terms"][1]
    axes = PauliString.from_str(term["axes"])
    circuit = ghz_circuit(cfg["qubits"], d["ghz_phase"]).then(measurement_transform(axes))
    weights = checked_weights(outcome_probabilities(circuit, NoiseModel(**cfg["noise"])))
    digest = hashlib.sha256(b"merminsim pcg64\x1f" + str(term["seed"]).encode()).digest()
    bit_generator = np.random.PCG64()
    bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {
            "state": int.from_bytes(digest[:16], "little"),
            "inc": int.from_bytes(digest[16:], "little") | 1,
        },
        "has_uint32": 0,
        "uinteger": 0,
    }
    counts = np.random.RandomState(bit_generator).multinomial(cfg["shots"], weights)
    estimate = string_keyed_expectation(counts)
    assert estimate == (term["value"], term["error"])


NOISES = [NoiseModel(p, p, p) for p in (0.0, 0.01, 0.02, 0.03)]


def _experiment_texts():
    """The 648 reports of the experiment digest, in its order: for each p in
    0, .01, .02 and .03 (p1 = p2 = readout = p), ``run_experiment`` over
    3/4/5 qubits x mermin/al/al-mod x class/expanded x seeds 0/7/12345 x
    json/csv/md."""
    for noise in NOISES:
        for qubits in (3, 4, 5):
            for setup in ("mermin", "al", "al-mod"):
                for expand in (False, True):
                    for seed in (0, 7, 12345):
                        cfg = ExperimentConfig(
                            qubits=qubits, setup=setup, seed=seed, noise=noise, expand_permutations=expand
                        )
                        report = run_experiment(cfg)
                        for fmt in ("json", "csv", "md"):
                            yield render_report(report, fmt)


def _exchange_texts():
    """The 72 reports of the exchange digest, in its order: for each p as
    above, ``run_exchange_test`` over 3/4/5 qubits x seeds 0/3 x json/csv/md."""
    for noise in NOISES:
        for qubits in (3, 4, 5):
            for seed in (0, 3):
                report = run_exchange_test(seed=seed, noise=noise, qubits=qubits)
                for fmt in ("json", "csv", "md"):
                    yield render_exchange_report(report, fmt)


def _digest(texts) -> tuple[int, str]:
    digest = hashlib.sha256()
    count = 0
    for text in texts:
        digest.update(text.encode())
        count += 1
    return count, digest.hexdigest()


def test_sweep_reports_digest():
    assert _digest(_experiment_texts()) == (
        648,
        "6714e45485cb6f6ab46879e0f1caf3ef5309e2c9a48be1bb4bdc96db9a940e0d",
    )


def test_sweep_exchange_reports_digest():
    assert _digest(_exchange_texts()) == (
        72,
        "c0a389942d8a20dd5ba73bef45a53914e73cd2917bb95d4a9fd7b6afcf607477",
    )


def test_bounds_and_verify_stdout_digest():
    # ``bounds`` for the nine cells (3/4/5 qubits x mermin/al/al-mod), then ``verify``.
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for qubits in ("3", "4", "5"):
            for setup in ("mermin", "al", "al-mod"):
                assert main(["bounds", "--qubits", qubits, "--setup", setup]) == 0
        assert main(["verify"]) == 0
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digest == "4648902696453f3e4ea5c4e891d00d70ad348039635e3ca342f5e961f70edfa3"
