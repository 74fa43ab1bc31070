"""Seeded operation lists for the three benchmark workloads.

Pure standard library, so the set-up probe can import it before timing
``import merminsim`` without paying for numpy here.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned.  Operations come in *rounds*.  The k-th
round's mix of operations is fixed (only the order and the per-operation
seeds depend on the workload seed), so a run made of whole rounds does the
same kind of work on every commit and with every seed, however fast each
operation is.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterator

SHOTS = 16384
QUBITS = (3, 4, 5)
SETUPS = ("mermin", "al", "al-mod")
FORMATS = ("json", "csv", "md")
NOISE_LEVELS = (0.01, 0.02, 0.03)  # p1 = p2 = readout, acceptance criterion 7's sweep

# The benchmark's own copy of the catalog, used to judge outputs.  It is
# written out here rather than read from the package so a corrupted catalog
# cannot vouch for itself.
GHZ_PHASE = {
    (3, "mermin"): math.pi / 2,
    (3, "al"): math.pi / 2,
    (3, "al-mod"): math.pi / 2,
    (4, "mermin"): math.pi / 2,
    (4, "al"): -math.pi / 4,
    (4, "al-mod"): 3 * math.pi / 4,
    (5, "mermin"): math.pi / 2,
    (5, "al"): 0.0,
    (5, "al-mod"): math.pi,
}
LR_BOUND = {3: 2.0, 4: 4.0, 5: 4.0}
FOURPARTY_BOUND = 8.0


def qm_value(qubits: int, setup: str) -> float:
    """Quantum maximum: 2**(n-1), times sqrt(2) for the even-n recursion."""
    value = float(2 ** (qubits - 1))
    if qubits % 2 == 0 and setup != "mermin":
        value *= math.sqrt(2.0)
    return value


def has_fourparty_flag(qubits: int, setup: str) -> bool:
    return qubits == 4 and setup in ("al", "al-mod")


WORKLOADS = ("clean_catalog", "noisy_sweep", "cli_runs")

# Interpreter-bound workloads time a bare interpreter start before every k-th
# operation and report their times rescaled by it (see stats.REF_START_S).
# noisy_sweep spends its time in numpy kernels on large arrays, whose speed
# does not follow the interpreter's, so it is reported as measured.
REF_EVERY = {"clean_catalog": 18, "cli_runs": 1}


@dataclass(frozen=True)
class Op:
    """One operation.  ``kind`` is a ``merminsim`` subcommand; in-process
    workloads run ``run`` operations through the library instead."""

    kind: str
    qubits: int = 3
    setup: str = "mermin"
    expanded: bool = False
    p: float = 0.0
    seed: int = 0
    fmt: str = "json"

    def argv(self) -> list[str]:
        """The ``merminsim`` command line that performs this operation."""
        if self.kind == "verify":
            return ["verify"]
        if self.kind == "bounds":
            return ["bounds", "--qubits", str(self.qubits), "--setup", self.setup]
        if self.kind == "exchange-test":
            return ["exchange-test", "--qubits", str(self.qubits), "--seed", str(self.seed),
                    "--shots", str(SHOTS), "--format", self.fmt]
        argv = ["run", "--qubits", str(self.qubits), "--setup", self.setup,
                "--seed", str(self.seed), "--shots", str(SHOTS), "--format", self.fmt]
        if self.expanded:
            argv.append("--expand-permutations")
        if self.p:
            argv += ["--noise", f"{self.p!r},{self.p!r},{self.p!r}"]
        return argv


def _clean_round(rng: random.Random, k: int) -> list[Op]:
    # All 18 clean cells (qubits x setup x class/expanded), each in every format.
    ops = [
        Op("run", n, s, e, 0.0, rng.randrange(2**31), fmt)
        for n in QUBITS for s in SETUPS for e in (False, True) for fmt in FORMATS
    ]
    rng.shuffle(ops)
    return ops


def _noisy_round(rng: random.Random, k: int) -> list[Op]:
    # The whole 54-cell sweep: qubits x setup x class/expanded x noise level.
    ops = [
        Op("run", n, s, e, p, rng.randrange(2**31), "json")
        for n in QUBITS for s in SETUPS for e in (False, True) for p in NOISE_LEVELS
    ]
    rng.shuffle(ops)
    return ops


def _cli_round(rng: random.Random, k: int) -> list[Op]:
    # Six clean `run` processes: each qubit count with one setup in both
    # modes, the three setups rotating over the qubit counts so that three
    # rounds cover all 18 cells; each format twice.  Then one exchange test,
    # one bounds recheck (nine rounds cover every cell) and one full verify.
    ops = [
        Op("run", n, SETUPS[(i + k) % 3], expanded, 0.0, rng.randrange(2**31), FORMATS[(2 * i + j + k) % 3])
        for i, n in enumerate(QUBITS) for j, expanded in enumerate((False, True))
    ]
    ops.append(Op("exchange-test", QUBITS[k % 3], seed=rng.randrange(2**31)))
    ops.append(Op("bounds", QUBITS[k % 3], SETUPS[k // 3 % 3]))
    ops.append(Op("verify"))
    rng.shuffle(ops)
    return ops


_ROUNDS = {"clean_catalog": _clean_round, "noisy_sweep": _noisy_round, "cli_runs": _cli_round}


def rounds(workload: str, seed: int) -> Iterator[list[Op]]:
    """Endless rounds for ``workload``; the same seed gives the same rounds."""
    make = _ROUNDS[workload]
    rng = random.Random(f"{workload}:{seed}")
    for k in itertools.count():
        yield make(rng, k)


def warmup_op(workload: str) -> Op:
    """The untimed first operation that completes set-up."""
    if workload == "noisy_sweep":
        return Op("run", 3, "mermin", False, NOISE_LEVELS[0], 0, "json")
    return Op("run", 3, "mermin", False, 0.0, 0, "json")


def repro_op(first_round: list[Op]) -> Op:
    """The operation repeated at the end of a run to check byte reproducibility:
    the first clean or three-qubit class-mode ``run`` of the first round, so the
    repeat stays cheap on every workload."""
    for op in first_round:
        if op.kind == "run" and (op.p == 0.0 or (op.qubits == 3 and not op.expanded)):
            return op
    raise ValueError("round has no cheap run operation")


def run_in_library(pkg, op: Op) -> str:
    """Perform a ``run`` operation through the public library API.  Names are
    looked up on the package at call time, so traced rebinding takes effect."""
    cfg = pkg.ExperimentConfig(
        qubits=op.qubits,
        setup=op.setup,
        shots=SHOTS,
        seed=op.seed,
        noise=pkg.NoiseModel(op.p, op.p, op.p),
        expand_permutations=op.expanded,
    )
    return pkg.render_report(pkg.run_experiment(cfg), op.fmt)


def run_in_cli(pkg, op: Op) -> str:
    """Perform an operation through the command-line entry point, in process,
    and return what it printed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = pkg.cli.main(op.argv())
    if code != 0:
        raise RuntimeError(f"merminsim {' '.join(op.argv())} exited {code}")
    return buf.getvalue()
