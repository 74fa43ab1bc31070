"""The value records' shared contract (``statevector.Record``): frozen,
compared and hashed by their fields, pickled and replaced through their
validating constructor."""

from __future__ import annotations

import importlib
import inspect
import pickle
import pkgutil

import numpy as np
import pytest

import merminsim
from merminsim import (
    ExperimentConfig,
    Gate,
    NoiseModel,
    PauliString,
    collapse,
    ghz_circuit,
    ghz_state,
    mermin_direct,
    run_experiment,
    setup_config,
)


def _report():
    return run_experiment(ExperimentConfig(qubits=3, setup="mermin", shots=100))


# Each record with a factory for one instance and a change its constructor
# refuses (None for the two records that take their fields as given).
RECORDS = [
    pytest.param(lambda: Gate("PHASE", (0,), 0.5), {"kind": "T"}, id="Gate"),
    pytest.param(lambda: ghz_circuit(3), {"n": 2}, id="Circuit"),
    pytest.param(lambda: setup_config(4, "al"), None, id="SetupConfig"),
    pytest.param(lambda: PauliString.from_str("XXY"), {"axes": ("Z",)}, id="PauliString"),
    pytest.param(lambda: mermin_direct(3), {"n": 4}, id="MerminPolynomial"),
    pytest.param(lambda: collapse(mermin_direct(3))[1], None, id="SymmetryClass"),
    pytest.param(lambda: NoiseModel(0.01, 0.02, 0.03), {"p1": 2.0}, id="NoiseModel"),
    pytest.param(lambda: ExperimentConfig(qubits=3, setup="mermin"), {"qubits": 6}, id="ExperimentConfig"),
    pytest.param(lambda: _report().terms[0], {"error": -1.0}, id="TermEstimate"),
    pytest.param(_report, {"verdict": "MAYBE"}, id="ExperimentReport"),
]


@pytest.mark.parametrize("make, bad", RECORDS)
def test_record_contract(make, bad):
    record = make()
    fields = type(record).__slots__
    values = tuple(getattr(record, name) for name in fields)
    assert record._values == values

    for name in (fields[0], "other"):
        with pytest.raises(AttributeError):
            setattr(record, name, values[0])
    with pytest.raises(AttributeError):
        delattr(record, fields[0])

    copy = type(record)(**dict(zip(fields, values)))
    assert copy is not record and copy == record and hash(copy) == hash(record)
    assert record != values and record.__eq__(values) is NotImplemented
    assert pickle.loads(pickle.dumps(record)) == record
    assert record._replace() == record
    if bad is not None:
        with pytest.raises(ValueError):
            record._replace(**bad)


def test_record_repr_names_every_field():
    assert repr(NoiseModel(0.01)) == "NoiseModel(p1=0.01, p2=0.0, readout_flip=0.0)"


def test_replace_changes_only_the_named_fields():
    assert NoiseModel(0.01)._replace(p2=0.5) == NoiseModel(0.01, 0.5)
    with pytest.raises(TypeError):
        NoiseModel()._replace(p3=0.5)


def test_no_package_class_is_a_dataclass():
    names = [m.name for m in pkgutil.iter_modules(merminsim.__path__) if m.name != "__main__"]
    modules = [importlib.import_module(f"merminsim.{name}") for name in names]
    classes = [c for mod in modules for _, c in inspect.getmembers(mod, inspect.isclass)]
    assert classes and not [c for c in classes if hasattr(c, "__dataclass_fields__")]


def test_states_compare_by_identity():
    # Two equal states are distinct mutable buffers; compare amplitudes.
    a, b = ghz_state(3, 0.0), ghz_state(3, 0.0)
    assert (a == a) is True and (a == b) is False
    assert np.array_equal(a.amplitudes, b.amplitudes)
