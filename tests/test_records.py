"""The value records' shared contract (``statevector.Record``): frozen,
compared and hashed by their fields, pickled and replaced through their
validating constructor."""

from __future__ import annotations

import importlib
import inspect
import math
import pickle
import pkgutil
from fractions import Fraction

import numpy as np
import pytest

import merminsim
from merminsim import (
    ExperimentConfig,
    Gate,
    MerminPolynomial,
    NoiseModel,
    PauliString,
    SymmetryClass,
    TermEstimate,
    collapse,
    ghz_circuit,
    ghz_state,
    mermin_direct,
    run_experiment,
    setup_config,
)
from merminsim.statevector import Record


def _report():
    return run_experiment(ExperimentConfig(qubits=3, setup="mermin", shots=100))


# Each record with a factory for one instance and a change its constructor
# refuses (None for SetupConfig, which takes its fields as given).
RECORDS = [
    pytest.param(lambda: Gate("PHASE", (0,), 0.5), {"kind": "T"}, id="Gate"),
    pytest.param(lambda: ghz_circuit(3), {"n": 2}, id="Circuit"),
    pytest.param(lambda: setup_config(4, "al"), None, id="SetupConfig"),
    pytest.param(lambda: PauliString.from_str("XXY"), {"axes": ("Z",)}, id="PauliString"),
    pytest.param(lambda: mermin_direct(3), {"n": 4}, id="MerminPolynomial"),
    pytest.param(lambda: collapse(mermin_direct(3))[1], {"multiplicity": 0}, id="SymmetryClass"),
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


def _package_classes() -> set[type]:
    """Every class a merminsim module defines or imports."""
    names = [m.name for m in pkgutil.iter_modules(merminsim.__path__) if m.name != "__main__"]
    modules = [importlib.import_module(f"merminsim.{name}") for name in names]
    return {c for mod in modules for _, c in inspect.getmembers(mod, inspect.isclass)}


def test_no_package_class_is_a_dataclass():
    classes = _package_classes()
    assert classes and not [c for c in classes if hasattr(c, "__dataclass_fields__")]


def test_every_record_class_is_in_records():
    # A new Record subclass must join RECORDS, so the contract test runs on it.
    records = {c for c in _package_classes() if issubclass(c, Record) and c is not Record}
    assert {type(param.values[0]()) for param in RECORDS} == records


def test_set_takes_one_value_per_field():
    gate = Gate("H", (0,))
    for values in (("S", (1,)), ("S", (1,), None, None)):
        with pytest.raises(ValueError):
            gate._set(*values)
    assert gate == Gate("H", (0,)) and gate.kind == "H"


@pytest.mark.parametrize(
    "make, field",
    [
        (lambda: ghz_circuit(3), "gates"),
        (lambda: mermin_direct(3), "terms"),
        (_report, "terms"),
    ],
    ids=["Circuit", "MerminPolynomial", "ExperimentReport"],
)
def test_sequence_fields_are_stored_as_tuples(make, field):
    # A list would leave the record unequal to its source and unhashable.
    record = make()
    copy = record._replace(**{field: list(getattr(record, field))})
    assert type(getattr(copy, field)) is tuple
    assert copy == record and hash(copy) == hash(record)


@pytest.mark.parametrize(
    "build",
    [
        lambda: TermEstimate(["x"], "XXY", 1, 1, 0.5, 0.1, 0),
        lambda: TermEstimate(-1, "XXY", 1, 1, 0.5, 0.1, 0),
        lambda: TermEstimate(1, ["XXY"], 1, 1, 0.5, 0.1, 0),
        lambda: TermEstimate(1, "XXY", Fraction(1), 1, 0.5, 0.1, 0),
        lambda: TermEstimate(1, "XXY", True, 1, 0.5, 0.1, 0),
        lambda: TermEstimate(1, "XXY", 1, 0, 0.5, 0.1, 0),
        lambda: TermEstimate(1, "XXY", 1, 1.0, 0.5, 0.1, 0),
        lambda: SymmetryClass(["y"], 1, 1),
        lambda: SymmetryClass(-1, 1, 1),
        lambda: SymmetryClass(1, 1.0, 1),
        lambda: SymmetryClass(1, Fraction(1), 1),
        lambda: SymmetryClass(1, 1, 0),
        lambda: SymmetryClass(1, 1, True),
        lambda: MerminPolynomial(3, [(Fraction(1), PauliString.from_str("XXY"))], 2.0, 1.0),
        lambda: mermin_direct(3)._replace(n=3.0),
        lambda: mermin_direct(3)._replace(lr_bound="x"),
        lambda: mermin_direct(3)._replace(qm_value=None),
        lambda: mermin_direct(3)._replace(lr_bound=math.nan),
        lambda: mermin_direct(3)._replace(qm_value=math.inf),
        lambda: mermin_direct(3)._replace(lr_bound=-2.0),
    ],
    ids=[
        "term-y-list", "term-y-negative", "term-axes-list", "term-coefficient-fraction", "term-coefficient-bool",
        "term-multiplicity-0", "term-multiplicity-float", "class-y-list", "class-y-negative",
        "class-coefficient-float", "class-coefficient-fraction", "class-multiplicity-0", "class-multiplicity-bool",
        "polynomial-coefficient-fraction", "polynomial-n-float", "polynomial-lr-str", "polynomial-qm-none",
        "polynomial-lr-nan", "polynomial-qm-inf", "polynomial-lr-negative",
    ],
)
def test_term_and_class_fields_are_checked(build):
    # Most of these used to build (a Fraction coefficient was the required
    # type, and n = 3.0 even compared equal to its source), and hash() of the
    # list ones raised TypeError.
    with pytest.raises(ValueError):
        build()


def test_term_and_class_read_numpy_integers_as_plain_ints():
    term = TermEstimate(np.int64(1), "XXY", np.int64(-1), np.int64(3), 0.5, 0.1, 0)
    cls = SymmetryClass(np.int64(1), np.int64(-1), np.int64(3))
    assert term == TermEstimate(1, "XXY", -1, 3, 0.5, 0.1, 0)
    assert cls == SymmetryClass(1, -1, 3)
    fields = (term.y_count, term.coefficient, term.multiplicity, cls.y_count, cls.coefficient, cls.multiplicity)
    assert {type(v) for v in fields} == {int}


def test_states_compare_by_identity():
    # Two equal states are distinct mutable buffers; compare amplitudes.
    a, b = ghz_state(3, 0.0), ghz_state(3, 0.0)
    assert (a == a) is True and (a == b) is False
    assert np.array_equal(a.amplitudes, b.amplitudes)
