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
    Circuit,
    ExperimentConfig,
    ExperimentReport,
    Gate,
    MerminPolynomial,
    NoiseModel,
    SetupConfig,
    TermEstimate,
    alsina_recursive,
    collapse,
    ghz_circuit,
    ghz_state,
    init_zero,
    lr_bound_formula,
    mermin_direct,
    run_experiment,
    setup_config,
)
from merminsim.statevector import Record


def _report():
    return run_experiment(ExperimentConfig(qubits=3, setup="mermin", shots=100))


# Each record with a factory for one instance and a change its constructor refuses.
RECORDS = [
    pytest.param(lambda: Gate("PHASE", (0,), 0.5), {"kind": "T"}, id="Gate"),
    pytest.param(lambda: ghz_circuit(3), {"n": 2}, id="Circuit"),
    pytest.param(lambda: setup_config(4, "al"), {"ghz_phase": 0.0}, id="SetupConfig"),
    pytest.param(lambda: mermin_direct(3), {"n": 4}, id="MerminPolynomial"),
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
        lambda: MerminPolynomial(3, [(Fraction(1), "XXY")], 2.0, 1.0),
        lambda: mermin_direct(3)._replace(n=3.0),
        lambda: mermin_direct(3)._replace(lr_bound="x"),
        lambda: mermin_direct(3)._replace(qm_value=None),
        lambda: mermin_direct(3)._replace(lr_bound=math.nan),
        lambda: mermin_direct(3)._replace(qm_value=math.inf),
        lambda: mermin_direct(3)._replace(lr_bound=-2.0),
    ],
    ids=[
        "term-y-list", "term-y-negative", "term-axes-list", "term-coefficient-fraction", "term-coefficient-bool",
        "term-multiplicity-0", "term-multiplicity-float", "polynomial-coefficient-fraction", "polynomial-n-float",
        "polynomial-lr-str", "polynomial-qm-none", "polynomial-lr-nan", "polynomial-qm-inf", "polynomial-lr-negative",
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
    # A class's coefficient and multiplicity come from a polynomial, which reads its coefficients as ints.
    ((coefficient, _, multiplicity),) = collapse(MerminPolynomial(np.int64(3), [(np.int64(-1), "YYY")], 2.0, 1.0))
    assert term == TermEstimate(1, "XXY", -1, 3, 0.5, 0.1, 0)
    fields = (term.y_count, term.coefficient, term.multiplicity, coefficient, multiplicity)
    assert {type(v) for v in fields} == {int}


@pytest.mark.parametrize(
    "n, gates",
    [
        (3.5, (Gate("H", (0,)),)),
        (True, ()),
        (0, ()),
        (99, ()),
        ("3", ()),
        (3, (("H", (0,)),)),
        (3, None),
    ],
    ids=["float-n", "bool-n", "zero-n", "large-n", "str-n", "tuple-gate", "no-gates"],
)
def test_circuit_fields_are_checked(n, gates):
    # The first four used to build; the rest raised TypeError or AttributeError.
    with pytest.raises(ValueError):
        Circuit(n, gates)


def test_circuit_reads_a_numpy_n_as_a_plain_int():
    circuit = Circuit(np.int64(2), [Gate("H", (1,))])
    assert circuit == Circuit(2, (Gate("H", (1,)),)) and type(circuit.n) is int


@pytest.mark.parametrize("n", [2.5, 3.0, True], ids=["float", "integral-float", "bool"])
@pytest.mark.parametrize(
    "build",
    [
        lr_bound_formula,
        init_zero,
        lambda n: ghz_state(n, 0.0),
        ghz_circuit,
        lambda n: setup_config(n, "mermin"),
        mermin_direct,
        alsina_recursive,
    ],
    ids=[
        "lr_bound_formula", "init_zero", "ghz_state", "ghz_circuit", "setup_config", "mermin_direct",
        "alsina_recursive",
    ],
)
def test_qubit_counts_are_read_as_ints(build, n):
    # lr_bound_formula(2.5) returned 2.0 and init_zero(True) a 1-qubit state;
    # the rest raised TypeError.
    with pytest.raises(ValueError):
        build(n)


@pytest.mark.parametrize(
    "build",
    [
        lambda: ExperimentReport(None, (), 0.0, 0.0, "VIOLATES_LR", None),
        lambda: (r := _report())._replace(terms=tuple(t._values for t in r.terms)),
        lambda: _report()._replace(terms=None),
        lambda: Gate("H", 0),
        lambda: MerminPolynomial(3, None, 2.0, 4.0),
        lambda: MerminPolynomial(3, [None], 2.0, 4.0),
    ],
    ids=["report-config-none", "report-term-tuple", "report-terms-none", "gate-targets-int", "polynomial-terms-none",
         "polynomial-term-none"],
)
def test_constructors_refuse_a_wrong_container_or_element_type(build):
    # These raised AttributeError or TypeError, not the ValueError of any
    # other refused field.
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize(
    "n, setup, phase, poly",
    [
        (3, "mermin", 0.1, None),
        (3, "mermin", math.pi / 2, None),
        (4, "mermin", math.pi / 2, mermin_direct(3)),
        (3.0, "mermin", math.pi / 2, mermin_direct(3)),
        (3, "mermin", 0.0, mermin_direct(3)),
        (3, "mermin", None, mermin_direct(3)),
        (3, "bogus", math.pi / 2, mermin_direct(3)),
        (3, None, math.pi / 2, mermin_direct(3)),
    ],
    ids=["none-and-phase", "no-polynomial", "other-n", "float-n", "other-phase", "no-phase", "bad-setup", "no-setup"],
)
def test_setup_config_fields_are_checked(n, setup, phase, poly):
    with pytest.raises(ValueError):
        SetupConfig(n, setup, phase, poly)


def test_setup_config_reads_a_setup_id_as_its_member():
    sc = setup_config(4, "al")
    assert SetupConfig(np.int64(4), "al", sc.ghz_phase, sc.polynomial) == sc
    assert type(SetupConfig(4, "al", sc.ghz_phase, sc.polynomial).n) is int
