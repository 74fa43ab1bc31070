"""Internal consistency of the published device tables.

Each published row lists per-class expectation values and the combined
polynomial result; recombining the terms through the matching polynomial's
coefficients must reproduce the published result within the rounding budget
of the displayed precision.  This guards the transcription, not the devices.
"""

from __future__ import annotations

import pytest

from merminsim import all_setup_configs, collapse, exchange_spread, setup_config
from merminsim.circuits import SETUP_IDS
from merminsim.harness import _checked_setup
from merminsim.reference import HEADLINE, MACHINES, device_results, exchange_results

ALL_TABLES = [(3, "mermin"), (4, "mermin"), (4, "al"), (4, "al-mod"), (5, "mermin"), (5, "al"), (5, "al-mod")]


@pytest.mark.parametrize("qubits,setup", ALL_TABLES, ids=lambda v: str(v))
def test_published_rows_recombine_to_published_results(qubits, setup):
    table = device_results(qubits, setup)
    classes = collapse(setup_config(qubits, setup).polynomial)
    assert [s.count("Y") for _, s, _ in classes] == [col.count("Y") for col in table["columns"]]
    for machine in MACHINES:
        row = table["rows"][machine]
        combined = sum(float(c) * m * term for (c, _, m), term in zip(classes, row["terms"]))
        # Terms are displayed at 3 decimals and results at 2, so the
        # recombination can differ by at most the accumulated rounding.
        budget = 0.0005 * sum(abs(float(c)) * m for c, _, m in classes) + 0.005
        assert abs(combined - row["result"]) <= budget + 1e-12, (machine, combined)


@pytest.mark.parametrize("config", all_setup_configs(), ids=lambda c: f"{c.n}q-{c.setup.value}")
def test_published_columns_are_the_class_plan_axes(config):
    # A class-mode markdown table sets the published rows under its plan's
    # columns, one per symmetry class.
    axes = _checked_setup(config.n, config.setup).modes[False].axes
    assert device_results(config.n, config.setup.value)["columns"] == list(axes)


def test_three_qubit_table_is_shared_across_setups():
    assert device_results(3, "al") == device_results(3, "mermin")
    assert device_results(3, "al-mod") == device_results(3, "mermin")


def test_device_results_returns_isolated_copies():
    for fetch in (lambda: device_results(3, "mermin"), exchange_results):
        table, fresh = fetch(), fetch()
        # The copy keeps every key order the renderers iterate in.
        assert list(table) == list(fresh) and list(table["rows"]) == list(MACHINES)
        assert all(list(row) == list(fresh["rows"][m]) for m, row in table["rows"].items())
        table["rows"]["Vigo"]["terms"][0] = 99.0
        table["rows"]["Vigo"]["extra"] = 1.0
        table["rows"]["Essex"] = {}
        table["columns"].append("YYY")
        table["term_error"] = 1.0
        assert fetch() == fresh
    assert device_results(3, "mermin")["rows"]["Vigo"]["terms"][0] == 0.835
    assert exchange_results()["columns"] == ["XXY", "XYX", "YXX"]


def test_device_results_unknown_key():
    with pytest.raises(KeyError):
        device_results(6, "mermin")


def test_exchange_table_spreads_match_published():
    table = exchange_results()
    assert table["columns"] == ["XXY", "XYX", "YXX"]
    for machine in MACHINES:
        row = table["rows"][machine]
        spread = exchange_spread(row["terms"])
        # Published spreads are displayed at 3 decimals from unrounded
        # inputs; allow one display unit of slack.
        assert abs(spread - row["spread"]) <= 0.001, (machine, spread)


def test_headline_families():
    # Each family's best value lies between the catalog's bounds for its cell,
    # and it is one of the published results at its qubit count.
    cells = {"3": (3, "mermin"), "4": (4, "al"), "4-mermin": (4, "mermin"), "5": (5, "mermin")}
    assert set(HEADLINE) == set(cells)
    for family, (n, setup) in cells.items():
        value, error = HEADLINE[family]["best"]
        sc = setup_config(n, setup)
        assert sc.lr_bound < value < sc.qm_value
        assert 0 < error < 0.1
        published = {row["result"] for s in SETUP_IDS for row in device_results(n, s)["rows"].values()}
        assert value in published, family
