"""Published five-qubit-device results used for report comparison columns.

Values are reproduced exactly as published (16384 shots per circuit on the
devices); per-term and result uncertainties are the published rounded ones.
Keys are (qubits, setup id); the three 3-qubit setups share one table.
"""

from __future__ import annotations

MACHINES = ("Vigo", "Ourense", "Valencia", "Essex", "IBMqx2")

# Best published value per experiment family, (value, error), and earlier
# published runs of the same test.  The bounds each family is judged against
# are the catalog's (circuits.setup_config).
HEADLINE = {
    "3": {"best": (3.34, 0.02), "earlier": {"A-L": (2.85, 0.02), "GM-S": (2.84, 0.07)}},
    "4": {"best": (9.07, 0.06), "earlier": {"A-L": (4.81, 0.06), "GM-S": (5.42, 0.04)}},
    "4-mermin": {"best": (6.14, 0.04), "earlier": {}},
    "5": {"best": (10.33, 0.08), "earlier": {"A-L": (4.05, 0.06), "GM-S": (7.06, 0.03)}},
}

_TABLES: dict[tuple[int, str], dict] = {
    (3, "mermin"): {
        "columns": ["XXY", "YYY"],
        "term_error": 0.007,
        "result_error": 0.02,
        "rows": {
            "Vigo": {"terms": [0.835, -0.744], "result": 3.25},
            "Ourense": {"terms": [0.847, -0.799], "result": 3.34},
            "Valencia": {"terms": [0.662, -0.607], "result": 2.59},
            "Essex": {"terms": [0.690, -0.494], "result": 2.56},
            "IBMqx2": {"terms": [0.815, -0.774], "result": 3.22},
        },
    },
    (4, "al"): {
        "columns": ["XXXX", "XXXY", "XXYY", "XYYY", "YYYY"],
        "term_error": 0.007,
        "result_error": 0.06,
        "rows": {
            "Vigo": {"terms": [0.583, -0.544, -0.574, 0.568, 0.596], "result": 9.07},
            "Ourense": {"terms": [0.608, -0.511, -0.579, 0.493, 0.549], "result": 8.65},
            "Valencia": {"terms": [0.489, -0.512, -0.469, 0.482, 0.434], "result": 7.72},
            "Essex": {"terms": [0.385, -0.261, -0.487, 0.313, 0.407], "result": 6.01},
            "IBMqx2": {"terms": [0.407, -0.199, -0.450, 0.216, 0.401], "result": 5.17},
        },
    },
    (4, "al-mod"): {
        "columns": ["XXXX", "XXXY", "XXYY", "XYYY", "YYYY"],
        "term_error": 0.007,
        "result_error": 0.06,
        "rows": {
            "Vigo": {"terms": [-0.521, 0.616, 0.527, -0.590, -0.497], "result": 9.00},
            "Ourense": {"terms": [-0.566, 0.489, 0.531, -0.486, -0.521], "result": 8.17},
            "Valencia": {"terms": [-0.480, 0.543, 0.465, -0.573, -0.410], "result": 8.14},
            "Essex": {"terms": [-0.522, 0.314, 0.502, -0.305, -0.438], "result": 6.45},
            "IBMqx2": {"terms": [-0.446, 0.224, 0.407, -0.269, -0.265], "result": 5.13},
        },
    },
    (4, "mermin"): {
        "columns": ["XXXY", "XYYY"],
        "term_error": 0.007,
        "result_error": 0.04,
        "rows": {
            "Vigo": {"terms": [0.776, -0.759], "result": 6.14},
            "Ourense": {"terms": [0.743, -0.700], "result": 5.77},
            "Valencia": {"terms": [0.625, -0.660], "result": 5.14},
            "Essex": {"terms": [0.522, -0.508], "result": 4.12},
            "IBMqx2": {"terms": [0.525, -0.523], "result": 4.19},
        },
    },
    (5, "al"): {
        "columns": ["XXXXX", "XXXYY", "XYYYY"],
        "term_error": 0.008,
        "result_error": 0.08,
        "rows": {
            "Vigo": {"terms": [0.719, -0.589, 0.656], "result": 9.89},
            "Ourense": {"terms": [0.591, -0.509, 0.424], "result": 7.80},
            "Valencia": {"terms": [0.517, -0.420, 0.455], "result": 6.99},
            "Essex": {"terms": [0.506, -0.413, 0.220], "result": 5.74},
            "IBMqx2": {"terms": [0.570, -0.550, 0.554], "result": 8.84},
        },
    },
    (5, "al-mod"): {
        "columns": ["XXXXX", "XXXYY", "XYYYY"],
        "term_error": 0.008,
        "result_error": 0.08,
        "rows": {
            "Vigo": {"terms": [-0.683, 0.611, -0.552], "result": 9.56},
            "Ourense": {"terms": [-0.567, 0.479, -0.435], "result": 7.53},
            "Valencia": {"terms": [-0.587, 0.440, -0.424], "result": 7.11},
            "Essex": {"terms": [-0.470, 0.366, -0.469], "result": 6.47},
            "IBMqx2": {"terms": [-0.611, 0.585, -0.543], "result": 9.18},
        },
    },
    (5, "mermin"): {
        "columns": ["XXXXY", "XXYYY", "YYYYY"],
        "term_error": 0.008,
        "result_error": 0.08,
        "rows": {
            "Vigo": {"terms": [0.711, -0.622, 0.554], "result": 10.33},
            "Ourense": {"terms": [0.511, -0.412, 0.365], "result": 7.04},
            "Valencia": {"terms": [0.515, -0.468, 0.412], "result": 7.66},
            "Essex": {"terms": [0.385, -0.344, 0.371], "result": 5.74},
            "IBMqx2": {"terms": [0.568, -0.563, 0.484], "result": 8.95},
        },
    },
}

# The 3-qubit experiment is the same under every setup id.
_TABLES[(3, "al")] = _TABLES[(3, "mermin")]
_TABLES[(3, "al-mod")] = _TABLES[(3, "mermin")]

# Independently measured permutations of the single-Y 3-qubit term, with the
# published sample standard deviation across the three.
EXCHANGE = {
    "columns": ["XXY", "XYX", "YXX"],
    "term_error": 0.007,
    "rows": {
        "Vigo": {"terms": [0.826, 0.801, 0.812], "spread": 0.012},
        "Ourense": {"terms": [0.847, 0.797, 0.814], "spread": 0.026},
        "Valencia": {"terms": [0.662, 0.595, 0.651], "spread": 0.036},
        "Essex": {"terms": [0.690, 0.606, 0.618], "spread": 0.045},
        "IBMqx2": {"terms": [0.815, 0.789, 0.797], "spread": 0.013},
    },
}


def _copy_table(table: dict) -> dict:
    """A copy of a published table that shares nothing mutable with it: the
    column list, the rows and each row's term list are new, in the same key
    order; the numbers and strings are immutable and shared."""
    out = dict(table)
    out["columns"] = list(table["columns"])
    out["rows"] = {machine: {**row, "terms": list(row["terms"])} for machine, row in table["rows"].items()}
    return out


def device_results(n: int, setup_key: str) -> dict:
    """Published per-device rows for one (qubits, setup) combination."""
    key = (n, setup_key)
    if key not in _TABLES:
        raise KeyError(f"no published table for {key}")
    return _copy_table(_TABLES[key])


def exchange_results() -> dict:
    return _copy_table(EXCHANGE)
