"""The per-tick CSV and SVG against references that format every cell anew.

``emit_csv`` and ``emit_plot`` format a rate that repeats its column's
previous tick only once; their bytes must still be those of formatting each
cell on its own (``oracles.series_csv_each`` and ``oracles.series_svg_each``).
The series are generated here, not simulated, so this module loads no numpy.
"""
from __future__ import annotations

import math
import random
from decimal import InvalidOperation
from functools import partial

import pytest

from adsim.bench import SeriesRow, emit_csv, emit_plot
from oracles import series_csv_each, series_svg_each

COLUMNS = ("ctr_time", "ctr_impr", "ctr_click", "ctr_relative")
NAN = math.nan


def series_of(columns: dict[str, list]) -> list[SeriesRow]:
    """One row per tick, the rates read down each column."""
    ticks = len(next(iter(columns.values()), []))
    return [SeriesRow(i + 1, 2 * i, i // 3, i, {c: v[i] for c, v in columns.items()})
            for i in range(ticks)]


def runs_of(rng: random.Random, ticks: int, pool: list, max_run: int, gap_share: float) -> list:
    """Runs of one rate, or of ``None``, each 1 to ``max_run`` ticks long."""
    values: list = []
    while len(values) < ticks:
        v = None if rng.random() < gap_share else rng.choice(pool)
        values += [v] * rng.randint(1, max_run)
    return values[:ticks]


def like_fraud_rerank(rng: random.Random, ticks: int) -> list:
    """A cold start of ``None``, then a rate that changes on one tick in six."""
    values = [None] * rng.randint(0, 50)
    v = rng.random()
    while len(values) < ticks:
        if rng.random() < 1 / 6:
            v = rng.choice([rng.random(), rng.randint(0, 40) / 40, 0.0, 1e-05])
        values.append(v)
    return values[:ticks]


SPECIAL = [0.0, -0.0, 1, 1.0, 1e-05, 5e-05, 0.00015, 0.1 + 0.2, 0.3, 2 / 3]

FIXED = {
    "signed_zero_and_int": {
        "ctr_time": [0.5, 0.0, -0.0, -0.0, 0.0, 0.0, -0.0, None, -0.0, 0.0],
        "ctr_impr": [1, 1.0, 1.0, 1, None, 1, 1.0, 0.0, -0.0, 1],
        "ctr_relative": [None, None, -0.0, 0.0, None, 0.0, -0.0, -0.0, 1.0, 1],
    },
    "exponents_and_nan": {
        "ctr_time": [0.25, 1e-05, 1e-05, 5e-05, 5e-05, NAN, NAN, 1e-05, None, NAN, 5e-05],
        "ctr_click": [None, NAN, NAN, 5e-05, 1e-05, 1e-05, None, None, 5e-05, 5e-05, NAN],
    },
    "true_after_one": {"ctr_time": [1, True]},  # equal, but format_rate(True) raises
    "undefined": {"ctr_time": [None, None], "ctr_relative": [None, None]},
    "empty": {},
}
GENERATED = {  # each drawn at seeds 0-2
    "runs_and_gaps": lambda rng: {c: runs_of(rng, 400, [rng.random() for _ in range(6)], 60, 0.2)
                                  for c in COLUMNS},
    "special_runs": lambda rng: {c: runs_of(rng, 400, SPECIAL, 8, 0.1) for c in COLUMNS},
    "6000_ticks": lambda rng: {c: like_fraud_rerank(rng, 6000) for c in COLUMNS},
}


@pytest.mark.parametrize("case", [*FIXED, *(f"{name}-{seed}" for name in GENERATED for seed in range(3))])
def test_emitted_bytes_equal_every_cell_formatted_anew(tmp_path, case):
    if case in FIXED:
        series = series_of(FIXED[case])
    else:
        series = series_of(GENERATED[case.rsplit("-", 1)[0]](random.Random(case)))
    if case == "true_after_one":  # the reused text of 1 must not stand in for True
        for emit in (series_csv_each, partial(emit_csv, path=tmp_path / "series.csv")):
            with pytest.raises(InvalidOperation):
                emit(series)
    else:
        emit_csv(series, tmp_path / "series.csv")
        assert (tmp_path / "series.csv").read_text() == series_csv_each(series)
    emit_plot(series, tmp_path / "series.svg", title=case)
    assert (tmp_path / "series.svg").read_text() == series_svg_each(series, title=case)
