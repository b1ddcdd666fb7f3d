"""Scenario runner, reference-table replay, curve-shape checks, CSV/SVG output.

A scenario ties the other modules together: each tick it ranks the standing
bids with current CTR estimates, allocates slots, draws organic traffic for
the winners, merges any scheduled fraud, and feeds everything back into the
estimators. Runs are fully determined by the configured seed.

The module also ships a reconstructed 20-step reference dataset (a cohort
under click inflation) used to sanity-check the estimators end to end; the
handful of cells where the printed reference tables disagree with their own
arithmetic is reported as an errata ledger rather than silently patched.
"""

from __future__ import annotations

import configparser
import csv
import io
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import Iterator, Mapping, Sequence
from xml.etree import ElementTree as ET

import numpy as np

from .auction import AuctionConfig, Bid, gsp_allocate, rank
from .core import (
    MAX_SEED,
    AdsimError,
    AdvertiserId,
    ClickEvent,
    ClickTally,
    EventLog,
    HorizonExceededError,
    check_min,
    check_range,
    event_sort_key,
    write_atomic,
)
from .estimators import ESTIMATOR_KINDS, WindowSpec, ctr_legacy, ctr_relative
from .traffic import (
    HUMAN,
    SCRIPTED,
    FraudFlag,
    FraudPlan,
    TrafficConfig,
    checked_click_times,
    detect_scripted,
    fraud_events,
    organic_events,
)

SHAPE_INCREASING = "increasing"
SHAPE_RISE_THEN_FALL = "rise_then_fall"


class ConfigError(AdsimError):
    """Bad scenario configuration; the message starts with the field path."""


class ShapeViolation(AdsimError):
    """A CTR curve broke its expected shape; carries the offending tick."""

    def __init__(self, time_index: int, detail: str):
        super().__init__(f"t={time_index}: {detail}")
        self.time_index = time_index


@dataclass(frozen=True)
class SeriesRow:
    """One output tick: cumulative counts for the focus advertiser plus the
    cohort click total, and one CTR estimate per configured estimator
    (``None`` while an estimator is still undefined)."""

    time_index: int
    impressions: int
    clicks: int
    total_clicks: int
    ctr: Mapping[str, float | None]

    def __post_init__(self):
        if self.time_index < 1:
            raise ValueError(f"time_index must be >= 1, got {self.time_index}")
        if min(self.impressions, self.clicks, self.total_clicks) < 0:
            raise ValueError("negative counts")


@dataclass(frozen=True)
class Erratum:
    """A reference-table cell that contradicts the table's own arithmetic."""

    table: int  # 1 = per-advertiser table, 2 = cohort-share table
    row: int
    column: str
    printed_value: float
    reconstructed_value: float
    justification: str


@dataclass(frozen=True)
class ShapeReport:
    column: str
    shape: str
    checked: int
    peak_index: int | None = None


# ---------------------------------------------------------------------------
# Reference dataset.
#
# The bundled reference tables track one advertiser under a click-inflation
# attack for 20 time steps. Impressions and clicks follow exact arithmetic
# progressions, and the cohort click total follows a quadratic; these
# reconstructions fit every CTR cell of the printed tables to +/-0.001 except
# the four ledgered errata below.

REFERENCE_STEPS = 20

# Printed columns, kept verbatim for the errata comparison. Both tables print
# the same impressions and clicks columns.
PRINTED_IMPRESSIONS = (
    16, 28, 40, 52, 64, 76, 88, 100, 112, 124,
    136, 148, 160, 172, 184, 196, 208, 220, 232, 244,
)
PRINTED_CLICKS = (
    2, 6, 12, 18, 24, 30, 42, 48, 54, 60,
    66, 72, 78, 84, 90, 96, 102, 108, 114, 120,
)
PRINTED_LEGACY_CTR = (
    0.111, 0.176, 0.230, 0.257, 0.272, 0.283, 0.290, 0.295, 3.0, 0.303,
    0.306, 0.308, 0.310, 0.312, 0.313, 0.314, 0.315, 0.316, 0.317, 0.318,
)
PRINTED_TOTAL_CLICKS = (
    22, 50, 84, 124, 170, 222, 280, 344, 414, 490,
    572, 660, 754, 854, 960, 1072, 1190, 1314, 0.317, 1444,
)
PRINTED_RELATIVE_CTR = (
    0.090, 0.12, 0.142, 0.145, 0.141, 0.135, 0.128, 0.122, 0.115, 0.110,
    0.104, 0.100, 0.095, 0.091, 0.087, 0.083, 0.080, 0.077, 0.074, 0.072,
)


def reconstructed_impressions(t: int) -> int:
    return 16 + 12 * (t - 1)


def reconstructed_clicks(t: int) -> int:
    return 2 if t == 1 else 6 * (t - 1)


RECONSTRUCTED_TOTAL_CLICKS = (
    22, 50, 84, 124, 170, 222, 280, 344, 414, 490,
    572, 660, 754, 854, 960, 1072, 1190, 1314, 1444, 1580,
)


@dataclass(frozen=True)
class ReferenceReplay:
    legacy_rows: list[SeriesRow]  # clicks/(impressions+clicks), column ctr_old
    relative_rows: list[SeriesRow]  # share of cohort clicks, column ctr_new
    errata: list[Erratum]


def replay_reference_tables() -> ReferenceReplay:
    """Recompute both reference tables from the reconstruction and list errata."""
    legacy_rows = []
    relative_rows = []
    for t in range(1, REFERENCE_STEPS + 1):
        imp = reconstructed_impressions(t)
        clk = reconstructed_clicks(t)
        total = RECONSTRUCTED_TOTAL_CLICKS[t - 1]
        tally = ClickTally(
            {"cohort": total - clk, "target": clk}, total, (0, t)
        )
        legacy_rows.append(
            SeriesRow(t, imp, clk, total, {"ctr_old": ctr_legacy(clk, imp)})
        )
        relative_rows.append(
            SeriesRow(t, imp, clk, total, {"ctr_new": ctr_relative(tally, "target").value})
        )
    return ReferenceReplay(legacy_rows, relative_rows, _build_errata(legacy_rows, relative_rows))


def _build_errata(legacy_rows, relative_rows) -> list[Erratum]:
    errata = []
    shift_rows = [
        t for t in range(1, REFERENCE_STEPS + 1)
        if PRINTED_CLICKS[t - 1] != reconstructed_clicks(t)
    ]
    if shift_rows:
        first = shift_rows[0]
        errata.append(
            Erratum(
                table=1,
                row=first,
                column="clicks",
                printed_value=float(PRINTED_CLICKS[first - 1]),
                reconstructed_value=float(reconstructed_clicks(first)),
                justification=(
                    f"rows {first}-{REFERENCE_STEPS} print the reconstruction's value "
                    "for the following row (one-row shift); the CTR columns of both "
                    "tables track the unshifted clicks series. The identical printed "
                    "clicks column appears in table 2."
                ),
            )
        )
    for t, row in enumerate(legacy_rows, start=1):
        if abs(row.ctr["ctr_old"] - PRINTED_LEGACY_CTR[t - 1]) > 0.001:
            errata.append(
                Erratum(
                    table=1,
                    row=t,
                    column="ctr",
                    printed_value=PRINTED_LEGACY_CTR[t - 1],
                    reconstructed_value=row.ctr["ctr_old"],
                    justification=(
                        "printed 3.0 is a misplaced decimal point; the reconstruction "
                        "gives 48/(112+48) = 0.300, continuing the otherwise smooth column."
                    ),
                )
            )
    for t in range(1, REFERENCE_STEPS + 1):
        printed = PRINTED_TOTAL_CLICKS[t - 1]
        recon = RECONSTRUCTED_TOTAL_CLICKS[t - 1]
        if printed != recon:
            errata.append(
                Erratum(
                    table=2,
                    row=t,
                    column="total_clicks",
                    printed_value=float(printed),
                    reconstructed_value=float(recon),
                    justification=(
                        "the totals column follows the quadratic 22 + 28(t-1) + 3(t-1)(t-2) "
                        "for rows 1-18 and the CTR column keeps following it here; the last "
                        "two printed cells are a stray rate and the previous row's total."
                    ),
                )
            )
    # The relative-CTR column should carry no errata; any mismatch is a bug in
    # the reconstruction itself, so fail loudly rather than ledger it.
    for t, row in enumerate(relative_rows, start=1):
        drift = abs(row.ctr["ctr_new"] - PRINTED_RELATIVE_CTR[t - 1])
        if drift > 0.001:
            raise AssertionError(f"reconstruction drifted from printed table 2 at t={t}")
    return errata


def curve_shape_check(
    series: Sequence[SeriesRow], column: str, shape: str
) -> ShapeReport:
    """Assert a CTR column is strictly increasing, or rises to one peak then falls.

    Raises :class:`ShapeViolation` naming the first offending tick.
    """
    if shape not in (SHAPE_INCREASING, SHAPE_RISE_THEN_FALL):
        raise ValueError(f"unknown shape {shape!r}")
    if not series:
        raise ValueError("empty series")
    values = []
    for row in series:
        v = row.ctr.get(column)
        if v is None:
            raise ShapeViolation(row.time_index, f"column {column!r} undefined")
        values.append(v)
    if shape == SHAPE_INCREASING:
        for i in range(1, len(values)):
            if values[i] <= values[i - 1]:
                raise ShapeViolation(
                    series[i].time_index,
                    f"{column} stopped increasing: {values[i - 1]:.6f} -> {values[i]:.6f}",
                )
        return ShapeReport(column, shape, len(values))
    peak = max(range(len(values)), key=lambda i: values[i])
    if peak == 0 or peak == len(values) - 1:
        raise ShapeViolation(
            series[peak].time_index, f"{column} has no interior peak"
        )
    for i in range(1, peak + 1):
        if values[i] <= values[i - 1]:
            raise ShapeViolation(
                series[i].time_index,
                f"{column} dipped before its peak: {values[i - 1]:.6f} -> {values[i]:.6f}",
            )
    for i in range(peak + 1, len(values)):
        if values[i] >= values[i - 1]:
            raise ShapeViolation(
                series[i].time_index,
                f"{column} rose after its peak: {values[i - 1]:.6f} -> {values[i]:.6f}",
            )
    return ShapeReport(column, shape, len(values), peak_index=series[peak].time_index)


# ---------------------------------------------------------------------------
# Scenario configuration.


@dataclass(frozen=True)
class ScenarioConfig:
    """A whole scenario.

    Its checks and those of the configs it holds are the only scenario
    bounds. Messages start with the offending value's INI path; those of
    ``AuctionConfig`` and ``FraudPlan`` start with the key alone, and
    :func:`load_config` adds the section.
    """

    seed: int
    horizon_ms: int
    tick_ms: int
    focus: AdvertiserId
    bids: Mapping[AdvertiserId, int]
    auction: AuctionConfig
    traffic: TrafficConfig
    estimators: tuple[WindowSpec, ...]
    fraud_plans: tuple[FraudPlan, ...] = ()
    default_ctr: float = 0.1
    detector_min_run: int = 5
    detector_tolerance_ms: int = 10

    def __post_init__(self):
        check_range("scenario.seed", self.seed, 0, MAX_SEED)
        check_min("scenario.horizon_ms", self.horizon_ms, 1)
        check_range("scenario.tick_ms", self.tick_ms, 1, self.horizon_ms)
        check_range("scenario.default_ctr", self.default_ctr, 0.0, 1.0)
        if not self.bids:
            raise ValueError("bids: at least one advertiser is required")
        for adv, amount in self.bids.items():
            check_min(f"bids.{adv}", amount, 0)
        if self.focus not in self.bids:
            raise ValueError(f"scenario.focus: {self.focus!r} has no bid")
        for adv in self.traffic.base_ctr:
            if adv not in self.bids:
                raise ValueError(f"base_ctr.{adv}: not a bidding advertiser")
        missing = sorted(set(self.bids) - set(self.traffic.base_ctr))
        if missing:
            raise ValueError(f"base_ctr.{missing[0]}: missing")
        if not self.estimators:
            raise ValueError("estimators.specs: at least one estimator is required")
        labels = [spec.label for spec in self.estimators]
        if len(set(labels)) != len(labels):
            raise ValueError("estimators.specs: estimator kinds must be unique")
        check_min("detector.min_run", self.detector_min_run, 3)
        check_min("detector.tolerance_ms", self.detector_tolerance_ms, 0)
        for i, plan in enumerate(self.fraud_plans):
            if plan.target not in self.bids:
                raise ValueError(f"fraud_plans[{i}].target: {plan.target!r} has no bid")

    @property
    def advertisers(self) -> list[AdvertiserId]:
        return sorted(self.bids)


SPEC_SYNTAX = "time:<ms> | impressions:<n> | clicks:<n> | relative[:<ms>]"


def parse_spec(token: str, where: str) -> WindowSpec:
    """One ``KIND[:PARAM]`` estimator token; errors start with ``where``."""
    kind, sep, raw = token.partition(":")
    try:
        param = int(raw) if sep else None
    except ValueError:
        raise ConfigError(f"{where}: bad window parameter in {token!r}") from None
    try:
        return WindowSpec(kind, param)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc} in {token!r} (expected {SPEC_SYNTAX})") from None


_REQUIRED = object()


class _Section:
    """One config section; ``get`` raises ConfigError on a missing or bad value."""

    def __init__(self, name: str, items: Mapping[str, str]):
        self.name = name
        self._items = dict(items)

    def get(self, key: str, convert=str, default=_REQUIRED):
        """Pop ``key`` through ``convert``; without a ``default`` it is required."""
        if key not in self._items:
            if default is _REQUIRED:
                raise ConfigError(f"{self.name}.{key}: missing")
            return default
        raw = self._items.pop(key)
        try:
            return convert(raw)
        except ValueError:
            what = "an integer" if convert is int else "a number"
            raise ConfigError(f"{self.name}.{key}: expected {what}, got {raw!r}") from None

    def finish(self) -> None:
        if self._items:
            key = sorted(self._items)[0]
            raise ConfigError(f"{self.name}.{key}: unknown key")


_KNOWN_SECTIONS = {
    "scenario", "auction", "bids", "traffic", "base_ctr", "estimators", "detector",
}


def _located(prefix: str, cls, *args, **kwargs):
    """``cls(*args, **kwargs)``; its ValueError becomes a ConfigError behind ``prefix``."""
    try:
        return cls(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from exc


def load_config(path: str | Path) -> ScenarioConfig:
    """Parse the INI-style scenario format (see the annotated example file).

    Only types, section and key names, fraud targets and the fraud horizon are
    checked here; every other bound belongs to the dataclasses.
    """
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=(";", "#")
    )
    parser.optionxform = str  # advertiser ids are case-sensitive
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"{path}: no such file")
    try:
        parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    for name in parser.sections():
        if name not in _KNOWN_SECTIONS and not name.startswith("fraud:"):
            raise ConfigError(f"{name}: unknown section")
    for name in ("scenario", "auction", "bids", "traffic", "base_ctr", "estimators"):
        if name not in parser:
            raise ConfigError(f"{name}: missing section")

    bids_sec = _Section("bids", parser["bids"])
    bids = {adv: bids_sec.get(adv, int) for adv in parser["bids"]}
    base_sec = _Section("base_ctr", parser["base_ctr"])
    base_ctr = {adv: base_sec.get(adv, float) for adv in parser["base_ctr"]}

    sc = _Section("scenario", parser["scenario"])
    seed = sc.get("seed", int)
    horizon_ms = sc.get("horizon_ms", int)
    tick_ms = sc.get("tick_ms", int)
    focus = sc.get("focus", default=min(bids, default=""))
    default_ctr = sc.get("default_ctr", float, 0.1)
    sc.finish()

    au = _Section("auction", parser["auction"])
    auction_cfg = _located(
        "auction.", AuctionConfig,
        au.get("num_slots", int),
        au.get("reserve_price", int, 0),
        au.get("ranking", default="by_bid"),
    )
    au.finish()

    tr = _Section("traffic", parser["traffic"])
    traffic_cfg = _located(
        "", TrafficConfig,
        tr.get("queries_per_second", float),
        base_ctr,
        tr.get("position_decay", float, 0.6),
    )
    tr.finish()

    est = _Section("estimators", parser["estimators"])
    specs = tuple(parse_spec(tok, "estimators.specs") for tok in est.get("specs").split())
    est.finish()

    det = _Section("detector", parser["detector"] if "detector" in parser else {})
    det_min_run = det.get("min_run", int, 5)
    det_tol = det.get("tolerance_ms", int, 10)
    det.finish()

    plans = {}
    for name in parser.sections():
        if not name.startswith("fraud:"):
            continue
        fr = _Section(name, parser[name])
        kind = fr.get("kind")
        target = fr.get("target")
        if target not in bids:
            raise ConfigError(f"{name}.target: {target!r} has no bid")
        start_ms = fr.get("start_ms", int)
        count = fr.get("count", int)
        if kind == SCRIPTED:
            extra = {"interval_ms": fr.get("interval_ms", int)}
        elif kind == HUMAN:
            extra = {
                "mean_gap_ms": fr.get("mean_gap_ms", float),
                "gap_sigma": fr.get("gap_sigma", float),
                "seed": fr.get("seed", int, (seed + len(plans) + 1) % (MAX_SEED + 1)),
            }
        else:
            extra = {}
        plans[name] = _located(f"{name}.", FraudPlan, kind, target, start_ms, count, **extra)
        fr.finish()

    cfg = _located(
        "", ScenarioConfig,
        seed=seed,
        horizon_ms=horizon_ms,
        tick_ms=tick_ms,
        focus=focus,
        bids=bids,
        auction=auction_cfg,
        traffic=traffic_cfg,
        estimators=specs,
        fraud_plans=tuple(plans.values()),
        default_ctr=default_ctr,
        detector_min_run=det_min_run,
        detector_tolerance_ms=det_tol,
    )
    for name, plan in plans.items():
        try:
            checked_click_times(plan, horizon_ms)
        except HorizonExceededError as exc:
            raise ConfigError(f"{name}.start_ms: {exc}") from None
    return cfg


# ---------------------------------------------------------------------------
# Scenario execution.


@dataclass
class ScenarioResult:
    log: EventLog
    rows: list[SeriesRow]
    flags: list[FraudFlag]
    dropped_flagged: bool


def simulate(cfg: ScenarioConfig) -> EventLog:
    """Drive the per-tick auction/traffic/fraud loop and return the event log."""
    rng = np.random.default_rng(cfg.seed)
    advertisers = cfg.advertisers
    bid_list = [Bid(a, cfg.bids[a]) for a in advertisers]
    primary = cfg.estimators[0].build_cohort(advertisers)

    fraud = fraud_events(cfg.fraud_plans, cfg.horizon_ms)
    log = EventLog(cfg.horizon_ms)
    fraud_idx = 0
    next_qid = 0
    for tick_start in range(0, cfg.horizon_ms, cfg.tick_ms):
        tick_end = min(tick_start + cfg.tick_ms, cfg.horizon_ms)
        ctrs = {
            adv: cfg.default_ctr if rate is None else rate
            for adv, rate in primary.rates(tick_start).items()
        }
        allocation = gsp_allocate(rank(bid_list, ctrs, cfg.auction), cfg.auction)
        events, next_qid = organic_events(
            cfg.traffic, allocation, rng, tick_start, tick_end, next_qid
        )
        while fraud_idx < len(fraud) and fraud[fraud_idx].t < tick_end:
            events.append(fraud[fraud_idx])
            fraud_idx += 1
        events.sort(key=event_sort_key)
        for e in events:
            log.append(e)
            primary.observe(e)
    return log


def build_series(
    log: EventLog,
    focus: AdvertiserId,
    specs: Sequence[WindowSpec],
    tick_ms: int,
    exclude: set[tuple[AdvertiserId, int]] | None = None,
) -> list[SeriesRow]:
    """Stream a log through the estimators, one row per tick.

    ``exclude`` drops clicks (keyed by advertiser and impression ref) from the
    estimator view and the counts, which is how flagged fraud is discarded.
    Counts are cumulative from the start of the log.
    """
    if tick_ms < 1:
        raise ValueError("tick_ms must be >= 1")
    # columns in ESTIMATOR_KINDS order, whatever the configured order
    ordered = [spec for kind in ESTIMATOR_KINDS for spec in specs if spec.kind == kind]
    cohorts = [(spec.label, spec.build_cohort([focus])) for spec in ordered]
    observers = [cohort.observe for _, cohort in cohorts]
    rows: list[SeriesRow] = []
    events = log.events
    idx = 0
    impressions = clicks = total_clicks = 0
    for time_index, tick_start in enumerate(range(0, log.horizon, tick_ms), start=1):
        tick_end = min(tick_start + tick_ms, log.horizon)
        while idx < len(events) and events[idx].t < tick_end:
            e = events[idx]
            idx += 1
            if isinstance(e, ClickEvent):
                if exclude and (e.advertiser, e.impression_ref) in exclude:
                    continue
                total_clicks += 1
                if e.advertiser == focus:
                    clicks += 1
            elif e.advertiser == focus:
                impressions += 1
            for observe in observers:
                observe(e)
        rates = {label: cohort.rates(tick_end)[focus] for label, cohort in cohorts}
        rows.append(SeriesRow(time_index, impressions, clicks, total_clicks, rates))
    return rows


def run_scenario(cfg: ScenarioConfig, drop_flagged: bool = False) -> ScenarioResult:
    """Simulate, detect scripted fraud, and build the per-tick series.

    Estimators and the detector work on a label-stripped view of the log.
    With ``drop_flagged`` the detector's flagged clicks are discarded from the
    series; otherwise they count like any other click. The returned result
    carries the flags either way.
    """
    log = simulate(cfg)
    view = log.stripped()
    flags = detect_scripted(view, cfg.detector_min_run, cfg.detector_tolerance_ms)
    exclude = None
    if drop_flagged:
        exclude = {(f.advertiser, ref) for f in flags for ref in f.flagged_click_ids}
    rows = build_series(view, cfg.focus, cfg.estimators, cfg.tick_ms, exclude)
    return ScenarioResult(log, rows, flags, drop_flagged)


# ---------------------------------------------------------------------------
# Output.


def format_rate(x: float) -> str:
    """Rates are printed with exactly four decimals, rounding halves up."""
    return str(Decimal(repr(x)).quantize(Decimal("0.0001"), rounding=ROUND_HALF_UP))


def series_columns(series: Sequence[SeriesRow]) -> list[str]:
    return list(series[0].ctr) if series else []


def series_cells(series: Sequence[SeriesRow]) -> Iterator[list[str]]:
    """The header, then one row of string cells per tick; undefined rates are empty."""
    cols = series_columns(series)
    yield ["time", "impressions", "clicks", "total_clicks", *cols]
    for row in series:
        cells = [str(row.time_index), str(row.impressions), str(row.clicks), str(row.total_clicks)]
        yield cells + ["" if (v := row.ctr.get(c)) is None else format_rate(v) for c in cols]


def emit_csv(series: Sequence[SeriesRow], path: str | Path) -> None:
    """RFC-4180 CSV, written atomically. Undefined estimates are empty cells."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(series_cells(series))
    write_atomic(path, [buf.getvalue()])


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def emit_plot(series: Sequence[SeriesRow], path: str | Path, title: str = "") -> None:
    """SVG line chart, one polyline per estimator column, written atomically."""
    width, height = 720, 440
    ml, mr, mt, mb = 60, 160, 30, 50
    plot_w, plot_h = width - ml - mr, height - mt - mb
    cols = series_columns(series)
    times = [r.time_index for r in series]
    t_lo, t_hi = (times[0], times[-1]) if times else (0, 1)
    t_span = max(t_hi - t_lo, 1)
    y_hi = max(
        (v for r in series for v in r.ctr.values() if v is not None), default=1.0
    )
    y_hi = (y_hi or 1.0) * 1.05

    def sx(t: float) -> float:
        return ml + (t - t_lo) / t_span * plot_w

    def sy(v: float) -> float:
        return mt + plot_h - v / y_hi * plot_h

    svg = ET.Element(
        "svg",
        {
            "xmlns": "http://www.w3.org/2000/svg",
            "version": "1.1",
            "width": str(width),
            "height": str(height),
            "viewBox": f"0 0 {width} {height}",
        },
    )
    if title:
        _text(svg, ml, mt - 10, title, size=14)
    axis = {"stroke": "#333333", "stroke-width": "1"}
    _line(svg, ml, mt + plot_h, ml + plot_w, mt + plot_h, axis)
    _line(svg, ml, mt, ml, mt + plot_h, axis)
    for i in range(5):
        v = y_hi * i / 4
        y = sy(v)
        _line(svg, ml - 4, y, ml, y, axis)
        _text(svg, ml - 8, y + 4, f"{v:.3f}", anchor="end")
    step = max(1, (len(times) + 9) // 10)
    for t in times[::step]:
        x = sx(t)
        _line(svg, x, mt + plot_h, x, mt + plot_h + 4, axis)
        _text(svg, x, mt + plot_h + 18, str(t), anchor="middle")
    _text(svg, ml + plot_w / 2, height - 12, "time", anchor="middle")
    _text(svg, 18, mt + plot_h / 2, "CTR", anchor="middle")
    for i, col in enumerate(cols):
        color = _PALETTE[i % len(_PALETTE)]
        points = [
            f"{sx(r.time_index):.2f},{sy(v):.2f}"
            for r in series
            if (v := r.ctr.get(col)) is not None
        ]
        ET.SubElement(
            svg,
            "polyline",
            {
                "points": " ".join(points),
                "fill": "none",
                "stroke": color,
                "stroke-width": "2",
            },
        )
        ly = mt + 16 + 20 * i
        _line(svg, width - mr + 12, ly - 4, width - mr + 36, ly - 4, {"stroke": color, "stroke-width": "2"})
        _text(svg, width - mr + 42, ly, col)
    write_atomic(path, [ET.tostring(svg, encoding="unicode"), "\n"])


def _line(parent, x1, y1, x2, y2, attrs) -> None:
    ET.SubElement(
        parent,
        "line",
        {"x1": f"{x1:.2f}", "y1": f"{y1:.2f}", "x2": f"{x2:.2f}", "y2": f"{y2:.2f}", **attrs},
    )


def _text(parent, x, y, s, anchor="start", size=11) -> None:
    el = ET.SubElement(
        parent,
        "text",
        {
            "x": f"{x:.2f}",
            "y": f"{y:.2f}",
            "font-family": "sans-serif",
            "font-size": str(size),
            "text-anchor": anchor,
            "fill": "#222222",
        },
    )
    el.text = s
