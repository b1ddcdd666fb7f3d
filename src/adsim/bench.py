"""Scenario runner, reference-table replay, curve-shape checks, CSV/SVG output.

A scenario ties the other modules together: each tick it draws the query
arrivals and, when there are any, ranks the standing bids with current CTR
estimates, allocates slots and draws organic traffic for the winners; then
it merges any scheduled fraud and hands each row, ``(t, advertiser, slot,
query id or ref, source)``, to ``EventLog.append`` and to the estimators, as
``build_series`` does too. Runs are fully determined by the configured seed.

The module also ships a reconstructed 20-step reference dataset (a cohort
under click inflation) used to sanity-check the estimators end to end; the
handful of cells where the printed reference tables disagree with their own
arithmetic is reported as an errata ledger rather than silently patched.
"""

from __future__ import annotations

import configparser
import csv
import io
import re
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from functools import partial
from itertools import chain
from math import inf
from pathlib import Path
from xml.etree import ElementTree as ET

from .auction import AuctionConfig, Bid, gsp_allocate, rank
from .core import (
    IMPRESSION,
    MAX_SEED,
    AdsimError,
    AdvertiserId,
    EventLog,
    check_min,
    check_range,
    row_order,
    write_atomic,
)
from .estimators import ESTIMATOR_KINDS, ClickWindowCtr, RelativeCtr, WindowSpec, ctr_legacy, ctr_relative
from .traffic import (
    HUMAN,
    MAX_EVENTS,
    PLAN_FIELDS,
    FraudFlag,
    FraudPlan,
    TrafficConfig,
    click_times,
    detect_scripted,
    fraud_events,
    organic_events,
    query_times,
)

SHAPE_INCREASING = "increasing"
SHAPE_RISE_THEN_FALL = "rise_then_fall"
_RATE_QUANTUM = Decimal("0.0001")  # format_rate's four decimals
MAX_TICKS = 1_000_000  # the most ticks a run may have: even an empty one costs (sized in the README)


class ConfigError(AdsimError):
    """Bad scenario configuration; the message starts with the field path."""


class ShapeViolation(AdsimError):
    """A CTR curve broke its expected shape; carries the offending tick."""

    def __init__(self, time_index: int, detail: str):
        super().__init__(f"t={time_index}: {detail}")
        self.time_index = time_index


@dataclass(frozen=True)
class Series:
    """The per-tick series as columns: tick ``i`` (from 1) holds
    ``impressions[i - 1]``, ``clicks[i - 1]`` and ``total_clicks[i - 1]``, and
    ``ctr[label][i - 1]`` for each estimator column (``None`` while that
    estimator is still undefined). The counts are checked as it is built."""

    impressions: list[int]
    clicks: list[int]
    total_clicks: list[int]
    ctr: Mapping[str, list[float | None]]

    def __post_init__(self):
        if any(len(c) != len(self.impressions) for c in (self.clicks, self.total_clicks, *self.ctr.values())):
            raise ValueError("series columns differ in length")
        for name in ("impressions", "clicks", "total_clicks"):
            for v in getattr(self, name):
                check_min(name, v, 0)

    def __len__(self) -> int:
        return len(self.impressions)


@dataclass(frozen=True)
class Erratum:
    """A reference-table cell that contradicts the table's own arithmetic."""

    table: int  # 1 = per-advertiser table, 2 = cohort-share table
    row: int
    column: str
    printed_value: float
    reconstructed_value: float
    justification: str


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


RECONSTRUCTED_TOTAL_CLICKS = tuple(
    22 + 28 * (t - 1) + 3 * (t - 1) * (t - 2) for t in range(1, REFERENCE_STEPS + 1)
)

# The ledgered cells of each printed column, by (table, column): the rows a
# note covers, and the note. A cell that disagrees with the reconstruction and
# has no note is a bug in the reconstruction itself, so it fails loudly.
_ERRATA_NOTES = {
    (1, "ctr"): ({9}, "printed 3.0 is a misplaced decimal point; the reconstruction gives "
                 "48/(112+48) = 0.300, continuing the otherwise smooth column."),
    (2, "total_clicks"): ({19, 20}, "the totals column follows the quadratic 22 + 28(t-1) + "
                          "3(t-1)(t-2) for rows 1-18 and the CTR column keeps following it "
                          "here; the last two printed cells are a stray rate and the "
                          "previous row's total."),
}


@dataclass(frozen=True)
class ReferenceReplay:
    legacy_rows: Series  # clicks/(impressions+clicks), column ctr_old
    relative_rows: Series  # share of cohort clicks, column ctr_new
    errata: list[Erratum]


def replay_reference_tables() -> ReferenceReplay:
    """Recompute both reference tables from the reconstruction and list errata."""
    steps = range(1, REFERENCE_STEPS + 1)
    imps = [reconstructed_impressions(t) for t in steps]
    clks = [reconstructed_clicks(t) for t in steps]
    totals = list(RECONSTRUCTED_TOTAL_CLICKS)
    legacy_rows = Series(imps, clks, totals, {"ctr_old": list(map(ctr_legacy, clks, imps))})
    relative = [ctr_relative(c, total).value for c, total in zip(clks, totals)]
    relative_rows = Series(imps, clks, totals, {"ctr_new": relative})
    return ReferenceReplay(legacy_rows, relative_rows, _build_errata(legacy_rows, relative_rows))


def _build_errata(legacy_rows, relative_rows) -> list[Erratum]:
    errata = []
    steps = range(1, REFERENCE_STEPS + 1)
    # The clicks column is one erratum, at its first bad row: from there on
    # each printed cell is the reconstruction of the following row.
    first = next((t for t in steps if PRINTED_CLICKS[t - 1] != reconstructed_clicks(t)), None)
    if first is not None:
        for t in range(first, REFERENCE_STEPS + 1):
            if PRINTED_CLICKS[t - 1] != reconstructed_clicks(t + 1):
                raise AssertionError(f"printed clicks stop the one-row shift at t={t}")
        cell, value = PRINTED_CLICKS[first - 1], reconstructed_clicks(first)
        errata.append(Erratum(
            1, first, "clicks", float(cell), float(value),
            f"rows {first}-{REFERENCE_STEPS} print the reconstruction's value for the following "
            "row (one-row shift); the CTR columns of both tables track the unshifted clicks "
            "series. The identical printed clicks column appears in table 2.",
        ))
    for table, column, printed, reconstructed, tolerance in (
        (1, "impressions", PRINTED_IMPRESSIONS, [reconstructed_impressions(t) for t in steps], 0),
        (1, "ctr", PRINTED_LEGACY_CTR, legacy_rows.ctr["ctr_old"], 0.001),
        (2, "total_clicks", PRINTED_TOTAL_CLICKS, RECONSTRUCTED_TOTAL_CLICKS, 0),
        (2, "ctr", PRINTED_RELATIVE_CTR, relative_rows.ctr["ctr_new"], 0.001),
    ):
        rows, note = _ERRATA_NOTES.get((table, column), ((), ""))
        for t, cell, value in zip(steps, printed, reconstructed):
            if abs(cell - value) > tolerance:
                if t not in rows:
                    raise AssertionError(
                        f"reconstruction drifted from printed table {table} at t={t}"
                    )
                errata.append(Erratum(table, t, column, float(cell), float(value), note))
    return errata


def curve_shape_check(series: Series, column: str, shape: str) -> int | None:
    """Assert a CTR column is strictly increasing, or rises to one peak then falls.

    Returns the peak's tick for a rise-then-fall curve, None for an increasing
    one. Raises :class:`ShapeViolation` naming the first offending tick.
    """
    if shape not in (SHAPE_INCREASING, SHAPE_RISE_THEN_FALL):
        raise ValueError(f"unknown shape {shape!r}")
    if not series:
        raise ValueError("empty series")
    values = series.ctr.get(column, [None])  # a missing column is undefined from tick 1
    # a NaN cell would pass every comparison below, so it breaks the curve where a None does
    bad = next((i for i, v in enumerate(values) if v is None or v != v), None)
    if bad is not None:
        raise ShapeViolation(bad + 1, f"column {column!r} {'undefined' if values[bad] is None else 'NaN'}")
    increasing = shape == SHAPE_INCREASING
    # an increasing curve is one that rises to a peak at its last tick
    peak = len(values) - 1 if increasing else max(range(len(values)), key=values.__getitem__)
    if not increasing and peak in (0, len(values) - 1):
        raise ShapeViolation(peak + 1, f"{column} has no interior peak")
    for i in range(1, len(values)):
        before, after = values[i - 1], values[i]
        if i <= peak and after <= before:
            broke = "stopped increasing" if increasing else "dipped before its peak"
        elif i > peak and after >= before:
            broke = "rose after its peak"
        else:
            continue
        raise ShapeViolation(i + 1, f"{column} {broke}: {before:.6f} -> {after:.6f}")
    return None if increasing else peak + 1


# ---------------------------------------------------------------------------
# Scenario configuration.


@dataclass(frozen=True)
class ScenarioConfig:
    """A whole scenario.

    Its checks and those of the configs it holds are the only scenario
    bounds, each fraud plan's target and horizon included. Messages start
    with the offending value's INI path. Those of ``FraudPlan`` start with
    the key alone, and those about a plan with ``fraud_plans[i]``;
    :func:`load_config` names the plan's section instead.
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
        check_range("scenario.horizon_ms", self.horizon_ms, 1, MAX_TICKS * self.tick_ms)
        check_range("scenario.default_ctr", self.default_ctr, 0.0, 1.0)
        if not self.bids:
            raise ValueError("bids: at least one advertiser is required")
        shown = min(self.auction.num_slots, len(self.bids))  # the most impressions a query makes
        if (qps := self.traffic.queries_per_second) * self.horizon_ms / 1000 * shown > MAX_EVENTS:
            raise ValueError(f"traffic.queries_per_second: must be <= {MAX_EVENTS * 1000 / self.horizon_ms / shown:g}"
                             f" ({MAX_EVENTS} impressions in {shown} slots), got {qps}")
        for adv, amount in self.bids.items():
            if not adv:
                raise ValueError("bids: empty advertiser id")
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
            times = click_times(plan, self.horizon_ms)  # a range reads its last click in O(1)
            if (last := times[-1] if isinstance(times, range) else max(times)) >= self.horizon_ms:
                raise ValueError(f"fraud_plans[{i}].start_ms: clicks reach t={last}, "
                                 f"beyond horizon_ms={self.horizon_ms}")

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


# Every section the loader reads, in reading order, with its keys as {key: (type, required)}.
# ``bids`` and ``base_ctr`` hold one required key per advertiser, all of one type. An
# optional key that is absent keeps its dataclass default.
_KEYS = {
    "bids": int,
    "base_ctr": float,
    "scenario": {"seed": (int, True), "horizon_ms": (int, True), "tick_ms": (int, True),
                 "focus": (str, False), "default_ctr": (float, False)},
    "auction": {"num_slots": (int, True), "reserve_price": (int, False), "ranking": (str, False)},
    "traffic": {"queries_per_second": (float, True), "position_decay": (float, False)},
    "estimators": {"specs": (str, True)},
    "detector": {"min_run": (int, False), "tolerance_ms": (int, False)},  # the one optional section
}
# The keys of every fraud section; ``PLAN_FIELDS`` adds those of its kind.
_PLAN_KEYS = {"kind": (str, True), "target": (str, True), "start_ms": (int, True), "count": (int, True)}


def _read(name: str, items: Mapping[str, str], keys: Mapping[str, tuple]) -> dict:
    """``{key: value}`` for each key of ``keys`` that ``items`` holds, converted by its
    type; a missing required key, a value its type rejects or a key not in ``keys``
    raises ConfigError."""
    items = dict(items)
    values = {}
    for key, (convert, required) in keys.items():
        if key in items:
            raw = items.pop(key)
            try:
                values[key] = convert(raw)
            except ValueError:
                what = "an integer" if convert is int else "a number"
                raise ConfigError(f"{name}.{key}: expected {what}, got {raw!r}") from None
        elif required:
            raise ConfigError(f"{name}.{key}: missing")
    if items:
        raise ConfigError(f"{name}.{min(items)}: unknown key")
    return values


def load_config(path: str | Path) -> ScenarioConfig:
    """Parse the INI-style scenario format (see the annotated example file).

    Section and key names and value types are checked first, for every
    section; then, through the dataclasses, every bound.
    """
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=(";", "#")
    )
    parser.optionxform = str  # advertiser ids are case-sensitive
    path = Path(path)
    try:
        with open(path, encoding="utf-8-sig") as fh:  # a leading byte-order mark is skipped
            parser.read_file(fh)
    except OSError as exc:  # configparser.read would skip a file it cannot open
        raise ConfigError(f"{path}: {exc.strerror}") from exc
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    for name in parser.sections():
        if name not in _KEYS and not name.startswith("fraud:"):
            raise ConfigError(f"{name}: unknown section")
    for name in _KEYS:
        if name not in parser and name != "detector":
            raise ConfigError(f"{name}: missing section")

    read = {}
    for name, keys in _KEYS.items():
        items = parser[name] if name in parser else {}
        if not isinstance(keys, dict):  # one key per advertiser
            keys = dict.fromkeys(items, (keys, True))
        read[name] = _read(name, items, keys)
    plans = {}
    for name in parser.sections():
        if not name.startswith("fraud:"):
            continue
        kind = parser[name].get("kind")
        if kind is not None and kind not in PLAN_FIELDS:  # the kind decides the other keys
            raise ConfigError(f"{name}.kind: expected scripted or human, got {kind!r}")
        fields = {key: (convert, True) for key, (convert, _) in PLAN_FIELDS.get(kind, {}).items()}
        if kind == HUMAN:
            fields["seed"] = (int, False)
        plans[name] = _read(name, parser[name], {**_PLAN_KEYS, **fields})

    scenario, bids = read["scenario"], read["bids"]
    scenario.setdefault("focus", min(bids, default=""))
    try:  # parse_spec and the plan loop raise ConfigError, which this except lets through
        auction = AuctionConfig(**read["auction"])
        traffic = TrafficConfig(base_ctr=read["base_ctr"], **read["traffic"])
        specs = tuple(parse_spec(tok, "estimators.specs") for tok in read["estimators"]["specs"].split())
        for i, (name, plan) in enumerate(plans.items()):
            if plan["kind"] == HUMAN:
                plan.setdefault("seed", (scenario["seed"] + i + 1) % (MAX_SEED + 1))
            try:
                plans[name] = FraudPlan(**plan)
            except ValueError as exc:  # a plan's own checks name the key alone
                raise ConfigError(f"{name}.{exc}") from exc
        return ScenarioConfig(
            **scenario,
            bids=bids,
            auction=auction,
            traffic=traffic,
            estimators=specs,
            fraud_plans=tuple(plans.values()),
            **{f"detector_{key}": value for key, value in read["detector"].items()},
        )
    except ValueError as exc:  # a plan's message names its section
        names = list(plans)
        raise ConfigError(re.sub(r"^fraud_plans\[(\d+)\]", lambda m: names[int(m[1])], str(exc))) from exc


# ---------------------------------------------------------------------------
# Scenario execution.


@dataclass
class ScenarioResult:
    log: EventLog
    rows: Series
    flags: list[FraudFlag]


def simulate(cfg: ScenarioConfig) -> EventLog:
    """Drive the per-tick auction/traffic/fraud loop and return the event log.

    A tick whose CTR map equals the last auction's reuses its allocation."""
    from numpy.random import default_rng  # numpy loads only where a stream is seeded
    rng = default_rng(cfg.seed)
    advertisers = cfg.advertisers
    bid_list = [Bid(a, cfg.bids[a]) for a in advertisers]
    spec = cfg.estimators[0]
    if spec.kind == "relative":  # one tally for the cohort: every row, read once per auction
        shared = spec.fold()
        observe = shared.observe

        def ctrs_at(now: int) -> dict[AdvertiserId, float]:
            counts = shared.tally(now)
            total = sum(counts.values())
            if not total:
                return dict.fromkeys(advertisers, cfg.default_ctr)
            return {adv: counts.get(adv, 0) / total for adv in advertisers}
    else:  # one fold per advertiser, fed only its own rows
        folds = {adv: spec.fold() for adv in advertisers}

        def observe(t, advertiser, slot, ref, source) -> None:
            folds[advertiser].observe(t, advertiser, slot, ref, source)

        def ctrs_at(now: int) -> dict[AdvertiserId, float]:
            return {adv: est.value if (est := fold.estimate(now)).defined else cfg.default_ctr
                    for adv, fold in folds.items()}

    fraud = fraud_events(cfg.fraud_plans, cfg.horizon_ms)
    pending = next(fraud, None)  # the next fraud row, merged by the tick it falls in
    log = EventLog(cfg.horizon_ms)
    add = log.append
    next_qid = 0
    last_ctrs = allocation = None  # the last auction's; bids and auction are fixed for a run
    for tick_start in range(0, cfg.horizon_ms, cfg.tick_ms):
        tick_end = min(tick_start + cfg.tick_ms, cfg.horizon_ms)
        times = query_times(cfg.traffic, rng, tick_start, tick_end)
        rows = []
        if times:  # a tick without queries shows no ad, so it runs no auction
            if (ctrs := ctrs_at(tick_start)) != last_ctrs:  # an equal map, checked, ranks the same
                allocation = gsp_allocate(rank(bid_list, ctrs, cfg.auction), cfg.auction)
                last_ctrs = ctrs
            rows, next_qid = organic_events(cfg.traffic, allocation, rng, times, next_qid)
        organic = bool(rows)  # fraud rows alone come in row_order from fraud_events' merge
        while pending and pending[0] < tick_end:
            rows.append(pending)
            pending = next(fraud, None)
        if organic:
            rows.sort(key=row_order)
        for row in rows:
            add(*row)
            observe(*row)
    return log


def build_series(
    log: EventLog,
    focus: AdvertiserId,
    specs: Sequence[WindowSpec],
    tick_ms: int,
    exclude: set[tuple[AdvertiserId, int]] | None = None,
) -> Series:
    """Stream a log through the estimators into a series of one row per tick, with one
    fold per column for ``focus``: a focus row goes to every windowed fold, and every
    click to the relative one, which reads no impression. ``exclude`` drops clicks (keyed by
    advertiser and impression ref) from the estimator view and the counts,
    which is how flagged fraud is discarded. Counts are cumulative."""
    check_min("tick_ms", tick_ms, max(1, -(-log.horizon // MAX_TICKS)))  # at most MAX_TICKS rows
    if len({spec.kind for spec in specs}) != len(specs):
        raise ValueError("estimator kinds must be unique")
    # columns in ESTIMATOR_KINDS order, whatever the configured order
    ordered = [spec for kind in ESTIMATOR_KINDS for spec in specs if spec.kind == kind]
    # the click column keeps an ordinal only for the impressions a kept click names
    kept = log.clicked(focus) - {ref for adv, ref in exclude or () if adv == focus}
    folds = {spec.label: ClickWindowCtr(spec.param, kept) if spec.kind == "clicks" else spec.fold()
             for spec in ordered}
    relative = next((fold for fold in folds.values() if isinstance(fold, RelativeCtr)), None)
    windowed = [fold.observe for fold in folds.values() if fold is not relative]
    series = Series([], [], [], {label: [] for label in folds})
    # a column is estimated again only when its key moved, the count of rows its fold
    # was fed, or when ``now`` passed the edge of a window measured in time
    reads = [  # the relative fold answers for one advertiser of its cohort
        (partial(fold.estimate, focus) if fold is relative else fold.estimate, fold is relative,
         fold.edge if spec.kind in ("time", "relative") else None, rates_of.append)
        for spec, fold, rates_of in zip(ordered, folds.values(), series.ctr.values())
    ]
    add_imp, add_clk, add_tot = series.impressions.append, series.clicks.append, series.total_clicks.append
    keys = [None] * len(reads)  # per column: the key its rate was read at,
    edges = [inf] * len(reads)  # its fold's edge after that read,
    rates = [None] * len(reads)  # and that rate
    impressions = clicks = total_clicks = 0
    tick_end = tick_ms  # unclamped: every t in the log is below the horizon
    # after the log, an impression of no advertiser at the last tick's end closes the ticks left
    closing = (-(-log.horizon // tick_ms) * tick_ms, None, 1, 0, IMPRESSION)
    for row in chain(log.records(), [closing]):
        t, advertiser, _, ref, source = row
        while t >= tick_end:
            now = min(tick_end, log.horizon)
            for j, (estimate, on_total, edge, add) in enumerate(reads):
                key = total_clicks if on_total else impressions + clicks
                if key != keys[j] or now > edges[j]:
                    keys[j] = key
                    rate = est.value if (est := estimate(now)).defined else None
                    if rate != rates[j]:  # an equal rate keeps its float, so it is formatted once
                        rates[j] = rate
                    if edge:
                        edges[j] = inf if (at := edge()) is None else at
                add(rates[j])
            add_imp(impressions)
            add_clk(clicks)
            add_tot(total_clicks)
            tick_end += tick_ms
        if source is IMPRESSION:
            if advertiser != focus:  # no fold reads another advertiser's impression
                continue
            impressions += 1
        else:
            if exclude and (advertiser, ref) in exclude:
                continue
            total_clicks += 1
            if relative:
                relative.observe(*row)
            if advertiser != focus:
                continue
            clicks += 1
        for observe in windowed:
            observe(*row)
    return series


def run_scenario(cfg: ScenarioConfig, drop_flagged: bool = False) -> ScenarioResult:
    """Simulate, detect scripted fraud, and build the per-tick series.

    The detector and the estimators read the labelled log itself: neither
    looks at a click's ``source``, so no label-stripped copy is made. With
    ``drop_flagged`` the detector's flagged clicks are discarded from the
    series; otherwise they count like any other click. The returned result
    carries the flags either way.
    """
    log = simulate(cfg)
    flags = detect_scripted(log, cfg.detector_min_run, cfg.detector_tolerance_ms)
    exclude = None
    if drop_flagged:
        exclude = {(f.advertiser, ref) for f in flags for ref in f.flagged_click_ids}
    rows = build_series(log, cfg.focus, cfg.estimators, cfg.tick_ms, exclude)
    return ScenarioResult(log, rows, flags)


# ---------------------------------------------------------------------------
# Output.


def format_rate(x: float) -> str:
    """Rates are printed with exactly four decimals, rounding halves up."""
    return str(Decimal(repr(x)).quantize(_RATE_QUANTUM, rounding=ROUND_HALF_UP))


def series_cells(series: Series) -> Iterator[Sequence[str]]:
    """The header, then one row of string cells per tick; undefined rates are empty."""
    yield ["time", "impressions", "clicks", "total_clicks", *series.ctr]
    counts = (range(1, len(series) + 1), series.impressions, series.clicks, series.total_clicks)
    yield from zip(*(map(str, c) for c in counts), *map(_rate_texts, series.ctr.values()))


def _rate_texts(rates: Iterable[float | None]) -> Iterator[str]:
    """Each rate's text, formatted anew only where the rate is not the same object
    as the last defined rate. ``build_series`` keeps one float for an unchanged
    rate, and ``format_rate`` depends on the object alone, so an equal but
    distinct float (``-0.0`` after ``0.0``, ``True`` after ``1``) is formatted anew."""
    last, text = None, ""
    for v in rates:
        if v is None:
            yield ""
            continue
        if v is not last:
            text = format_rate(v)
            last = v
        yield text


def emit_csv(series: Series, path: str | Path) -> None:
    """RFC-4180 CSV, written atomically. Undefined estimates are empty cells."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(series_cells(series))
    write_atomic(path, [buf.getvalue()])


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def emit_plot(series: Series, path: str | Path, title: str = "") -> None:
    """SVG line chart, one polyline per estimator column, written atomically."""
    width, height = 720, 440
    ml, mr, mt, mb = 60, 160, 30, 50
    plot_w, plot_h = width - ml - mr, height - mt - mb
    times = range(1, len(series) + 1)
    t_lo, t_hi = (times[0], times[-1]) if times else (0, 1)
    t_span = max(t_hi - t_lo, 1)
    # in tick order, not column by column: max keeps the first of equal maxima, and a NaN's place counts
    y_hi = max((v for rates in zip(*series.ctr.values()) for v in rates if v is not None), default=1.0)
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
    for i, (col, rates) in enumerate(series.ctr.items()):
        color = _PALETTE[i % len(_PALETTE)]
        points = []
        last = y = None  # an equal rate has the same sy, signed zeros included
        for t, v in zip(times, rates):
            if v is None:
                continue
            if v != last:
                last, y = v, f"{sy(v):.2f}"
            points.append(f"{sx(t):.2f},{y}")
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
