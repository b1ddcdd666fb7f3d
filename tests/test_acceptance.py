"""Acceptance gate: eight checks, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
"""
from __future__ import annotations

import dataclasses
import hashlib
import math
import random
from fractions import Fraction
from time import perf_counter

import numpy as np
import pytest

from adsim.auction import (
    AuctionConfig,
    Bid,
    best_response_run,
    detect_cycle,
    gfp_allocate,
    gsp_allocate,
    rank,
)
from adsim.bench import (
    PRINTED_LEGACY_CTR,
    PRINTED_RELATIVE_CTR,
    REFERENCE_STEPS,
    SHAPE_INCREASING,
    SHAPE_RISE_THEN_FALL,
    curve_shape_check,
    emit_csv,
    emit_plot,
    load_config,
    replay_reference_tables,
    run_scenario,
    simulate,
)
from adsim.cli import main
from adsim.core import ClickEvent, write_log
from adsim.estimators import RelativeCtr, ctr_relative
from adsim.traffic import (
    HUMAN,
    SCRIPTED,
    FraudPlan,
    TrafficConfig,
    detect_scripted,
)
from adsim.auction import SlotAllocation
from helpers import estimate_at, organic_log, row_of, with_fraud
from oracles import (
    click_window_brute,
    est_counts,
    impression_window_brute,
    random_log,
    relative_brute,
    time_window_brute,
)


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {n} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {n}: {detail}"


# ---------------------------------------------------------------------------
# 1. Reference-table replay with the errata ledger.


EXPECTED_ERRATA = [
    (1, 7, "clicks", 42.0, 36.0),
    (1, 9, "ctr", 3.0, 0.3),
    (2, 19, "total_clicks", 0.317, 1444.0),
    (2, 20, "total_clicks", 1444.0, 1580.0),
]


def test_criterion_1_table_replay():
    t0 = perf_counter()
    replay = replay_reference_tables()
    elapsed = perf_counter() - t0

    ledger = [
        (e.table, e.row, e.column, e.printed_value, e.reconstructed_value)
        for e in replay.errata
    ]
    problems = []
    if ledger != EXPECTED_ERRATA:
        problems.append(f"ledger {ledger} != documented anomalies")
    skip = {(e.table, e.row, e.column) for e in replay.errata}
    for t in range(1, REFERENCE_STEPS + 1):
        old = replay.legacy_rows[t - 1].ctr["ctr_old"]
        if (1, t, "ctr") not in skip and abs(old - PRINTED_LEGACY_CTR[t - 1]) > 0.001:
            problems.append(f"table 1 ctr drifts at row {t}: {old}")
        new = replay.relative_rows[t - 1].ctr["ctr_new"]
        if (2, t, "ctr") not in skip and abs(new - PRINTED_RELATIVE_CTR[t - 1]) > 0.001:
            problems.append(f"table 2 ctr drifts at row {t}: {new}")
    if elapsed >= 1.0:
        problems.append(f"replay took {elapsed:.3f}s")

    _report(
        1,
        not problems,
        problems[0]
        if problems
        else f"40 CTR cells within 0.001 outside a 4-entry errata ledger in {elapsed * 1000:.0f}ms",
    )


# ---------------------------------------------------------------------------
# 2. Relative-CTR share and dampening laws on random tallies.


def test_criterion_2_relative_ctr_laws():
    rng = random.Random(0xC2)
    t0 = perf_counter()
    checked = 0
    problems = []
    for _ in range(10_000):
        n = rng.randint(1, 10)
        advs = [f"adv{i}" for i in range(n)]
        counts = {a: rng.randint(0, 10**6) for a in advs}
        counts[rng.choice(advs)] = rng.randint(1, 10**6)
        total = sum(counts.values())
        share_sum = sum(ctr_relative(counts[a], total).value for a in advs)
        if abs(share_sum - 1.0) > 1e-9:
            problems.append(f"shares sum to {share_sum!r} for counts {counts}")
            break

        # growing the window by Delta cohort clicks, delta_i of them on i:
        # i's share falls exactly when its marginal share is below its old one
        i = rng.choice([a for a in advs if counts[a] > 0])
        delta_i = rng.randint(0, 10**6)
        rest = rng.randint(0, 10**6)
        if delta_i + rest == 0:
            rest = 1
        delta_total = delta_i + rest
        grown = dict(counts)
        grown[i] += delta_i
        grown["newcomer"] = grown.get("newcomer", 0) + rest
        before = ctr_relative(counts[i], total)
        after = ctr_relative(grown[i], total + delta_total)
        fell = Fraction(after.clicks_in_window, after.denominator) < Fraction(
            before.clicks_in_window, before.denominator
        )
        law = Fraction(delta_i, delta_total) < Fraction(counts[i], total)
        if fell != law:
            problems.append(
                f"dampening law broke: counts={counts} i={i} "
                f"delta_i={delta_i} delta_total={delta_total}"
            )
            break
        checked += 1
    elapsed = perf_counter() - t0
    if elapsed >= 10.0:
        problems.append(f"took {elapsed:.1f}s")
    _report(
        2,
        not problems,
        problems[0]
        if problems
        else f"share-sum and dampening laws exact on {checked} random tallies in {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 3. Streaming estimators equal brute-force re-scans.


def test_criterion_3_oracle_equivalence():
    ops = {
        "time": (time_window_brute, (1, 12_000)),
        "impressions": (impression_window_brute, (1, 40)),
        "clicks": (click_window_brute, (1, 15)),
    }
    rng = random.Random(0xC3)
    t0 = perf_counter()
    problems = []
    per_kind = {kind: 0 for kind in (*ops, "relative")}
    for log_i in range(50):
        events = list(random_log(31_000 + log_i))  # one object view for every scan
        for _ in range(20):
            now = rng.randint(0, 11_000)
            adv = rng.choice(("a", "b", "c", "d"))
            for kind, (brute, (lo, hi)) in ops.items():
                param = rng.randint(lo, hi)
                got = est_counts(estimate_at(kind, events, adv, param, now))
                want = brute(events, adv, param, now)
                if got != want:
                    problems.append(
                        f"{kind}(param={param}, now={now}, adv={adv}, "
                        f"log={31_000 + log_i}): {got} != {want}"
                    )
                else:
                    per_kind[kind] += 1
            interval = rng.choice((None, rng.randint(1, 12_000)))
            fold = RelativeCtr(interval_ms=interval)
            for e in events:
                if e.t >= now:
                    break
                fold.observe(*row_of(e))
            want_counts = relative_brute(events, interval, now)
            want_total = sum(want_counts.values())
            got_est = est_counts(fold.estimate(adv, now))
            want_est = (
                (True, want_counts.get(adv, 0), want_total)
                if want_total
                else (False, 0, 0)
            )
            if got_est != want_est:
                problems.append(
                    f"relative(interval={interval}, now={now}, adv={adv}): "
                    f"{got_est} != {want_est}"
                )
            else:
                per_kind["relative"] += 1
            if problems:
                break
        if problems:
            break
    elapsed = perf_counter() - t0
    if not problems and set(per_kind.values()) != {1_000}:
        problems.append(f"triple counts off: {per_kind}")
    if elapsed >= 30.0:
        problems.append(f"took {elapsed:.1f}s")
    _report(
        3,
        not problems,
        problems[0]
        if problems
        else f"1000 (log, window, now) triples per estimator match exactly in {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 4. Replayed curve shapes and endpoints.


def test_criterion_4_curve_shapes():
    replay = replay_reference_tables()
    problems = []
    try:
        curve_shape_check(replay.legacy_rows, "ctr_old", SHAPE_INCREASING)
    except Exception as exc:  # noqa: BLE001 - reported, not swallowed
        problems.append(f"ctr_old shape: {exc}")
    try:
        peak = curve_shape_check(replay.relative_rows, "ctr_new", SHAPE_RISE_THEN_FALL)
        if peak != 4:
            problems.append(f"ctr_new peaks at t={peak}, not 4")
    except Exception as exc:  # noqa: BLE001
        problems.append(f"ctr_new shape: {exc}")

    old = [r.ctr["ctr_old"] for r in replay.legacy_rows]
    new = [r.ctr["ctr_new"] for r in replay.relative_rows]
    for name, got, want in (
        ("ctr_old start", old[0], 0.111),
        ("ctr_old end", old[-1], 0.318),
        ("ctr_new peak", new[3], 0.145),
        ("ctr_new end", new[-1], 0.072),
    ):
        if abs(got - want) > 0.001:
            problems.append(f"{name} is {got:.4f}, expected {want}")
    _report(
        4,
        not problems,
        problems[0]
        if problems
        else "ctr_old rises 0.111->0.318; ctr_new peaks at t=4 (0.145) and falls to 0.072",
    )


# ---------------------------------------------------------------------------
# 5. GSP/GFP pricing on the two-bidder pair plus random-auction properties.


def test_criterion_5_gsp_pricing():
    problems = []
    for reserve in (0, 50):
        cfg = AuctionConfig(2, reserve)
        ranked = rank([Bid("a", 1000), Bid("b", 300)], None, cfg)
        gsp = [(x.advertiser, x.price_per_click) for x in gsp_allocate(ranked, cfg)]
        gfp = [(x.advertiser, x.price_per_click) for x in gfp_allocate(ranked, cfg)]
        if gsp != [("a", 300), ("b", reserve)]:
            problems.append(f"GSP with reserve {reserve} priced {gsp}")
        if gfp != [("a", 1000), ("b", 300)]:
            problems.append(f"GFP with reserve {reserve} priced {gfp}")

    rng = random.Random(0xC5)
    audited = 0
    for _ in range(10_000):
        n = rng.randint(1, 8)
        amounts = {chr(ord("a") + i): rng.randint(0, 2_000) for i in range(n)}
        cfg = AuctionConfig(rng.randint(1, 4), rng.randint(0, 500))
        ranked = rank([Bid(a, amt) for a, amt in amounts.items()], None, cfg)
        for allocs in (gsp_allocate(ranked, cfg), gfp_allocate(ranked, cfg)):
            prices = [x.price_per_click for x in allocs]
            if any(p > amounts[x.advertiser] for p, x in zip(prices, allocs)):
                problems.append(f"price above own bid: {allocs} for {amounts}")
            if any(p < cfg.reserve_price for p in prices):
                problems.append(f"price below reserve: {allocs} for {amounts}")
            if prices != sorted(prices, reverse=True):
                problems.append(f"prices not slot-monotone: {allocs} for {amounts}")
        if problems:
            break
        audited += 1
    _report(
        5,
        not problems,
        problems[0]
        if problems
        else f"pair prices match and {audited} random auctions keep price <= bid, slot-monotone",
    )


# ---------------------------------------------------------------------------
# 6. First-price best-response dynamics never settle.


def test_criterion_6_gfp_instability(capsys):
    problems = []
    history = best_response_run(
        {"a": 1000, "b": 300}, {"a": 1100, "b": 800}, AuctionConfig(2), 100, steps=30
    )
    period = detect_cycle(history)
    if period != 8:
        problems.append(f"caps (1100, 800) gave period {period}, expected 8")
    if main(["demo-gfp"]) != 0:
        problems.append("demo-gfp exited nonzero")
    capsys.readouterr()

    rng = random.Random(20260814)
    cycled = 0
    for _ in range(100):
        reserve = rng.choice([0, 0, 0, rng.randrange(0, 500)])
        eps = rng.randrange(1, 200)
        low_caps = reserve + rng.randrange(3, 40) * eps
        high_caps = low_caps + rng.randrange(1, 20) * eps
        caps = dict(zip("ab", rng.sample([low_caps, high_caps], 2)))
        bids = {x: rng.randrange(reserve, caps[x] + 1) for x in "ab"}
        steps = 4 * math.ceil((high_caps - reserve) / eps)
        cfg = AuctionConfig(2, reserve)
        p = detect_cycle(best_response_run(bids, caps, cfg, eps, steps))
        if p is None or p < 2:
            problems.append(
                f"instance converged: reserve={reserve} eps={eps} caps={caps} "
                f"bids={bids} period={p}"
            )
            break
        cycled += 1
    _report(
        6,
        not problems,
        problems[0]
        if problems
        else f"period-8 demo cycle within 30 steps; {cycled} random instances all cycle",
    )


# ---------------------------------------------------------------------------
# 7. Detector recall and false-flag rates.

# Rates measured over the frozen seeds below; the detector is deterministic,
# so these are exact fixtures, not approximations.
MEASURED_SCRIPTED_RECALL = 1.0  # 500/500 injected clicks, seeds 0..19
MEASURED_ORGANIC_FALSE_FLAG = 0.0  # 0/2266 organic clicks, seeds 1000..1019
MEASURED_HUMAN_RECALL = 0.0  # 0/800 injected clicks, seeds 2000..2019


def _slots(*advertisers):
    return tuple(SlotAllocation(i + 1, a, 0, 0) for i, a in enumerate(advertisers))


def _flagged_refs(log, target):
    refs = set()
    for f in detect_scripted(log.stripped()):
        if f.advertiser == target:
            refs.update(f.flagged_click_ids)
    return refs


def _fraud_refs(log, target):
    return {
        e.impression_ref
        for e in log
        if isinstance(e, ClickEvent) and e.advertiser == target
    }


def test_criterion_7_fraud_detection():
    problems = []

    hits = total = 0
    for seed in range(20):
        cfg = TrafficConfig(5.0, {"a": 0.2, "b": 0.2})
        log = with_fraud(
            organic_log(cfg, _slots("a", "b"), 60_000, seed),
            [FraudPlan(kind=SCRIPTED, target="z", start_ms=2_000, count=25, interval_ms=400)],
        )
        hits += len(_flagged_refs(log, "z") & _fraud_refs(log, "z"))
        total += 25
    scripted_recall = hits / total
    if scripted_recall != 1.0:
        problems.append(f"scripted recall {hits}/{total}")
    if scripted_recall != MEASURED_SCRIPTED_RECALL:
        problems.append(f"scripted recall drifted from fixture: {scripted_recall}")

    false_hits = clicks = 0
    for seed in range(1_000, 1_020):
        cfg = TrafficConfig(5.0, {"a": 0.2, "b": 0.2, "c": 0.2})
        log = organic_log(cfg, _slots("a", "b", "c"), 60_000, seed)
        false_hits += sum(
            len(f.flagged_click_ids) for f in detect_scripted(log.stripped())
        )
        clicks += sum(1 for e in log if isinstance(e, ClickEvent))
    false_flag = false_hits / clicks
    if false_flag >= 0.01:
        problems.append(f"false-flag rate {false_hits}/{clicks}")
    if false_flag != MEASURED_ORGANIC_FALSE_FLAG:
        problems.append(f"false-flag rate drifted from fixture: {false_flag}")

    hu_hits = hu_total = 0
    for seed in range(2_000, 2_020):
        cfg = TrafficConfig(5.0, {"a": 0.2, "b": 0.2})
        log = with_fraud(
            organic_log(cfg, _slots("a", "b"), 120_000, seed),
            [
                FraudPlan(
                    kind=HUMAN, target="z", start_ms=2_000, count=40,
                    mean_gap_ms=1_500.0, gap_sigma=0.5, seed=seed - 1_993,
                )
            ],
        )
        hu_hits += len(_flagged_refs(log, "z") & _fraud_refs(log, "z"))
        hu_total += 40
    human_recall = hu_hits / hu_total
    if human_recall >= 0.20:
        problems.append(f"human recall {hu_hits}/{hu_total}")
    if human_recall != MEASURED_HUMAN_RECALL:
        problems.append(f"human recall drifted from fixture: {human_recall}")

    _report(
        7,
        not problems,
        problems[0]
        if problems
        else (
            f"scripted recall {hits}/{total}, organic false flags "
            f"{false_hits}/{clicks}, human recall {hu_hits}/{hu_total} over 20 seeds each"
        ),
    )


# ---------------------------------------------------------------------------
# 8. Byte-identical reruns, pinned to digests.

# SHA-256 of scenario.example.ini's artifacts as `adsim run` writes them, keyed
# by drop_flagged. They depend on default_rng's PCG64 stream, so they are
# pinned to the numpy version they were measured with.
PINNED_NUMPY = "2.4.6"
PINNED_EVENTS_JSONL = "90cbed0b41259648221458d14667af3f0234acfcd25731d69d26f76ec52eb257"
PINNED_DIGESTS = {
    False: {
        "events.jsonl": PINNED_EVENTS_JSONL,
        "series.csv": "b5cee620fc83a978ff3874b9582aa973eaf160aef8dc03ba7eb799cc1fcce9b3",
        "series.svg": "82f0ba07b8ffb6ce6d3477823952edbc49f34f89e23ae49e7ed9fd70c057b21b",
    },
    True: {
        "events.jsonl": PINNED_EVENTS_JSONL,
        "series.csv": "4d7db2ae46ea2595744e536d564fb566a9b86d7e70de21fe60698d0b65b0b924",
        "series.svg": "fb52d64a0d7cef32649b4ca0561cd3e95f2944bdcd1b5b963eefc96a85440498",
    },
}


def test_criterion_8_determinism(tmp_path, example_ini):
    cfg = load_config(example_ini)
    problems = []
    digests = {}
    for mode in (False, True):
        paths = []
        for run_i in (0, 1):
            result = run_scenario(cfg, drop_flagged=mode)
            out = tmp_path / f"mode{mode}_{run_i}"
            out.mkdir()
            write_log(result.log, out / "events.jsonl")
            emit_csv(result.rows, out / "series.csv")
            emit_plot(result.rows, out / "series.svg", title=f"focus: {cfg.focus}")
            paths.append(out)
        for name in PINNED_DIGESTS[mode]:
            b0 = (paths[0] / name).read_bytes()
            b1 = (paths[1] / name).read_bytes()
            if b0 != b1:
                problems.append(f"{name} differs between reruns (drop_flagged={mode})")
            digests[mode, name] = hashlib.sha256(b0).hexdigest()
    clicks = sum(1 for e in result.log if isinstance(e, ClickEvent))
    if (len(result.log), clicks) != (847, 187):  # the README's quick-start line
        problems.append(f"{len(result.log)} events ({clicks} clicks), README says 847 (187)")
    if np.__version__ != PINNED_NUMPY:
        _report(8, not problems, problems[0] if problems else "byte-identical reruns")
        pytest.skip(f"digests pinned with numpy {PINNED_NUMPY}, running {np.__version__}")
    for (mode, name), digest in digests.items():
        if digest != PINNED_DIGESTS[mode][name]:
            problems.append(f"{name} digest drifted (drop_flagged={mode}): {digest}")
    _report(
        8,
        not problems,
        problems[0]
        if problems
        else "JSONL logs, CSVs and SVGs byte-identical across reruns and equal to the "
        "pinned digests, with and without drop-flagged",
    )


# SHA-256 of the example's events.jsonl with each estimator kind moved to the
# front of the specs (the rest keep their order). The first spec re-ranks the
# bids every tick, so this pins the cohort path of every kind, not only the
# relative one the example lists first. On this config the impressions-first
# run allocates the slots exactly as the relative-first one does.
PINNED_EVENTS_BY_PRIMARY_KIND = {
    "relative": PINNED_EVENTS_JSONL,
    "time": "08a84537900ea05e8b168414f5ddcae6ee533244809fd96eafacd628ff889586",
    "impressions": PINNED_EVENTS_JSONL,
    "clicks": "028004b9b6883bb3631c2d6cad888d16e1d521d57e8a777983101c9764000841",
}


@pytest.mark.parametrize("kind", sorted(PINNED_EVENTS_BY_PRIMARY_KIND))
def test_events_digest_with_each_kind_as_the_primary_estimator(tmp_path, example_ini, kind):
    cfg = load_config(example_ini)
    primary = [s for s in cfg.estimators if s.kind == kind]
    specs = (*primary, *(s for s in cfg.estimators if s.kind != kind))
    write_log(simulate(dataclasses.replace(cfg, estimators=specs)), tmp_path / "events.jsonl")
    if np.__version__ != PINNED_NUMPY:
        pytest.skip(f"digests pinned with numpy {PINNED_NUMPY}, running {np.__version__}")
    digest = hashlib.sha256((tmp_path / "events.jsonl").read_bytes()).hexdigest()
    assert digest == PINNED_EVENTS_BY_PRIMARY_KIND[kind]
