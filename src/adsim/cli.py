"""Command-line interface.

Exit codes: 0 success, 2 bad configuration or unreadable input, 3 a checked
curve-shape or cycle expectation failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .auction import AuctionConfig, best_response_run, detect_cycle
from .bench import (
    SHAPE_INCREASING,
    SHAPE_RISE_THEN_FALL,
    SPEC_SYNTAX,
    ConfigError,
    SeriesRow,
    ShapeViolation,
    build_series,
    curve_shape_check,
    emit_csv,
    emit_plot,
    load_config,
    parse_spec,
    replay_reference_tables,
    run_scenario,
    series_cells,
)
from .core import ClickEvent, HorizonExceededError, MalformedRecordError, read_log, write_log
from .estimators import WindowSpec


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, MalformedRecordError, HorizonExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a path the user gave cannot be read or written
        if exc.filename is None:
            raise
        print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2
    except ShapeViolation as exc:
        print(f"shape violation: {exc}", file=sys.stderr)
        return 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adsim",
        description="Sponsored-search auction and CTR-estimation simulator.",
    )
    sub = parser.add_subparsers(required=True, metavar="command")

    p = sub.add_parser("run", help="simulate a scenario; write JSONL log, CSV, and SVG")
    p.add_argument("config", help="scenario config file (INI format)")
    p.add_argument("--out", default="out", help="output directory (default: out)")
    p.add_argument(
        "--drop-flagged",
        action="store_true",
        help="discard detector-flagged clicks from the estimator series",
    )
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("tables", help="replay the bundled reference tables; report errata")
    p.add_argument("--csv", metavar="DIR", help="also write the two tables as CSV files")
    p.set_defaults(func=_cmd_tables)

    p = sub.add_parser("compare", help="run a scenario with all four estimators side by side")
    p.add_argument("config", help="scenario config file (INI format)")
    p.add_argument("--out", metavar="DIR", help="also write the comparison CSV")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("replay", help="re-estimate CTRs from a saved JSONL event log")
    p.add_argument("log", help="event log written by `adsim run`")
    p.add_argument("--advertiser", help="advertiser to track (default: first in the log)")
    p.add_argument("--tick-ms", type=int, default=1000, help="row spacing (default: 1000)")
    p.add_argument(
        "--spec",
        action="append",
        metavar="KIND[:PARAM]",
        help=f"estimator spec ({SPEC_SYNTAX}); repeatable, default: relative",
    )
    p.add_argument("--csv", metavar="FILE", help="write rows to FILE instead of stdout")
    p.set_defaults(func=_cmd_replay)

    p = sub.add_parser("demo-gfp", help="first-price bid war with cycle detection")
    p.add_argument("--bids", default="1000,300", help="starting bids in cents (default: 1000,300)")
    p.add_argument("--values", default="1100,800", help="per-click values in cents (default: 1100,800)")
    p.add_argument("--epsilon", type=int, default=100, help="bid increment in cents (default: 100)")
    p.add_argument("--reserve", type=int, default=0, help="reserve price in cents (default: 0)")
    p.add_argument("--slots", type=int, default=2, help="slot count (default: 2)")
    p.add_argument("--steps", type=int, default=30, help="moves to simulate (default: 30)")
    p.set_defaults(func=_cmd_demo_gfp)
    return parser


def _render_series(rows: list[SeriesRow]) -> str:
    return "\n".join("  ".join(f"{c:>12}" for c in cells) for cells in series_cells(rows))


def _out_dir(path: str) -> Path:
    """Create the output directory before any work, so a bad path fails first."""
    Path(path).mkdir(parents=True, exist_ok=True)
    return Path(path)


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    out = _out_dir(args.out)
    result = run_scenario(cfg, drop_flagged=args.drop_flagged)
    write_log(result.log, out / "events.jsonl")
    emit_csv(result.rows, out / "series.csv")
    emit_plot(result.rows, out / "series.svg", title=f"focus: {cfg.focus}")
    clicks = sum(1 for e in result.log if isinstance(e, ClickEvent))
    flagged = sum(len(f.flagged_click_ids) for f in result.flags)
    mode = "dropped from series" if args.drop_flagged else "counted in series"
    print(f"events: {len(result.log)} ({clicks} clicks) over {len(result.rows)} ticks")
    print(f"detector: {len(result.flags)} flags covering {flagged} clicks ({mode})")
    print(f"wrote {out / 'events.jsonl'}, {out / 'series.csv'}, {out / 'series.svg'}")
    return 0


def _cmd_tables(args) -> int:
    out = _out_dir(args.csv) if args.csv else None
    replay = replay_reference_tables()
    print("reference table 1 (per-advertiser CTR, clicks/(impressions+clicks)):")
    print(_render_series(replay.legacy_rows))
    print()
    print("reference table 2 (share of cohort clicks):")
    print(_render_series(replay.relative_rows))
    print()
    print(f"errata ledger ({len(replay.errata)} entries):")
    for e in replay.errata:
        print(
            f"  table {e.table} row {e.row} [{e.column}]: printed {e.printed_value:g}, "
            f"reconstructed {e.reconstructed_value:g}"
        )
        print(f"    {e.justification}")
    r1 = curve_shape_check(replay.legacy_rows, "ctr_old", SHAPE_INCREASING)
    print(f"shape check ctr_old: strictly increasing over {r1.checked} steps: PASS")
    r2 = curve_shape_check(replay.relative_rows, "ctr_new", SHAPE_RISE_THEN_FALL)
    print(
        f"shape check ctr_new: rise to t={r2.peak_index} then strictly "
        f"decreasing over {r2.checked} steps: PASS"
    )
    if out:
        emit_csv(replay.legacy_rows, out / "reference_legacy.csv")
        emit_csv(replay.relative_rows, out / "reference_relative.csv")
        print(f"wrote {out / 'reference_legacy.csv'}, {out / 'reference_relative.csv'}")
    return 0


_COMPARE_DEFAULTS = {
    "time": lambda cfg: WindowSpec("time", 10 * cfg.tick_ms),
    "impressions": lambda cfg: WindowSpec("impressions", 100),
    "clicks": lambda cfg: WindowSpec("clicks", 10),
    "relative": lambda cfg: WindowSpec("relative"),
}


def _cmd_compare(args) -> int:
    cfg = load_config(args.config)
    # the configured primary still prices the auction; defaults fill the rest
    configured = {spec.kind for spec in cfg.estimators}
    missing = (
        default(cfg) for kind, default in _COMPARE_DEFAULTS.items() if kind not in configured
    )
    cfg = dataclasses.replace(cfg, estimators=(*cfg.estimators, *missing))
    out = _out_dir(args.out) if args.out else None
    result = run_scenario(cfg)
    print(f"all-estimator comparison for {cfg.focus!r}:")
    print(_render_series(result.rows))
    if out:
        emit_csv(result.rows, out / "compare.csv")
        emit_plot(result.rows, out / "compare.svg", title=f"focus: {cfg.focus}")
        print(f"wrote {out / 'compare.csv'}, {out / 'compare.svg'}")
    return 0


def _cmd_replay(args) -> int:
    if args.tick_ms < 1:
        raise ConfigError("tick-ms: must be >= 1")
    specs = [parse_spec(tok, "spec") for tok in args.spec or ["relative"]]
    if len({s.label for s in specs}) != len(specs):
        raise ConfigError("spec: estimator kinds must be unique")
    try:
        log = read_log(args.log)
    except MalformedRecordError as exc:
        raise ConfigError(f"{args.log}: {exc}") from exc
    advertisers = log.advertisers()
    focus = args.advertiser or (advertisers[0] if advertisers else None)
    if focus is None:
        raise ConfigError("advertiser: the log is empty, specify one explicitly")
    if advertisers and focus not in advertisers:
        raise ConfigError(f"advertiser: {focus!r} is not in the log")
    rows = build_series(log, focus, specs, args.tick_ms)
    if args.csv:
        emit_csv(rows, args.csv)
        print(f"wrote {args.csv}")
    else:
        print(f"replayed estimates for {focus!r}:")
        print(_render_series(rows))
    return 0


def _cmd_demo_gfp(args) -> int:
    amounts = _parse_cents_list(args.bids, "--bids")
    values = _parse_cents_list(args.values, "--values")
    if len(amounts) != len(values):
        raise ConfigError("--values: need exactly one value per bid")
    if len(amounts) < 2:
        raise ConfigError("--bids: need at least two bidders")
    if args.epsilon < 1:
        raise ConfigError("--epsilon: must be >= 1")
    if args.steps < 1:
        raise ConfigError("--steps: must be >= 1")
    names = [_bidder_name(i) for i in range(len(amounts))]
    bids = dict(zip(names, amounts))
    vals = dict(zip(names, values))
    try:
        cfg = AuctionConfig(num_slots=args.slots, reserve_price=args.reserve)
    except ValueError as exc:
        field, _, reason = str(exc).partition(": ")
        flag = {"num_slots": "--slots", "reserve_price": "--reserve"}[field]
        raise ConfigError(f"{flag}: {reason}") from exc
    history = best_response_run(bids, vals, cfg, args.epsilon, args.steps)
    print(f"first-price bid war, epsilon={args.epsilon}, reserve={args.reserve}:")
    print(f"  start: {_fmt_state(names, history[0])}")
    for step, state in enumerate(history[1:], start=1):
        mover = names[(step - 1) % len(names)]
        print(f"  step {step:>3} ({mover} moves): {_fmt_state(names, state)}")
    period = detect_cycle(history)
    if period is None:
        print("no cycle detected; try more steps")
        return 3
    print(f"cycle detected: the last bids repeat with period {period} moves")
    return 0


def _bidder_name(i: int) -> str:
    # a, b, ..., z, aa, ab, ...
    name = ""
    i += 1
    while i:
        i, r = divmod(i - 1, 26)
        name = chr(ord("a") + r) + name
    return name


def _parse_cents_list(raw: str, where: str) -> list[int]:
    try:
        amounts = [int(tok) for tok in raw.split(",")]
    except ValueError:
        raise ConfigError(f"{where}: expected comma-separated cents, got {raw!r}") from None
    if any(a < 0 for a in amounts):
        raise ConfigError(f"{where}: amounts must be >= 0")
    return amounts


def _fmt_state(names: list[str], state: tuple[int, ...]) -> str:
    return "  ".join(f"{n}={amt}" for n, amt in zip(names, state))


if __name__ == "__main__":
    raise SystemExit(main())
