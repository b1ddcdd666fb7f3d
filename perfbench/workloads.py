"""Benchmark inputs: one scenario INI (and, for log_replay, one JSONL log) per seed.

The generator parameters live in ``workloads.json``. The benchmark seed picks
the scenario seed, the human-crew seeds and the fraud start times; everything
else is fixed, so every seed does about the same amount of work.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SPEC = json.loads((HERE / "workloads.json").read_text())
WORKLOADS = SPEC["workloads"]
DEFAULT_SEED = SPEC["default_seed"]


def use_checkout_src() -> None:
    """Import adsim from the checkout's ``src/``, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import adsim
    except ImportError as exc:
        raise SystemExit(f"error: cannot import adsim from {SRC}: {exc}") from None
    if not Path(adsim.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: adsim was imported from {adsim.__file__}, not {SRC}")


@dataclass(frozen=True)
class Inputs:
    """Everything one CLI job needs, and the files it writes."""

    ini: Path  # the scenario the inputs come from (organic_run's for log_replay)
    argv: list[str]  # arguments for adsim.cli.main
    artifacts: list[Path]  # files the job writes, in a fixed order

    @property
    def command(self) -> str:
        return self.argv[0]


def scenario_ini(name: str, seed: int) -> str:
    """The INI text of a run workload for the given benchmark seed."""
    w = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    sc = w["scenario"]
    advs = w["advertisers"]
    lines = [
        "[scenario]",
        f"seed = {rng.getrandbits(64)}",
        f"horizon_ms = {sc['horizon_ms']}",
        f"tick_ms = {sc['tick_ms']}",
        f"default_ctr = {sc['default_ctr']}",
        "",
        "[auction]",
        f"num_slots = {sc['num_slots']}",
        f"ranking = {sc['ranking']}",
        "",
        "[bids]",
        *(f"{a} = {v['bid']}" for a, v in advs.items()),
        "",
        "[traffic]",
        f"queries_per_second = {sc['queries_per_second']}",
        f"position_decay = {sc['position_decay']}",
        "",
        "[base_ctr]",
        *(f"{a} = {v['base_ctr']}" for a, v in advs.items()),
        "",
        "[estimators]",
        f"specs = {sc['specs']}",
    ]
    for i, plan in enumerate(w["fraud"]):
        lo, hi = plan["start_ms"]
        lines += [
            "",
            f"[fraud:plan{i}]",
            f"kind = {plan['kind']}",
            f"target = {plan['target']}",
            f"start_ms = {rng.randint(lo, hi)}",
            f"count = {plan['count']}",
        ]
        if plan["kind"] == "scripted":
            lines.append(f"interval_ms = {plan['interval_ms']}")
        else:
            lines += [
                f"mean_gap_ms = {plan['mean_gap_ms']}",
                f"gap_sigma = {plan['gap_sigma']}",
                f"seed = {rng.getrandbits(64)}",
            ]
    return "\n".join(lines) + "\n"


def layout(name: str, workdir: Path) -> Inputs:
    """Where the workload's inputs and outputs live under ``workdir``."""
    w = WORKLOADS[name]
    inp, out = workdir / "in", workdir / "out"
    ini = inp / f"{w.get('source', name)}.ini"
    if w["command"] == "run":
        argv = ["run", str(ini), "--out", str(out)]
        artifacts = [out / "events.jsonl", out / "series.csv", out / "series.svg"]
        return Inputs(ini, argv, artifacts)
    argv = ["replay", str(inp / "events.jsonl"), "--tick-ms", str(w["tick_ms"])]
    for token in w["specs"]:
        argv += ["--spec", token]
    argv += ["--csv", str(out / "replay.csv")]
    return Inputs(ini, argv, [out / "replay.csv"])


def generate(name: str, seed: int, workdir: Path) -> Inputs:
    """Write the workload's inputs for ``seed`` under ``workdir``."""
    inputs = layout(name, workdir)
    inputs.ini.parent.mkdir(parents=True, exist_ok=True)
    inputs.artifacts[0].parent.mkdir(parents=True, exist_ok=True)
    inputs.ini.write_text(scenario_ini(WORKLOADS[name].get("source", name), seed))
    if inputs.command == "replay":
        from adsim.bench import load_config, simulate
        from adsim.core import write_log

        write_log(simulate(load_config(inputs.ini)), inputs.argv[1])
    return inputs
