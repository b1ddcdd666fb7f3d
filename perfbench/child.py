"""Fresh-process measurements for run.py; prints one JSON object.

    python3 perfbench/child.py setup WORKLOAD SEED DIR
        time to import numpy and adsim and to generate the inputs into DIR
    python3 perfbench/child.py job WORKLOAD DIR
        one CLI job on the inputs in DIR, and the process's peak RSS
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import workloads


def main(argv: list[str]) -> int:
    mode, name = argv[0], argv[1]
    t0 = time.perf_counter()
    workloads.use_checkout_src()
    if mode == "setup":
        seed, workdir = int(argv[2]), Path(argv[3])
        import numpy  # noqa: F401
        import adsim.cli  # noqa: F401

        workloads.generate(name, seed, workdir)
        print(json.dumps({"setup_s": time.perf_counter() - t0}))
        return 0
    import adsim.cli

    inputs = workloads.layout(name, Path(argv[2]))
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = adsim.cli.main(inputs.argv)
    except Exception as exc:  # reported to run.py as a failed job
        rc = repr(exc)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"rc": rc, "peak_rss_mb": peak_kib / 1024}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
