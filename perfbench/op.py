"""One benchmark operation, in a fresh interpreter.

Usage: python3 op.py '<json spec>'

The spec names the checkout's ``src`` directory, the ``eprsim.cli.main``
argument lists to run in order, the threads they use and whether to
trace.  Importing eprsim is timed as set-up; the clock for the operation
covers only the ``main`` calls, so every operation pays the cold-cache
costs a CLI user pays.
The calibration kernel (calibrate.py) runs once right after that clock
stops and peak memory has been read, so the operation itself runs as it
would without it.
The last line of standard output is one JSON object with the timings,
exit codes and peak memory (and, when traced, spans and counters).
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import nullcontext
from pathlib import Path


def peak_rss() -> float:
    """Peak resident memory of this process in MB.

    VmHWM belongs to the address space exec created, whereas ru_maxrss
    starts from the high-water mark of the process that spawned this one,
    so it would also count the harness's own memory.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = Path(spec["src"]).resolve()

    start = time.perf_counter()
    sys.path.insert(0, str(src))
    import eprsim.cli

    setup_s = time.perf_counter() - start
    if not Path(eprsim.cli.__file__).resolve().is_relative_to(src):
        print(f"op: eprsim imported from {eprsim.cli.__file__}, not from {src}", file=sys.stderr)
        return 3

    import calibrate

    tracer = missing = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        missing = spans.install(tracer)

    codes = []
    start = time.perf_counter()
    with tracer.span(spans.ROOT) if tracer else nullcontext():
        for argv in spec["argvs"]:
            codes.append(eprsim.cli.main(argv))
            if codes[-1] != 0:
                break
    op_s = time.perf_counter() - start
    peak_rss_mb = peak_rss()
    calibration_s = calibrate.kernel(spec["threads"])

    out = {
        "setup_s": setup_s,
        "op_s": op_s,
        "codes": codes,
        "peak_rss_mb": peak_rss_mb,
        "calibration_s": calibration_s,
    }
    if tracer:
        out["spans"] = tracer.spans
        out["missing_hooks"] = missing
        out["generated"] = tracer.generated
        out["matched"] = sum(m[2] for m in tracer.matches)
        out["match_emitted"] = sum(m[3] for m in tracer.matches)
        if spec["counters"]:
            out["clusters"] = spans.cluster_stats(tracer.matches)
    print(json.dumps(out))
    return 0 if all(c == 0 for c in codes) else 1


if __name__ == "__main__":
    sys.exit(main())
