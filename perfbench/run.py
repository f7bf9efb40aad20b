"""eprsim benchmark: CLI operations timed end to end, one fresh process each.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

A closed loop with one client: the harness starts one operation at a
time, each in a new interpreter that imports eprsim from ``src/`` before
its clock starts, and starts the next when it has ended, until
``--seconds`` have passed.  An operation is one or two
``eprsim.cli.main(argv)`` calls, the commands a user runs; the workload
seed reaches the program only as ``--seed``.

The host is a share of a machine whose speed drifts by tens of percent
over seconds to minutes as its other tenants' load changes.  So every
operation runs a fixed calibration kernel (calibrate.py) right after its
timed calls, in its own process, and the harness reports times in
reference seconds: an operation's wall time times ``calibrate.REF_S``
over the time of that kernel.  A program that does 30% more
work still reads 30% slower; a host that runs everything 30% slower
does not.  The raw wall times are in the detail line.

After the clock has stopped the harness digests every operation's output
files, requires one digest per run (all operations of a run share the
seed) and checks the first operation's outputs for correctness.

With ``--trace 0`` the last line of standard output reports the
end-to-end metrics; with ``--trace 1`` untraced and traced operations
alternate and it reports per-layer metrics from the traced ones (see
spans.py), plus the tracing overhead.  The line before it carries the
run environment, sample counts, digests, S values and failure reasons.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from typing import Callable

import calibrate
import checks
import spans

MODEL = ["--d", "4", "--t0", "1000"]
GRID, SMALL_GRID = "1:1000:log20", "10:1000:log3"
SMALL_PAIRS = 5000
ORACLE_POINTS = 68  # 64 curve points plus the 4 correlations of chsh_exact
WORK_DIR = ".perfbench"
MIN_OPS = 3
RUN_LIMIT_S = 120.0  # no operation starts after this
OP_DEADLINE_S = 150.0  # and none runs past this, keeping a run under 180 s


@dataclass(frozen=True)
class Workload:
    argvs: Callable[[int, str], list[list[str]]]  # (pairs, window grid) -> main() argument lists
    pairs: int | None  # emitted pairs per operation; None for the oracle
    check: Callable[[Path], list[str]]
    threads: int = 1  # threads the operation keeps busy; the calibration kernel uses as many


WORKLOADS = {
    # The paper's S(W) figure: one generation (2 threads), 20 paired filters.
    "sweep-regular": Workload(
        lambda n, grid: [[*MODEL, "--mode", "sweep", "--pairs", str(n), "--windows", grid, "--workers", "2"]],
        1_000_000,
        checks.check_sweep,
        threads=2,
    ),
    # The lab-data path: write tags, read them back, stream-match 20 windows.
    # Regular emission, so every stream cluster holds at most one event per station.
    # 5e4 pairs keep an operation near one second, so a run holds enough of them
    # for its median and each sits close to the calibration that follows it.
    "lab-roundtrip": Workload(
        lambda n, grid: [
            [*MODEL, "--mode", "mc", "--pairs", str(n), "--tags-out", "tags"],
            [*MODEL, "--mode", "reanalyze", "--tags-in", "tags", "--windows", grid],
        ],
        50_000,
        checks.check_roundtrip,
    ),
    # Overlapping Poisson emissions: the stream matcher on clusters of thousands of events.
    "stream-dense": Workload(
        lambda n, grid: [[*MODEL, "--mode", "mc", "--matcher", "stream", "--emission", "poisson:0.005",
                          "--window", "1000", "--pairs", str(n)]],
        500_000,
        checks.check_dense,
    ),
    # The quadrature oracle alone, cold: 64-point E(delta) plus chsh_exact.
    "oracle-curve": Workload(
        lambda n, grid: [[*MODEL, "--mode", "oracle", "--window", "10"]],
        None,
        checks.check_oracle,
    ),
}

END_TO_END = {"op_s": "s", "items_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metric -> the end-to-end metric (op_s, items_per_s) it should move, on which workloads.
PER_LAYER = {
    "events.run_experiment.s": "s",  # sweep-regular (2 threads), stream-dense (Poisson); flat on lab-roundtrip
    "events.paired_view.s": "s",  # sweep-regular
    "events.pairs": "count",
    "model.kernels.s": "s",  # sweep-regular, stream-dense
    "coincidence.pair_filter.s": "s",  # sweep-regular
    "coincidence.pair_filter.calls": "count",
    "coincidence.stream_match.s": "s",  # lab-roundtrip (1+1 clusters), stream-dense (large clusters)
    "coincidence.stream_match.calls": "count",
    "coincidence.matched": "count",
    "coincidence.yield": "ratio",
    "coincidence.cluster_1x1_share": "ratio",  # the input property a 1+1-cluster fast path depends on
    "coincidence.cluster_max": "count",
    "analysis.tabulate.s": "s",
    "analysis.chsh.s": "s",
    "analysis.window_sweep.self_s": "s",  # sweep-regular, lab-roundtrip
    "tagio.write_tags.s": "s",  # lab-roundtrip only, as are the other tagio metrics
    "tagio.read_tags.s": "s",
    "tagio.bytes": "bytes",
    "tagio.write_mb_per_s": "MB/s",
    "tagio.read_mb_per_s": "MB/s",
    "oracle.correlation_exact.s": "s",  # oracle-curve only, as are the other oracle metrics
    "oracle.correlation_exact.calls": "count",
    "oracle.correlation_curve.s": "s",
    "oracle.chsh_exact.s": "s",
    "cli.self_s": "s",  # argument parsing, result CSVs and manifests: op time minus traced children
    "trace.overhead_s": "s",  # traced minus untraced op_s in the same run
}


@dataclass
class Op:
    traced: bool
    result: dict | None = None  # the child's JSON line
    failure: str | None = None
    digest: str | None = None
    tag_bytes: int = 0
    speed: float = 1.0  # calibrate.REF_S over the calibration time after the operation

    def ref_s(self, key: str) -> float:
        """A wall time the child reported, in reference seconds."""
        return self.result[key] * self.speed


def run_op(wl: Workload, seed: int, outdir: Path, root: Path, traced: bool, counters: bool,
           small: bool, timeout: float) -> Op:
    """Run one operation in a new interpreter and digest what it wrote."""
    pairs = SMALL_PAIRS if small else wl.pairs
    argvs = [argv + ["--seed", str(seed), "--out", str(outdir)] for argv in wl.argvs(pairs, SMALL_GRID if small else GRID)]
    spec = {"src": str(root / "src"), "argvs": argvs, "threads": wl.threads, "trace": traced, "counters": counters}
    op = Op(traced)
    try:
        proc = subprocess.run([sys.executable, str(Path(__file__).with_name("op.py")), json.dumps(spec)],
                              cwd=root, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        op.failure = f"timed out after {timeout:.0f} s"
        return op
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        op.failure = f"exit {proc.returncode}: {proc.stderr.strip()[-500:] or proc.stdout.strip()[-500:]}"
        return op
    op.result = json.loads(lines[-1])
    op.speed = calibrate.REF_S / op.result["calibration_s"]
    op.digest, files, s_values = checks.digest(outdir)
    op.tag_bytes = sum((outdir / name).stat().st_size for name in files if ".station" in name)
    op.result.update(files=files, s_values=s_values)
    return op


def layer_metrics(op: Op) -> dict[str, float]:
    """Per-layer times and counts of one traced operation."""
    res = op.result
    lt = spans.layer_times(res["spans"])

    def total(name, key="s"):
        return lt.get(name, {}).get(key, 0)

    out = {}
    for name in ("events.run_experiment", "events.paired_view", "coincidence.pair_filter",
                 "coincidence.stream_match", "analysis.tabulate", "analysis.chsh", "tagio.write_tags",
                 "tagio.read_tags", "oracle.correlation_exact", "oracle.correlation_curve", "oracle.chsh_exact"):
        out[f"{name}.s"] = total(name)
    for name in ("coincidence.pair_filter", "coincidence.stream_match", "oracle.correlation_exact"):
        out[f"{name}.calls"] = total(name, "calls")
    out["model.kernels.s"] = sum(total(name) for name in spans.KERNELS)
    out["analysis.window_sweep.self_s"] = total("analysis.window_sweep", "self_s")
    out["cli.self_s"] = total(spans.ROOT, "self_s")
    out["events.pairs"] = res["generated"]
    out["coincidence.matched"] = res["matched"]
    out["coincidence.yield"] = res["matched"] / res["match_emitted"] if res["match_emitted"] else 0.0
    mb = op.tag_bytes / 1e6
    out["tagio.bytes"] = op.tag_bytes
    out["tagio.write_mb_per_s"] = mb / out["tagio.write_tags.s"] if out["tagio.write_tags.s"] else 0.0
    out["tagio.read_mb_per_s"] = mb / out["tagio.read_tags.s"] if out["tagio.read_tags.s"] else 0.0
    return out


def environment(root: Path) -> dict:
    """Informational: where and on what the run happened."""
    src_loc = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (root / "src").rglob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "commit": git_commit(root),
        "src_loc": src_loc,
    }


def git_commit(root: Path) -> str | None:
    """HEAD commit read from .git without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path, small: bool = False) -> tuple[dict, dict]:
    """Measure one workload; returns (result line, detail)."""
    wl = WORKLOADS[workload]
    work = root / WORK_DIR / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ops: list[Op] = []
    first_dir = None  # outputs of the first completed operation, kept for the checks
    try:
        begin = time.perf_counter()
        while True:
            traced = trace and len(ops) % 2 == 1
            counters = traced and not any(op.traced and op.result for op in ops)
            outdir = work / f"op{len(ops)}"
            timeout = OP_DEADLINE_S - (time.perf_counter() - begin)
            ops.append(run_op(wl, seed, outdir, root, traced, counters, small, timeout))
            if first_dir is None and ops[-1].result:
                first_dir = outdir
            else:
                shutil.rmtree(outdir, ignore_errors=True)
            elapsed = time.perf_counter() - begin
            if elapsed >= RUN_LIMIT_S or (elapsed >= seconds and len(ops) >= MIN_OPS + trace):
                break
        check_errors = verify(ops, wl, first_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = summarize(ops, wl, trace, small)
    first = next((op for op in ops if op.result), Op(False))
    detail = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "env": environment(root),
        "ops": len(ops),
        "fail_frac": result["failed"] / result["attempted"],
        "failures": sorted({op.failure for op in ops if op.failure}),
        "check_errors": check_errors,
        "digest": first.digest,
        "files": first.result and first.result["files"],
        "s_values": first.result and first.result["s_values"],
        "samples": {key: [op.result[key] for op in ops if op.result and not op.traced]
                    for key in ("op_s", "setup_s", "peak_rss_mb", "calibration_s")},
    }
    if trace:
        traced = [op.result for op in ops if op.traced and op.result]
        detail["traced_op_s"] = [r["op_s"] for r in traced]  # wall seconds
        detail["missing_hooks"] = traced[0]["missing_hooks"]
        trace_file = root / WORK_DIR / f"trace-{workload}-seed{seed}.json"
        trace_file.write_text(json.dumps([r["spans"] for r in traced]))
        detail["trace_file"] = str(trace_file.relative_to(root))
    return result, detail


def verify(ops: list[Op], wl: Workload, first_dir: Path | None) -> list[str]:
    """Check the first completed operation's outputs; fail every operation that differs from them."""
    done = [op for op in ops if op.failure is None]
    if not done:
        return []
    try:
        errors = wl.check(first_dir)
    except Exception as exc:  # a check that cannot read the outputs fails them
        errors = [f"output check raised {exc!r}"]
    for op in done:
        if op.digest != done[0].digest:
            op.failure = f"output digest {op.digest} differs from the first operation's {done[0].digest}"
        elif errors:
            op.failure = "output check failed: " + "; ".join(errors)
    return errors


def summarize(ops: list[Op], wl: Workload, trace: bool, small: bool) -> dict:
    ran = [op for op in ops if op.result is not None]
    plain = [op for op in ran if not op.traced]
    traced = [op for op in ran if op.traced]
    if not plain or (trace and not traced):
        raise RuntimeError("no operation completed: " + "; ".join(op.failure or "" for op in ops))
    items = ORACLE_POINTS if wl.pairs is None else (SMALL_PAIRS if small else wl.pairs)
    if trace:
        per_op = [layer_metrics(op) for op in traced]
        values = {name: statistics.median(m[name] for m in per_op) for name in PER_LAYER if name in per_op[0]}
        in_1x1, total, biggest = next(op.result["clusters"] for op in traced if "clusters" in op.result)
        values["coincidence.cluster_1x1_share"] = in_1x1 / total if total else 0.0
        values["coincidence.cluster_max"] = biggest
        values["trace.overhead_s"] = (statistics.median(op.ref_s("op_s") for op in traced)
                                      - statistics.median(op.ref_s("op_s") for op in plain))
        units = PER_LAYER
    else:
        values = {
            "op_s": statistics.median(op.ref_s("op_s") for op in plain),
            "items_per_s": statistics.median(items / op.ref_s("op_s") for op in plain),
            "setup_s": statistics.median(op.ref_s("setup_s") for op in plain),
            "peak_rss_mb": statistics.median(op.result["peak_rss_mb"] for op in plain),
        }
        units = END_TO_END
    failed = sum(op.failure is not None for op in ops)
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "eprsim" / "__init__.py").is_file():
        print(f"run.py: no eprsim sources under {root / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))  # for the output checks, after every operation has run
    result, detail = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
