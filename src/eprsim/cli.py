"""Command line front end.

Four batch modes:

* ``mc``         run the event simulation and analyze its coincidences
* ``oracle``     write exact model curves E(delta) next to the singlet
                 and mixed quantum references
* ``sweep``      ``mc`` over a window grid, by default 1:1000:log20
* ``reanalyze``  redo the analysis from stored time-tag files

``mc``, ``sweep`` and ``reanalyze`` share one analysis.  It runs on the
``--windows`` grid if given, else on the default grid for ``sweep``, else
at the single ``--window``.  The manifest's ``per_window`` holds one
record per window, the same for both shapes: the window, S, its stderr,
the coincidence rate, matched and unmatched events, empty setting cells
and the four CHSH correlations.  One window writes ``correlations.csv``
and copies record 0's keys to the top level; a grid writes ``sweep.csv``
and adds only S at its ends (``s_first``, ``s_last``) and where S
crosses 2 (``crossings_at_2``).

``mc`` and ``sweep`` runs without ``--tags-out`` are streamed, with
either matcher and either emission: the run is generated in segments
and the analysis takes each in order and drops it, so memory does not
grow with ``--pairs``.  Under regular emission a segment is 2**16 pairs
and ``--workers`` of them are generated at once (at most one per CPU,
and inline for one).  Under Poisson emission each segment continues the
emission times of the one before, so the segments, of 2**16 pairs per
worker, come one after the other, each generated on ``--workers``
threads.  The paired matcher bins each segment; the stream matcher
walks them in time order, carrying the rows a later segment may
precede.  Only ``--tags-out`` keeps the whole log, because its tag
files are written in time order over the whole run; it is generated in
the same 2**16-pair parts, ``--workers`` at once.
The manifest's ``stage_s`` records the wall time of ``generate`` or
``read_tags``, ``write_tags`` when tags are written, and ``analyze``.
On a streamed run ``generate`` is the time the analysis waited for
segments and ``analyze`` the rest of the fused stage; the two sum to
its wall time.

Angles must carry an explicit unit suffix (``22.5deg`` or ``0.3927rad``);
window grids are ``min:max:logN`` or ``min:max:linN`` in the same time
unit as ``--t0``.  Exit status: 0 success, 1 invalid arguments or
configuration, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from collections.abc import Iterator
from contextlib import closing, contextmanager, nullcontext
from pathlib import Path

import numpy as np

from .analysis import DEFAULT_QUADRUPLE, chsh_cells, window_sweep
from .errors import EprSimError, TagFormatError, ValidationError
from .events import SEGMENT_PAIRS, EmissionSpec, EventLog, ExperimentConfig, map_ranges, rng_provenance, run_experiment
from .model import ModelParams
from .oracle import chsh_exact, correlation_curve, mixed_correlation, singlet_correlation
from .tagio import (
    RunManifest,
    config_from_dict,
    config_to_dict,
    read_tags,
    write_correlation_csv,
    write_curve_csv,
    write_sweep_csv,
    write_tags,
)

__all__ = ["main", "build_parser", "parse_angle", "parse_angle_list", "parse_windows", "parse_emission"]

_CURVE_POINTS = 64


def parse_angle(text: str) -> float:
    """Angle with a mandatory unit suffix: '45deg' or '0.7854rad'."""
    t = text.strip().lower()
    unit = t[-3:]
    if unit not in ("deg", "rad"):
        raise ValidationError(f"angle {text!r} needs an explicit unit suffix 'deg' or 'rad'")
    try:
        value = float(t[:-3])
    except ValueError:
        raise ValidationError(f"cannot parse angle value in {text!r}") from None
    if not np.isfinite(value):
        raise ValidationError(f"angle {text!r} is not finite")
    return float(np.deg2rad(value)) if unit == "deg" else value


def parse_angle_list(text: str, expect: int | None = None) -> tuple[float, ...]:
    angles = tuple(parse_angle(tok) for tok in text.split(",") if tok.strip())
    if not angles:
        raise ValidationError(f"empty angle list {text!r}")
    if expect is not None and len(angles) != expect:
        raise ValidationError(f"expected {expect} angles, got {len(angles)} in {text!r}")
    return angles


def parse_windows(text: str) -> np.ndarray:
    """Window grid 'min:max:logN' (geometric) or 'min:max:linN' (linear)."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValidationError(f"window grid {text!r} must look like min:max:logN or min:max:linN")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise ValidationError(f"non-numeric bound in window grid {text!r}") from None
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValidationError(f"window grid {text!r} needs finite bounds")
    if lo < 0:
        raise ValidationError("window grid needs min >= 0")
    kind, num = parts[2][:3], parts[2][3:]
    if kind not in ("log", "lin") or not (num.isascii() and num.isdigit()):  # int() also reads '２０'
        raise ValidationError(f"grid spec {parts[2]!r} must be logN or linN")
    n = int(num)
    if n < 1:
        raise ValidationError("window grid needs at least one point")
    if n > 2**53:  # the --pairs limit; from about 2**60 points numpy raises ValueError, not MemoryError
        raise ValidationError("window grid needs at most 2**53 points")
    if hi <= lo:
        raise ValidationError(f"window grid needs max > min, got {lo}..{hi}")
    if kind == "log" and lo <= 0:
        raise ValidationError("logarithmic window grid needs min > 0")
    if n == 1:
        return np.array([lo])
    grid = np.geomspace(lo, hi, n) if kind == "log" else np.linspace(lo, hi, n)
    if not np.all(grid[1:] > grid[:-1]):  # points closer than an ulp round to equal windows
        raise ValidationError(f"window grid {text!r} is not strictly increasing: its points round to equal windows")
    return grid


def parse_emission(text: str) -> EmissionSpec:
    """Emission process: 'regular:<interval>' or 'poisson:<rate>'."""
    mode, _, value = text.partition(":")
    if not value:
        raise ValidationError(f"emission spec {text!r} must look like regular:<dt> or poisson:<rate>")
    try:
        number = float(value)
    except ValueError:
        raise ValidationError(f"non-numeric emission parameter in {text!r}") from None
    if mode == "regular":
        return EmissionSpec.regular(number)
    if mode == "poisson":
        return EmissionSpec.poisson(number)
    raise ValidationError(f"unknown emission mode {mode!r} (use regular or poisson)")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; spec says 1
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="eprsim", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--mode", choices=("mc", "oracle", "sweep", "reanalyze"), default="mc")
    p.add_argument("--d", type=float, default=4.0, help="delay-timescale exponent (default 4)")
    p.add_argument("--t0", type=float, default=1000.0, help="maximum delay timescale in ns (default 1000)")
    p.add_argument("--window", type=float, default=10.0, help="coincidence window in ns (default 10)")
    p.add_argument("--windows", type=str, default=None,
                   help="window grid min:max:logN|linN (default: --window, or 1:1000:log20 for sweep)")
    p.add_argument("--pairs", type=int, default=10**6, help="number of emitted pairs (default 1e6)")
    p.add_argument("--seed", type=int, default=42, help="random seed (default 42)")
    p.add_argument("--angles1", type=str, default=None, help="station-1 settings, e.g. '0deg,45deg'")
    p.add_argument("--angles2", type=str, default=None, help="station-2 settings, e.g. '22.5deg,67.5deg'")
    p.add_argument("--quadruple", type=str, default=None, help="CHSH angles a,a',b,b' (default 0,45,22.5,67.5 deg)")
    p.add_argument("--emission", type=str, default=None, help="emission process regular:<dt>|poisson:<rate>")
    p.add_argument("--matcher", choices=("paired", "stream"), default=None,
                   help="coincidence selector (default: paired, or stream for reanalyze)")
    p.add_argument("--tags-out", type=str, default=None, help="prefix for written time-tag files")
    p.add_argument("--tags-in", type=str, default=None, help="prefix of time-tag files to reanalyze")
    p.add_argument("--out", type=str, default=".", help="output directory (default '.')")
    p.add_argument("--workers", type=int, default=1,
                   help="2**16-pair segments of events generated at once, at most one per CPU (default 1)")
    return p


def _parse_quadruple(args) -> tuple[float, float, float, float]:
    return parse_angle_list(args.quadruple, expect=4) if args.quadruple else DEFAULT_QUADRUPLE


def _build_config(args) -> tuple[ExperimentConfig, tuple[float, float, float, float]]:
    params = ModelParams(d=args.d, t0=args.t0, window=args.window)
    quadruple = _parse_quadruple(args)
    settings1 = parse_angle_list(args.angles1) if args.angles1 else quadruple[:2]
    settings2 = parse_angle_list(args.angles2) if args.angles2 else quadruple[2:]
    emission = parse_emission(args.emission) if args.emission else None
    config = ExperimentConfig(
        params=params,
        settings1=settings1,
        settings2=settings2,
        n_pairs=args.pairs,
        seed=args.seed,
        emission=emission,
    )
    return config, quadruple


@contextmanager
def _stage(stage_s: dict, name: str):
    """Add the wall time of the enclosed block to ``stage_s[name]``, in seconds, less what stages inside it add."""
    start, inner = time.perf_counter(), sum(stage_s.values())
    yield
    elapsed = time.perf_counter() - start - (sum(stage_s.values()) - inner)
    stage_s[name] = stage_s.get(name, 0.0) + elapsed


def _timed(segments, stage_s: dict):
    """The log segments of ``segments``, each wait added to stage ``generate``; closing this closes them."""
    with closing(segments):
        while True:
            with _stage(stage_s, "generate"):
                segment = [next(segments, None)]
            if segment[0] is None:
                return
            yield segment.pop()  # held by the consumer alone, which may drop it before the next is awaited


def _segments(config: ExperimentConfig, workers: int) -> Iterator[EventLog]:
    """A generated run's consecutive segments, in order, each one ``run_experiment`` call.

    Under regular emission a segment is ``events.SEGMENT_PAIRS`` pairs
    on one worker, and ``map_ranges`` runs ``workers`` of them at once.
    Under Poisson emission each segment continues the emission times
    from the one before, so they run one after the other, each on
    ``workers`` threads over as many ``SEGMENT_PAIRS``-pair parts (at
    most one per CPU).
    """
    n = config.n_pairs
    if config.resolved_emission().mode == "regular":
        yield from map_ranges(lambda start, stop: run_experiment(config, 1, pairs=range(start, stop)), n, workers)
        return
    size, emitted = SEGMENT_PAIRS * min(workers, os.cpu_count() or 1), None
    for start in range(0, n, size):
        segment = [run_experiment(config, workers, pairs=range(start, min(start + size, n)), emitted_before=emitted)]
        emitted = segment[0].emitted
        yield segment.pop()  # held by the consumer alone


def _generate(args, config: ExperimentConfig, outdir: Path,
              stage_s: dict) -> tuple[EventLog | Iterator[EventLog], list[str]]:
    """The run's segments, streamed; with ``--tags-out`` the stored log, whose tags and side manifest it writes."""
    if args.workers < 1:  # a regular segment runs on one worker, so run_experiment would not see it
        raise ValidationError(f"--workers must be >= 1, got {args.workers}")
    if args.tags_out is None:
        return _timed(_segments(config, args.workers), stage_s), []
    with _stage(stage_s, "generate"):
        log = run_experiment(config, n_workers=args.workers)
    if args.tags_out is None:
        return log, []
    tags_prefix = outdir / args.tags_out  # an absolute prefix replaces outdir
    with _stage(stage_s, "write_tags"):
        p1, p2 = write_tags(log, tags_prefix)
    side = RunManifest(mode="tags", seed=config.seed, config=config_to_dict(config),
                       outputs=[p1.name, p2.name], results={"rng": rng_provenance()})
    side_path = side.write(Path(f"{tags_prefix}.manifest.json"))
    return log, [str(p1), str(p2), str(side_path)]


def _read_source(args, quadruple, outdir: Path, stage_s: dict) -> tuple[EventLog, ExperimentConfig, dict | None]:
    """The log read from ``--tags-in``, with the config and RNG provenance (or None) of its side manifest."""
    if not args.tags_in:
        raise ValidationError("reanalyze mode requires --tags-in <prefix>")
    prefix = outdir / args.tags_in
    side_path = Path(f"{prefix}.manifest.json")
    if not side_path.exists():
        raise ValidationError(
            f"no manifest {side_path} next to the tag files; cannot resolve setting angles for reanalysis"
        )
    try:
        side = RunManifest.read(side_path)
        config = config_from_dict(side.config)
        rng = side.results.get("rng")
    except ValidationError:
        raise
    except (ValueError, KeyError, TypeError, AttributeError) as exc:  # JSONDecodeError is a ValueError
        problem = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise TagFormatError(f"{side_path}: malformed manifest: {problem}") from None
    chsh_cells(config, quadruple)  # before any tag file is read
    with _stage(stage_s, "read_tags"):
        log = read_tags(prefix, config)
    return log, config, rng


def _analyze(log, config, windows, policy, quadruple, outdir: Path, manifest: RunManifest, diagnostics: dict) -> None:
    """Select coincidences at ``windows``, write the result CSV and build ``manifest.results``.

    The selection is one ``window_sweep`` of ``log``, one stored log or
    a stream of segments, and one window (a float) is a grid of one.
    Both shapes build ``per_window``, one record per window, the same
    way, and it is the only place a grid stores per-window facts: one
    window's scalar keys are a copy of record 0's; a grid adds only
    ``s_first`` and ``s_last``, its end records' S, and
    ``crossings_at_2``.  The shape chooses only that summary, the CSV
    (``correlations.csv`` or ``sweep.csv``) and the printed lines.  Both
    add ``policy`` and ``diagnostics`` with the ``analyze`` stage, which
    on a streamed run excludes the wait for segments (see ``_timed``).
    """
    with _stage(diagnostics["stage_s"], "analyze"):
        sweep = window_sweep(config, np.atleast_1d(windows), quadruple, policy, log=log)
        # A stream of segments is a generated run: both stations have n_pairs events.
        n2 = len(log.station2) if isinstance(log, EventLog) else sweep.n_pairs
        e = (sweep.correlation[:, i, j].tolist() for i, j in sweep.cells)
        per_window = [
            {"window": w, "s": s, "s_stderr": s_stderr, "coincidence_rate": rate, "matched": m,
             "unmatched1": sweep.n_pairs - m, "unmatched2": n2 - m, "empty_cells": empty,
             "correlations": dict(zip(("e_ab", "e_abp", "e_apb", "e_apbp"), e_w))}
            for w, s, s_stderr, rate, m, empty, *e_w in zip(
                sweep.windows.tolist(), sweep.s.tolist(), sweep.s_stderr.tolist(), sweep.rate.tolist(),
                sweep.matched.tolist(), sweep.empty_cells, *e)
        ]
        first, last = per_window[0], per_window[-1]
        if np.ndim(windows) == 0:
            csv_path = write_correlation_csv(outdir / "correlations.csv", sweep, config)
            summary = first
            print(f"{manifest.mode}: n_pairs={sweep.n_pairs} window={first['window']} "
                  f"rate={first['coincidence_rate']:.6f}")
            print(f"{manifest.mode}: S = {first['s']:.6f} +- {first['s_stderr']:.6f}")
        else:
            csv_path = write_sweep_csv(outdir / "sweep.csv", sweep)
            summary = {"crossings_at_2": sweep.crossings(), "s_first": first["s"], "s_last": last["s"]}
            print(f"{manifest.mode}: {len(per_window)} windows {first['window']:g}..{last['window']:g}, "
                  f"S {first['s']:.4f} -> {last['s']:.4f}, crossings at 2: {summary['crossings_at_2']}")
    manifest.outputs.append(str(csv_path))
    manifest.results = {"policy": policy, **summary, "per_window": per_window, "diagnostics": diagnostics}


def _run_analysis(args, outdir: Path) -> RunManifest:
    """``mc``, ``sweep`` and ``reanalyze``: generate or read the log, then ``_analyze`` it."""
    if not np.isfinite(args.window):  # reanalyze builds no ModelParams from it
        raise ValidationError(f"--window must be finite, got {args.window}")
    grid = args.windows or ("1:1000:log20" if args.mode == "sweep" else None)
    windows = parse_windows(grid) if grid else args.window
    policy = args.matcher or ("stream" if args.mode == "reanalyze" else "paired")
    stage_s = {}
    if args.mode == "reanalyze":
        quadruple, outputs = _parse_quadruple(args), []
        log, config, rng = _read_source(args, quadruple, outdir, stage_s)
    else:
        config, quadruple = _build_config(args)
        chsh_cells(config, quadruple)  # before any event is generated or tag written
        log, outputs = _generate(args, config, outdir, stage_s)
        rng = rng_provenance()
    manifest = RunManifest(mode=args.mode, seed=config.seed, config=config_to_dict(config), outputs=outputs)
    with nullcontext() if isinstance(log, EventLog) else closing(log):  # an error stops the segments' pool
        _analyze(log, config, windows, policy, quadruple, outdir, manifest, {"rng": rng, "stage_s": stage_s})
    return manifest


def _run_oracle(args, outdir: Path) -> RunManifest:
    config, quadruple = _build_config(args)
    params = config.params
    deltas = np.linspace(0.0, np.pi, _CURVE_POINTS)
    model = correlation_curve(deltas, params)
    singlet = np.array([singlet_correlation(d, 0.0) for d in deltas])
    mixed = np.array([mixed_correlation(d, 0.0) for d in deltas])
    s_exact = chsh_exact(params, quadruple)
    csv_path = write_curve_csv(outdir / "reference_curves.csv", deltas, model, singlet, mixed)
    manifest = RunManifest(mode="oracle", seed=config.seed, config=config_to_dict(config))
    manifest.outputs.append(str(csv_path))
    manifest.results = {
        "s_exact": s_exact,
        "max_dev_from_singlet": float(np.max(np.abs(model - singlet))),
        "max_dev_from_mixed": float(np.max(np.abs(model - mixed))),
    }
    print(f"oracle: S_exact = {s_exact:.6f} at d={params.d} window={params.window}")
    return manifest


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        manifest = (_run_oracle if args.mode == "oracle" else _run_analysis)(args, outdir)
        manifest_path = manifest.write(outdir / f"{args.mode}.manifest.json")
        print(f"manifest: {manifest_path}")
        return 0
    except ValidationError as exc:
        print(f"eprsim: invalid configuration: {exc}", file=sys.stderr)
        return 1
    except (EprSimError, MemoryError) as exc:  # MemoryError: a run too large for this machine
        print(f"eprsim: runtime error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"eprsim: i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
