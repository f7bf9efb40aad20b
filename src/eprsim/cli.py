"""Command line front end.

Four batch modes:

* ``mc``         run the event simulation, select coincidences at one
                 window, write a correlation table and CHSH estimate
* ``oracle``     write exact model curves E(delta) next to the singlet
                 and mixed quantum references
* ``sweep``      Monte Carlo S(W) over a window grid
* ``reanalyze``  redo coincidence analysis from stored time-tag files

Angles must carry an explicit unit suffix (``22.5deg`` or ``0.3927rad``);
window grids are ``min:max:logN`` or ``min:max:linN`` in the same time
unit as ``--t0``.  Exit status: 0 success, 1 invalid arguments or
configuration, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from .analysis import DEFAULT_QUADRUPLE, chsh, tabulate, window_sweep
from .coincidence import match_events
from .errors import EprSimError, ValidationError
from .events import EmissionSpec, ExperimentConfig, run_experiment
from .model import ModelParams
from .oracle import DEFAULT_QUAD, QuadratureSpec, chsh_exact, correlation_curve, mixed_correlation, singlet_correlation
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

OUTDIR_ENV = "EPRSIM_OUTDIR"
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
    kind, num = parts[2][:3], parts[2][3:]
    if kind not in ("log", "lin") or not num.isdigit():
        raise ValidationError(f"grid spec {parts[2]!r} must be logN or linN")
    n = int(num)
    if n < 1:
        raise ValidationError("window grid needs at least one point")
    if n == 1:
        return np.array([lo])
    if hi <= lo:
        raise ValidationError(f"window grid needs max > min, got {lo}..{hi}")
    if kind == "log":
        if lo <= 0:
            raise ValidationError("logarithmic window grid needs min > 0")
        return np.geomspace(lo, hi, n)
    return np.linspace(lo, hi, n)


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
    p.add_argument("--windows", type=str, default=None, help="window grid min:max:logN|linN (sweep/reanalyze)")
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
    p.add_argument("--out", type=str, default=None, help=f"output directory (default ${OUTDIR_ENV} or '.')")
    p.add_argument("--workers", type=int, default=1, help="worker count for event generation (default 1)")
    return p


def _resolve_outdir(args) -> Path:
    out = args.out or os.environ.get(OUTDIR_ENV) or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _resolve_policy(args) -> str:
    if args.matcher is None:
        return "stream-greedy" if args.mode == "reanalyze" else "paired"
    return "stream-greedy" if args.matcher == "stream" else "paired"


def _build_config(args) -> tuple[ExperimentConfig, tuple[float, float, float, float]]:
    if args.pairs < 1:
        raise ValidationError(f"--pairs must be >= 1, got {args.pairs}")
    params = ModelParams(d=args.d, t0=args.t0, window=args.window)
    quadruple = parse_angle_list(args.quadruple, expect=4) if args.quadruple else DEFAULT_QUADRUPLE
    a, ap, b, bp = quadruple
    settings1 = parse_angle_list(args.angles1) if args.angles1 else (a, ap)
    settings2 = parse_angle_list(args.angles2) if args.angles2 else (b, bp)
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


def _tags_prefix(args, outdir: Path, attr: str) -> Path | None:
    raw = getattr(args, attr)
    if raw is None:
        return None
    prefix = Path(raw)
    return prefix if prefix.is_absolute() else outdir / prefix


def _analyze_window(log, config, window, policy, quadruple, outdir: Path, manifest: RunManifest) -> None:
    """Match at one window, write the correlation table, record S and event counts in ``manifest``."""
    coinc = match_events(log, window, policy)
    table = tabulate(coinc, config)
    result = chsh(table, quadruple)
    manifest.outputs.append(str(write_correlation_csv(outdir / "correlations.csv", table)))
    matched = len(coinc)
    rate = matched / log.n_pairs
    manifest.results = {
        "policy": policy,
        "window": window,
        "coincidence_rate": rate,
        "matched": matched,
        "unmatched1": len(log.station1) - matched,
        "unmatched2": len(log.station2) - matched,
        "s": result.s,
        "s_stderr": result.stderr,
        "correlations": {
            "e_ab": result.e_ab,
            "e_abp": result.e_abp,
            "e_apb": result.e_apb,
            "e_apbp": result.e_apbp,
        },
    }
    print(f"{manifest.mode}: n_pairs={log.n_pairs} window={window} rate={rate:.6f}")
    print(f"{manifest.mode}: S = {result.s:.6f} +- {result.stderr:.6f}")


def _run_mc(args, outdir: Path) -> RunManifest:
    config, quadruple = _build_config(args)
    policy = _resolve_policy(args)
    log = run_experiment(config, n_workers=args.workers)
    manifest = RunManifest(mode="mc", seed=config.seed, config=config_to_dict(config))

    tags_prefix = _tags_prefix(args, outdir, "tags_out")
    if tags_prefix is not None:
        p1, p2 = write_tags(log, tags_prefix)
        side = RunManifest(mode="tags", seed=config.seed, config=config_to_dict(config),
                           outputs=[p1.name, p2.name])
        side_path = side.write(Path(f"{tags_prefix}.manifest.json"))
        manifest.outputs += [str(p1), str(p2), str(side_path)]

    _analyze_window(log, config, config.params.window, policy, quadruple, outdir, manifest)
    return manifest


def _run_oracle(args, outdir: Path) -> RunManifest:
    config, quadruple = _build_config(args)
    params = config.params
    deltas = np.linspace(0.0, np.pi, _CURVE_POINTS)
    model = correlation_curve(deltas, params, DEFAULT_QUAD)
    singlet = np.array([singlet_correlation(d, 0.0) for d in deltas])
    mixed = np.array([mixed_correlation(d, 0.0) for d in deltas])
    s_exact = chsh_exact(params, quadruple, DEFAULT_QUAD)
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


def _run_sweep(args, outdir: Path) -> RunManifest:
    config, quadruple = _build_config(args)
    windows = parse_windows(args.windows or "1:1000:log20")
    policy = _resolve_policy(args)
    sweep = window_sweep(config, windows, quadruple=quadruple, policy=policy, n_workers=args.workers)
    csv_path = write_sweep_csv(outdir / "sweep.csv", sweep)
    manifest = RunManifest(mode="sweep", seed=config.seed, config=config_to_dict(config))
    manifest.outputs.append(str(csv_path))
    manifest.results = {
        "policy": policy,
        "crossings_at_2": sweep.crossings(2.0),
        "s_first": float(sweep.s[0]),
        "s_last": float(sweep.s[-1]),
    }
    print(f"sweep: {len(windows)} windows {windows[0]:g}..{windows[-1]:g}, "
          f"S {sweep.s[0]:.4f} -> {sweep.s[-1]:.4f}, crossings at 2: {sweep.crossings(2.0)}")
    return manifest


def _run_reanalyze(args, outdir: Path) -> RunManifest:
    if not args.tags_in:
        raise ValidationError("reanalyze mode requires --tags-in <prefix>")
    prefix = _tags_prefix(args, outdir, "tags_in")
    side_path = Path(f"{prefix}.manifest.json")
    if not side_path.exists():
        raise ValidationError(
            f"no manifest {side_path} next to the tag files; cannot resolve setting angles for reanalysis"
        )
    config = config_from_dict(RunManifest.read(side_path).config)
    log = read_tags(prefix, config)
    policy = _resolve_policy(args)
    quadruple = parse_angle_list(args.quadruple, expect=4) if args.quadruple else DEFAULT_QUADRUPLE
    manifest = RunManifest(mode="reanalyze", seed=config.seed, config=config_to_dict(config))
    if args.windows:
        windows = parse_windows(args.windows)
        sweep = window_sweep(config, windows, quadruple=quadruple, policy=policy, log=log)
        csv_path = write_sweep_csv(outdir / "sweep.csv", sweep)
        manifest.outputs.append(str(csv_path))
        manifest.results = {"policy": policy, "crossings_at_2": sweep.crossings(2.0)}
        print(f"reanalyze: sweep over {len(windows)} windows, crossings at 2: {sweep.crossings(2.0)}")
    else:
        _analyze_window(log, config, args.window, policy, quadruple, outdir, manifest)
    return manifest


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        outdir = _resolve_outdir(args)
        runner = {"mc": _run_mc, "oracle": _run_oracle, "sweep": _run_sweep, "reanalyze": _run_reanalyze}[args.mode]
        manifest = runner(args, outdir)
        manifest_path = manifest.write(outdir / f"{args.mode}.manifest.json")
        print(f"manifest: {manifest_path}")
        return 0
    except ValidationError as exc:
        print(f"eprsim: invalid configuration: {exc}", file=sys.stderr)
        return 1
    except EprSimError as exc:
        print(f"eprsim: runtime error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"eprsim: i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
