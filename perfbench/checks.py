"""Output digests and per-workload output checks.

Checks run after an operation's clock has stopped, on the files the CLI
wrote, and do not depend on the seed.  Each returns a list of failure
messages; an empty list means the outputs are correct.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

# chsh_exact at d=4, t0=1000, W=10 and the default CHSH angles.
S_EXACT_REFERENCE = 2.715310354849346
ORACLE_TOL = 1e-8
SIGMA_LIMIT = 5.0


def digest(outdir: Path) -> tuple[str, dict[str, str], dict[str, float]]:
    """sha256 of every output except the manifests, plus the S values.

    Manifests carry a creation timestamp, so they are left out of the
    file digests; the S values are read from them instead.  Returns the
    combined digest, the per-file digests and the S values.
    """
    files = {}
    s_values = {}
    for path in sorted(outdir.iterdir()):
        if path.name.endswith(".manifest.json"):
            results = json.loads(path.read_text(encoding="utf-8")).get("results", {})
            for key in ("s", "s_exact", "s_first", "s_last"):
                if key in results:
                    s_values[f"{path.name}:{key}"] = results[key]
        else:
            files[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    combined = hashlib.sha256(json.dumps([files, s_values], sort_keys=True).encode()).hexdigest()
    return combined, files, s_values


def read_columns(path: Path) -> dict[str, list[float]]:
    """Result CSV as float columns (values were written with repr, so exact)."""
    with path.open(encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return {name: [float(r[k]) for r in rows[1:]] for k, name in enumerate(rows[0])}


def _manifest(outdir: Path, mode: str) -> dict:
    return json.loads((outdir / f"{mode}.manifest.json").read_text(encoding="utf-8"))


def check_sweep(outdir: Path) -> list[str]:
    """Rate never falls as W grows; S within 5 standard errors of chsh_exact(W)."""
    from eprsim.model import ModelParams
    from eprsim.oracle import chsh_exact

    params = _manifest(outdir, "sweep")["config"]["params"]
    cols = read_columns(outdir / "sweep.csv")
    errors = []
    rate = cols["coincidence_rate"]
    if any(b < a for a, b in zip(rate, rate[1:])):
        errors.append(f"sweep: coincidence rate decreases with the window: {rate}")
    for w, s, se in zip(cols["window_ns"], cols["s"], cols["s_stderr"]):
        exact = chsh_exact(ModelParams(d=params["d"], t0=params["t0"], window=w))
        if not (math.isfinite(s) and math.isfinite(exact) and abs(s - exact) <= SIGMA_LIMIT * se):
            errors.append(f"sweep: W={w!r}: S={s!r} +- {se!r} but chsh_exact={exact!r}")
    return errors


def check_roundtrip(outdir: Path) -> list[str]:
    """Tags read back equal the generated log; stream S(W) equals paired S(W)."""
    from eprsim.analysis import window_sweep
    from eprsim.events import run_experiment
    from eprsim.tagio import config_from_dict, read_tags

    config = config_from_dict(_manifest(outdir, "tags")["config"])
    log = read_tags(outdir / "tags", config)
    errors = []
    if log != run_experiment(config):
        errors.append("roundtrip: read_tags of the written files differs from the generated log")
    cols = read_columns(outdir / "sweep.csv")
    paired = window_sweep(config, cols["window_ns"], policy="paired", log=log)
    if not all(math.isfinite(s) for s in cols["s"]):
        errors.append(f"roundtrip: non-finite stream S(W): {cols['s']}")
    if list(paired.s) != cols["s"] or list(paired.rate) != cols["coincidence_rate"]:
        errors.append(f"roundtrip: stream S(W) {cols['s']} differs from paired S(W) {list(paired.s)}")
    return errors


def check_dense(outdir: Path) -> list[str]:
    """S finite in [0, 4]; coincidence rate in (0, 1]."""
    res = _manifest(outdir, "mc")["results"]
    s, rate = res["s"], res["coincidence_rate"]
    errors = []
    if not (math.isfinite(s) and 0.0 <= s <= 4.0):
        errors.append(f"dense: S={s!r} outside [0, 4]")
    if not (0.0 < rate <= 1.0):
        errors.append(f"dense: coincidence rate {rate!r} outside (0, 1]")
    return errors


def check_oracle(outdir: Path) -> list[str]:
    """Every E(delta) finite in [-1, 1]; S_exact matches the stored value."""
    e = read_columns(outdir / "reference_curves.csv")["e_model"]
    errors = []
    bad = [v for v in e if not (math.isfinite(v) and -1.0 <= v <= 1.0)]
    if bad:
        errors.append(f"oracle: E(delta) values outside [-1, 1]: {bad}")
    s_exact = _manifest(outdir, "oracle")["results"]["s_exact"]
    if not abs(s_exact - S_EXACT_REFERENCE) <= 4 * ORACLE_TOL:
        errors.append(f"oracle: s_exact={s_exact!r}, expected {S_EXACT_REFERENCE!r} within {4 * ORACLE_TOL:g}")
    return errors
