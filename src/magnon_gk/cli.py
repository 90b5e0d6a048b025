"""Command-line driver.

Subcommands: simulate, correlate, closedform, certify, sample.  Options can
come from a JSON config file (--config) with command-line flags overriding
individual fields.  Data goes to CSV with columns (t, value, stderr) or
(t, id, quantity, value); reports go to JSON.  Failures print a
machine-readable JSON object {code, message, context} on stderr and exit
nonzero.  MAGNON_GK_THREADS caps worker threads for reproducible timing.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys


def _apply_thread_cap():
    """BLAS and OpenMP read their pool sizes when numpy loads, so this runs
    before the imports below."""
    cap = os.environ.get("MAGNON_GK_THREADS")
    if cap:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            os.environ.setdefault(var, cap)


_apply_thread_cap()

import numpy as np  # noqa: E402

from .lattice import LatticeSpec, SpecError  # noqa: E402


def _fail(code: str, message: str, context: dict | None = None) -> int:
    sys.stderr.write(json.dumps(
        {"code": code, "message": message, "context": context or {}}) + "\n")
    return 1


def _load_config(args: argparse.Namespace, flag_defaults: dict) -> dict:
    """Flag defaults, overridden by the config file, overridden by the flags
    given on the command line (the only ones the namespace holds).

    A config key must name a flag of the subcommand; ``tau``, the canonical
    tilt that has no flag, is accepted where ``beta`` is.
    """
    skip = ("config", "func", "command")
    cfg = {k: v for k, v in flag_defaults.items() if k not in skip}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        unknown = set(file_cfg) - set(cfg) - ({"tau"} if "beta" in cfg
                                              else set())
        if unknown:
            raise SpecError(f"{args.config}: not a {args.command} option: "
                            + ", ".join(sorted(unknown)))
        cfg.update(file_cfg)
    cfg.update((k, v) for k, v in vars(args).items() if k not in skip)
    return cfg


def _config_hash(cfg: dict) -> str:
    return hashlib.sha256(
        json.dumps(cfg, sort_keys=True, default=str).encode()).hexdigest()[:16]


def _spec_from_cfg(cfg: dict) -> LatticeSpec:
    return LatticeSpec(d=int(cfg["d"]), dstar=int(cfg["dstar"]),
                       n=int(cfg["n"]), b=float(cfg["b"]),
                       gamma=float(cfg["gamma"]),
                       charge=cfg["charge"], coords=cfg["coords"])


def _write_series_csv(path: str, times, values, stderr, header=("t", "value",
                                                               "stderr")):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for t, v, s in zip(times, values, stderr):
            w.writerow([f"{t:.12g}", f"{v:.17g}", f"{s:.17g}"])


def _initial_state(spec: LatticeSpec, cfg: dict, seed: int, index: int):
    from .rng import stream
    from .sampling import sample_canonical, sample_microcanonical
    rng = stream(seed, "init", index)
    if cfg["ensemble"] == "micro":
        return sample_microcanonical(spec, float(cfg["e"]), rng)
    return sample_canonical(spec, float(cfg["beta"]), tau=cfg.get("tau"),
                            rng=rng)


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(cfg: dict) -> int:
    from . import dynamics as dy
    spec = _spec_from_cfg(cfg)
    out_dir = cfg["out"]
    seed = int(cfg["seed"])
    n_traj = int(cfg["n_traj"])
    t_end = float(cfg["t_end"])
    dt_out = float(cfg["dt_out"])
    track = cfg["track"]
    backend = dy.make_backend(spec)
    meta = {"config": {k: v for k, v in cfg.items() if k != "func"},
            "config_hash": _config_hash(cfg), "files": []}
    for idx in range(n_traj):
        s0 = _initial_state(spec, cfg, seed, idx)
        traj = dy.simulate(s0, t_end, dt_out, seed, backend=backend,
                           index=idx, track=track)
        # made once a run has passed its checks: a bad one leaves no folder
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"traj_{idx:05d}.bin")
        dy.save_trajectory(traj, path)
        meta["files"].append(os.path.basename(path))
    os.makedirs(out_dir, exist_ok=True)   # n_traj = 0 writes only meta.json
    with open(os.path.join(out_dir, "meta.json"), "w") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)
    print(f"wrote {n_traj} trajectories to {out_dir}")
    return 0


def cmd_correlate(cfg: dict) -> int:
    from . import dynamics as dy
    from .greenkubo import estimate_correlation, estimate_kappa
    in_dir = cfg["input"]
    meta_path = os.path.join(in_dir, "meta.json")
    if not os.path.isdir(in_dir) or not os.path.exists(meta_path):
        raise SpecError(f"no trajectory set at {in_dir}")
    with open(meta_path) as fh:
        meta = json.load(fh)
    if not meta.get("files"):
        raise SpecError(f"trajectory set at {in_dir} is empty")
    trajs = [dy.load_trajectory(os.path.join(in_dir, f))
             for f in meta["files"]]
    spec = trajs[0].spec
    scfg = meta["config"]
    dt_out = float(trajs[0].dt_out)
    a = int(cfg["direction"])
    corr = estimate_correlation(trajs, spec.nsites, dt_out, a=a,
                                estimator=cfg["estimator"])
    kw = {"gamma": spec.gamma}
    if scfg.get("ensemble", "canonical") == "micro":
        kw["e"] = float(scfg.get("e", 1.0))
    else:
        kw["beta"] = float(scfg.get("beta", 1.0))
    kap = estimate_kappa(trajs, a=a, b=a, **kw)
    out, kout = cfg["out"], cfg["kappa_out"]
    _write_series_csv(out, corr.times, corr.values, corr.stderr)
    _write_series_csv(kout, kap.times, kap.values, kap.stderr)
    print(f"wrote {out} and {kout} ({len(trajs)} trajectories)")
    return 0


def cmd_closedform(cfg: dict) -> int:
    from .spectral import fit_exponent, kappa_gk_closed
    kind = cfg["kind"]
    variant = cfg["variant"]
    d = int(cfg["d"])
    dstar = int(cfg["dstar"])
    b = float(cfg["b"])
    gamma_ = float(cfg["gamma"])
    tmin = float(cfg["tmin"])
    tmax = float(cfg["tmax"])
    for name, t in (("tmin", tmin), ("tmax", tmax)):
        if not (math.isfinite(t) and t > 0):
            raise ValueError(f"{name} must be finite and > 0, got {t}")
    pts = int(cfg["points"])
    times = np.logspace(np.log10(tmin), np.log10(tmax), pts)
    kw = dict(kind=kind, d=d, dstar=dstar, b=b, gamma=gamma_)
    if kind == "canonical":
        kw["variant"] = variant
    vals = kappa_gk_closed(times, **kw)
    slope, stderr = fit_exponent(times, vals)  # a failed fit writes nothing
    out = cfg["out"]
    _write_series_csv(out, times, vals, np.zeros_like(vals),
                      header=("t", "value", "err_est"))
    report = {"schema": "closedform-report-2", "kind": kind,
              "variant": variant, "d": d, "dstar": dstar, "b": b,
              "gamma": gamma_, "slope": slope, "slope_stderr": stderr,
              "t_window": [tmin, tmax], "config_hash": _config_hash(cfg)}
    rpath = cfg["report"]
    with open(rpath, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    print(f"slope {slope:.4f}; wrote {out} and {rpath}")
    return 0


def cmd_certify(cfg: dict) -> int:
    from .resolvent import run_certification
    from .rng import stream
    from .sampling import ensemble_checks
    spec = LatticeSpec(d=1, dstar=2, n=9, b=1.0, gamma=1.0)
    ens = ensemble_checks(spec, 2.0, int(cfg["samples"]),
                          stream(int(cfg["seed"]), "init"))
    rep = run_certification(int(cfg["n"]))
    report = {"schema": "certify-report-1", "resolvent": {
        "pass": rep["pass"], "cases": len(rep["cases"]),
        "max_residual": max(
            max(c["row_sum"], c["qv_residual"], c["pushforward_residual"],
                c["vstarstar_residual"]) for c in rep["cases"])},
        "ensemble": {k: v for k, v in ens.items() if k != "samples"},
        "pass": bool(rep["pass"] and ens["pass"]),
        "config_hash": _config_hash(cfg)}
    out = cfg["out"]
    with open(out, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True, default=float)
    print(f"certification {'PASS' if report['pass'] else 'FAIL'}; wrote {out}")
    return 0 if report["pass"] else 1


def cmd_sample(cfg: dict) -> int:
    spec = _spec_from_cfg(cfg)
    seed = int(cfg["seed"])
    n_samples = int(cfg["samples"])
    out = cfg["out"]
    s = _initial_state(spec, cfg, seed, 0)  # a bad config fails before out
    with open(out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["sample", "field", "component", "site", "value"])
        for idx in range(n_samples):
            if idx:
                s = _initial_state(spec, cfg, seed, idx)
            for name, arr in (("pos", s.pos), ("vel", s.vel)):
                for j in range(spec.dstar):
                    for i in range(spec.nsites):
                        w.writerow([idx, name, j, i, f"{arr[j, i]:.17g}"])
    print(f"wrote {n_samples} samples to {out}")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="magnon-gk",
        description="Charged-oscillator lattice: simulation and analysis")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, seeded=True):
        sp.add_argument("--config", help="JSON config file")
        if seeded:
            sp.add_argument("--seed", type=int, default=0)

    def model(sp):
        sp.add_argument("--d", type=int, default=1)
        sp.add_argument("--dstar", type=int, default=2)
        sp.add_argument("--n", type=int, default=8)
        sp.add_argument("--b", type=float, default=1.0)
        sp.add_argument("--gamma", type=float, default=1.0)
        sp.add_argument("--charge", default="uniform")
        sp.add_argument("--coords", default="position")
        sp.add_argument("--ensemble", choices=("micro", "canonical"),
                        default="canonical")
        sp.add_argument("--e", type=float, default=1.0)
        sp.add_argument("--beta", type=float, default=1.0)

    sp = sub.add_parser("simulate", help="run trajectory ensembles")
    common(sp)
    model(sp)
    sp.add_argument("--t-end", dest="t_end", type=float, default=1.0)
    sp.add_argument("--dt-out", dest="dt_out", type=float, default=0.25)
    sp.add_argument("--n-traj", dest="n_traj", type=int, default=1)
    sp.add_argument("--track", choices=("none", "total", "bonds"),
                    default="total")
    sp.add_argument("--out", default="trajectories")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("correlate", help="correlations from trajectories")
    common(sp, seeded=False)
    sp.add_argument("--input", default="trajectories")
    sp.add_argument("--direction", type=int, default=0)
    sp.add_argument("--estimator", choices=("stationary", "initial"),
                    default="stationary")
    sp.add_argument("--out", default="correlation.csv")
    sp.add_argument("--kappa-out", dest="kappa_out", default="kappa.csv")
    sp.set_defaults(func=cmd_correlate)

    sp = sub.add_parser("closedform", help="closed-form series + slope fit")
    common(sp, seeded=False)
    sp.add_argument("--kind", choices=("micro", "canonical"), default="micro")
    sp.add_argument("--variant", choices=("0", "i", "ii"), default="i")
    sp.add_argument("--d", type=int, default=1)
    sp.add_argument("--dstar", type=int, default=2)
    sp.add_argument("--b", type=float, default=1.0)
    sp.add_argument("--gamma", type=float, default=1.0)
    sp.add_argument("--tmin", type=float, default=1e4)
    sp.add_argument("--tmax", type=float, default=1e7)
    sp.add_argument("--points", type=int, default=25)
    sp.add_argument("--out", default="kappa_closed.csv")
    sp.add_argument("--report", default="closedform_report.json")
    sp.set_defaults(func=cmd_closedform)

    sp = sub.add_parser("certify", help="finite-N identity certification")
    common(sp)
    sp.add_argument("--n", type=int, default=8)
    sp.add_argument("--samples", type=int, default=2000)
    sp.add_argument("--out", default="certify_report.json")
    sp.set_defaults(func=cmd_certify)

    sp = sub.add_parser("sample", help="draw equilibrium states")
    common(sp)
    model(sp)
    sp.add_argument("--samples", type=int, default=1)
    sp.add_argument("--out", default="samples.csv")
    sp.set_defaults(func=cmd_sample)

    # Flags left off the command line stay out of the namespace, so that a
    # flag given at its default value still overrides --config.
    p.flag_defaults = {}
    for name, sp in sub.choices.items():
        p.flag_defaults[name] = {a.dest: a.default for a in sp._actions
                                 if a.default is not argparse.SUPPRESS}
        for a in sp._actions:
            a.default = argparse.SUPPRESS
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args, parser.flag_defaults[args.command])
        return args.func(cfg)
    except (SpecError, OSError, ValueError, KeyError) as exc:
        return _fail(type(exc).__name__, str(exc),
                     {"command": args.command})


if __name__ == "__main__":
    sys.exit(main())
