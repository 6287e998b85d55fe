"""Command-line interface: solvers, samplers, sweeps, CSV/JSON emission.

Exit codes: 0 success, 2 invalid configuration or argument domain,
3 speciation solver reported the unstable regime, 4 I/O failure.
Seed resolution order: --seed flag, config file, OUDIFF_SEED, 0.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, fields

import numpy as np

from . import analysis
from .collapse import (
    CollapseParams,
    _require_ratio,
    collapse_bound,
    collapse_time_conditional,
    collapse_time_det,
    collapse_time_mode,
    collapse_time_symmetric,
)
from .errors import InvalidArgument, OudiffError
from .moments import (
    Anisotropic,
    AngledMeans,
    MixtureInit,
    ModeMeans,
    ModelSpec,
    Symmetric,
)
from .sampler import (
    _check_size,
    _check_sizes,
    flow_sample,
    forward_sample,
    population_score_fn,
    reverse_sample,
    sample_block_gaussian,
    split_channels,
    stationary_cov,
)
from .speciation import (
    REGIME_UNSTABLE,
    phase_diagram,
    speciation_time,
    stability_check,
)

PHASE_HEADER = ["g", "theta", "regime", "t_s", "kappa0", "g_crit"]
TOY_HEADER = [
    "theta", "g0", "schedule",
    "d_accuracy", "d_mse", "d_nll", "acc_ci_lo", "acc_ci_hi", "n",
]
CLONE_HEADER = [
    "g", "scan_t",
    "phi_u", "phi_u_lo", "phi_u_hi", "phi_u_ex",
    "phi_v", "phi_v_lo", "phi_v_hi", "phi_v_ex",
]
SAMPLE_HEADER = ["t", "mean_x", "mean_y", "var_x", "var_y", "cov_xy"]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(records, header, path=None) -> None:
    lines = [",".join(header)]
    for rec in records:
        lines.append(",".join(_fmt(rec.get(col)) for col in header))
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _json_safe(obj):
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return obj


def write_json(obj, path=None) -> None:
    text = json.dumps(_json_safe(obj), indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _resolve_seed(args, config: dict) -> int:
    """The first seed given by the flag, the config or OUDIFF_SEED, else 0.
    Whatever its source, it must be an integer >= 0."""
    if getattr(args, "seed", None) is not None:
        source, seed = "--seed", args.seed
    elif "seed" in config:
        source, seed = "config seed", config["seed"]
    elif "OUDIFF_SEED" in os.environ:
        source, seed = "OUDIFF_SEED", os.environ["OUDIFF_SEED"]
        try:
            seed = int(seed)
        except ValueError:
            pass  # reported below, with the text as given
    else:
        return 0
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise InvalidArgument(f"{source} must be an integer >= 0, got {seed!r}")
    return seed


def _load_config(args, allowed: set[str], flags: tuple[str, ...]) -> dict:
    """The --config JSON object with every given flag in ``flags`` laid over it."""
    config = {}
    if args.config is not None:
        with open(args.config, encoding="utf-8") as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = set(config) - allowed
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
    for name in flags:
        if getattr(args, name) is not None:
            config[name] = getattr(args, name)
    return config


def _mean_spec(args):
    angled = any(
        getattr(args, name, None) is not None for name in ("m_x2", "m_y2", "theta")
    )
    modal = any(
        getattr(args, name, None) is not None for name in ("m_plus2", "m_minus2")
    )
    if angled and modal:
        raise ValueError("give either mode norms or angled norms, not both")
    if angled:
        return AngledMeans(
            m_x2=args.m_x2 if args.m_x2 is not None else 1.0,
            m_y2=args.m_y2 if args.m_y2 is not None else 1.0,
            theta=args.theta if args.theta is not None else 0.0,
        )
    return ModeMeans(
        m_plus2=args.m_plus2 if args.m_plus2 is not None else 1.0,
        m_minus2=args.m_minus2 if args.m_minus2 is not None else 0.0,
    )


def _coupling(args):
    return Symmetric(args.g) if args.coupling == "symmetric" else Anisotropic(args.g)


def _build_model(args, dim_d=1):
    spec = ModelSpec(
        beta=args.beta, coupling=_coupling(args), sigma_w2=args.sigma_w2, dim_d=dim_d
    )
    init = MixtureInit(
        sigma2_x=args.sigma2, sigma2_y=args.sigma2,
        mean_spec=_mean_spec(args), dim_d=dim_d,
    )
    return spec, init


def _add_model_flags(p: argparse.ArgumentParser, coupling_default="symmetric"):
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--g", type=float, default=0.0)
    p.add_argument("--sigma-w2", dest="sigma_w2", type=float, default=2.0)
    p.add_argument("--sigma2", type=float, default=1.0)
    p.add_argument(
        "--coupling", choices=("symmetric", "anisotropic"), default=coupling_default
    )
    p.add_argument("--m-plus2", dest="m_plus2", type=float, default=None)
    p.add_argument("--m-minus2", dest="m_minus2", type=float, default=None)
    p.add_argument("--m-x2", dest="m_x2", type=float, default=None)
    p.add_argument("--m-y2", dest="m_y2", type=float, default=None)
    p.add_argument("--theta", type=float, default=None)


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--dry-run", action="store_true")


def _dry_run(args, resolved: dict) -> int:
    write_json({"dry_run": True, "resolved": resolved}, args.out)
    return 0


# ---------------------------------------------------------------------------
# subcommands


def _cmd_speciation(args) -> int:
    spec, init = _build_model(args)
    resolved = {
        "command": "speciation", "beta": args.beta, "g": args.g,
        "coupling": args.coupling, "sigma_w2": args.sigma_w2,
        "sigma2": args.sigma2, "means": repr(init.mean_spec),
        "t_max_search": args.t_max_search,
    }
    if args.dry_run:
        return _dry_run(args, resolved)
    result = speciation_time(spec, init, args.t_max_search)
    payload = {
        "t_s": result.t_s,
        "regime": result.regime,
        "kappa0": result.kappa0,
        "sup_kappa": result.sup_kappa,
    }
    if result.unstable_t is not None:
        payload["unstable_t"] = result.unstable_t
    write_json(payload, args.out)
    return 3 if result.regime == REGIME_UNSTABLE else 0


def _cmd_collapse(args) -> int:
    # only the ratio s2/sW2 enters, so the internal model fixes sW2 = 1
    spec = ModelSpec(beta=args.beta, coupling=_coupling(args), sigma_w2=1.0)
    _require_ratio(args.ratio)  # before the ratio becomes the internal variances
    init = MixtureInit(
        sigma2_x=args.ratio, sigma2_y=args.ratio, mean_spec=ModeMeans(0.0, 0.0)
    )
    params = CollapseParams(alpha=args.alpha, ratio=args.ratio, spec=spec, init=init)
    resolved = {
        "command": "collapse", "alpha": args.alpha, "ratio": args.ratio,
        "beta": args.beta, "g": args.g, "coupling": args.coupling,
    }
    if args.dry_run:
        return _dry_run(args, resolved)
    if args.coupling == "symmetric":
        payload = {
            "t_c": collapse_time_symmetric(params).t_c,
            "t_c_plus": collapse_time_mode(params, "+").t_c,
            "t_c_minus": collapse_time_mode(params, "-").t_c,
            "t_max": collapse_bound(params),
        }
    else:
        payload = {
            "t_c": collapse_time_det(params).t_c,
            "t_c_conditional": collapse_time_conditional(params).t_c,
            "t_max": collapse_bound(params),
        }
    write_json(payload, args.out)
    return 0


def _cmd_stability(args) -> int:
    spec, init = _build_model(args)
    resolved = {
        "command": "stability", "beta": args.beta, "g": args.g,
        "sigma_w2": args.sigma_w2, "sigma2": args.sigma2,
    }
    if args.dry_run:
        return _dry_run(args, resolved)
    report = stability_check(spec, init)
    write_json(
        {
            "stable": report.stable,
            "sufficient": report.sufficient,
            "first_violation": report.first_violation,
        },
        args.out,
    )
    return 0


PHASE_FLAGS = (
    "beta", "sigma_w2", "sigma2", "m_x2", "m_y2",
    "g_min", "g_max", "g_points", "theta_min", "theta_max", "theta_points",
    "t_max_search",
)


def _cmd_phase_diagram(args) -> int:
    config = _load_config(args, {*PHASE_FLAGS, "seed"}, PHASE_FLAGS)
    pick = config.get
    beta = pick("beta", 1.0)
    sigma_w2 = pick("sigma_w2", 2.0)
    sigma2 = pick("sigma2", 1.0)
    m_x2 = pick("m_x2", 1.0)
    m_y2 = pick("m_y2", 1.0)
    g_points = pick("g_points", 21)
    theta_points = pick("theta_points", 9)
    _check_size("g_points", g_points)
    _check_size("theta_points", theta_points)
    g_grid = np.linspace(pick("g_min", 0.0), pick("g_max", 2.0), g_points)
    theta_grid = np.linspace(
        pick("theta_min", 0.0), pick("theta_max", math.pi), theta_points
    )
    t_max_search = pick("t_max_search", None)
    resolved = {
        "command": "phase-diagram", "beta": beta, "sigma_w2": sigma_w2,
        "sigma2": sigma2, "m_x2": m_x2, "m_y2": m_y2,
        "g_grid": [float(g) for g in g_grid],
        "theta_grid": [float(t) for t in theta_grid],
    }
    if args.dry_run:
        return _dry_run(args, resolved)

    spec = ModelSpec(beta=beta, coupling=Anisotropic(0.0), sigma_w2=sigma_w2)
    init = MixtureInit(
        sigma2_x=sigma2, sigma2_y=sigma2,
        mean_spec=AngledMeans(m_x2=m_x2, m_y2=m_y2, theta=0.0),
    )
    cells = phase_diagram(spec, init, g_grid, theta_grid, t_max_search)
    rows = []
    for cell in cells:
        if cell.result is not None:
            rows.append(
                {
                    "g": cell.g, "theta": cell.theta,
                    "regime": cell.result.regime, "t_s": cell.result.t_s,
                    "kappa0": cell.result.kappa0, "g_crit": cell.g_crit,
                }
            )
        else:
            print(
                f"oudiff: phase cell g={cell.g!r}, theta={cell.theta!r}: {cell.error}",
                file=sys.stderr,
            )
            rows.append(
                {
                    "g": cell.g, "theta": cell.theta, "regime": "error",
                    "t_s": None, "kappa0": None, "g_crit": cell.g_crit,
                }
            )
    write_csv(rows, PHASE_HEADER, args.out)
    return 0


def _cmd_sample(args) -> int:
    _check_sizes(args, ("paths", "steps", "dim"))
    dim = args.dim
    spec, init = _build_model(args, dim_d=dim)
    seed = _resolve_seed(args, {})
    resolved = {
        "command": "sample", "mode": args.mode, "paths": args.paths,
        "steps": args.steps, "horizon": args.horizon, "dim": dim, "seed": seed,
    }
    if args.dry_run:
        return _dry_run(args, resolved)
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    if args.mode == "forward":
        traj = forward_sample(
            spec, init, args.steps, rng,
            horizon=args.horizon, n_paths=args.paths, record_path=True,
        )
    elif args.mode == "reverse":
        traj = reverse_sample(
            spec, population_score_fn(spec, init), args.steps, rng,
            horizon=args.horizon, n_paths=args.paths, record_path=True,
        )
    else:
        start = sample_block_gaussian(stationary_cov(spec), args.paths, dim, rng)
        traj = flow_sample(
            spec, init, args.steps, start, horizon=args.horizon, record_path=True
        )
    rows = []
    for t, state in zip(traj.times, traj.states):
        x, y = split_channels(state, dim)
        rows.append(
            {
                "t": float(t),
                "mean_x": float(np.mean(x)),
                "mean_y": float(np.mean(y)),
                "var_x": float(np.mean(np.var(x, axis=0))),
                "var_y": float(np.mean(np.var(y, axis=0))),
                "cov_xy": float(
                    np.mean(
                        np.mean(
                            (x - x.mean(axis=0)) * (y - y.mean(axis=0)), axis=0
                        )
                    )
                ),
            }
        )
    bad = [col for col in SAMPLE_HEADER if not all(math.isfinite(r[col]) for r in rows)]
    if bad:
        raise InvalidArgument(
            f"sample statistics hold non-finite values ({', '.join(bad)}); "
            "the run diverged"
        )
    write_csv(rows, SAMPLE_HEADER, args.out)
    return 0


TOY_FIELDS = {f.name for f in fields(analysis.ToyExperimentConfig)}


def _cmd_toy(args) -> int:
    config = _load_config(args, TOY_FIELDS, ("trials", "steps", "theta_points"))
    config["seed"] = _resolve_seed(args, config)
    if "g0_set" in config:
        config["g0_set"] = tuple(config["g0_set"])
    if "schedules" in config:
        config["schedules"] = tuple(config["schedules"])
    toy = analysis.ToyExperimentConfig(**config)
    if args.dry_run:
        return _dry_run(args, {"command": "toy-conditional", **asdict(toy)})
    records = analysis.run_toy_experiment(toy, jobs=args.jobs)
    rows = [
        {
            "theta": rec.coordinates["theta"],
            "g0": rec.coordinates["g0"],
            "schedule": rec.coordinates["schedule"],
            "d_accuracy": rec.values["d_accuracy"],
            "d_mse": rec.values["d_mse"],
            "d_nll": rec.values["d_nll"],
            "acc_ci_lo": rec.ci_low,
            "acc_ci_hi": rec.ci_high,
            "n": rec.n_effective,
        }
        for rec in records
    ]
    write_csv(rows, TOY_HEADER, args.out)
    return 0


# the sweep's fields with its nested CloneConfig laid flat
CLONE_PROTOCOL_FIELDS = {f.name for f in fields(analysis.CloneConfig)}
CLONE_FIELDS = {f.name for f in fields(analysis.CloneSweepConfig)} - {"clone"}
CLONE_FIELDS |= CLONE_PROTOCOL_FIELDS


def _cmd_clone(args) -> int:
    config = _load_config(args, CLONE_FIELDS, ("repeats", "batch", "steps"))
    seed = _resolve_seed(args, config)
    config.pop("seed", None)
    clone_kwargs = {k: config.pop(k) for k in CLONE_PROTOCOL_FIELDS if k in config}
    if "g_list" in config:
        config["g_list"] = tuple(config["g_list"])
    sweep = analysis.CloneSweepConfig(
        seed=seed, clone=analysis.CloneConfig(**clone_kwargs), **config
    )
    if args.dry_run:
        return _dry_run(args, {"command": "clone-speciation", **asdict(sweep)})
    results = analysis.run_clone_experiment(sweep, jobs=args.jobs)
    rows = []
    summary = []
    for res in results:
        cu, cv = res.curves["u"], res.curves["v"]
        for j in range(cu.scan_times.size):
            rows.append(
                {
                    "g": res.g,
                    "scan_t": float(cu.scan_times[j]),
                    "phi_u": float(cu.phi_raw[j]),
                    "phi_u_lo": float(cu.wilson_low[j]),
                    "phi_u_hi": float(cu.wilson_high[j]),
                    "phi_u_ex": float(cu.phi_ex[j]),
                    "phi_v": float(cv.phi_raw[j]),
                    "phi_v_lo": float(cv.wilson_low[j]),
                    "phi_v_hi": float(cv.wilson_high[j]),
                    "phi_v_ex": float(cv.phi_ex[j]),
                }
            )
        summary.append(
            {
                "g": res.g,
                "t_spec_u": res.t_spec_u,
                "t_spec_v": res.t_spec_v,
                "gap": res.gap,
                "gap_ci_width": res.gap_ci_width,
                "censored_u": cu.censored,
                "censored_v": cv.censored,
            }
        )
    write_csv(rows, CLONE_HEADER, args.out)
    write_json(summary, args.summary_out)
    return 0


# ---------------------------------------------------------------------------
# parser and dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oudiff",
        description="Phase transitions and exact-score sampling for coupled "
        "two-channel OU diffusions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("speciation", help="solve kappa(t)=1 for the speciation time")
    _add_model_flags(p)
    p.add_argument("--t-max-search", dest="t_max_search", type=float, default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_speciation)

    p = sub.add_parser("collapse", help="joint/per-mode/conditional collapse times")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--ratio", type=float, required=True)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--g", type=float, default=0.0)
    p.add_argument(
        "--coupling", choices=("symmetric", "anisotropic"), default="symmetric"
    )
    _add_common(p)
    p.set_defaults(func=_cmd_collapse)

    p = sub.add_parser("stability", help="confinement report for symmetric coupling")
    _add_model_flags(p)
    _add_common(p)
    p.set_defaults(func=_cmd_stability)

    p = sub.add_parser("phase-diagram", help="(g, theta) speciation sweep")
    p.add_argument("--config", default=None)
    for name in ("beta", "sigma-w2", "sigma2", "m-x2", "m-y2",
                 "g-min", "g-max", "theta-min", "theta-max", "t-max-search"):
        p.add_argument(f"--{name}", dest=name.replace("-", "_"), type=float, default=None)
    p.add_argument("--g-points", dest="g_points", type=int, default=None)
    p.add_argument("--theta-points", dest="theta_points", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_phase_diagram)

    p = sub.add_parser("sample", help="forward/reverse/flow trajectories")
    _add_model_flags(p)
    p.add_argument("--mode", choices=("forward", "reverse", "flow"), default="forward")
    p.add_argument("--dim", type=int, default=4)
    p.add_argument("--paths", type=int, default=256)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--horizon", type=float, default=2.0)
    _add_common(p)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("toy-conditional", help="conditional coupling sweep")
    p.add_argument("--config", default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--theta-points", dest="theta_points", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_toy)

    p = sub.add_parser("clone-speciation", help="cloning synchronization sweep")
    p.add_argument("--config", default=None)
    p.add_argument("--repeats", type=int, default=None)
    p.add_argument("--batch", type=int, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--summary-out", dest="summary_out", default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_clone)

    return parser


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        _check_size("jobs", args.jobs)
        return args.func(args)
    except OSError as exc:
        print(f"oudiff: i/o failure: {exc}", file=sys.stderr)
        return 4
    except (OudiffError, ValueError, TypeError) as exc:
        print(f"oudiff: invalid configuration: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
