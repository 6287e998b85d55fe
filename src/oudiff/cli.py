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


def _write(text: str, path=None) -> None:
    """``text`` to stdout, or to the file at ``path``."""
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def write_csv(records, header, path=None) -> None:
    lines = [",".join(header)]
    for rec in records:
        lines.append(",".join(_fmt(rec.get(col)) for col in header))
    _write("\n".join(lines) + "\n", path)


def _json_safe(obj):
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return obj


def write_json(obj, path=None) -> None:
    _write(json.dumps(_json_safe(obj), indent=2) + "\n", path)


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
    """The --config JSON object with every given flag in ``flags`` laid over it,
    and its arrays as the tuples that the frozen config dataclasses hold."""
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
    return {k: tuple(v) if isinstance(v, list) else v for k, v in config.items()}


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


def _add_model_flags(p: argparse.ArgumentParser):
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--g", type=float, default=0.0)
    p.add_argument("--sigma-w2", dest="sigma_w2", type=float, default=2.0)
    p.add_argument("--sigma2", type=float, default=1.0)
    p.add_argument(
        "--coupling", choices=("symmetric", "anisotropic"), default="symmetric"
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
    stable = stability_check(spec, init).stable
    # the closed-form bound s2 < sW2/(beta + |g|) is the same predicate, and
    # any violation is one at t = 0 (see StabilityReport)
    write_json(
        {"stable": stable, "sufficient": stable, "first_violation": None if stable else 0.0},
        args.out,
    )
    return 0


# the phase-diagram fields and their defaults, in the order of their flags
PHASE_FIELDS = {
    "beta": 1.0, "sigma_w2": 2.0, "sigma2": 1.0, "m_x2": 1.0, "m_y2": 1.0,
    "g_min": 0.0, "g_max": 2.0, "theta_min": 0.0, "theta_max": math.pi,
    "t_max_search": None, "g_points": 21, "theta_points": 9,
}


def _cmd_phase_diagram(args) -> int:
    config = _load_config(args, {*PHASE_FIELDS, "seed"}, tuple(PHASE_FIELDS))
    cfg = {name: config.get(name, default) for name, default in PHASE_FIELDS.items()}
    _check_size("g_points", cfg["g_points"])
    _check_size("theta_points", cfg["theta_points"])
    # phase_diagram's checks on g and theta refuse a non-finite grid point
    with np.errstate(over="ignore", invalid="ignore"):
        g_grid = np.linspace(cfg["g_min"], cfg["g_max"], cfg["g_points"])
        theta_grid = np.linspace(cfg["theta_min"], cfg["theta_max"], cfg["theta_points"])
    resolved = {
        "command": "phase-diagram", "beta": cfg["beta"], "sigma_w2": cfg["sigma_w2"],
        "sigma2": cfg["sigma2"], "m_x2": cfg["m_x2"], "m_y2": cfg["m_y2"],
        "g_grid": [float(g) for g in g_grid],
        "theta_grid": [float(t) for t in theta_grid],
    }
    if args.dry_run:
        return _dry_run(args, resolved)

    spec = ModelSpec(beta=cfg["beta"], coupling=Anisotropic(0.0), sigma_w2=cfg["sigma_w2"])
    init = MixtureInit(
        sigma2_x=cfg["sigma2"], sigma2_y=cfg["sigma2"],
        mean_spec=AngledMeans(m_x2=cfg["m_x2"], m_y2=cfg["m_y2"], theta=0.0),
    )
    cells = phase_diagram(spec, init, g_grid, theta_grid, cfg["t_max_search"])
    rows = []
    for cell in cells:
        row = {"g": cell.g, "theta": cell.theta, "regime": "error", "g_crit": cell.g_crit}
        if cell.result is None:
            print(
                f"oudiff: phase cell g={cell.g!r}, theta={cell.theta!r}: {cell.error}",
                file=sys.stderr,
            )
        else:
            row.update(
                regime=cell.result.regime, t_s=cell.result.t_s, kappa0=cell.result.kappa0
            )
        rows.append(row)
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
    # a diverged run is refused below on one line, without numpy warning first
    with np.errstate(over="ignore", invalid="ignore"):
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
    toy = analysis.ToyExperimentConfig(**config)
    if args.dry_run:
        return _dry_run(args, {"command": "toy-conditional", **asdict(toy)})
    records = analysis.run_toy_experiment(toy, jobs=args.jobs)
    # write_csv takes the header's columns from each record's fields
    rows = [
        {**rec.coordinates, **rec.values,
         "acc_ci_lo": rec.ci_low, "acc_ci_hi": rec.ci_high, "n": rec.n_effective}
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
            row = {"g": res.g, "scan_t": float(cu.scan_times[j])}
            for mode, curve in res.curves.items():
                row[f"phi_{mode}"] = float(curve.phi_raw[j])
                row[f"phi_{mode}_lo"] = float(curve.wilson_low[j])
                row[f"phi_{mode}_hi"] = float(curve.wilson_high[j])
                row[f"phi_{mode}_ex"] = float(curve.phi_ex[j])
            rows.append(row)
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


def _speciation_args(p: argparse.ArgumentParser):
    _add_model_flags(p)
    p.add_argument("--t-max-search", dest="t_max_search", type=float, default=None)


def _collapse_args(p: argparse.ArgumentParser):
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--ratio", type=float, required=True)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--g", type=float, default=0.0)
    p.add_argument(
        "--coupling", choices=("symmetric", "anisotropic"), default="symmetric"
    )


def _phase_args(p: argparse.ArgumentParser):
    p.add_argument("--config", default=None)
    for name, default in PHASE_FIELDS.items():
        kind = int if isinstance(default, int) else float
        p.add_argument(f"--{name.replace('_', '-')}", dest=name, type=kind, default=None)


def _sample_args(p: argparse.ArgumentParser):
    _add_model_flags(p)
    p.add_argument("--mode", choices=("forward", "reverse", "flow"), default="forward")
    p.add_argument("--dim", type=int, default=4)
    p.add_argument("--paths", type=int, default=256)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--horizon", type=float, default=2.0)


def _toy_args(p: argparse.ArgumentParser):
    p.add_argument("--config", default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--theta-points", dest="theta_points", type=int, default=None)


def _clone_args(p: argparse.ArgumentParser):
    p.add_argument("--config", default=None)
    p.add_argument("--repeats", type=int, default=None)
    p.add_argument("--batch", type=int, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--summary-out", dest="summary_out", default=None)


# name: (help, the subcommand's own arguments, handler), in usage order
SUBCOMMANDS = {
    "speciation": (
        "solve kappa(t)=1 for the speciation time", _speciation_args, _cmd_speciation
    ),
    "collapse": (
        "joint/per-mode/conditional collapse times", _collapse_args, _cmd_collapse
    ),
    "stability": (
        "confinement report for symmetric coupling", _add_model_flags, _cmd_stability
    ),
    "phase-diagram": ("(g, theta) speciation sweep", _phase_args, _cmd_phase_diagram),
    "sample": ("forward/reverse/flow trajectories", _sample_args, _cmd_sample),
    "toy-conditional": ("conditional coupling sweep", _toy_args, _cmd_toy),
    "clone-speciation": ("cloning synchronization sweep", _clone_args, _cmd_clone),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The oudiff parser with every subcommand, or with only ``command``'s;
    its usage names all of them either way."""
    parser = argparse.ArgumentParser(
        prog="oudiff",
        description="Phase transitions and exact-score sampling for coupled "
        "two-channel OU diffusions",
    )
    names = SUBCOMMANDS if command is None else (command,)
    # the usage argparse writes for all the choices; the full parser keeps
    # no metavar, which its errors would name in place of "command"
    metavar = None if command is None else "{" + ",".join(SUBCOMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_text, add_args, func = SUBCOMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        add_args(p)
        _add_common(p)
        p.set_defaults(func=func)
    return parser


def dispatch(argv) -> int:
    # a known subcommand first needs only its own parser; anything else
    # (help, no command, an unknown one) gets the full parser's message
    command = argv[0] if argv and argv[0] in SUBCOMMANDS else None
    parser = build_parser(command)
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
