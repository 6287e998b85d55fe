"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; the full sweep in criterion 11 dominates the runtime.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from oudiff.analysis import (
    CloneConfig,
    CloneSweepConfig,
    ToyExperimentConfig,
    run_clone_experiment,
    run_toy_experiment,
)
from oudiff.cli import dispatch
from oudiff.collapse import (
    CollapseParams,
    cgf,
    collapse_bound,
    collapse_time_det,
    collapse_time_mode,
    collapse_time_symmetric,
)
from oudiff.errors import DegenerateDrift
from oudiff.moments import (
    Anisotropic,
    AngledMeans,
    MixtureInit,
    ModeMeans,
    ModelSpec,
    Symmetric,
    diffusion_kernel,
    kernel_K,
    transition_cov,
)
from oudiff.sampler import (
    conditional_log_density,
    conditional_score,
    draw_mixture,
    empirical_score,
    empirical_score_fn,
    forward_sample,
    materialize_means,
    population_log_density,
    population_score,
    population_score_fn,
    reverse_sample,
    split_channels,
)
from oudiff.speciation import (
    _kappa_grid,
    kappa0_aniso,
    speciation_time,
    speciation_time_pure_mode,
)

SEED = 20250809
JOBS = min(2, os.cpu_count() or 1)


def report(n: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {n:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def best_time(fn, repeats=5):
    out = None
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return out, best


def sym_model(g, m_plus2, m_minus2, s2=1.0, sw2=2.0, d=1):
    spec = ModelSpec(1.0, Symmetric(g), sw2, dim_d=d)
    init = MixtureInit(s2, s2, ModeMeans(m_plus2, m_minus2), dim_d=d)
    return spec, init


def test_criterion_01_speciation_closed_form():
    spec, init = sym_model(0.0, 1.0, 0.0)
    res1, dt1 = best_time(lambda: speciation_time(spec, init))
    err1 = abs(res1.t_s - 0.5 * math.log(2.0))

    spec2, init2 = sym_model(0.0, 1.0, 1.0)
    res2, dt2 = best_time(lambda: speciation_time(spec2, init2))
    err2 = abs(res2.t_s - math.log(2.0))

    ok = err1 <= 1e-9 and err2 <= 1e-9 and dt1 < 1e-3 and dt2 < 1e-3
    report(
        1, ok,
        f"t_S errors {err1:.2e}/{err2:.2e} (tol 1e-9); "
        f"runtimes {dt1 * 1e3:.2f}/{dt2 * 1e3:.2f} ms (< 1 ms)",
    )


def test_criterion_02_pure_mode_speciation():
    # g = 0.5: quadratic in x = exp(-tau_plus t) gives x = 2 sqrt(2) - 2
    spec, init = sym_model(0.5, 1.0, 0.0)
    closed5 = speciation_time_pure_mode(spec, init, "+")
    exact5 = -math.log(2.0 * math.sqrt(2.0) - 2.0)
    bisect5 = speciation_time(spec, init).t_s

    spec2, init2 = sym_model(0.2, 1.0, 0.0)
    closed2 = speciation_time_pure_mode(spec2, init2, "+")
    x2 = (-2.0 + math.sqrt(4.0 + 4 * 0.05 * 1.25)) / (2 * 0.05)
    exact2 = -math.log(x2) / 1.6
    bisect2 = speciation_time(spec2, init2).t_s

    ok = (
        abs(closed5 - exact5) <= 1e-12
        and abs(closed5 - bisect5) <= 1e-8
        and abs(closed2 - exact2) <= 1e-12
        and abs(closed2 - bisect2) <= 1e-8
    )
    report(
        2, ok,
        f"g=0.5: t_S={closed5:.6f} (|closed-bisect|={abs(closed5 - bisect5):.2e}); "
        f"g=0.2: t_S={closed2:.6f} (|closed-bisect|={abs(closed2 - bisect2):.2e}), tol 1e-8",
    )


def collapse_params(g, alpha=1.0, ratio=1.0, coupling=Symmetric):
    spec = ModelSpec(1.0, coupling(g), 1.0)
    init = MixtureInit(ratio, ratio, ModeMeans(1.0, 0.0))
    return CollapseParams(alpha=alpha, ratio=ratio, spec=spec, init=init)


def test_criterion_03_collapse_routes():
    exact = 0.5 * math.log(1.0 + 2.0 / (math.e**2 - 1.0))
    p0 = collapse_params(0.0)
    joint = collapse_time_symmetric(p0).t_c
    mode_p = collapse_time_mode(p0, "+").t_c
    det = collapse_time_det(p0).t_c
    route_errs = [abs(v - exact) for v in (joint, mode_p, det)]

    bound_ok = True
    for g in np.linspace(0.0, 0.9, 10):
        p = collapse_params(float(g))
        bound_ok &= collapse_time_symmetric(p).t_c <= collapse_bound(p) + 1e-15
    t_max_ref = abs(collapse_bound(p0) - 1.0 / (math.e**2 - 1.0)) < 1e-12

    p5 = collapse_params(0.5)
    tp = collapse_time_mode(p5, "+").t_c
    tm = collapse_time_mode(p5, "-").t_c
    ordering = tp > tm
    split_ok = (
        abs(tp - math.log(1.0 + 1.0 / (math.e**2 - 1.0))) < 1e-12
        and abs(tm - math.log(1.0 + 3.0 / (math.e**2 - 1.0)) / 3.0) < 1e-12
    )

    _, dt = best_time(lambda: collapse_time_symmetric(p5))
    _, dt_det = best_time(lambda: collapse_time_det(p5))

    ok = (
        max(route_errs) <= 1e-9
        and bound_ok
        and t_max_ref
        and ordering
        and split_ok
        and dt < 1e-2
        and dt_det < 1e-2
    )
    report(
        3, ok,
        f"three-route errors {max(route_errs):.2e} (tol 1e-9); "
        f"t_C+ {tp:.6f} > t_C- {tm:.6f}; bound holds on g grid; "
        f"runtimes {dt * 1e3:.2f}/{dt_det * 1e3:.2f} ms (< 10 ms)",
    )


def test_criterion_04_cgf_saddle_slope():
    rng = np.random.default_rng(SEED)
    eps = 1e-6
    worst = 0.0
    for _ in range(50):
        g = float(rng.uniform(0.0, 0.9))
        ratio = float(rng.uniform(0.3, 2.5))
        p = collapse_params(g, ratio=ratio)
        t = float(rng.uniform(0.02, 4.0))
        slope = (cgf(p, 1.0 + eps, t) - cgf(p, 1.0 - eps, t)) / (2 * eps)
        worst = max(worst, abs(-slope - 0.5))
    ok = worst <= 1e-6
    report(4, ok, f"max |(-L'(1)) - 1/2| = {worst:.2e} over 50 points (tol 1e-6)")


def _lyapunov_grid_oracle(betas, gs, ts, sw2, sigma0, n_steps=2000):
    """Vectorized RK4 integration of C' = MC + CM^T + sW2 I per grid cell."""
    cells = [(b, g, t) for b in betas for g in gs for t in ts]
    n = len(cells)
    m = np.zeros((n, 2, 2))
    h = np.zeros((n, 1, 1))
    for i, (b, g, t) in enumerate(cells):
        m[i] = [[-b, 0.0], [g, -b]]
        h[i, 0, 0] = t / n_steps
    mt = np.transpose(m, (0, 2, 1))
    noise = sw2 * np.eye(2)

    def rhs(c):
        return m @ c + c @ mt + noise

    c = np.broadcast_to(sigma0, (n, 2, 2)).copy()
    for _ in range(n_steps):
        k1 = rhs(c)
        k2 = rhs(c + 0.5 * h * k1)
        k3 = rhs(c + 0.5 * h * k2)
        k4 = rhs(c + h * k3)
        c = c + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return cells, c


def test_criterion_05_closed_forms_vs_integration():
    betas = np.linspace(0.3, 2.0, 10)
    gs = np.linspace(-2.0, 2.0, 10)
    ts = np.linspace(0.2, 3.0, 5)
    sw2 = 2.0
    sx2, sy2 = 0.7, 1.3

    cells, q_oracle = _lyapunov_grid_oracle(betas, gs, ts, sw2, np.zeros((2, 2)))
    _, c_oracle = _lyapunov_grid_oracle(
        betas, gs, ts, sw2, np.diag([sx2, sy2])
    )
    worst_q = worst_c = 0.0
    for i, (b, g, t) in enumerate(cells):
        spec = ModelSpec(float(b), Anisotropic(float(g)), sw2)
        init = MixtureInit(sx2, sy2, AngledMeans(1.0, 1.0, 0.3))
        worst_q = max(
            worst_q,
            np.max(np.abs(transition_cov(spec, float(t)).as_array() - q_oracle[i])),
        )
        worst_c = max(
            worst_c,
            np.max(
                np.abs(diffusion_kernel(spec, init, float(t)).c.as_array() - c_oracle[i])
            ),
        )

    # K(t) closed form against direct block composition
    from oudiff.blockmat import block_inverse

    worst_k = 0.0
    skipped = 0
    for b, g, t in cells:
        spec = ModelSpec(float(b), Anisotropic(float(g)), sw2)
        init = MixtureInit(sx2, sy2, AngledMeans(1.0, 1.0, 0.3))
        try:
            got = kernel_K(spec, init, float(t)).as_array()
        except DegenerateDrift:
            skipped += 1
            continue
        c = diffusion_kernel(spec, init, float(t)).c
        cinv = block_inverse(c)
        inner = spec.relaxation().add(cinv.scale(sw2))
        want = cinv.matmul(block_inverse(inner)).matmul(cinv).as_array()
        scale = np.max(np.abs(want))
        worst_k = max(worst_k, np.max(np.abs(got - want)) / scale)

    ok = worst_q <= 1e-8 and worst_c <= 1e-8 and worst_k <= 1e-10 and skipped <= 25
    report(
        5, ok,
        f"max |q - oracle| {worst_q:.2e}, |C - oracle| {worst_c:.2e} (tol 1e-8); "
        f"K rel err {worst_k:.2e} (tol 1e-10), {skipped} degenerate cells skipped",
    )


def test_criterion_06_phase_boundary():
    worst = 0.0
    for g in np.linspace(0.0, 2.0, 9):
        for theta in np.linspace(0.0, math.pi, 9):
            spec = ModelSpec(1.0, Anisotropic(float(g)), 2.0)
            init = MixtureInit(1.0, 1.0, AngledMeans(1.0, 1.0, float(theta)))
            worst = max(
                worst,
                abs(kappa0_aniso(spec, init) - (4.0 - 2.0 * g * math.cos(theta))),
            )
    from oudiff.speciation import g_crit_aligned

    spec = ModelSpec(1.0, Anisotropic(0.0), 2.0)
    init0 = MixtureInit(1.0, 1.0, AngledMeans(1.0, 1.0, 0.0))
    g_crit = g_crit_aligned(spec, init0, 0.0)

    # two-sided boundary in g of sup_t kappa at theta = 0
    grid = np.linspace(0.0, 8.0, 2000)

    def sup_kappa(g):
        s = ModelSpec(1.0, Anisotropic(float(g)), 2.0)
        return float(np.max(_kappa_grid(s, init0, grid)))

    lo, hi = 1.4, 2.2
    assert sup_kappa(lo) > 1.0 > sup_kappa(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if sup_kappa(mid) > 1.0:
            lo = mid
        else:
            hi = mid
    g_star = 0.5 * (lo + hi)

    ok = worst <= 1e-12 and abs(g_crit - 1.5) <= 1e-12 and 1.5 <= g_star <= 2.0
    report(
        6, ok,
        f"kappa(0) closed-form err {worst:.1e}; g_crit(0) = {g_crit}; "
        f"full-sup boundary g* = {g_star:.4f} in [1.5, 2.0]",
    )


def test_criterion_07_score_gradients():
    d = 6
    eps = 1e-5
    rng = np.random.default_rng(SEED)

    spec_s = ModelSpec(1.0, Symmetric(0.4), 2.0, dim_d=d)
    init_s = MixtureInit(1.0, 1.0, ModeMeans(1.0, 0.5), dim_d=d)
    spec_a = ModelSpec(1.0, Anisotropic(0.7), 2.0, dim_d=d)
    init_a = MixtureInit(1.0, 1.0, AngledMeans(1.0, 1.0, 1.1), dim_d=d)
    dataset = draw_mixture(init_s, 12, rng)

    def fd(fun, z):
        out = np.zeros_like(z)
        for j in range(z.size):
            zp, zm = z.copy(), z.copy()
            zp[j] += eps
            zm[j] -= eps
            out[j] = (fun(zp) - fun(zm)) / (2 * eps)
        return out

    def emp_logd(z, t):
        from oudiff.blockmat import block_inverse, mat_exp

        q = transition_cov(spec_s, t)
        qinv = block_inverse(q)
        e = mat_exp(spec_s.relaxation(), t)
        px, py = split_channels(dataset.points, d)
        dx, dy = e.apply(px, py)
        drift = np.concatenate([dx, dy], axis=1)
        delta = z[None, :] - drift
        qx, qy = qinv.apply(delta[:, :d], delta[:, d:])
        quad = np.sum(delta * np.concatenate([qx, qy], axis=1), axis=1)
        peak = (-0.5 * quad).max()
        return peak + math.log(np.sum(np.exp(-0.5 * quad - peak)))

    worst_pop = worst_emp = worst_cond = 0.0
    for _ in range(100):
        t = float(rng.uniform(0.05, 2.0))
        z = rng.standard_normal(2 * d) * 1.3
        s = population_score(spec_s, init_s, z, t)
        num = fd(lambda zz: population_log_density(spec_s, init_s, zz, t), z)
        worst_pop = max(worst_pop, np.max(np.abs(num - s) / (1.0 + np.abs(s))))

        s, _ = empirical_score(dataset, spec_s, z, t)
        num = fd(lambda zz: emp_logd(zz, t), z)
        worst_emp = max(worst_emp, np.max(np.abs(num - s) / (1.0 + np.abs(s))))

        x = rng.standard_normal(d)
        y = rng.standard_normal(d)
        s = conditional_score(spec_a, init_a, x, y, t)
        num = fd(
            lambda yy: conditional_log_density(spec_a, init_a, x, yy, t), y
        )
        worst_cond = max(worst_cond, np.max(np.abs(num - s) / (1.0 + np.abs(s))))

    ok = max(worst_pop, worst_emp, worst_cond) <= 1e-6
    report(
        7, ok,
        f"gradient errors: population {worst_pop:.2e}, empirical {worst_emp:.2e}, "
        f"conditional {worst_cond:.2e} (tol 1e-6, 100 points each)",
    )


def test_criterion_08_sampler_distributional():
    t_start = time.perf_counter()
    d = 8
    n_paths = 10_000
    steps = 800
    spec, init = sym_model(0.0, 1.0, 1.0, d=d)
    rng = np.random.default_rng(SEED)

    traj = forward_sample(
        spec, init, steps, rng, horizon=2.0, n_paths=n_paths,
        record_times=(0.5, 1.0, 2.0),
    )
    fwd_ok = True
    fwd_detail = []
    for t in (0.5, 1.0, 2.0):
        z = traj.scan_cache[t]
        x, y = split_channels(z, d)
        ms = diffusion_kernel(spec, init, t)
        mxx, myy, mxy = ms.mean_stats()
        for name, sample, want in (
            ("xx", np.sum(x * x, axis=1) / d, ms.c.a11 + mxx),
            ("yy", np.sum(y * y, axis=1) / d, ms.c.a22 + myy),
            ("xy", np.sum(x * y, axis=1) / d, ms.c.a12 + mxy),
        ):
            got = float(np.mean(sample))
            stderr = float(np.std(sample)) / math.sqrt(n_paths)
            dev = abs(got - want) / stderr
            fwd_ok &= dev <= 4.0
            fwd_detail.append(f"{name}@{t}:{dev:.1f}se")
        coord_means = z.mean(axis=0)
        coord_err = np.abs(coord_means) / (z.std(axis=0) / math.sqrt(n_paths))
        fwd_ok &= float(coord_err.max()) <= 4.0

    rev = reverse_sample(
        spec, population_score_fn(spec, init), steps, rng,
        horizon=2.0, n_paths=n_paths,
    )
    mu = np.concatenate(materialize_means(init))
    proj = rev.final @ mu
    balance = float(np.mean(proj > 0))
    balance_ok = abs(balance - 0.5) <= 0.02
    rev_ok = True
    for sign in (+1, -1):
        sel = rev.final[sign * proj > 0]
        mean = sel.mean(axis=0)
        stderr = sel.std(axis=0) / math.sqrt(sel.shape[0])
        rev_ok &= float(np.max(np.abs(mean - sign * mu) / stderr)) <= 4.0

    elapsed = time.perf_counter() - t_start
    ok = fwd_ok and balance_ok and rev_ok and elapsed < 60.0
    report(
        8, ok,
        f"forward moments within 4 se; class balance {balance:.3f} (0.5 +/- 0.02); "
        f"class means within 4 se; runtime {elapsed:.1f} s (< 60 s)",
    )


def test_criterion_09_memorization():
    d = 8
    spec, init = sym_model(0.3, 1.0, 1.0, d=d)
    ds = draw_mixture(init, 16, np.random.default_rng(SEED))
    fn = empirical_score_fn(ds, spec)

    def median_dist(steps):
        r = np.random.default_rng(SEED + 1)
        traj = reverse_sample(spec, fn, steps, r, horizon=2.0, n_paths=128)
        dist = np.min(
            np.linalg.norm(traj.final[:, None, :] - ds.points[None], axis=2),
            axis=1,
        )
        return float(np.median(dist))

    d200 = median_dist(200)
    d1600 = median_dist(1600)
    ratio = d200 / d1600
    ok = ratio >= 5.0
    report(
        9, ok,
        f"median nearest-training distance {d200:.2e} -> {d1600:.2e}, "
        f"ratio {ratio:.1f}x (>= 5x for steps 200 -> 1600)",
    )


def test_criterion_10_clone_synchronization_gap():
    cfg = CloneSweepConfig(
        g_list=(0.0, 0.5),
        dim_d=16,
        scan_count=12,
        clone=CloneConfig(repeats=5, batch=128, steps=800, horizon=4.0),
        seed=SEED,
    )
    t0 = time.perf_counter()
    r0, r5 = run_clone_experiment(cfg, jobs=1)
    sweep_dt = time.perf_counter() - t0

    ok0 = (
        r0.gap is not None
        and r0.gap_ci_width is not None
        and abs(r0.gap) < r0.gap_ci_width
    )
    ok5 = (
        r5.gap is not None
        and r5.gap_ci_width is not None
        and r5.gap > r5.gap_ci_width
    )
    ok = ok0 and ok5
    report(
        10, ok,
        f"g=0: |gap| {abs(r0.gap):.3f} < CI width {r0.gap_ci_width:.3f}; "
        f"g=0.5: gap {r5.gap:.3f} > CI width {r5.gap_ci_width:.3f} "
        f"(t_u={r5.t_spec_u:.3f}, t_v={r5.t_spec_v:.3f}); sweep {sweep_dt:.2f} s",
    )


@pytest.fixture(scope="module")
def toy_sweep():
    """Full conditional sweep at the stated scale, with timing gates."""
    from oudiff.analysis import _toy_run_cell

    config = ToyExperimentConfig(
        theta_points=9, g0_set=(0.2, 0.5, 1.0),
        schedules=("constant", "late", "early"),
        trials=2000, steps=800, dim_d=32, seed=SEED,
    )
    _, cell_dt = best_time(
        lambda: _toy_run_cell(config, 0, 0.5, "constant"), repeats=1
    )
    t0 = time.perf_counter()
    records = run_toy_experiment(config, jobs=JOBS)
    grid_dt = time.perf_counter() - t0

    def rec(theta, g0, kind):
        for r in records:
            if (
                abs(r.coordinates["theta"] - theta) < 1e-12
                and r.coordinates["g0"] == g0
                and r.coordinates["schedule"] == kind
            ):
                return r
        raise KeyError((theta, g0, kind))

    return rec, grid_dt, cell_dt


@pytest.mark.slow
def test_criterion_11_toy_conditional_signs(toy_sweep):
    rec, grid_dt, cell_dt = toy_sweep
    r_pi_05 = rec(math.pi, 0.5, "constant")
    r_0_10 = rec(0.0, 1.0, "constant")
    r_0_10_late = rec(0.0, 1.0, "late")

    sign1 = r_pi_05.values["d_accuracy"] > 0.0
    sign2 = r_0_10.values["d_accuracy"] < 0.0
    sign3 = r_0_10.values["d_nll"] > 0.0
    sign4 = abs(r_0_10_late.values["d_accuracy"]) < abs(r_0_10.values["d_accuracy"])
    ok = sign1 and sign2 and sign3 and sign4 and grid_dt < 600.0 and cell_dt < 30.0
    report(
        11, ok,
        f"d_acc(pi,.5,const)={r_pi_05.values['d_accuracy']:+.3f} (>0); "
        f"d_acc(0,1,const)={r_0_10.values['d_accuracy']:+.3f} (<0); "
        f"d_nll(0,1,const)={r_0_10.values['d_nll']:+.2f} (>0); "
        f"|d_acc late|={abs(r_0_10_late.values['d_accuracy']):.3f} < const; "
        f"grid {grid_dt:.0f} s (< 600), cell {cell_dt:.1f} s (< 30)",
    )


@pytest.mark.slow
def test_toy_midangle_deltas_smaller_than_extremes(toy_sweep):
    # the coupling bias direction scales with cos(theta), so the orthogonal
    # row sits well inside the aligned/anti-aligned extremes
    rec, _, _ = toy_sweep
    mid = abs(rec(math.pi / 2, 0.5, "constant").values["d_accuracy"])
    lo = abs(rec(0.0, 0.5, "constant").values["d_accuracy"])
    hi = abs(rec(math.pi, 0.5, "constant").values["d_accuracy"])
    assert mid < max(lo, hi)


def test_criterion_12_determinism(tmp_path):
    toy_cfg = {
        "theta_points": 2, "g0_set": [0.5], "schedules": ["constant"],
        "trials": 30, "steps": 24, "dim_d": 4, "chunk": 15,
    }
    clone_cfg = {
        "g_list": [0.0, 0.3], "dim_d": 4, "scan_count": 4,
        "repeats": 1, "batch": 16, "steps": 40,
    }
    (tmp_path / "toy.json").write_text(json.dumps(toy_cfg))
    (tmp_path / "clone.json").write_text(json.dumps(clone_cfg))

    outputs = {}
    for jobs in ("1", "2"):
        toy_out = tmp_path / f"toy{jobs}.csv"
        clone_out = tmp_path / f"clone{jobs}.csv"
        summary_out = tmp_path / f"summary{jobs}.json"
        pd_out = tmp_path / f"pd{jobs}.csv"
        assert dispatch(
            ["toy-conditional", "--config", str(tmp_path / "toy.json"),
             "--seed", "17", "--jobs", jobs, "--out", str(toy_out)]
        ) == 0
        assert dispatch(
            ["clone-speciation", "--config", str(tmp_path / "clone.json"),
             "--seed", "17", "--jobs", jobs, "--out", str(clone_out),
             "--summary-out", str(summary_out)]
        ) == 0
        assert dispatch(
            ["phase-diagram", "--g-points", "4", "--theta-points", "3",
             "--jobs", jobs, "--out", str(pd_out)]
        ) == 0
        outputs[jobs] = (
            toy_out.read_bytes(), clone_out.read_bytes(),
            summary_out.read_bytes(), pd_out.read_bytes(),
        )

    ok = outputs["1"] == outputs["2"]
    report(
        12, ok,
        "toy/clone/phase-diagram outputs byte-identical across --jobs 1 and 2 "
        "with fixed seed",
    )
