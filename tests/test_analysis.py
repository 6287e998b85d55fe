import concurrent.futures
import math

import numpy as np
import pytest
from scipy.special import expit, ndtr, ndtri

from oudiff import analysis
from oudiff.analysis import (
    Z_95,
    CloneConfig,
    CloneSweepConfig,
    ToyExperimentConfig,
    clone_agreement,
    crossing_time,
    run_clone_experiment,
    run_toy_experiment,
    toy_metrics,
    wilson_interval,
)
from oudiff.errors import InvalidArgument, UndefinedLabel
from oudiff.moments import (
    AngledMeans,
    MixtureInit,
    ModeMeans,
    ModelSpec,
    Symmetric,
    diffusion_kernel,
)
from oudiff.sampler import (
    ConditionalRunConfig,
    _cell_mixture,
    _class_weights,
    materialize_means,
)


class TestWilson:
    def test_zero_successes(self):
        lo, hi = wilson_interval(0, 20)
        assert lo == 0.0
        assert hi > 0.0

    def test_all_successes(self):
        lo, hi = wilson_interval(20, 20)
        assert hi == 1.0
        assert lo < 1.0

    def test_reference_values(self):
        lo, hi = wilson_interval(50, 100)
        assert lo == pytest.approx(0.4038, abs=2e-4)
        assert hi == pytest.approx(0.5962, abs=2e-4)

    def test_z95_is_the_ndtri_quantile(self):
        # the constant is ndtri's double, one ulp below the correctly rounded
        # quantile, so the intervals keep their bytes
        assert Z_95 == float(ndtri(0.975))
        mp = pytest.importorskip("mpmath")
        with mp.workdps(50):
            exact = mp.sqrt(2) * mp.erfinv(mp.mpf("0.95"))
            assert abs(mp.mpf(Z_95) - exact) <= math.ulp(Z_95)

    def test_matches_the_ndtri_formula(self):
        def with_ndtri(k, n):
            z = float(ndtri(0.5 + 0.95 / 2.0))
            p = k / n
            z2 = z * z
            denom = 1.0 + z2 / n
            center = (p + z2 / (2.0 * n)) / denom
            half = z * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom
            lo = 0.0 if k == 0 else max(0.0, center - half)
            hi = 1.0 if k == n else min(1.0, center + half)
            return lo, hi

        for n in range(1, 301):
            for k in range(n + 1):
                assert wilson_interval(k, n) == with_ndtri(k, n), (k, n)

    def test_contains_point_estimate(self):
        for n in range(1, 400):
            for k in range(n + 1):
                lo, hi = wilson_interval(k, n)
                assert lo <= k / n <= hi, (k, n)
                assert 0.0 <= lo <= hi <= 1.0

    def test_ordering_preserved_by_excess_transform(self):
        lo, hi = wilson_interval(70, 100)
        base = 0.5
        assert (lo - base) / (1 - base) <= (hi - base) / (1 - base)

    def test_domain(self):
        with pytest.raises(InvalidArgument):
            wilson_interval(5, 0)
        with pytest.raises(InvalidArgument):
            wilson_interval(-1, 10)


class TestCrossing:
    def test_constructed_offset_recovered(self):
        times = np.linspace(0.0, 4.0, 41)
        cu = np.clip(1.5 - times / 2.0, 0.0, 1.0)
        cv = np.clip(1.25 - times / 2.0, 0.0, 1.0)
        tu = crossing_time(times, cu, 0.5)
        tv = crossing_time(times, cv, 0.5)
        assert tu == pytest.approx(2.0, abs=1e-12)
        assert tv == pytest.approx(1.5, abs=1e-12)

    def test_interpolation_exact_on_piecewise_linear(self):
        times = np.array([0.0, 1.0, 2.0])
        values = np.array([1.0, 0.8, 0.2])
        # crossing of 0.5 between t=1 and t=2 on the straight segment
        assert crossing_time(times, values, 0.5) == pytest.approx(1.5)

    def test_censored(self):
        times = np.linspace(0, 1, 5)
        values = np.full(5, 0.2)
        assert crossing_time(times, values, 0.5) is None

    def test_threshold_met_at_top(self):
        times = np.array([0.0, 1.0])
        values = np.array([1.0, 0.9])
        assert crossing_time(times, values, 0.5) == 1.0


def conditional_components(spec, init, x, t, moments=None):
    """Mixture representation of P_t(y | x): weights (m, 2), component
    means (m, 2, d) and the conditional variance."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    u, gain, delta, c_yx = _cell_mixture(spec, init, x, t, moments)
    means = gain * x[..., None, :] + np.array([[1.0], [-1.0]]) * delta
    return _class_weights(u), means, c_yx


def toy_pairs(n=500, d=6, m2=1.0, theta=0.7, seed=0):
    init = MixtureInit(1.0, 1.0, AngledMeans(m2, m2, theta), dim_d=d)
    spec = ModelSpec(1.0, Symmetric(0.0), 2.0, dim_d=d)
    ms = diffusion_kernel(
        ModelSpec(1.0, __import__("oudiff.moments", fromlist=["Anisotropic"]).Anisotropic(0.0), 2.0, dim_d=d),
        init, 0.0,
    )
    rng = np.random.default_rng(seed)
    mu_x, mu_y = materialize_means(init)
    s = np.where(rng.uniform(size=n) < 0.5, 1.0, -1.0)
    x0 = s[:, None] * mu_x + rng.standard_normal((n, d))
    return init, ms, rng, mu_x, mu_y, s, x0


class TestToyMetrics:
    def test_perfect_generation(self):
        init, ms, rng, mu_x, mu_y, s, x0 = toy_pairs()
        s_x = np.where(x0 @ mu_x > 0, 1.0, -1.0)
        y0 = s_x[:, None] * mu_y
        rec = toy_metrics((x0, y0), init, ms)
        assert rec.values["accuracy"] == 1.0
        assert rec.values["mse"] == pytest.approx(0.0, abs=1e-12)
        assert rec.ci_high == 1.0

    def test_random_signs_near_chance(self):
        init, ms, rng, mu_x, mu_y, s, x0 = toy_pairs(n=4000)
        flip = np.where(rng.uniform(size=4000) < 0.5, 1.0, -1.0)
        y0 = flip[:, None] * mu_y + 0.1 * rng.standard_normal(x0.shape)
        rec = toy_metrics((x0, y0), init, ms)
        assert rec.values["accuracy"] == pytest.approx(0.5, abs=4 * 0.5 / 63.2)

    def test_nll_matches_entropy_oracle(self):
        # draws from the exact conditional make NLL estimate the entropy
        init, ms, rng, mu_x, mu_y, s, x0 = toy_pairs(n=4000, theta=0.9)
        w, means, c_yx = conditional_components(None, init, x0, 0.0, ms)
        pick = rng.uniform(size=4000) < w[:, 0]
        y0 = np.where(pick[:, None], means[:, 0, :], means[:, 1, :])
        y0 = y0 + math.sqrt(c_yx) * rng.standard_normal(y0.shape)
        rec = toy_metrics((x0, y0), init, ms)
        d = x0.shape[1]
        # mixture entropy is bracketed by the Gaussian part and + log 2
        h_gauss = 0.5 * d * math.log(2 * math.pi * math.e * c_yx)
        assert h_gauss - 0.05 < rec.values["nll"] < h_gauss + math.log(2) + 0.05

    def test_degenerate_mean_rejected(self):
        d = 4
        init = MixtureInit(1.0, 1.0, AngledMeans(0.0, 1.0, 0.0), dim_d=d)
        from oudiff.moments import Anisotropic

        ms = diffusion_kernel(ModelSpec(1.0, Anisotropic(0.0), 2.0, dim_d=d), init, 0.0)
        with pytest.raises(UndefinedLabel):
            toy_metrics((np.ones((5, d)), np.ones((5, d))), init, ms)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("side", [0, 1])
    def test_non_finite_pairs_rejected(self, side, bad):
        init, ms, rng, mu_x, mu_y, s, x0 = toy_pairs(n=20)
        pairs = [x0, s[:, None] * mu_y]
        pairs[side][3, 1] = bad
        with pytest.raises(InvalidArgument, match="1 non-finite"):
            toy_metrics(tuple(pairs), init, ms)

    def test_non_finite_metrics_rejected(self):
        # means at the edge of the float range keep the pairs finite, but
        # the log-density overflows: the metrics are refused, not reported
        cfg = ToyExperimentConfig(
            m2=1e308, dim_d=4, trials=4, steps=4, theta_points=1,
            g0_set=(0.5,), schedules=("constant",),
        )
        with pytest.raises(InvalidArgument, match=r"non-finite values \(nll\)"):
            run_toy_experiment(cfg)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: ToyExperimentConfig(theta_points=0),
            lambda: ToyExperimentConfig(trials=0),
            lambda: ToyExperimentConfig(steps=-3),
            lambda: ToyExperimentConfig(dim_d=0),
            lambda: ToyExperimentConfig(chunk=0),
            lambda: ToyExperimentConfig(horizon=0.0),
            lambda: ToyExperimentConfig(horizon=math.inf),
            lambda: CloneConfig(repeats=0),
            lambda: CloneConfig(batch=0),
            lambda: CloneConfig(steps=0),
            lambda: CloneConfig(baseline_factor=0),
            lambda: CloneConfig(horizon=math.nan),
            lambda: CloneConfig(threshold=math.nan),
            lambda: CloneConfig(threshold=-math.inf),
            lambda: CloneSweepConfig(dim_d=0),
            lambda: CloneSweepConfig(scan_count=0),
            lambda: ConditionalRunConfig(steps=0),
            lambda: ConditionalRunConfig(trials=0),
            lambda: ConditionalRunConfig(chunk=0),
            lambda: ConditionalRunConfig(dim_d=0),
            lambda: ConditionalRunConfig(horizon=-1.0),
        ],
    )
    def test_non_positive_sizes_rejected(self, make):
        with pytest.raises(InvalidArgument):
            make()

    @pytest.mark.parametrize(
        "make, field",
        [
            (lambda: ToyExperimentConfig(trials=2.5), "trials"),
            (lambda: ToyExperimentConfig(steps=4.0), "steps"),
            (lambda: ToyExperimentConfig(theta_points=True), "theta_points"),
            (lambda: CloneConfig(batch=2.5), "batch"),
            (lambda: CloneConfig(repeats=True), "repeats"),
            (lambda: CloneSweepConfig(scan_count=3.5), "scan_count"),
            (lambda: ConditionalRunConfig(chunk=10.0), "chunk"),
        ],
    )
    def test_non_integer_sizes_rejected(self, make, field):
        with pytest.raises(InvalidArgument, match=f"{field} must be an integer"):
            make()

    def test_numpy_integer_sizes_accepted(self):
        ToyExperimentConfig(trials=np.int64(3), steps=np.int32(2))

    def test_defaults_accepted(self):
        ToyExperimentConfig()
        CloneSweepConfig(clone=CloneConfig())
        ConditionalRunConfig()


class TestToyExperiment:
    def test_micro_sweep_shape_and_determinism(self):
        cfg = ToyExperimentConfig(
            theta_points=3, g0_set=(0.5,), schedules=("constant", "late"),
            trials=60, steps=40, dim_d=4, seed=7, chunk=30,
        )
        a = run_toy_experiment(cfg)
        b = run_toy_experiment(cfg)
        assert len(a) == 6
        for ra, rb in zip(a, b):
            assert ra == rb  # bit-for-bit reproducible
        coords = [(r.coordinates["theta"], r.coordinates["g0"], r.coordinates["schedule"]) for r in a]
        assert coords == sorted(coords, key=lambda c: (c[0], c[1], c[2]))

    def test_baseline_shares_stream(self):
        # a g0 = 0 cell of any schedule couples nothing at any time, so it
        # gets the baseline's moments on the baseline's stream: its plane
        # loop takes the same operations and its off-plane coordinates the
        # same weights through the same contraction, so every delta is
        # exactly zero, while the coupled cells beside it do move
        cfg = ToyExperimentConfig(
            theta_points=3, g0_set=(0.0, 0.5), schedules=("constant", "late", "early"),
            trials=30, steps=25, dim_d=6, seed=4, chunk=20,
        )
        records = run_toy_experiment(cfg)
        zero = [r for r in records if r.coordinates["g0"] == 0.0]
        assert len(zero) == 9
        for rec in zero:
            assert rec.values["d_accuracy"] == 0.0
            assert rec.values["d_mse"] == 0.0
            assert rec.values["d_nll"] == 0.0
        assert all(r.values["d_mse"] != 0.0 for r in records if r.coordinates["g0"] != 0.0)


class TestBatchedToySweep:
    CONFIG = ToyExperimentConfig(
        theta_points=2, g0_set=(0.5, 1.0), schedules=("constant", "late", "early"),
        trials=25, steps=14, dim_d=5, chunk=10, t0=0.7, seed=11,
    )  # three chunks, odd d, t0 between grid points

    @staticmethod
    def per_cell_records(cfg):
        """The sweep's records built from one _toy_run_cell per cell."""
        records = []
        for i, theta in enumerate(cfg.thetas()):
            base = analysis._toy_run_cell(cfg, i, 0.0, "constant").values
            for g0 in cfg.g0_set:
                for kind in cfg.schedules:
                    rec = analysis._toy_run_cell(cfg, i, g0, kind)
                    v = rec.values
                    records.append(analysis.MetricRecord(
                        coordinates={"theta": float(theta), "g0": g0, "schedule": kind},
                        values={
                            "d_accuracy": v["accuracy"] - base["accuracy"],
                            "d_mse": v["mse"] - base["mse"],
                            "d_nll": v["nll"] - base["nll"],
                            **v,
                        },
                        ci_low=rec.ci_low, ci_high=rec.ci_high,
                        n_effective=rec.n_effective,
                    ))
        return records

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_groups_equal_per_cell_runs(self, jobs):
        want = self.per_cell_records(self.CONFIG)
        got = run_toy_experiment(self.CONFIG, jobs=jobs)
        assert got == want
        assert len({r.values["mse"] for r in got}) == len(got)


class FakePool:
    """Stands in for ProcessPoolExecutor: records its size, runs in-process."""

    sizes: list = []

    def __init__(self, max_workers):
        FakePool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


class TestMapCells:
    @pytest.fixture(autouse=True)
    def fake_pool(self, monkeypatch):
        FakePool.sizes = []
        # _map_cells imports the pool class when it needs one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)

    @pytest.mark.parametrize(
        "jobs, tasks, size", [(8, 3, 3), (2, 5, 2), (2, 1, None), (1, 4, None)]
    )
    def test_at_most_one_worker_per_task(self, jobs, tasks, size):
        out = analysis._map_cells(pow, [(i, 2) for i in range(tasks)], jobs)
        assert out == [i * i for i in range(tasks)]
        assert FakePool.sizes == ([] if size is None else [size])

    def test_toy_sweep_fans_out_theta_groups(self):
        cfg = ToyExperimentConfig(
            theta_points=2, g0_set=(0.5,), schedules=("constant",),
            trials=4, steps=3, dim_d=2, chunk=4,
        )
        run_toy_experiment(cfg, jobs=6)
        assert FakePool.sizes == [2]

    @pytest.mark.parametrize("jobs", [0, -3, True, 2.5])
    def test_bad_jobs_rejected_before_any_work(self, jobs):
        calls = []
        with pytest.raises(InvalidArgument, match="jobs must be"):
            analysis._map_cells(calls.append, [(1,), (2,)], jobs)
        assert calls == [] and FakePool.sizes == []


@pytest.fixture(scope="module")
def tiny_curves():
    spec = ModelSpec(1.0, Symmetric(0.4), 2.0, dim_d=6)
    init = MixtureInit(1.0, 1.0, ModeMeans(1.0, 1.0), dim_d=6)
    config = CloneConfig(repeats=2, batch=48, steps=120, horizon=4.0)
    scans = np.linspace(0.0, 4.0, 6)
    return clone_agreement(spec, init, scans, config, np.random.default_rng(1))


class TestCloneProtocol:

    def test_anchors(self, tiny_curves):
        for curve in tiny_curves.values():
            assert curve.phi_raw[0] == 1.0  # clones from t =0 are identical
            assert curve.phi_ex[0] == pytest.approx(1.0)
            # at t = horizon the excess agreement sits near zero
            assert abs(curve.phi_ex[-1]) < 0.25
            assert 0.3 < curve.phi_indep < 0.7

    def test_invariants(self, tiny_curves):
        for curve in tiny_curves.values():
            assert np.all(curve.wilson_low <= curve.phi_raw)
            assert np.all(curve.phi_raw <= curve.wilson_high)
            ex = (curve.phi_raw - curve.phi_indep) / (1 - curve.phi_indep)
            assert np.allclose(ex, curve.phi_ex)

    def test_undefined_label_raises(self):
        spec = ModelSpec(1.0, Symmetric(0.2), 2.0, dim_d=4)
        init = MixtureInit(1.0, 1.0, ModeMeans(1.0, 0.0), dim_d=4)
        with pytest.raises(UndefinedLabel):
            clone_agreement(
                spec, init, [0.0, 1.0], CloneConfig(repeats=1, batch=4, steps=10),
                np.random.default_rng(0),
            )

    def test_all_agreeing_baseline_raises(self):
        # one baseline pair per mode: when it agrees, phi_ex = 0/0, which
        # used to reach the CSV as nan and report the crossing censored
        cfg = CloneSweepConfig(
            g_list=(0.0,), dim_d=2, scan_count=3,
            clone=CloneConfig(repeats=1, batch=1, steps=4, baseline_factor=1),
            seed=0,
        )
        with pytest.raises(InvalidArgument, match=r"clone mode [uv]: all 1 baseline"
                           r".*raise batch, repeats or baseline_factor"):
            run_clone_experiment(cfg)

    def test_sweep_determinism(self):
        cfg = CloneSweepConfig(
            g_list=(0.0, 0.4), dim_d=4, scan_count=4,
            clone=CloneConfig(repeats=1, batch=24, steps=60, horizon=4.0),
            seed=5,
        )
        a = run_clone_experiment(cfg)
        b = run_clone_experiment(cfg)
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.curves["u"].phi_raw, rb.curves["u"].phi_raw)
            assert ra.gap == rb.gap

    def test_label_coordinate_reduction(self):
        # d enters only through the label amplitude sqrt(m^2 d)
        scans = np.linspace(0.0, 4.0, 5)
        config = CloneConfig(repeats=2, batch=16, steps=50, horizon=4.0)

        def curves(d, scale):
            spec = ModelSpec(1.0, Symmetric(0.3), 2.0, dim_d=d)
            init = MixtureInit(1.0, 1.0, ModeMeans(0.7 * scale, 1.3 * scale), dim_d=d)
            return clone_agreement(spec, init, scans, config, np.random.default_rng(4))

        wide, narrow = curves(16, 1.0), curves(1, 16.0)
        for mode in ("u", "v"):
            assert np.array_equal(wide[mode].phi_raw, narrow[mode].phi_raw)
            assert wide[mode].phi_indep == narrow[mode].phi_indep

    def test_batch_scaling_shrinks_ci(self):
        spec = ModelSpec(1.0, Symmetric(0.0), 2.0, dim_d=4)
        init = MixtureInit(1.0, 1.0, ModeMeans(1.0, 1.0), dim_d=4)
        scans = np.linspace(0.0, 4.0, 4)

        def width(batch, seed):
            config = CloneConfig(repeats=1, batch=batch, steps=40, horizon=4.0)
            curves = clone_agreement(
                spec, init, scans, config, np.random.default_rng(seed)
            )
            c = curves["u"]
            j = 2  # mid-grid point away from the deterministic anchors
            return c.wilson_high[j] - c.wilson_low[j]

        w1 = width(64, 3)
        w2 = width(256, 3)
        # quadrupling the batch roughly halves the interval
        assert w2 < w1 * 0.65


def _clone_states_oracle(taus, amps, s2, sw2, scan_steps, config, rng):
    """The clone loop with every time-only term computed per step and
    fresh temporaries for each expression: the loop ``_clone_states``
    must match bit for bit, draw for draw."""
    h = config.horizon / config.steps
    n_scan = scan_steps.size
    n_pairs = config.repeats * config.batch
    n_base = config.baseline_factor * n_pairs
    n_top = 2 * n_base + n_pairs
    z = np.empty((2, n_top + 2 * n_scan * n_pairs))
    z[:, :n_top] = np.sqrt(sw2 / taus) * rng.standard_normal((2, n_top))
    masters = z[:, 2 * n_base:n_top]
    noise = math.sqrt(sw2) * math.sqrt(h)
    live = n_top
    for k in range(config.steps, -1, -1):
        start = live
        live = n_top + 2 * n_pairs * int(np.count_nonzero(scan_steps >= k))
        z[:, start:live] = np.tile(masters, (live - start) // n_pairs)
        if k == 0:
            break
        c = s2 * np.exp(-taus * (k * h)) + sw2 * (-np.expm1(-taus * (k * h))) / taus
        mu = np.exp(-0.5 * taus * (k * h)) * amps
        paths = z[:, :live]
        score = (mu * np.tanh(mu * paths / c) - paths) / c
        paths += h * (0.5 * taus * paths + sw2 * score)
        if k > 1:
            paths += noise * rng.standard_normal(paths.shape)
    return z


# (beta, g, sW2, s2, m+^2, m-^2, d, steps, horizon, scan times, repeats,
#  batch, baseline_factor)
CLONE_ORACLE_CASES = [
    # one noiseless step; scan times at 0 and at the horizon
    (1.0, 0.4, 2.0, 1.0, 1.0, 1.0, 6, 1, 4.0, [0.0, 4.0], 2, 8, 1),
    # h = 2: 0 and 0.9 snap to step 0, the two 4.0 to step 2
    (1.0, 0.0, 2.0, 1.0, 0.7, 1.3, 4, 2, 4.0, [4.0, 0.0, 0.9, 4.0, 2.0], 1, 16, 4),
    # twelve scan times on seven steps, three repeats
    (1.3, -0.5, 1.7, 0.4, 1.5, 0.2, 3, 7, 3.0, list(np.linspace(0.0, 3.0, 12)),
     3, 8, 2),
    # unsorted, below 0 and past the horizon (clipped), one near-duplicate
    (1.0, 0.4, 2.0, 1.0, 1.0, 1.0, 16, 40, 4.0, [5.0, 0.0, 2.0, -1.0, 2.01],
     2, 24, 1),
    (0.8, 0.3, 2.5, 1.2, 0.5, 2.0, 2, 60, 4.0, list(np.linspace(0.0, 4.0, 6)),
     1, 32, 1),
]


class TestCloneLoopOracle:
    """``_clone_states`` and ``clone_agreement`` against the per-step loop."""

    @staticmethod
    def _setup(case):
        beta, g, sw2, s2, mp2, mm2, d, steps, horizon, scans, reps, batch, bf = case
        spec = ModelSpec(beta, Symmetric(g), sw2, dim_d=d)
        init = MixtureInit(s2, s2, ModeMeans(mp2, mm2), dim_d=d)
        config = CloneConfig(
            repeats=reps, batch=batch, steps=steps, horizon=horizon,
            baseline_factor=bf,
        )
        h = horizon / steps
        scan_steps = np.clip(np.rint(np.sort(scans) / h).astype(int), 0, steps)
        return spec, init, config, scans, scan_steps

    @pytest.mark.parametrize("case", CLONE_ORACLE_CASES)
    def test_states_bit_for_bit(self, case):
        spec, init, config, _, scan_steps = self._setup(case)
        taus, amps = analysis._label_modes(spec, init)
        args = (taus, amps, init.sigma2_x, spec.sigma_w2, scan_steps, config)
        rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
        got = analysis._clone_states(*args, rng_a)
        want = _clone_states_oracle(*args, rng_b)
        assert got.tobytes() == want.tobytes()
        # the same number of draws, in the same order
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    @pytest.mark.parametrize("case", CLONE_ORACLE_CASES)
    def test_curves_match(self, case):
        spec, init, config, scans, scan_steps = self._setup(case)
        taus, amps = analysis._label_modes(spec, init)
        z = _clone_states_oracle(
            taus, amps, init.sigma2_x, spec.sigma_w2, scan_steps, config,
            np.random.default_rng(9),
        )
        n_pairs = config.repeats * config.batch
        n_base = config.baseline_factor * n_pairs
        labels = z > 0.0
        base = np.count_nonzero(labels[:, :n_base] == labels[:, n_base:2 * n_base], axis=1)
        assert np.all(base < n_base)  # phi_ex is defined in every case
        clones = labels[:, 2 * n_base + n_pairs:].reshape(2, scan_steps.size, 2, n_pairs)
        agree = np.count_nonzero(clones[:, ::-1, 0] == clones[:, ::-1, 1], axis=2)

        curves = clone_agreement(spec, init, scans, config, np.random.default_rng(9))
        for m, mode in ((0, "u"), (1, "v")):
            curve = curves[mode]
            snapped = scan_steps * (config.horizon / config.steps)
            assert curve.scan_times.tobytes() == snapped.tobytes()
            assert np.array_equal(np.rint(curve.phi_raw * n_pairs), agree[m])
            assert curve.phi_raw.tobytes() == (agree[m] / n_pairs).tobytes()
            assert curve.phi_indep == int(base[m]) / n_base


def _exact_phi_ex(tau, m2, d, sw2, s2, t):
    """Continuous-time excess clone agreement E[(2p - 1)^2] of one mode.

    The label reads the scalar z along the mode mean, a two-component
    mixture z_0 ~ N(s a, s2) with a = sqrt(m2 d) and a fair sign s.  With
    e, q, c the mode's decay, noise variance and marginal variance at t,
    the reverse path from z_t draws z_0 from the posterior, so
    p = P(label + | z_t) = sum_s sigma(2 s e a z / c) Phi(m_s / sqrt(v)),
    m_s = s a + s2 e (z - e s a) / c and v = s2 q / c.  The expectation
    over z_t ~ N(e a, c) (the other component gives the same (2p - 1)^2)
    uses a 120-node Gauss-Hermite rule.
    """
    a = math.sqrt(m2 * d)
    e = math.exp(-0.5 * tau * t)
    q = sw2 * -math.expm1(-tau * t) / tau
    c = s2 * e * e + q
    v = s2 * q / c
    x, w = np.polynomial.hermite_e.hermegauss(120)
    z = e * a + math.sqrt(c) * x
    p = 0.0
    for s in (1.0, -1.0):
        m_s = s * a + s2 * e * (z - e * s * a) / c
        p = p + expit(2.0 * s * e * a * z / c) * ndtr(m_s / math.sqrt(v))
    return float(np.sum(w * (2.0 * p - 1.0) ** 2) / math.sqrt(2.0 * math.pi))


class TestCloneOracle:
    """Clone agreement counts against the exact continuous-time agreement."""

    def test_counts_match_exact_agreement(self):
        # the criterion-10 configuration and seed
        beta, sw2, s2, d = 1.0, 2.0, 1.0, 16
        clone = CloneConfig(repeats=5, batch=128, steps=800, horizon=4.0)
        cfg = CloneSweepConfig(
            g_list=(0.0, 0.5), dim_d=d, scan_count=12, clone=clone, seed=20250809,
        )
        n_pairs = clone.repeats * clone.batch
        n_base = clone.baseline_factor * n_pairs
        # two-sided Bonferroni bound at family-wise alpha = 1e-3 over 48 points
        bound = float(ndtri(1.0 - 1e-3 / (2 * 48)))
        worst = 0.0
        for res in run_clone_experiment(cfg):
            for mode, tau in (("u", 2 * (beta - res.g)), ("v", 2 * (beta + res.g))):
                curve = res.curves[mode]
                counts = np.rint(curve.phi_raw * n_pairs)
                assert curve.scan_times[0] == 0.0 and counts[0] == n_pairs
                for t, k in zip(curve.scan_times[1:], counts[1:]):
                    agree = 0.5 * (1.0 + _exact_phi_ex(tau, 1.0, d, sw2, s2, t))
                    score = (k - n_pairs * agree) / math.sqrt(n_pairs * agree * (1 - agree))
                    worst = max(worst, abs(score))
                base = round(curve.phi_indep * n_base)
                assert abs(base - 0.5 * n_base) / math.sqrt(0.25 * n_base) <= bound
        assert worst <= bound

