import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from oudiff.blockmat import Block2, block_inverse, mat_exp
from oudiff.errors import InvalidArgument, KernelDegenerate
from oudiff.moments import (
    Anisotropic,
    AngledMeans,
    MixtureInit,
    ModeMeans,
    ModelSpec,
    Scheduled,
    ScheduleSpec,
    Symmetric,
    _aniso_q,
    _q_parts,
    diffusion_kernel,
    mean_at,
    moments_ode,
    stacked_moments,
    transition_cov,
)
from oudiff.sampler import (
    ConditionalRunConfig,
    DatasetEmpirical,
    _cell_mixture,
    _class_weights,
    conditional_log_density,
    conditional_reverse_group,
    conditional_reverse_sample,
    conditional_score,
    draw_mixture,
    empirical_score,
    empirical_score_fn,
    flow_sample,
    forward_sample,
    materialize_means,
    population_log_density,
    population_score,
    population_score_fn,
    reverse_sample,
    split_channels,
    stationary_cov,
)

D = 6


def sym_model(g=0.4, d=D):
    spec = ModelSpec(1.0, Symmetric(g), 2.0, dim_d=d)
    init = MixtureInit(1.0, 1.0, ModeMeans(1.0, 0.5), dim_d=d)
    return spec, init


def aniso_model(g=0.7, theta=1.1, d=D):
    spec = ModelSpec(1.0, Anisotropic(g), 2.0, dim_d=d)
    init = MixtureInit(1.0, 1.0, AngledMeans(1.0, 1.0, theta), dim_d=d)
    return spec, init


class TestSchedules:
    def test_constant(self):
        s = ScheduleSpec("constant", 0.5, 0.0)
        for t in (0.0, 1.0, 2.0):
            assert s.value(t) == 0.5
        assert s.value(np.array([[0.0], [2.0]])).tolist() == [[0.5], [0.5]]

    def test_late_boundary_closed(self):
        s = ScheduleSpec("late", 1.0, 1.0)
        assert s.value(1.0) == 1.0
        assert s.value(1.5) == 0.0
        assert s.value(np.array([0.5, 1.0, 1.5])).tolist() == [1.0, 1.0, 0.0]

    def test_early_boundary_closed(self):
        s = ScheduleSpec("early", 1.0, 1.0)
        assert s.value(1.0) == 1.0
        assert s.value(0.5) == 0.0
        assert s.value(np.array([0.5, 1.0, 1.5])).tolist() == [0.0, 1.0, 1.0]


class TestForward:
    def test_noiseless_decay(self):
        # sigma_w2 must stay positive; tiny noise approximates the ODE limit
        spec = ModelSpec(1.0, Symmetric(0.0), 1e-20, dim_d=2)
        z0 = np.ones(4)
        rng = np.random.default_rng(0)
        traj = forward_sample(spec, z0, 400, rng, horizon=1.0)
        expected = math.exp(-1.0)
        assert np.allclose(traj.final, expected, atol=1e-2)

    def test_stationary_variance_preserved(self):
        spec = ModelSpec(1.0, Symmetric(0.0), 2.0, dim_d=4)
        rng = np.random.default_rng(3)
        z0 = rng.standard_normal((4000, 8))
        traj = forward_sample(spec, z0, 200, rng, horizon=2.0)
        var = np.var(traj.final)
        assert var == pytest.approx(1.0, abs=0.05)

    def test_anisotropic_mean_path(self):
        spec = ModelSpec(1.0, Anisotropic(1.0), 2.0, dim_d=2)
        rng = np.random.default_rng(4)
        z0 = np.tile(np.array([1.0, 1.0, 0.0, 0.0]), (20000, 1))
        traj = forward_sample(spec, z0, 400, rng, horizon=1.0)
        x, y = split_channels(traj.final, 2)
        mx, my = mean_at(spec, (1.0, 0.0), 1.0)
        assert np.mean(x) == pytest.approx(mx, abs=0.02)
        assert np.mean(y) == pytest.approx(my, abs=0.02)

    def test_refuses_unstable_symmetric(self):
        spec = ModelSpec(1.0, Symmetric(1.5), 2.0, dim_d=2)
        with pytest.raises(InvalidArgument):
            forward_sample(spec, np.zeros(4), 10, np.random.default_rng(0))

    def test_one_start_state_repeated_to_n_paths(self):
        spec, _ = sym_model(d=2)
        traj = forward_sample(
            spec, np.ones(4), 3, np.random.default_rng(0), n_paths=64
        )
        assert traj.states.shape == (2, 64, 4)
        assert np.all(traj.states[0] == 1.0)

    def test_moment_match_with_scan_cache(self):
        spec, init = sym_model(g=0.3, d=4)
        rng = np.random.default_rng(5)
        traj = forward_sample(
            spec, init, 400, rng, horizon=2.0, n_paths=20000, record_times=(1.0,)
        )
        z = traj.scan_cache[1.0]
        x, y = split_channels(z, 4)
        ms = diffusion_kernel(spec, init, 1.0)
        mxx, myy, mxy = ms.mean_stats()
        assert np.mean(x * x) == pytest.approx(ms.c.a11 + mxx, abs=0.05)
        assert np.mean(x * y) == pytest.approx(ms.c.a12 + mxy, abs=0.05)

    def test_scheduled_late_switch_matches_moment_ode(self):
        # "late" keeps the coupling on for t <= t0 = 1 and off after, so at
        # the horizon the cross-moment sits between the never-on (0.018)
        # and always-on (0.546) closed forms
        spec = ModelSpec(1.0, Scheduled(ScheduleSpec("late", 1.0, 1.0)), 2.0, dim_d=4)
        init = MixtureInit(1.0, 1.0, AngledMeans(1.0, 1.0, 0.0), dim_d=4)
        rng = np.random.default_rng(21)
        traj = forward_sample(spec, init, 400, rng, horizon=2.0, n_paths=20000)
        x, y = split_channels(traj.final, 4)
        ms = moments_ode(spec, init, np.linspace(0.0, 2.0, 401))[-1]
        mxx, myy, mxy = ms.mean_stats()
        assert np.mean(x * x) == pytest.approx(ms.c.a11 + mxx, abs=0.05)
        assert np.mean(x * y) == pytest.approx(ms.c.a12 + mxy, abs=0.05)
        assert np.mean(y * y) == pytest.approx(ms.c.a22 + myy, abs=0.05)


class TestRecorder:
    @pytest.mark.parametrize("t", [5.0, math.nan, -1.0, math.inf])
    def test_out_of_window_record_time_raises(self, t):
        spec, init = sym_model(d=2)
        with pytest.raises(InvalidArgument, match="record time"):
            forward_sample(
                spec, init, 10, np.random.default_rng(0), horizon=2.0,
                record_times=(1.0, t),
            )
        with pytest.raises(InvalidArgument, match="record time"):
            reverse_sample(
                spec, population_score_fn(spec, init), 10,
                np.random.default_rng(0), horizon=2.0, record_times=(t,),
            )

    def test_window_edges_accepted(self):
        spec, init = sym_model(d=2)
        traj = forward_sample(
            spec, init, 10, np.random.default_rng(0), horizon=2.0, n_paths=3,
            record_times=(0.0, 2.0),
        )
        assert np.array_equal(traj.scan_cache[0.0], traj.states[0])
        assert np.array_equal(traj.scan_cache[2.0], traj.final)

    def test_times_on_one_grid_index_share_a_snapshot(self):
        # grid spacing 0.2: 1.0 and 1.04 both snap to t = 1.0
        spec, init = sym_model(d=2)
        fwd = forward_sample(
            spec, init, 10, np.random.default_rng(1), horizon=2.0, n_paths=4,
            record_times=(1.0, 1.04), record_path=True,
        )
        rev = reverse_sample(
            spec, population_score_fn(spec, init), 10, np.random.default_rng(1),
            horizon=2.0, n_paths=4, record_times=(1.0, 1.04), record_path=True,
        )
        for traj in (fwd, rev):
            assert traj.scan_cache[1.0] is traj.scan_cache[1.04]
            k = int(np.argmin(np.abs(traj.times - 1.0)))
            assert np.array_equal(traj.scan_cache[1.0], traj.states[k])

    def test_endpoints_only_without_record_path(self):
        spec, init = sym_model(d=2)
        fwd = forward_sample(
            spec, init, 10, np.random.default_rng(2), horizon=2.0, n_paths=4,
        )
        rev = reverse_sample(
            spec, population_score_fn(spec, init), 10, np.random.default_rng(2),
            horizon=2.0, n_paths=4,
        )
        assert np.array_equal(fwd.times, [0.0, 2.0])
        assert np.array_equal(rev.times, [2.0, 0.0])
        for traj in (fwd, rev):
            assert traj.states.shape == (2, 4, 4)
            assert traj.scan_cache == {}

    def test_flow_record_path_in_grid_order(self):
        spec, init = sym_model(d=2)
        start = np.random.default_rng(3).standard_normal((5, 4))
        traj = flow_sample(spec, init, 7, start, t_end=0.5, record_path=True)
        assert np.array_equal(traj.times, np.linspace(2.0, 0.5, 8))
        assert traj.states.shape == (8, 5, 4)
        assert np.array_equal(traj.states[0], start)
        short = flow_sample(spec, init, 7, start, t_end=0.5)
        assert np.array_equal(short.times, [2.0, 0.5])
        assert np.array_equal(short.final, traj.final)


class TestInPlaceStep:
    """The Euler-Maruyama loop steps its own array in place."""

    @staticmethod
    def _samplers(spec, init, start, n_paths, **kw):
        rng = np.random.default_rng(4)
        return (
            forward_sample(spec, start, 5, rng, n_paths=n_paths, **kw),
            reverse_sample(
                spec, population_score_fn(spec, init), 5, rng,
                start=start, n_paths=n_paths, **kw,
            ),
        )

    @pytest.mark.parametrize("shape, n_paths", [((4,), 3), ((3, 4), 3), ((3, 4), 1)])
    def test_caller_start_states_unchanged(self, shape, n_paths):
        spec, init = sym_model(d=2)
        start = np.random.default_rng(3).standard_normal(shape)
        kept = start.copy()
        for traj in self._samplers(spec, init, start, n_paths, record_path=True):
            assert not np.array_equal(traj.final, traj.states[0])
            assert not np.shares_memory(traj.states, start)
        assert start.tobytes() == kept.tobytes()

    def test_recorded_states_do_not_share_memory(self):
        spec, init = sym_model(d=2)
        start = np.random.default_rng(3).standard_normal((3, 4))
        times = (0.0, 0.4, 0.8, 1.2, 1.6, 2.0)
        for traj in self._samplers(
            spec, init, start, 3, record_path=True, record_times=times
        ):
            snaps = [traj.scan_cache[t] for t in times]
            held = snaps + list(traj.states)
            for i, a in enumerate(held):
                for b in held[i + 1 :]:
                    assert not np.shares_memory(a, b)
            # each snapshot holds its own step, and no two steps are equal
            for t, snap in zip(times, snaps):
                k = int(np.argmin(np.abs(traj.times - t)))
                assert snap.tobytes() == traj.states[k].tobytes()
            assert len({s.tobytes() for s in traj.states}) == len(traj.states)

    def test_steps_keep_the_out_of_place_bits(self):
        # z <- z + h drift(z, t_k) + sW sqrt(h) xi_k, drawn one (m, 2d)
        # array per step, the last reverse step without noise
        spec, init = aniso_model(d=2)
        start = np.random.default_rng(3).standard_normal((3, 4))
        score = population_score_fn(spec, init)
        h = 2.0 / 5
        noise_sd = math.sqrt(spec.sigma_w2) * math.sqrt(h)

        def forward_drift(z, t):
            m = spec.relaxation(t)
            return np.concatenate(m.apply(*split_channels(z, 2)), axis=-1)

        def reverse_drift(z, t):
            return -forward_drift(z, t) + spec.sigma_w2 * score(z, t)

        rng = np.random.default_rng(4)
        expected = []
        for drift, grid, noiseless_last in (
            (forward_drift, np.linspace(0.0, 2.0, 6), False),
            (reverse_drift, 2.0 * (1.0 - np.arange(6) / 5), True),
        ):
            z = start
            states = [z]
            for k in range(5):
                z = z + h * drift(z, float(grid[k]))
                if not (noiseless_last and k == 4):
                    z = z + noise_sd * rng.standard_normal(z.shape)
                states.append(z)
            expected.append(np.stack(states))
        for traj, states in zip(self._samplers(spec, init, start, 3, record_path=True), expected):
            assert traj.states.tobytes() == states.tobytes()


class TestPopulationScore:
    def test_odd_symmetry_at_origin(self):
        spec, init = sym_model()
        s = population_score(spec, init, np.zeros(2 * D), 0.7)
        assert np.allclose(s, 0.0, atol=1e-14)

    def test_zero_mean_single_gaussian(self):
        spec = ModelSpec(1.0, Symmetric(0.2), 2.0, dim_d=D)
        init = MixtureInit(1.0, 1.0, ModeMeans(0.0, 0.0), dim_d=D)
        rng = np.random.default_rng(6)
        z = rng.standard_normal(2 * D)
        from oudiff.blockmat import block_inverse

        ms = diffusion_kernel(spec, init, 0.9)
        cinv = block_inverse(ms.c)
        x, y = split_channels(z, D)
        cx, cy = cinv.apply(x, y)
        assert np.allclose(
            population_score(spec, init, z, 0.9), -np.concatenate([cx, cy]),
            atol=1e-13,
        )

    @pytest.mark.parametrize("model", [sym_model(), aniso_model()])
    def test_gradient_check(self, model):
        spec, init = model
        rng = np.random.default_rng(7)
        eps = 1e-5
        worst = 0.0
        for _ in range(25):
            z = rng.standard_normal(2 * D) * 1.5
            t = rng.uniform(0.05, 2.0)
            s = population_score(spec, init, z, t)
            for j in range(2 * D):
                zp, zm = z.copy(), z.copy()
                zp[j] += eps
                zm[j] -= eps
                num = (
                    population_log_density(spec, init, zp, t)
                    - population_log_density(spec, init, zm, t)
                ) / (2 * eps)
                worst = max(worst, abs(num - s[j]) / (1.0 + abs(s[j])))
        assert worst < 1e-6


def _empirical_oracle(ds, spec, z, t):
    """The difference-tensor form of the empirical kernel, as the oracle:
    (log kernels -|z - p_i|^2_Q / 2, weights, score, drifted points, Q^-1)
    for a batch z, with an (m, n, 2d) tensor.  The drifted points and Q^-1
    are computed with the same operations as in ``empirical_score``."""
    d = spec.dim_d
    qinv = block_inverse(transition_cov(spec, t))
    e = mat_exp(spec.relaxation(t), t)
    drifted = np.concatenate(e.apply(*split_channels(ds.points, d)), axis=1)
    delta = z[:, None, :] - drifted[None, :, :]
    qinv_delta = np.concatenate(qinv.apply(*split_channels(delta, d)), axis=-1)
    log_k = -0.5 * np.sum(delta * qinv_delta, axis=-1)
    shifted = log_k - log_k.max(axis=1, keepdims=True)
    w = np.exp(shifted)
    w /= w.sum(axis=1, keepdims=True)
    score = np.concatenate(qinv.apply(*split_channels(w @ drifted - z, d)), axis=1)
    return log_k, w, score, drifted, qinv


def _check_empirical_gradient(spec, init, seed):
    """Worst central-difference error of the empirical score against the
    oracle's log-sum-exp log density, over 20 random (z, t)."""
    rng = np.random.default_rng(seed)
    ds = draw_mixture(init, 10, rng)
    d2 = 2 * spec.dim_d

    def log_density(z, t):
        log_k = _empirical_oracle(ds, spec, z[None, :], t)[0][0]
        peak = log_k.max()
        return peak + math.log(np.sum(np.exp(log_k - peak)))

    eps = 1e-5
    worst = 0.0
    for _ in range(20):
        z = rng.standard_normal(d2)
        t = rng.uniform(0.05, 2.0)
        s, _ = empirical_score(ds, spec, z, t)
        for j in range(d2):
            zp, zm = z.copy(), z.copy()
            zp[j] += eps
            zm[j] -= eps
            num = (log_density(zp, t) - log_density(zm, t)) / (2 * eps)
            worst = max(worst, abs(num - s[j]) / (1.0 + abs(s[j])))
    return worst


class TestEmpiricalScore:
    def test_single_point(self):
        spec, init = sym_model()
        rng = np.random.default_rng(8)
        ds = draw_mixture(init, 1, rng)
        z = rng.standard_normal(2 * D)
        score, w = empirical_score(ds, spec, z, 0.8)
        assert w.shape == (1,)
        assert w[0] == pytest.approx(1.0)
        e = mat_exp(spec.relaxation(), 0.8)
        qinv = block_inverse(transition_cov(spec, 0.8))
        px, py = split_channels(ds.points, D)
        dx, dy = e.apply(px, py)
        delta = np.concatenate([dx, dy], axis=1)[0] - z
        wx, wy = split_channels(delta, D)
        qx, qy = qinv.apply(wx, wy)
        assert np.allclose(score, np.concatenate([qx, qy]), atol=1e-12)

    def test_duplicate_points_share_weight(self):
        spec, init = sym_model()
        pt = np.ones(2 * D)
        ds = DatasetEmpirical(np.stack([pt, pt, pt]), np.array([1.0, 1.0, 1.0]))
        _, w = empirical_score(ds, spec, np.zeros(2 * D), 0.5)
        assert np.allclose(w, 1.0 / 3.0)

    @pytest.mark.parametrize(
        "labels", [["a", "b"], [0.0, 1.0], [1, 2], [True, False], [1.0, np.nan]]
    )
    def test_labels_must_be_signs(self, labels):
        with pytest.raises(InvalidArgument, match="labels must be"):
            DatasetEmpirical(np.zeros((2, 4)), labels)

    @pytest.mark.parametrize("labels", [[1, -1], [-1.0, 1.0], np.ones(2, np.uint8)])
    def test_integer_and_float_signs_accepted(self, labels):
        assert DatasetEmpirical(np.zeros((2, 4)), labels).n == 2

    def test_degenerate_at_zero(self):
        spec, init = sym_model()
        ds = draw_mixture(init, 4, np.random.default_rng(9))
        with pytest.raises(KernelDegenerate):
            empirical_score(ds, spec, np.zeros(2 * D), 0.0)

    @pytest.mark.parametrize("shape", [(2, 4, 2 * D), (1, 1, 2 * D), ()])
    def test_state_shape_checked(self, shape):
        spec, init = sym_model()
        ds = draw_mixture(init, 4, np.random.default_rng(9))
        with pytest.raises(InvalidArgument, match="z must be"):
            empirical_score(ds, spec, np.zeros(shape), 0.5)

    def test_gradient_check(self):
        spec, init = sym_model(g=0.25)
        assert _check_empirical_gradient(spec, init, 10) < 1e-6

    def test_gradient_check_anisotropic(self):
        # e^{Mt} is lower triangular here, so the drifted points mix the
        # channels one way only
        spec, init = aniso_model()
        assert _check_empirical_gradient(spec, init, 17) < 1e-6

    def test_working_set_is_paths_times_points(self):
        # the peak stays below four (m, n) float64 arrays plus eight
        # (m + n, 2d) ones (the kernel holds one (m, n) array, the
        # (n, 2d + 1) table of the points and arrays of (m, 2d + 1) or
        # less); the difference-tensor form held two (m, n, 2d) arrays,
        # 2 x 537 MB at this size
        m, n, d = 256, 4096, 32
        spec, init = sym_model(g=0.3, d=d)
        rng = np.random.default_rng(18)
        ds = draw_mixture(init, n, rng)
        z = rng.standard_normal((m, 2 * d))
        tracemalloc.start()
        try:
            score, w = empirical_score(ds, spec, z, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert score.shape == (m, 2 * d) and w.shape == (m, n)
        assert peak < 4 * m * n * 8 + 8 * (m + n) * 2 * d * 8

    @pytest.mark.parametrize("kind", ["symmetric", "anisotropic"])
    def test_fn_is_the_public_score_bit_for_bit(self, kind):
        spec, init = sym_model() if kind == "symmetric" else aniso_model()
        rng = np.random.default_rng(20)
        ds = draw_mixture(init, 40, rng)
        fn = empirical_score_fn(ds, spec)
        for z in (rng.standard_normal((7, 2 * D)), rng.standard_normal(2 * D)):
            for t in (1e-3, 0.3, 2.0):
                got = fn(z, t)
                assert got.shape == z.shape
                assert got.tobytes() == empirical_score(ds, spec, z, t)[0].tobytes()

    def test_fn_refusals(self):
        spec, init = sym_model()
        fn = empirical_score_fn(draw_mixture(init, 4, np.random.default_rng(9)), spec)
        for t in (0.0, -1.0):
            with pytest.raises(KernelDegenerate):
                fn(np.zeros(2 * D), t)
        with pytest.raises(InvalidArgument, match="z must be"):
            fn(np.zeros((2, 4, 2 * D)), 0.5)

    def test_fn_reads_a_snapshot_of_the_points(self):
        spec, init = sym_model()
        rng = np.random.default_rng(21)
        ds = draw_mixture(init, 16, rng)
        z = rng.standard_normal((5, 2 * D))
        fn = empirical_score_fn(ds, spec)
        before = fn(z, 0.4)
        ds.points[:] = 0.0
        assert fn(z, 0.4).tobytes() == before.tobytes()

    def test_fn_working_set_is_one_weight_matrix(self):
        # the (n, 2d + 1) table and the statistics are built with the fn;
        # a call holds the (m, n) log kernels, exponentiated in place, and
        # (m, 2d + 1)-sized arrays
        m, n, d = 256, 4096, 32
        spec, init = sym_model(g=0.3, d=d)
        rng = np.random.default_rng(18)
        fn = empirical_score_fn(draw_mixture(init, n, rng), spec)
        z = rng.standard_normal((m, 2 * d))
        tracemalloc.start()
        try:
            score = fn(z, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert score.shape == (m, 2 * d)
        assert peak < 3 * m * n * 8


class TestEmpiricalOracle:
    """The GEMM kernel against the difference-tensor oracle, within the
    rounding bound of the two forms.

    Notation: u is the unit roundoff, for which ``np.finfo(float).eps``
    (2u) is used so that second-order terms are covered; k = 2d; lam is
    the spectral norm of the entrywise absolute 2x2 block |Q^-1|, about
    1/q(t); p is max_i |p_i| over the drifted points p_i = Phi x_i; r = |z|
    for the row.  The GEMM form works on the raw points x_i, with B =
    Q^-1 Phi and A = Phi^T B; let phi be the spectral norm of |Phi| and
    xi = max_i |x_i|.  A dot product of length k adds at most k u times
    the product of the norms, and a block application or product 2u
    times the norms, so the log kernels carry errors of at most

      GEMM form        (3k/2 + 9) u lam phi xi (r + phi xi / 2)
      oracle form      (k + 4) u lam (r + p)^2 / 2

    less a per-row constant: the GEMM sums k + 1 terms, the bias
    x^T A x / 2 adds the d-term statistics, and forming B, A, B^T z and
    the bias adds the rest.  Where Phi is a multiple of an orthogonal map
    (t -> 0) phi xi is p, and then both lie below delta = (k + 4) u lam
    (r + p)^2 together up to the factor 3/2 of the GEMM's extra terms;
    elsewhere phi xi exceeds p by at most cond(Phi), below 5 on this
    grid.  So delta bounds the worst case only to within those factors,
    but a sum's rounding grows like sqrt(k) u, not k u, in practice, and
    the errors seen here stay below 3% of it.  delta is eps (2d) |z|
    |Q^-1 p| to leading order and grows like 1/q(t).  Moving every log
    kernel by at most delta moves each weight by a factor within
    exp(+-2 delta).  The max shift (|x| u for a shifted log kernel
    x >= log(tiny) = -708.4, where a weight is a normal number), exp
    (2u), a sum of n terms and a division add at most (n + 712) u per
    form, so

      |w - w_oracle| <= rho w_oracle + tiny,
      rho = expm1(2 delta) + 2 (n + 712) u,

    with tiny the smallest normal double, below which exp rounds in
    absolute terms.  The score B (sum_i e_i x_i / sum_i e_i) - Q^-1 z
    (GEMM form, e the unnormalised weights) and Q^-1 (sum_i w_i p_i - z)
    (oracle) each add about (n + 3) u lam p + 3 u lam r of their own (p
    read as phi xi for the GEMM form, as above), so their rows differ in
    norm by at most

      lam ((rho + (2n + 6) u) p + 6 u r).
    """

    T_GRID = np.geomspace(1e-3, 2.0, 12)

    @staticmethod
    def _case(model, t, n_base=30, n_random=6):
        spec, init = model
        d2 = 2 * spec.dim_d
        rng = np.random.default_rng(19)
        base = draw_mixture(init, n_base, rng)
        # three points appear twice
        ds = DatasetEmpirical(
            np.concatenate([base.points, base.points[:3]]),
            np.concatenate([base.labels, base.labels[:3]]),
        )
        drifted = _empirical_oracle(ds, spec, np.zeros((1, d2)), t)[3]
        far = rng.standard_normal((4, d2))
        z = np.concatenate([
            1.3 * rng.standard_normal((n_random, d2)),
            # midpoints of two drifted points: near-ties of two weights
            0.5 * (drifted[[0, 4, 7, 11]] + drifted[[1, 5, 9, n_base]]),
            # on a duplicated point
            drifted[[0, 2]],
            10.0 * far / np.linalg.norm(far, axis=1, keepdims=True),
        ])
        return spec, ds, z

    # the memorize benchmark's model at a smaller size: 64 states, 512
    # points (three of them twice), d = 8
    CASES = {
        "symmetric": (sym_model(g=0.4), {}),
        "anisotropic": (aniso_model(), {}),
        "memorize": (sym_model(g=0.3, d=8), {"n_base": 509, "n_random": 54}),
    }

    @pytest.mark.parametrize("kind", sorted(CASES))
    def test_matches_difference_tensor(self, kind):
        model, sizes = self.CASES[kind]
        u = np.finfo(float).eps
        tiny = np.finfo(float).tiny
        for t in self.T_GRID:
            spec, ds, z = self._case(model, float(t), **sizes)
            score, w = empirical_score(ds, spec, z, float(t))
            _, w_or, score_or, drifted, qinv = _empirical_oracle(ds, spec, z, float(t))
            n, k = ds.n, 2 * spec.dim_d
            lam = np.linalg.norm(np.abs(qinv.as_array()), 2)
            p = np.max(np.linalg.norm(drifted, axis=1))
            r = np.linalg.norm(z, axis=1)
            delta = (k + 4) * u * lam * (r + p) ** 2
            rho = np.expm1(2.0 * delta) + 2 * (n + 712) * u
            assert np.all(np.abs(w - w_or) <= rho[:, None] * w_or + tiny), t
            tol = lam * ((rho + (2 * n + 6) * u) * p + 6 * u * r)
            assert np.all(np.linalg.norm(score - score_or, axis=1) <= tol), t


class TestReverse:
    def test_population_terminal_classes(self):
        spec, init = sym_model(g=0.0, d=4)
        init = MixtureInit(1.0, 1.0, ModeMeans(1.0, 1.0), dim_d=4)
        rng = np.random.default_rng(11)
        traj = reverse_sample(
            spec, population_score_fn(spec, init), 400, rng,
            horizon=2.0, n_paths=4000,
        )
        mu = np.concatenate(materialize_means(init))
        proj = traj.final @ mu
        balance = np.mean(proj > 0)
        assert balance == pytest.approx(0.5, abs=0.03)
        mean_plus = traj.final[proj > 0].mean(axis=0)
        stderr = 1.0 / math.sqrt((proj > 0).sum())
        assert np.max(np.abs(mean_plus - mu)) < 5 * stderr

    def test_memorization_distance_shrinks(self):
        spec, init = sym_model(g=0.3, d=4)
        rng = np.random.default_rng(12)
        ds = draw_mixture(init, 16, rng)
        fn = empirical_score_fn(ds, spec)

        def median_dist(steps):
            r = np.random.default_rng(100)
            traj = reverse_sample(spec, fn, steps, r, horizon=2.0, n_paths=64)
            dist = np.min(
                np.linalg.norm(traj.final[:, None, :] - ds.points[None], axis=2),
                axis=1,
            )
            return np.median(dist)

        d200, d800 = median_dist(200), median_dist(800)
        assert d800 < d200 / 2.0

    def test_weight_condensation_along_paths(self):
        spec, init = sym_model(g=0.3, d=4)
        rng = np.random.default_rng(13)
        ds = draw_mixture(init, 12, rng)
        traj = reverse_sample(
            spec, empirical_score_fn(ds, spec), 200, rng,
            horizon=2.0, n_paths=32, record_path=True,
        )
        medians = []
        for k in (100, 150, 180, 199):
            t = float(traj.times[k])
            _, w = empirical_score(ds, spec, traj.states[k], max(t, 1e-8))
            medians.append(np.median(w.max(axis=1)))
        assert all(b >= a - 1e-9 for a, b in zip(medians, medians[1:]))
        assert medians[-1] > 0.99

    def test_one_start_state_repeated_to_n_paths(self):
        spec, init = sym_model(d=2)
        traj = reverse_sample(
            spec, population_score_fn(spec, init), 3,
            np.random.default_rng(0), start=np.ones(4), n_paths=64,
        )
        assert traj.final.shape == (64, 4)
        assert np.all(traj.states[0] == 1.0)

    def test_three_dim_start_rejected_by_every_sampler(self):
        spec, init = sym_model(d=2)
        start = np.zeros((2, 3, 4))
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidArgument, match="start must be"):
            forward_sample(spec, start, 3, rng)
        with pytest.raises(InvalidArgument, match="start must be"):
            reverse_sample(spec, population_score_fn(spec, init), 3, rng, start=start)
        with pytest.raises(InvalidArgument, match="start must be"):
            flow_sample(spec, init, 3, start)

    def test_start_batch_must_match_n_paths_in_every_sampler(self):
        # a batch of 5 states with n_paths=64 used to return 5 paths
        spec, init = sym_model(d=2)
        start = np.zeros((5, 4))
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidArgument, match="start holds 5 states"):
            forward_sample(spec, start, 3, rng, n_paths=64)
        with pytest.raises(InvalidArgument, match="start holds 5 states"):
            reverse_sample(
                spec, population_score_fn(spec, init), 3, rng, start=start, n_paths=64
            )
        # n_paths equal to the batch, or left at 1, takes the batch as given
        assert forward_sample(spec, start, 3, rng, n_paths=5).final.shape == (5, 4)
        assert forward_sample(spec, start, 3, rng).final.shape == (5, 4)

    def test_sigma_w_zero_unconstructible(self):
        with pytest.raises(InvalidArgument):
            ModelSpec(1.0, Symmetric(0.0), 0.0)

    def test_deterministic_given_seed(self):
        spec, init = sym_model()
        a = reverse_sample(
            spec, population_score_fn(spec, init), 50,
            np.random.default_rng(5), n_paths=8,
        ).final
        b = reverse_sample(
            spec, population_score_fn(spec, init), 50,
            np.random.default_rng(5), n_paths=8,
        ).final
        assert np.array_equal(a, b)


class TestFlow:
    def test_bit_identical_repeats(self):
        spec, init = sym_model()
        start = np.random.default_rng(14).standard_normal((4, 2 * D))
        a = flow_sample(spec, init, 64, start).final
        b = flow_sample(spec, init, 64, start).final
        assert np.array_equal(a, b)

    def test_contraction_without_signal(self):
        # data variance below stationary, so the linear flow field contracts
        # (at the variance-preserving point the field vanishes identically)
        spec = ModelSpec(1.0, Symmetric(0.0), 2.0, dim_d=D)
        init = MixtureInit(0.5, 0.5, ModeMeans(0.0, 0.0), dim_d=D)
        start = np.random.default_rng(15).standard_normal((16, 2 * D)) * 2.0
        traj = flow_sample(spec, init, 128, start)
        assert np.all(
            np.linalg.norm(traj.final, axis=1) < np.linalg.norm(start, axis=1)
        )

    def test_mode_projections_available(self):
        spec, init = sym_model(g=0.5, d=4)
        start = np.random.default_rng(16).standard_normal((8, 8))
        traj = flow_sample(spec, init, 32, start, record_path=True)
        pp = Block2.exchange(0.5, 0.5)  # projector on the plus mode
        for state in traj.states:
            x, y = split_channels(state, 4)
            ux, uy = pp.apply(x, y)
            assert ux.shape == (8, 4)


def conditional_components(spec, init, x, t, moments=None):
    """Mixture representation of P_t(y | x): weights (m, 2), component
    means (m, 2, d) and the conditional variance."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    u, gain, delta, c_yx = _cell_mixture(spec, init, x, t, moments)
    means = gain * x[..., None, :] + np.array([[1.0], [-1.0]]) * delta
    return _class_weights(u), means, c_yx


class TestConditional:
    def test_decoupled_reduces_to_population_of_y(self):
        # at g=0 the weights still carry the class posterior from x, so
        # feed a class-neutral x to recover the marginal y-channel score
        spec, init = aniso_model(g=0.0, theta=0.0)
        rng = np.random.default_rng(17)
        x = np.zeros(D)
        y = rng.standard_normal(D)
        s = conditional_score(spec, init, x, y, 0.6)
        ms = diffusion_kernel(spec, init, 0.6)
        mu_y = materialize_means(init)[1] * math.exp(-0.6)
        c22 = ms.c.a22
        expected = -(y - mu_y * np.tanh(y @ mu_y / c22)) / c22
        assert np.allclose(s, expected, atol=1e-12)

    def test_score_zero_at_dominant_mode_center(self):
        spec, init = aniso_model(g=0.5, theta=0.3)
        ms = diffusion_kernel(spec, init, 0.4)
        mu_x, _ = materialize_means(init)
        x = 30.0 * mu_x  # overwhelming evidence for the + class
        w, means, c_yx = conditional_components(spec, init, x, 0.4, ms)
        assert w[0, 0] > 1 - 1e-12
        s = conditional_score(spec, init, x, means[0, 0], 0.4, ms)
        assert np.max(np.abs(s)) < 1e-10

    def test_gradient_check(self):
        spec, init = aniso_model()
        rng = np.random.default_rng(18)
        eps = 1e-5
        worst = 0.0
        for _ in range(25):
            x = rng.standard_normal(D)
            y = rng.standard_normal(D)
            t = rng.uniform(0.05, 2.0)
            s = conditional_score(spec, init, x, y, t)
            for j in range(D):
                yp, ym = y.copy(), y.copy()
                yp[j] += eps
                ym[j] -= eps
                num = (
                    conditional_log_density(spec, init, x, yp, t)
                    - conditional_log_density(spec, init, x, ym, t)
                ) / (2 * eps)
                worst = max(worst, abs(num - s[j]) / (1.0 + abs(s[j])))
        assert worst < 1e-6


def _full_mean(plane, d):
    """d-vector of per-dimension plane coordinates: first two axes, norm sqrt(d)."""
    v = np.zeros(d)
    k = min(d, 2)
    v[:k] = math.sqrt(d) * np.asarray(plane)[:k]
    return v


def _log_space_mixture(ms, d, x, y):
    """P_t(y | x) written out as two components in log space, no floor.

    Class log-weights from |x -+ mu_x|^2 / (2 C11), per-component residuals
    and a logsumexp.  Returns weights (m, 2), means (m, 2, d), score (m, d)
    and log density (m,) for x, y broadcast against each other.
    """
    c11, c12, c22 = ms.c.a11, ms.c.a12, ms.c.a22
    gain = c12 / c11
    c_yx = c22 - c12 * c12 / c11
    mu_x, mu_y = _full_mean(ms.mu_x, d), _full_mean(ms.mu_y, d)
    x, y = np.broadcast_arrays(np.atleast_2d(x), np.atleast_2d(y))
    signs = np.array([1.0, -1.0])[:, None, None]
    log_w = -0.5 * np.sum((x - signs * mu_x) ** 2, axis=-1) / c11  # (2, m)
    log_w -= np.logaddexp(log_w[0], log_w[1])
    means = signs * mu_y + gain * (x - signs * mu_x)  # (2, m, d)
    resid = y - means
    log_joint = (
        log_w - 0.5 * np.sum(resid**2, axis=-1) / c_yx
        - 0.5 * d * math.log(2.0 * math.pi * c_yx)
    )
    log_p = np.logaddexp(log_joint[0], log_joint[1])
    post = np.exp(log_joint - log_p)
    score = -np.sum(post[..., None] * resid, axis=0) / c_yx
    return np.exp(log_w).T, np.swapaxes(means, 0, 1), score, log_p


def _rel(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


class TestConditionalClosedForm:
    def test_far_conditioning_point_matches_mpmath(self):
        # class log-odds of 974: a 1e-300 floor on the normalised weights
        # picks the wrong component here (relative score error 1.14)
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 60
        d, t = 512, 0.05
        spec, init = aniso_model(g=0.5, theta=0.0, d=d)
        mu_x0, mu_y0 = materialize_means(init)
        x, y = mu_x0, -0.69 * mu_y0
        ms = diffusion_kernel(spec, init, t)
        c11, c12, c22 = (mp.mpf(v) for v in (ms.c.a11, ms.c.a12, ms.c.a22))
        gain = c12 / c11
        c_yx = c22 - c12 * c12 / c11
        mu_x = [mp.mpf(v) for v in _full_mean(ms.mu_x, d)]
        mu_y = [mp.mpf(v) for v in _full_mean(ms.mu_y, d)]
        xs, ys = [mp.mpf(v) for v in x], [mp.mpf(v) for v in y]
        log_w, log_joint, resid = [], [], []
        for s in (1, -1):
            lw = -sum((xi - s * mi) ** 2 for xi, mi in zip(xs, mu_x)) / (2 * c11)
            r = [yi - (s * myi + gain * (xi - s * mxi))
                 for xi, yi, mxi, myi in zip(xs, ys, mu_x, mu_y)]
            log_w.append(lw)
            log_joint.append(
                lw - sum(ri * ri for ri in r) / (2 * c_yx)
                - d * mp.log(2 * mp.pi * c_yx) / 2
            )
            resid.append(r)
        assert log_w[0] - log_w[1] > 900
        log_p = mp.log(mp.exp(log_joint[0]) + mp.exp(log_joint[1]))
        post = [mp.exp(lj - log_p) for lj in log_joint]
        score_ref = np.array(
            [float(-(post[0] * r0 + post[1] * r1) / c_yx)
             for r0, r1 in zip(*resid)]
        )
        log_p_ref = float(log_p - mp.log(mp.exp(log_w[0]) + mp.exp(log_w[1])))
        assert _rel(conditional_score(spec, init, x, y, t), score_ref) <= 1e-12
        assert _rel(conditional_log_density(spec, init, x, y, t), log_p_ref) <= 1e-12

    @pytest.mark.parametrize("d", [1, 2, 5, 32])
    def test_matches_log_space_mixture(self, d):
        rng = np.random.default_rng(100 + d)
        for _ in range(12):
            g = rng.uniform(-1.5, 1.5)
            # one dimension holds only the first plane axis
            theta = 0.0 if d == 1 else rng.uniform(0.0, math.pi)
            t = rng.uniform(0.02, 3.0)
            spec, init = aniso_model(g=g, theta=theta, d=d)
            ms = diffusion_kernel(spec, init, t)
            many = 3.0 * rng.standard_normal((7, d))
            one = 3.0 * rng.standard_normal(d)
            for x, y in ((one, many), (many, one), (many, many)):
                w, means, score, log_p = _log_space_mixture(ms, d, x, y)
                assert _rel(conditional_score(spec, init, x, y, t), score) <= 1e-12
                got = conditional_log_density(spec, init, x, y, t)
                assert np.max(np.abs(got - log_p) / np.abs(log_p)) <= 1e-12
            w, means, _, _ = _log_space_mixture(ms, d, many, many)
            w_got, means_got, _ = conditional_components(spec, init, many, t)
            assert np.max(np.abs(w_got - w)) <= 1e-12
            assert _rel(means_got, means) <= 1e-12


class TestConditionalReverse:
    def test_decoupled_matches_unconditional_marginal(self):
        # with g = 0 the generated y marginal follows the y-channel mixture;
        # class information still flows through the x-posterior weights,
        # which sharpen late in the reverse pass, so a small transient
        # shrinkage of the mean survives at finite step count
        cfg = ConditionalRunConfig(
            dim_d=8, m2=4.0, theta=0.0,
            schedule=ScheduleSpec("constant", 0.0, 0.0),
            steps=400, trials=2000, chunk=500,
        )
        out = conditional_reverse_sample(cfg, np.random.default_rng(19))
        y0 = out["y0"]
        init = out["init"]
        mu_y = materialize_means(init)[1]
        proj = y0 @ mu_y
        assert np.mean(proj > 0) == pytest.approx(0.5, abs=0.05)
        assert np.mean(y0, axis=0) == pytest.approx(0.0, abs=0.3)
        mean_plus = y0[proj > 0].mean(axis=0)
        cos = mean_plus @ mu_y / (
            np.linalg.norm(mean_plus) * np.linalg.norm(mu_y)
        )
        assert cos > 0.99
        assert np.linalg.norm(mean_plus) == pytest.approx(
            np.linalg.norm(mu_y), rel=0.1
        )
        # marginal per-dimension second moment vs the exact mixture value
        second = np.mean(np.sum(y0 * y0, axis=1)) / cfg.dim_d
        assert second == pytest.approx(1.0 + cfg.m2, rel=0.08)

    def test_step_halving_stability(self):
        cfg400 = ConditionalRunConfig(
            dim_d=8, theta=math.pi, schedule=ScheduleSpec("constant", 0.5, 1.0),
            steps=400, trials=1500, chunk=500,
        )
        cfg800 = ConditionalRunConfig(
            dim_d=8, theta=math.pi, schedule=ScheduleSpec("constant", 0.5, 1.0),
            steps=800, trials=1500, chunk=500,
        )
        out4 = conditional_reverse_sample(cfg400, np.random.default_rng(20))
        out8 = conditional_reverse_sample(cfg800, np.random.default_rng(20))
        mu_y = materialize_means(out4["init"])[1]
        mu_x = materialize_means(out4["init"])[0]

        def accuracy(out):
            sx = np.sign(out["x0"] @ mu_x)
            sy = np.sign(out["y0"] @ mu_y)
            return np.mean(sx == sy)

        a4, a8 = accuracy(out4), accuracy(out8)
        assert abs(a4 - a8) < 4 * math.sqrt(0.25 / 1500) * 2

    def test_scheduled_run_works(self):
        cfg = ConditionalRunConfig(
            dim_d=4, theta=0.5, schedule=ScheduleSpec("late", 0.5, 1.0),
            steps=100, trials=200, chunk=100,
        )
        out = conditional_reverse_sample(cfg, np.random.default_rng(21))
        assert out["y0"].shape == (200, 4)
        assert np.all(np.isfinite(out["y0"]))

    @pytest.mark.parametrize("horizon, steps", [(10.0, 3), (50.0, 20)])
    def test_long_steps_stay_positive_definite(self, horizon, steps):
        # h = 10/3 and 5/2 lie past RK4's stability limit for the covariance
        # rate 2 beta (about 1.39 / beta); the exact step map is stable at
        # any h, so c_yx stays > 0
        cfg = ConditionalRunConfig(
            dim_d=4, theta=0.5, schedule=ScheduleSpec("late", 0.5, 5.0),
            horizon=horizon, steps=steps, trials=4, chunk=4,
        )
        spec, init = cfg.model()
        _, c, _ = stacked_moments([spec], init, np.linspace(0.0, horizon, steps + 1))
        assert np.all(c[..., 1, 1] - c[..., 0, 1] ** 2 / c[..., 0, 0] > 0.0)
        out = conditional_reverse_sample(cfg, np.random.default_rng(0))
        assert np.all(np.isfinite(out["x0"]))
        assert np.all(np.isfinite(out["y0"]))

    def test_each_cell_matches_its_group_slice(self):
        # every cell run alone equals its slice of the group run bit for bit:
        # several chunks, odd d and a switch time off the grid; one off-plane
        # column (d = 3) in a 12-cell group; a single step with a chunk that
        # does not divide the trials
        four = (("constant", 0.0), ("constant", 0.5), ("late", 1.0), ("early", 0.5))
        twelve = tuple(
            (kind, g0) for kind in ("constant", "late", "early") for g0 in (0.0, 0.3, 0.6, 1.0)
        )
        for d, schedules, steps, trials, chunk in (
            (5, four, 12, 23, 10), (3, twelve, 12, 23, 10), (5, twelve, 1, 7, 3),
        ):
            cfgs = [
                ConditionalRunConfig(
                    dim_d=d, theta=0.9, schedule=ScheduleSpec(kind, g0, 0.7),
                    steps=steps, trials=trials, chunk=chunk,
                )
                for kind, g0 in schedules
            ]
            group = conditional_reverse_group(cfgs, np.random.default_rng(5))
            assert group["y0"].shape == (len(cfgs), trials, d)
            for j, cfg in enumerate(cfgs):
                alone = conditional_reverse_sample(cfg, np.random.default_rng(5))
                assert np.array_equal(alone["x0"], group["x0"])
                assert np.array_equal(alone["labels"], group["labels"])
                assert np.array_equal(alone["y0"], group["y0"][j])
                m_alone, m_group = alone["moments0"], group["moments0"][j]
                assert np.array_equal(m_alone.mu_y, m_group.mu_y)
                assert (m_alone.s, m_alone.q, m_alone.c) == (m_group.s, m_group.q, m_group.c)
                assert alone["spec"] == group["specs"][j]
            # the cells really differ, so the comparison above has teeth
            assert not np.array_equal(group["y0"][0], group["y0"][2])

    def test_group_cells_differ_only_in_schedule(self):
        a = ConditionalRunConfig(dim_d=4, steps=4, trials=4, chunk=4)
        with pytest.raises(InvalidArgument, match="only in their schedule"):
            conditional_reverse_group([a, replace(a, theta=0.5)], np.random.default_rng(0))
        with pytest.raises(InvalidArgument):
            conditional_reverse_group([], np.random.default_rng(0))

    def test_aligned_strong_signal_baseline_accuracy(self):
        # at g = 0 the class posterior carried by the conditioning channel
        # drives generation, so a strong aligned signal yields near-perfect
        # alignment accuracy already at baseline
        cfg = ConditionalRunConfig(
            dim_d=8, m2=4.0, theta=0.0,
            schedule=ScheduleSpec("constant", 0.0, 0.0),
            steps=300, trials=600, chunk=300,
        )
        out = conditional_reverse_sample(cfg, np.random.default_rng(22))
        mu_x, mu_y = materialize_means(out["init"])
        s_x = np.sign(out["x0"] @ mu_x)
        s_y = np.sign(out["y0"] @ mu_y)
        assert np.mean(s_x == s_y) > 0.9


def _rk4_oracle(specs, init, grid):
    """RK4 on the moment ODEs dmu = M mu, dC = M C + C M^T + sW2 I and dQ
    alike, as three stacks, with one relaxation block built per step and
    spec at the step midpoint, as ``stacked_moments`` holds the coupling."""

    def rhs(m, noise, mu, c, q):
        mt = np.swapaxes(m, -1, -2)
        return m @ mu, m @ c + c @ mt + noise, m @ q + q @ mt + noise

    m_steps = np.empty((grid.size - 1, len(specs), 2, 2))
    for k in range(grid.size - 1):
        t_mid = 0.5 * (grid[k] + grid[k + 1])
        for j, spec in enumerate(specs):
            m_steps[k, j] = spec.relaxation(t_mid).as_array()
    noise = np.array([spec.sigma_w2 for spec in specs])[:, None, None] * np.eye(2)
    mu = np.empty((grid.size, len(specs), 2, 2))
    c = np.empty_like(mu)
    q = np.empty_like(mu)
    mu[0] = np.stack(init.mean_plane())
    c[0] = init.sigma0().as_array()
    q[0] = 0.0
    for k in range(grid.size - 1):
        h = grid[k + 1] - grid[k]
        m = m_steps[k]
        state = (mu[k], c[k], q[k])
        k1 = rhs(m, noise, *state)
        k2 = rhs(m, noise, *(v + 0.5 * h * dv for v, dv in zip(state, k1)))
        k3 = rhs(m, noise, *(v + 0.5 * h * dv for v, dv in zip(state, k2)))
        k4 = rhs(m, noise, *(v + h * dv for v, dv in zip(state, k3)))
        for out, v, a, b, e, f in zip((mu, c, q), state, k1, k2, k3, k4):
            out[k + 1] = v + (h / 6.0) * (a + 2.0 * b + 2.0 * e + f)
    return mu, 0.5 * (c + np.swapaxes(c, -1, -2)), 0.5 * (q + np.swapaxes(q, -1, -2))


def _group_oracle(configs, rng):
    """``conditional_reverse_group`` as first written: each reverse step
    forms the mixture law from full d-vectors and allocates every
    temporary, and each cell keeps its own class weights.  The moments
    are the library's ``stacked_moments``, so this tests the loop alone.

    Returns x0, y0, the labels and, per coordinate of y0, the magnitude
    of its linear part: past the mean plane y0 is linear in the draws,
    y <- a_i y + b_i x_i + noise, and the magnitude runs that recursion
    on |a_i|, on h (sW2 |gain_i| / c_yx,i + |g_i|) (the terms that b_i
    sums, so that cancellation in b_i does not hide their rounding) and
    on the absolute draws, through |x_i| bounded the same way."""
    config = configs[0]
    specs = [cfg.model()[0] for cfg in configs]
    init = config.model()[1]
    d, n_steps, beta, sw2 = config.dim_d, config.steps, config.beta, config.sigma_w2
    h = config.horizon / n_steps
    grid = np.linspace(0.0, config.horizon, n_steps + 1)
    mu, c, q = stacked_moments(specs, init, grid)
    c11, c12, c22 = (c[:, :, i, j, None, None] for i, j in ((0, 0), (0, 1), (1, 1)))
    px, py = mu[:, :, None, 0], mu[:, :, None, 1]
    g = np.array([[spec.coupling_at(float(t)) for spec in specs] for t in grid])
    g = g[:, :, None, None]

    def vectors(plane):
        out = np.zeros(plane.shape[:-1] + (d,))
        out[..., 0] = math.sqrt(d) * plane[..., 0]
        if d >= 2:
            out[..., 1] = math.sqrt(d) * plane[..., 1]
        return out

    def mixture(idx, x):
        gain = c12[idx] / c11[idx]
        c_yx = c22[idx] - c12[idx] * c12[idx] / c11[idx]
        mu_x, mu_y = vectors(px[idx]), vectors(py[idx])
        u = np.sum(x * mu_x, axis=-1, keepdims=True) / c11[idx]
        return u, gain, mu_y - gain * mu_x, c_yx

    mu_x0 = vectors(np.asarray(init.mean_plane()[0]))
    decay = math.exp(-beta * h)
    trans_sd = math.sqrt(sw2 * -math.expm1(-2.0 * beta * h) / (2.0 * beta))
    xs, ys, mags, labels = [], [], [], []
    remaining = config.trials
    while remaining > 0:
        m = min(config.chunk, remaining)
        remaining -= m
        s = np.where(rng.uniform(size=m) < 0.5, 1.0, -1.0)
        x = s[:, None] * mu_x0 + math.sqrt(config.sigma2) * rng.standard_normal((m, d))
        x_path, x_mag = [x], [np.abs(x)]
        for _ in range(n_steps):
            z = rng.standard_normal((m, d))
            x = decay * x + trans_sd * z
            x_path.append(x)
            x_mag.append(decay * x_mag[-1] + trans_sd * np.abs(z))
        u, gain, delta, c_yx = mixture(n_steps, x)
        w_plus = np.exp(-np.logaddexp(0.0, -2.0 * u[..., 0]))
        pick_plus = rng.uniform(size=m) < w_plus
        y = gain * x + np.where(pick_plus[..., None], delta, -delta)
        z = rng.standard_normal((m, d))
        y = y + np.sqrt(c_yx) * z
        mag = np.abs(gain) * x_mag[n_steps] + np.sqrt(c_yx) * np.abs(z)
        for k in range(n_steps):
            idx = n_steps - k
            x_t = x_path[idx]
            u, gain, delta, c_yx = mixture(idx, x_t)
            r = y - gain * x_t
            a = u + np.sum(r * delta, axis=-1, keepdims=True) / c_yx
            score = (np.tanh(a) * delta - r) / c_yx
            y = y + h * (beta * y - g[idx] * x_t + sw2 * score)
            mag = (np.abs(1.0 + h * (beta - sw2 / c_yx)) * mag
                   + h * (sw2 * np.abs(gain) / c_yx + np.abs(g[idx])) * x_mag[idx])
            if k < n_steps - 1:
                z = rng.standard_normal((m, d))
                y = y + math.sqrt(sw2) * math.sqrt(h) * z
                mag = mag + math.sqrt(sw2) * math.sqrt(h) * np.abs(z)
        xs.append(x_path[0])
        ys.append(y)
        mags.append(mag)
        labels.append(s)
    return (np.concatenate(xs), np.concatenate(ys, axis=1), np.concatenate(labels),
            np.concatenate(mags, axis=1))


class TestGroupOracle:
    """The plane loop and off-plane weights against the allocating d-wide
    forms they replaced, and the stacked moments against a per-spec copy
    of the step map and against RK4.  x0, the labels and the plane
    coordinates of y0 match bit for bit (per-step allocation churn shows
    in no peak-memory figure, so this equality is its guard); the other
    coordinates of y0 are summed in another order, so they match within
    a rounding bound."""

    SCHEDULES = [("constant", 0.0), *[(kind, g0) for g0 in (0.2, 0.5, 1.0)
                                       for kind in ("constant", "late", "early")]]

    @staticmethod
    def _cells(runs, trials, d, steps=12):
        return [
            ConditionalRunConfig(
                dim_d=d, theta=0.9 if d > 1 else 0.0,
                schedule=ScheduleSpec(kind, g0, 0.7),
                steps=steps, trials=trials, chunk=10,
            )
            for kind, g0 in runs
        ]

    @staticmethod
    def _check(cells, seed):
        d, steps = cells[0].dim_d, cells[0].steps
        p = min(d, 2)
        out = conditional_reverse_group(cells, np.random.default_rng(seed))
        x0, y0, labels, mag = _group_oracle(cells, np.random.default_rng(seed))
        assert out["x0"].tobytes() == x0.tobytes()
        assert out["labels"].tobytes() == labels.tobytes()
        assert out["y0"].shape == y0.shape == (len(cells), x0.shape[0], d)
        plane = np.ascontiguousarray(out["y0"][..., :p])
        assert plane.tobytes() == np.ascontiguousarray(y0[..., :p]).tobytes()
        # Both forms compute one linear function of the draws.  Each takes
        # at most 20 rounded operations per step along every term (the
        # loop's step, the X recursion, the weights' products and sums and
        # the contraction), and an error made at a step reaches y0 scaled
        # as the terms that ``mag`` sums, so to first order the two differ
        # by at most 20 (steps + 2) eps mag.
        bound = 20 * (steps + 2) * np.finfo(float).eps * mag[..., p:]
        assert np.all(np.abs(out["y0"][..., p:] - y0[..., p:]) <= bound)

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 32], ids=lambda d: f"d{d}")
    @pytest.mark.parametrize("trials", [7, 23])
    @pytest.mark.parametrize(
        "runs",
        [[("constant", 0.5)], [("late", 1.0)], [("early", 0.5)], SCHEDULES],
        ids=["constant", "late", "early", "ten-cells"],
    )
    def test_group_matches_allocating_loop(self, runs, trials, d):
        self._check(self._cells(runs, trials, d), 31)

    def test_long_run_matches_allocating_loop(self):
        # 800 steps, as in the sweep: the off-plane terms pass through
        # every step, so this is where the rounding gap is widest
        self._check(self._cells(self.SCHEDULES, 23, 5, steps=800), 33)

    COUPLINGS = pytest.mark.parametrize(
        "couplings",
        [
            [Symmetric(0.3)],
            [Anisotropic(g) for g in (0.0, 0.4, -1.3)],
            [Scheduled(ScheduleSpec(kind, 0.7, 1.0)) for kind in ("late", "early")]
            + [Symmetric(-0.2)],
        ],
        ids=["symmetric", "anisotropic", "mixed"],
    )

    @staticmethod
    def _model(couplings):
        specs = [ModelSpec(1.2, cpl, 1.5, dim_d=4) for cpl in couplings]
        return specs, MixtureInit(1.0, 0.7, AngledMeans(1.0, 0.8, 0.9), dim_d=4)

    @COUPLINGS
    def test_moments_match_per_spec_step_map(self, couplings):
        specs, init = self._model(couplings)
        grid = np.linspace(0.0, 2.0, 41)
        for got, want in zip(stacked_moments(specs, init, grid),
                             _step_map_oracle(specs, init, grid)):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @COUPLINGS
    def test_rk4_gap_shrinks_as_h_to_the_fourth(self, couplings):
        # RK4 on the same held couplings differs from the exact step map
        # by its own global error, O(h^4): 16x less per halving of h
        specs, init = self._model(couplings)
        gaps = []
        for points in (41, 81, 161):
            grid = np.linspace(0.0, 2.0, points)
            exact, rk4 = stacked_moments(specs, init, grid), _rk4_oracle(specs, init, grid)
            gaps.append(np.max([np.abs(a - b).max(axis=(0, 2, 3)) for a, b in zip(exact, rk4)],
                               axis=0))
        for coarse, fine in zip(gaps, gaps[1:]):
            assert np.all((14.0 < coarse / fine) & (coarse / fine < 18.0))


def _step_map_oracle(specs, init, grid):
    """``stacked_moments`` one spec at a time: per step, Phi = e^{M h} and
    Q(h) from the closed forms, applied as mu <- Phi mu, C <- Phi C Phi^T
    + Q(h) and Q <- Phi Q Phi^T + Q(h) on that spec's 2x2 blocks."""
    h = np.diff(grid)
    t_mid = 0.5 * (grid[:-1] + grid[1:])
    mu = np.empty((grid.size, len(specs), 2, 2))
    c = np.empty_like(mu)
    q = np.empty_like(mu)
    for j, spec in enumerate(specs):
        beta = np.full(h.shape, spec.beta)  # array arithmetic, as in a stack
        g = spec.coupling_at(t_mid)
        phi = np.empty(h.shape + (2, 2))
        q_h = np.empty(h.shape + (2, 2))
        if isinstance(spec.coupling, Symmetric):
            exps, qs = [], []
            for lam in (spec.coupling.g - spec.beta, -spec.coupling.g - spec.beta):
                tau = -2.0 * lam
                exps.append(np.exp(lam * h))
                qs.append(spec.sigma_w2 * (-np.expm1(-tau * h) / tau))
            for out, (plus, minus) in ((phi, exps), (q_h, qs)):
                out[:, 0, 0] = out[:, 1, 1] = 0.5 * (plus + minus)
                out[:, 0, 1] = out[:, 1, 0] = 0.5 * (plus - minus)
        else:
            decay = np.exp(-beta * h)
            phi[:] = 0.0
            phi[:, 0, 0] = phi[:, 1, 1] = decay
            phi[:, 1, 0] = decay * (g * h)
            q11, q12, q22 = _aniso_q(beta, spec.sigma_w2, g, _q_parts(beta, h))
            q_h[:, 0, 0], q_h[:, 0, 1], q_h[:, 1, 0], q_h[:, 1, 1] = q11, q12, q12, q22
        mu[0, j] = np.stack(init.mean_plane())
        c[0, j] = init.sigma0().as_array()
        q[0, j] = 0.0
        for k in range(h.size):
            mu[k + 1, j] = phi[k] @ mu[k, j]
            c[k + 1, j] = (phi[k] @ c[k, j]) @ phi[k].T + q_h[k]
            q[k + 1, j] = (phi[k] @ q[k, j]) @ phi[k].T + q_h[k]
    return mu, 0.5 * (c + np.swapaxes(c, -1, -2)), 0.5 * (q + np.swapaxes(q, -1, -2))


class TestStationary:
    def test_symmetric_blocks(self):
        spec, _ = sym_model(g=0.5, d=2)
        block = stationary_cov(spec)
        # per-mode variances sW2/tau_pm, tau_pm = 2 (beta -+ g), along the
        # eigenvectors (1, +-1)/sqrt(2): the eigenvalues a11 +- a12
        assert block.a11 == block.a22 and block.a12 == block.a21
        assert block.a11 + block.a12 == pytest.approx(2.0)
        assert block.a11 - block.a12 == pytest.approx(2.0 / 3.0)

    @pytest.mark.parametrize("beta, sigma_w2", [(1e-300, 1e308), (1e-160, 2.0)])
    def test_out_of_range_refused(self, beta, sigma_w2):
        # sW2 / (2 beta) or (g / beta)^2 overflows
        with pytest.raises(InvalidArgument):
            stationary_cov(ModelSpec(beta, Anisotropic(0.5), sigma_w2))

    @pytest.mark.parametrize("beta, g", [(1e150, 0.5), (1e120, 1.0), (1e200, 1e200)])
    def test_finite_past_beta_cubed_overflow(self, beta, g):
        # beta^3 overflows, but every entry of Q(inf) = [[sW2/(2 beta),
        # sW2 g/(4 beta^2)], [., sW2/(2 beta) + sW2 g^2/(4 beta^3)]] is a
        # normal double: against those entries in exact rationals
        block = stationary_cov(ModelSpec(beta, Anisotropic(g), 2.0))
        b, g, sw2 = Fraction(beta), Fraction(g), Fraction(2.0)
        want = [sw2 / (2 * b), sw2 * g / (4 * b**2), sw2 / (2 * b) + sw2 * g**2 / (4 * b**3)]
        assert block.a12 == block.a21
        assert [block.a11, block.a12, block.a22] == pytest.approx(
            [float(w) for w in want], rel=1e-15
        )

    def test_anisotropic_matches_long_time_q(self):
        from oudiff.moments import transition_cov

        spec = ModelSpec(1.0, Anisotropic(0.8), 2.0, dim_d=2)
        q = transition_cov(spec, 80.0)
        block = stationary_cov(spec)
        assert np.max(np.abs(q.as_array() - block.as_array())) < 1e-12
