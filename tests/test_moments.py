import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from oudiff.analysis import CloneConfig, clone_agreement
from oudiff.blockmat import mat_exp
from oudiff.collapse import CollapseParams, collapse_time_det, collapse_time_symmetric
from oudiff.errors import InvalidArgument, UnsupportedShape
from oudiff.moments import (
    Anisotropic,
    AngledMeans,
    MixtureInit,
    ModeMeans,
    ModelSpec,
    Scheduled,
    ScheduleSpec,
    Symmetric,
    _poly_tails,
    diffusion_kernel,
    kernel_K,
    mean_at,
    mode_kernels,
    moments_ode,
    stacked_moments,
    transition_cov,
)
from oudiff.sampler import forward_sample, stationary_cov


def quad_transition_cov(spec: ModelSpec, t: float) -> np.ndarray:
    """Adaptive-quadrature oracle for Q(t) = sW2 int_0^t e^{Ms} e^{M^T s} ds."""
    m = spec.relaxation().as_array()

    def integrand(i, j):
        def f(s):
            e = np.asarray(mat_exp(spec.relaxation(), s).as_array())
            return spec.sigma_w2 * (e @ e.T)[i, j]

        return f

    out = np.empty((2, 2))
    for i in range(2):
        for j in range(2):
            out[i, j], _ = quad(integrand(i, j), 0.0, t, epsabs=1e-12, epsrel=1e-12)
    return out


def rk4_lyapunov(spec: ModelSpec, sigma0: np.ndarray, t: float, n: int = 4000):
    """Dense matrix-ODE oracle for C(t)."""
    m = spec.relaxation().as_array()
    noise = spec.sigma_w2 * np.eye(2)
    c = sigma0.copy()
    h = t / n

    def rhs(cm):
        return m @ cm + cm @ m.T + noise

    for _ in range(n):
        k1 = rhs(c)
        k2 = rhs(c + 0.5 * h * k1)
        k3 = rhs(c + 0.5 * h * k2)
        k4 = rhs(c + h * k3)
        c = c + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return c


def _poly_tail_k_oracle(a):
    """The former ``moments._poly_tail_k``, kept as the bit-level oracle of
    ``_poly_tails``: 1 - e^{-a}(1 + a), series-evaluated below a=0.5."""
    direct = 1.0 - np.exp(-a) * (1.0 + a)
    term = a * a / 2.0
    series = term
    for n in range(3, 18):
        term = term * (-a) * (n - 1) / (n * (n - 2))
        series = series + term
    return np.where(a < 0.5, series, direct)


def _poly_tail_h_oracle(a):
    """The former ``moments._poly_tail_h``: 1 - e^{-a}(1 + a + a^2/2),
    series-evaluated below a=0.5 (the series cube as ``_cube`` took it)."""
    direct = 1.0 - np.exp(-a) * (1.0 + a + 0.5 * a * a)
    try:
        term = a**3 / 6.0
    except OverflowError:
        term = math.inf
    series = term
    for n in range(4, 19):
        term = term * (-a) * (n - 1) / (n * (n - 3))
        series = series + term
    return np.where(a < 0.5, series, direct)


def sym_model(beta=1.0, g=0.5, sw2=2.0, s2=1.0):
    spec = ModelSpec(beta=beta, coupling=Symmetric(g), sigma_w2=sw2)
    init = MixtureInit(sigma2_x=s2, sigma2_y=s2, mean_spec=ModeMeans(1.0, 0.0))
    return spec, init


def aniso_model(beta=1.0, g=1.0, sw2=1.0, s2=1.0, theta=0.0):
    spec = ModelSpec(beta=beta, coupling=Anisotropic(g), sigma_w2=sw2)
    init = MixtureInit(
        sigma2_x=s2, sigma2_y=s2, mean_spec=AngledMeans(1.0, 1.0, theta)
    )
    return spec, init


class TestModelSpec:
    def test_validation(self):
        with pytest.raises(InvalidArgument):
            ModelSpec(beta=-1.0, coupling=Symmetric(0.0), sigma_w2=1.0)
        with pytest.raises(InvalidArgument):
            ModelSpec(beta=1.0, coupling=Symmetric(0.0), sigma_w2=0.0)

    def test_stability_flag(self):
        assert ModelSpec(1.0, Symmetric(0.5), 1.0).is_stable
        assert not ModelSpec(1.0, Symmetric(1.2), 1.0).is_stable
        assert ModelSpec(1.0, Anisotropic(5.0), 1.0).is_stable

    @pytest.mark.parametrize(
        "entry",
        [
            lambda spec, init: stationary_cov(spec),
            lambda spec, init: forward_sample(spec, init, 4, np.random.default_rng(0)),
            lambda spec, init: collapse_time_symmetric(CollapseParams(1.0, 0.5, spec, init)),
            lambda spec, init: collapse_time_det(CollapseParams(1.0, 0.5, spec, init)),
            lambda spec, init: clone_agreement(
                spec, init, [0.5], CloneConfig(), np.random.default_rng(0)
            ),
        ],
        ids=["stationary_cov", "forward_sample", "collapse_mode_rates",
             "collapse_time_det", "clone_agreement"],
    )
    @pytest.mark.parametrize("g", [1.0, -1.5])
    def test_unstable_refused_by_one_check(self, entry, g):
        spec = ModelSpec(1.0, Symmetric(g), 1.0)
        init = MixtureInit(0.5, 0.5, ModeMeans(1.0, 1.0))
        message = f"symmetric coupling needs beta > |g|, got beta=1.0, g={g!r}"
        with pytest.raises(InvalidArgument) as info:
            entry(spec, init)
        assert str(info.value) == message

    def test_scheduled_value(self):
        sched = ScheduleSpec("late", 1.0, 1.0)
        spec = ModelSpec(1.0, Scheduled(sched), 1.0)
        assert spec.coupling_at(0.5) == 1.0
        assert spec.coupling_at(1.0) == 1.0
        assert spec.coupling_at(1.5) == 0.0


class TestMeanConversions:
    def test_mode_norm_roundtrip(self):
        init = MixtureInit(1.0, 1.0, AngledMeans(1.0, 1.0, 0.0))
        mp2, mm2 = init.mode_norms()
        assert mp2 == pytest.approx(2.0)
        assert mm2 == pytest.approx(0.0, abs=1e-15)

    def test_angled_orthogonal(self):
        init = MixtureInit(1.0, 1.0, AngledMeans(1.0, 1.0, math.pi / 2))
        mp2, mm2 = init.mode_norms()
        assert mp2 == pytest.approx(1.0)
        assert mm2 == pytest.approx(1.0)

    def test_modes_channel_stats(self):
        init = MixtureInit(1.0, 1.0, ModeMeans(1.0, 0.5))
        mxx, myy, mxy = init.channel_stats()
        assert mxx == pytest.approx(0.75)
        assert myy == pytest.approx(0.75)
        assert mxy == pytest.approx(0.25)

    def test_theta_range(self):
        with pytest.raises(InvalidArgument):
            AngledMeans(1.0, 1.0, -0.1)


class TestMeanAt:
    def test_identity_at_zero(self):
        spec, init = sym_model()
        mux, muy = mean_at(spec, init.mean_plane(), 0.0)
        ref_x, ref_y = init.mean_plane()
        assert np.allclose(mux, ref_x)
        assert np.allclose(muy, ref_y)

    def test_anisotropic_explicit(self):
        spec = ModelSpec(1.0, Anisotropic(1.0), 1.0)
        mux, muy = mean_at(spec, (1.0, 0.0), 1.0)
        assert mux == pytest.approx(math.exp(-1.0), abs=1e-15)
        assert muy == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_symmetric_mode_decay(self):
        # a pure common-mode mean decays as exp(lambda_plus t)
        spec, init = sym_model(g=0.5)
        mux, muy = mean_at(spec, init.mean_plane(), 1.3)
        ref_x, ref_y = init.mean_plane()
        factor = math.exp(-0.5 * 1.3)
        assert np.allclose(mux, factor * ref_x, atol=1e-14)
        assert np.allclose(muy, factor * ref_y, atol=1e-14)

    def test_negative_time_rejected(self):
        spec, init = sym_model()
        with pytest.raises(InvalidArgument):
            mean_at(spec, init.mean_plane(), -0.5)


class TestTransitionCov:
    def test_zero_at_zero(self):
        for spec, _ in (sym_model(), aniso_model()):
            q = transition_cov(spec, 0.0)
            assert np.allclose(q.as_array(), 0.0)

    def test_anisotropic_limits(self):
        spec, _ = aniso_model(beta=1.0, g=1.0, sw2=1.0)
        q = transition_cov(spec, 60.0)
        assert q.a11 == pytest.approx(0.5, abs=1e-12)
        assert q.a12 == pytest.approx(0.25, abs=1e-12)
        assert q.a22 == pytest.approx(0.75, abs=1e-12)

    @pytest.mark.parametrize(
        "coupling", [Symmetric(0.4), Symmetric(-0.6), Anisotropic(0.8), Anisotropic(2.5)]
    )
    def test_matches_quadrature(self, coupling):
        rng = np.random.default_rng(1)
        for _ in range(5):
            beta = rng.uniform(0.3, 2.0)
            g = coupling.g
            if isinstance(coupling, Symmetric):
                g = min(abs(g), 0.9 * beta) * math.copysign(1.0, g)
                spec = ModelSpec(beta, Symmetric(g), rng.uniform(0.5, 3.0))
            else:
                spec = ModelSpec(beta, Anisotropic(g), rng.uniform(0.5, 3.0))
            t = rng.uniform(0.05, 3.0)
            got = transition_cov(spec, t).as_array()
            want = quad_transition_cov(spec, t)
            assert np.max(np.abs(got - want)) < 1e-8

    def test_small_time_series_matches_direct(self):
        # series branch agrees with the direct formula where both are accurate
        for a in (0.3, 0.4, 0.499):
            k_direct = 1.0 - math.exp(-a) * (1.0 + a)
            h_direct = 1.0 - math.exp(-a) * (1.0 + a + 0.5 * a * a)
            _, k, h = _poly_tails(a)
            assert k == pytest.approx(k_direct, rel=1e-12)
            assert h == pytest.approx(h_direct, rel=1e-11)

        # arrays across both branches against 50 digits: the direct branch
        # at the a = 0.5 switch loses (1 - h)/h ~ 69 times ~2 ulp ~ 3e-14
        mp = pytest.importorskip("mpmath")
        a = np.concatenate(
            [np.geomspace(1e-12, 40.0, 400), [np.nextafter(0.5, 0.0), 0.5]]
        )
        _, got_k, got_h = _poly_tails(a)
        with mp.workdps(50):
            for x, k, h in zip(a.tolist(), got_k.tolist(), got_h.tolist()):
                x_mp = mp.mpf(x)
                e = mp.exp(-x_mp)
                want_k = 1 - e * (1 + x_mp)
                want_h = 1 - e * (1 + x_mp + x_mp**2 / 2)
                assert abs(k - want_k) <= 5e-14 * want_k, x
                assert abs(h - want_h) <= 5e-14 * want_h, x

    def test_limit_past_cube_overflow(self):
        # beta^3 and (2 beta t)^3 overflow a Python float past ~5.6e102; the
        # g^2 term of q22 and the unused series branch take their limits
        assert _poly_tails(1e120)[2] == 1.0
        q = transition_cov(ModelSpec(1e120, Anisotropic(0.5), 2.0), 1e-120)
        assert q.a22 == q.a11 == pytest.approx(-math.expm1(-2.0) / 1e120, rel=1e-14)
        assert q.a12 == pytest.approx((1.0 - 3.0 * math.exp(-2.0)) / 4e240, rel=1e-14)

    @staticmethod
    def _tail_inputs():
        rng = np.random.default_rng(3)
        below = np.concatenate([
            [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, np.nextafter(0.5, 0.0)],
            np.geomspace(1e-300, 0.49, 60),
            rng.uniform(0.0, 0.5, 60),
        ])
        above = np.concatenate(
            [[0.5, np.nextafter(0.5, 1.0), 1e3], np.geomspace(0.5, 1e3, 60),
             rng.uniform(0.5, 1e3, 60)]
        )
        return np.concatenate([below, above])

    @staticmethod
    def _same_bits(got, want):
        got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
        return got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", ["float", "numpy scalar", (), (-1,), (-1, 8)])
    def test_tails_match_former_loops_bit_for_bit(self, shape):
        # one recurrence for both series keeps every operation of the two
        # former loops in order, on Python floats, numpy scalars and 0-d,
        # 1-d and 2-d arrays
        a = self._tail_inputs()
        if shape == "float":
            inputs = a.tolist()
        elif shape == "numpy scalar":
            inputs = list(a)
        elif shape == ():
            inputs = [np.asarray(x) for x in a.tolist()]
        else:
            inputs = [a.reshape(shape)]
        for x in inputs:
            decay, k, h = _poly_tails(x)
            assert self._same_bits(decay, np.exp(-x)), x
            assert self._same_bits(k, _poly_tail_k_oracle(x)), x
            assert self._same_bits(h, _poly_tail_h_oracle(x)), x

    def test_tails_limit_past_overflow_without_warnings(self):
        # (1 + a + a^2/2) overflows past a ~ 1.9e154, where e^{-a} is long 0
        values = [1e154, 1e200, 1e308, math.inf]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for a in values + [np.array(values), np.array(values).reshape(2, 2)]:
                decay, k, h = _poly_tails(a)
                assert np.all(decay == 0.0) and np.all(k == 1.0) and np.all(h == 1.0)

    def test_entries_are_python_floats(self):
        for spec, _ in (sym_model(), aniso_model()):
            q = transition_cov(spec, 0.7)
            assert {type(v) for v in (q.a11, q.a12, q.a21, q.a22)} == {float}

    def test_tiny_time_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        beta, g, sw2 = 1.3, 0.9, 2.0
        spec = ModelSpec(beta, Anisotropic(g), sw2)
        for t in (1e-10, 1e-7, 1e-4, 1e-2):
            q = transition_cov(spec, t)
            a = mp.mpf(2) * beta * t
            u = 1 - mp.e**-a
            k = 1 - mp.e**-a * (1 + a)
            h = 1 - mp.e**-a * (1 + a + a * a / 2)
            q11 = sw2 * u / (2 * beta)
            q12 = sw2 * g * k / (4 * beta * beta)
            q22 = sw2 * (u / (2 * beta) + g * g * h / (4 * beta**3))
            assert abs(q.a11 - float(q11)) <= 1e-14 * max(float(q11), 1e-300)
            assert abs(q.a12 - float(q12)) <= 1e-12 * max(float(q12), 1e-300)
            assert abs(q.a22 - float(q22)) <= 1e-12 * max(float(q22), 1e-300)

    def test_monotone_noise_accumulation(self):
        # Q(t2) - Q(t1) is PSD for t2 > t1
        rng = np.random.default_rng(8)
        for spec, _ in (sym_model(g=0.6), aniso_model(g=1.7)):
            ts = np.sort(rng.uniform(0.0, 4.0, size=10))
            prev = transition_cov(spec, 0.0).as_array()
            for t in ts:
                cur = transition_cov(spec, float(t)).as_array()
                diff = cur - prev
                eig = np.linalg.eigvalsh(0.5 * (diff + diff.T))
                assert eig.min() > -1e-12
                prev = cur


class TestDiffusionKernel:
    def test_initial_condition(self):
        spec, init = sym_model()
        ms = diffusion_kernel(spec, init, 0.0)
        assert np.allclose(ms.c.as_array(), init.sigma0().as_array())

    def test_variance_preserving_identity(self):
        spec = ModelSpec(1.0, Symmetric(0.0), 2.0)
        init = MixtureInit(1.0, 1.0, ModeMeans(1.0, 0.0))
        for t in (0.0, 0.3, 1.0, 5.0):
            ms = diffusion_kernel(spec, init, t)
            assert ms.c.a11 == pytest.approx(1.0, abs=1e-14)
            assert ms.c.a22 == pytest.approx(1.0, abs=1e-14)
            assert abs(ms.c.a12) < 1e-14

    @pytest.mark.parametrize("model", [sym_model(g=0.3), aniso_model(g=1.2)])
    def test_matches_lyapunov_ode(self, model):
        spec, init = model
        for t in (0.25, 1.0, 2.5):
            got = diffusion_kernel(spec, init, t).c.as_array()
            want = rk4_lyapunov(spec, init.sigma0().as_array(), t)
            assert np.max(np.abs(got - want)) < 1e-8

    def test_symmetric_commutes_with_projectors(self):
        spec, init = sym_model(g=0.7)
        modes = spec.modes()
        pp = modes.projector_plus()
        pm = modes.projector_minus()
        for t in (0.1, 0.9, 3.0):
            c = diffusion_kernel(spec, init, t).c
            resid = (pp @ c @ pm).as_array()
            assert np.max(np.abs(resid)) < 1e-12


class TestModeKernels:
    def test_initial(self):
        spec, init = sym_model(s2=1.7)
        init = MixtureInit(1.7, 1.7, ModeMeans(1.0, 0.0))
        cp, cm = mode_kernels(spec, init, 0.0)
        assert cp == pytest.approx(1.7)
        assert cm == pytest.approx(1.7)

    def test_closed_value(self):
        spec, init = sym_model(beta=1.0, g=0.5, sw2=2.0)
        cp, cm = mode_kernels(spec, init, 1.0)
        assert cp == pytest.approx(2.0 - math.exp(-1.0), abs=1e-14)

    def test_stationary_limit(self):
        spec, init = sym_model(beta=1.0, g=0.5, sw2=2.0)
        cp, cm = mode_kernels(spec, init, 80.0)
        assert cp == pytest.approx(2.0, abs=1e-12)  # sW2 / tau_plus
        assert cm == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_rejects_unequal_variances(self):
        spec = ModelSpec(1.0, Symmetric(0.3), 2.0)
        init = MixtureInit(1.0, 1.5, ModeMeans(1.0, 0.0))
        with pytest.raises(UnsupportedShape):
            mode_kernels(spec, init, 0.5)

    def test_rejects_anisotropic(self):
        spec, init = aniso_model()
        with pytest.raises(UnsupportedShape):
            mode_kernels(spec, init, 0.5)


class TestKernelK:
    def compose_K(self, spec, init, t):
        from oudiff.blockmat import block_inverse

        c = diffusion_kernel(spec, init, t).c
        cinv = block_inverse(c)
        inner = spec.relaxation().add(cinv.scale(spec.sigma_w2))
        return (cinv @ block_inverse(inner) @ cinv).as_array()

    def scalar_K(self, spec, init, t):
        """K(t) by the scalar formula kernel_K was first written as."""
        beta, g, sw2 = spec.beta, spec.coupling.g, spec.sigma_w2
        c = diffusion_kernel(spec, init, t).c
        c11, c12, c22 = c.a11, c.a12, c.a22
        delta = c11 * c22 - c12 * c12
        d = beta * beta * delta - beta * sw2 * (c11 + c22) + g * sw2 * c12 + sw2 * sw2
        n11 = sw2 * c22 - beta * (c22 * c22 + c12 * c12) + g * c12 * c22
        n12 = c12 * (beta * (c11 + c22) - g * c12 - sw2)
        n21 = beta * c12 * (c11 + c22) - sw2 * c12 - g * c11 * c22
        n22 = sw2 * c11 - beta * (c11 * c11 + c12 * c12) + g * c11 * c12
        inv = 1.0 / (delta * d)
        return [[n11 * inv, n12 * inv], [n21 * inv, n22 * inv]]

    def test_matches_composition(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            spec = ModelSpec(
                rng.uniform(0.3, 2.0), Anisotropic(rng.uniform(-2.0, 2.0)),
                rng.uniform(0.5, 3.0),
            )
            init = MixtureInit(
                rng.uniform(0.3, 1.5), rng.uniform(0.3, 1.5),
                AngledMeans(1.0, 1.0, 0.3),
            )
            t = rng.uniform(0.0, 3.0)
            got = kernel_K(spec, init, t).as_array()
            want = self.compose_K(spec, init, t)
            scale = np.max(np.abs(want)) + 1e-30
            assert np.max(np.abs(got - want)) / scale < 1e-10
            assert got.tobytes() == np.array(self.scalar_K(spec, init, t)).tobytes()

    def test_decoupled_is_diagonal(self):
        spec, init = aniso_model(g=0.0, sw2=2.0)
        k = kernel_K(spec, init, 0.8)
        assert k.a12 == pytest.approx(0.0, abs=1e-15)
        assert k.a21 == pytest.approx(0.0, abs=1e-15)

    def test_reproduces_kappa0(self):
        # sW2 * mu^T K(0) mu equals the explicit kappa(0) closed form
        from oudiff.speciation import kappa0_aniso

        spec = ModelSpec(1.0, Anisotropic(0.7), 2.0)
        init = MixtureInit(1.0, 1.0, AngledMeans(1.0, 1.0, 0.4))
        k = kernel_K(spec, init, 0.0)
        mxx, myy, mxy = init.channel_stats()
        quad_form = k.a11 * mxx + (k.a12 + k.a21) * mxy + k.a22 * myy
        assert spec.sigma_w2 * quad_form == pytest.approx(
            kappa0_aniso(spec, init), abs=1e-12
        )


class TestMomentsOde:
    @pytest.mark.parametrize(
        "coupling, ref",
        [(Scheduled(ScheduleSpec("constant", 0.7, 0.0)), Anisotropic(0.7)),
         (Symmetric(0.4), Symmetric(0.4))],
        ids=["scheduled", "symmetric"],
    )
    def test_constant_reduces_to_closed_form(self, coupling, ref):
        # each step is exact, so even 40 steps give the closed form to rounding
        spec = ModelSpec(1.0, coupling, 2.0)
        ref_spec = ModelSpec(1.0, ref, 2.0)
        init = MixtureInit(1.0, 0.6, AngledMeans(1.0, 1.0, 0.9))
        grid = np.linspace(0.0, 2.0, 41)
        states = moments_ode(spec, init, grid)
        for idx in (5, 20, 40):
            t = grid[idx]
            want = diffusion_kernel(ref_spec, init, float(t))
            assert np.max(np.abs(states[idx].c.as_array() - want.c.as_array())) < 1e-13
            assert np.max(np.abs(states[idx].q.as_array() - want.q.as_array())) < 1e-13
            assert np.allclose(states[idx].mu_x, want.mu_x, rtol=0.0, atol=1e-14)
            assert np.allclose(states[idx].mu_y, want.mu_y, rtol=0.0, atol=1e-14)

    def test_zero_schedule_decouples(self):
        spec = ModelSpec(1.0, Scheduled(ScheduleSpec("constant", 0.0, 0.0)), 2.0)
        init = MixtureInit(1.0, 1.0, AngledMeans(1.0, 1.0, 0.0))
        states = moments_ode(spec, init, np.linspace(0.0, 2.0, 201))
        for st in states:
            assert abs(st.q.a12) < 1e-14
            assert abs(st.c.a12) < 1e-14

    def test_late_schedule_piecewise_oracle(self):
        # integrate a late schedule and compare against gluing two
        # constant-coupling closed forms at the switch time
        g0, t0, horizon = 0.5, 1.0, 2.0
        sched = ScheduleSpec("late", g0, t0)
        spec = ModelSpec(1.0, Scheduled(sched), 2.0)
        init = MixtureInit(1.0, 1.0, AngledMeans(1.0, 1.0, 0.6))
        grid = np.linspace(0.0, horizon, 801)
        states = moments_ode(spec, init, grid)

        on_spec = ModelSpec(1.0, Anisotropic(g0), 2.0)
        off_spec = ModelSpec(1.0, Anisotropic(0.0), 2.0)
        at_switch = diffusion_kernel(on_spec, init, t0)

        idx_switch = 400
        got = states[idx_switch]
        assert np.max(np.abs(got.c.as_array() - at_switch.c.as_array())) < 1e-8

        # past the switch: C(t) = e^{M0 dt} C(t0) e^{M0^T dt} + Q0(dt)
        dt = 0.75
        e = mat_exp(off_spec.relaxation(), dt)
        want_c = (
            e.matmul(at_switch.c).matmul(e.transpose()).as_array()
            + transition_cov(off_spec, dt).as_array()
        )
        idx = 700  # t = 1.75
        assert np.max(np.abs(states[idx].c.as_array() - want_c)) < 1e-10

        # continuity at the switch
        before = states[idx_switch - 1].c.as_array()
        after = states[idx_switch + 1].c.as_array()
        assert np.max(np.abs(after - before)) < 0.05

    @pytest.mark.parametrize("theta", [0.4, 2.6])
    def test_stack_matches_each_spec_alone(self, theta):
        # each spec of a mixed stack, in either stack order, reproduces its
        # own moments_ode bit for bit: nothing leaks between cells
        specs = [
            ModelSpec(1.0, Scheduled(ScheduleSpec(kind, g0, 0.7)), 2.0, 5)
            for kind in ("constant", "late", "early")
            for g0 in (0.0, 0.5, 1.0)
        ]
        init = MixtureInit(1.0, 1.0, AngledMeans(1.0, 1.0, theta), 5)
        grid = np.linspace(0.0, 2.0, 31)  # t0 = 0.7 falls between grid points
        for order in (specs, specs[::-1]):
            mu, c, q = stacked_moments(order, init, grid)
            assert mu.shape == c.shape == q.shape == (grid.size, len(order), 2, 2)
            for j, spec in enumerate(order):
                for k, st in enumerate(moments_ode(spec, init, grid)):
                    assert np.array_equal(mu[k, j, 0], st.mu_x)
                    assert np.array_equal(mu[k, j, 1], st.mu_y)
                    assert np.array_equal(c[k, j], st.c.as_array())
                    assert np.array_equal(q[k, j], st.q.as_array())
                    assert np.array_equal(c[k, j] - q[k, j], st.s.as_array())

    def test_grid_validation(self):
        spec = ModelSpec(1.0, Scheduled(ScheduleSpec("constant", 0.0, 0.0)), 1.0)
        init = MixtureInit(1.0, 1.0, AngledMeans(1.0, 1.0, 0.0))
        with pytest.raises(InvalidArgument):
            moments_ode(spec, init, [0.0, 0.5, 0.4])
        with pytest.raises(InvalidArgument):
            moments_ode(spec, init, [0.5, 1.0])

    def test_closed_forms_reject_scheduled(self):
        spec = ModelSpec(1.0, Scheduled(ScheduleSpec("late", 1.0, 1.0)), 1.0)
        with pytest.raises(UnsupportedShape):
            transition_cov(spec, 1.0)
