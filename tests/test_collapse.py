import itertools
import json
import math

import numpy as np
import pytest

from oudiff.blockmat import schur_complement
from oudiff.cli import dispatch
from oudiff.collapse import (
    KIND_CONDITIONAL,
    KIND_JOINT_ANISO,
    KIND_JOINT_SYMMETRIC,
    LOG_RESIDUAL_TOL,
    CollapseParams,
    _solve,
    cgf,
    chi,
    collapse_bound,
    collapse_time_conditional,
    collapse_time_det,
    collapse_time_mode,
    collapse_time_symmetric,
)
from oudiff.errors import CgfDomainError, InvalidArgument, NoCollapse, UnsupportedShape
from oudiff.moments import (
    Anisotropic,
    MixtureInit,
    ModeMeans,
    ModelSpec,
    Scheduled,
    ScheduleSpec,
    Symmetric,
    diffusion_kernel,
)


def params(alpha=1.0, ratio=1.0, g=0.0, beta=1.0, coupling=Symmetric, sigma2_y=None):
    sw2 = 1.0
    spec = ModelSpec(beta=beta, coupling=coupling(g), sigma_w2=sw2)
    sy2 = ratio * sw2 if sigma2_y is None else sigma2_y
    init = MixtureInit(ratio * sw2, sy2, ModeMeans(1.0, 0.0))
    return CollapseParams(alpha=alpha, ratio=ratio, spec=spec, init=init)


def rate_at_saddle(p, t):
    """Large-deviation rate at the inverse-temperature-1 saddle: -L_t(1) - 1/2."""
    return -cgf(p, 1.0, t) - 0.5


T_REF = 0.5 * math.log(1.0 + 2.0 / (math.e**2 - 1.0))  # 0.136136...


class TestChi:
    def test_substitution_value(self):
        # ratio=1, g=0 (tau=2); at exp(2t) = 2 each chi equals 2
        p = params()
        t = 0.5 * math.log(2.0)
        chip, chim = chi(p, t)
        assert chip == pytest.approx(2.0, rel=1e-14)
        assert chim == pytest.approx(2.0, rel=1e-14)

    def test_limits(self):
        p = params(g=0.4)
        tiny = chi(p, 1e-9)
        assert tiny[0] > 1e8 and tiny[1] > 1e8
        late = chi(p, 60.0)
        assert late[0] == pytest.approx(0.0, abs=1e-20)
        assert late[1] == pytest.approx(0.0, abs=1e-20)

    def test_ordering_under_coupling(self):
        p = params(g=0.5)
        for t in (0.05, 0.2, 1.0):
            chip, chim = chi(p, t)
            assert chip > chim

    def test_strictly_decreasing(self):
        p = params(g=0.3)
        grid = np.linspace(1e-3, 20.0, 400)
        vals = [chi(p, float(t)) for t in grid]
        assert all(a[0] > b[0] and a[1] > b[1] for a, b in zip(vals, vals[1:]))

    def test_rejects_nonpositive_time(self):
        with pytest.raises(InvalidArgument):
            chi(params(), 0.0)

    @pytest.mark.parametrize("g", [0.0, 0.5])
    def test_finite_past_expm1_range(self, g):
        # tau t passes 709.8, where e^{tau t} - 1 overflows a double
        p = params(g=g)
        assert all(math.isfinite(x) and x >= 0.0 for x in chi(p, 400.0))
        assert math.isfinite(cgf(p, 1.0, 400.0))


class TestCgf:
    def test_zero_at_zero_temperature_dual(self):
        assert cgf(params(g=0.2), 0.0, 0.7) == 0.0

    def test_saddle_slope_is_half(self):
        rng = np.random.default_rng(9)
        eps = 1e-6
        for _ in range(50):
            g = rng.uniform(0.0, 0.85)
            p = params(g=g, ratio=rng.uniform(0.4, 2.0))
            t = rng.uniform(0.02, 3.0)
            slope = (cgf(p, 1.0 + eps, t) - cgf(p, 1.0 - eps, t)) / (2 * eps)
            assert -slope == pytest.approx(0.5, abs=1e-6)

    def test_convex_in_beta(self):
        p = params(g=0.4)
        eps = 1e-4
        for beta_rem in (0.2, 1.0, 3.0):
            for t in (0.1, 0.8):
                second = (
                    cgf(p, beta_rem + eps, t)
                    - 2 * cgf(p, beta_rem, t)
                    + cgf(p, beta_rem - eps, t)
                ) / eps**2
                assert second >= -1e-10

    def test_domain_error(self):
        p = params(g=0.0)
        with pytest.raises(CgfDomainError):
            cgf(p, -10.0, 0.05)


class TestSymmetricCollapse:
    def test_reference_value(self):
        res = collapse_time_symmetric(params())
        assert res.t_c == pytest.approx(T_REF, abs=1e-9)
        assert res.residual <= 1e-12
        assert res.kind == KIND_JOINT_SYMMETRIC

    def test_weak_g_dependence(self):
        res = collapse_time_symmetric(params(g=0.5))
        assert res.t_c == pytest.approx(0.1362, abs=2e-4)

    def test_below_bound(self):
        for g in np.linspace(0.0, 0.9, 10):
            p = params(g=float(g))
            res = collapse_time_symmetric(p)
            assert res.t_c <= collapse_bound(p)

    def test_no_collapse_for_nonpositive_alpha(self):
        with pytest.raises(NoCollapse):
            collapse_time_symmetric(params(alpha=0.0))

    def test_saddle_rate_equals_alpha_at_root(self):
        for g in (0.0, 0.3, 0.7):
            p = params(g=g, alpha=0.8)
            res = collapse_time_symmetric(p)
            assert rate_at_saddle(p, res.t_c) == pytest.approx(0.8, abs=1e-10)


class TestModeCollapse:
    def test_decoupled_equals_joint(self):
        p = params()
        tp = collapse_time_mode(p, "+")
        tm = collapse_time_mode(p, "-")
        assert tp.t_c == pytest.approx(T_REF, abs=1e-12)
        assert tm.t_c == pytest.approx(T_REF, abs=1e-12)

    def test_reference_split_values(self):
        p = params(g=0.5)
        tp = collapse_time_mode(p, "+").t_c
        tm = collapse_time_mode(p, "-").t_c
        assert tp == pytest.approx(math.log(1.0 + 1.0 / (math.e**2 - 1.0)), rel=1e-12)
        assert tm == pytest.approx(
            math.log(1.0 + 3.0 / (math.e**2 - 1.0)) / 3.0, rel=1e-12
        )
        assert tp > tm

    def test_monotone_trends_in_g(self):
        gs = np.linspace(0.0, 0.9, 10)
        tps = [collapse_time_mode(params(g=float(g)), "+").t_c for g in gs]
        tms = [collapse_time_mode(params(g=float(g)), "-").t_c for g in gs]
        assert all(b > a for a, b in zip(tps, tps[1:]))
        assert all(b < a for a, b in zip(tms, tms[1:]))

    def test_joint_between_modes(self):
        for g in np.linspace(0.05, 0.85, 8):
            p = params(g=float(g))
            joint = collapse_time_symmetric(p).t_c
            tp = collapse_time_mode(p, "+").t_c
            tm = collapse_time_mode(p, "-").t_c
            assert min(tp, tm) <= joint + 1e-12
            assert joint <= max(tp, tm) + 1e-12


class TestBound:
    def test_reference(self):
        assert collapse_bound(params()) == pytest.approx(
            1.0 / (math.e**2 - 1.0), rel=1e-12
        )

    def test_large_alpha_vanishes(self):
        assert collapse_bound(params(alpha=40.0)) < 1e-30

    def test_limit_past_expm1_range(self):
        # expm1(2 alpha) overflows past alpha ~ 354.9; in range the bytes stay
        assert collapse_bound(params(alpha=354.0)) == 1.0 / math.expm1(708.0)
        assert collapse_bound(params(alpha=354.9)) == math.exp(-709.8)
        assert collapse_bound(params(alpha=400.0)) == 0.0

    @pytest.mark.parametrize("mode", ["+", "-"])
    @pytest.mark.parametrize("alpha", [354.9, 360.0, 400.0])
    def test_mode_refuses_underflowed_time(self, mode, alpha):
        # t_c ~ ratio e^{-2 alpha} is subnormal past alpha ~ 354.2 and 0 past ~ 372.6
        with pytest.raises(InvalidArgument, match=f"underflows at alpha={alpha!r}"):
            collapse_time_mode(params(alpha=alpha, g=0.5), mode)
        assert collapse_time_mode(params(alpha=354.0, g=0.5), mode).residual == 0.0

    @pytest.mark.parametrize(
        "solve, coupling",
        [(collapse_time_symmetric, Symmetric), (collapse_time_det, Symmetric),
         (collapse_time_det, Anisotropic), (collapse_time_conditional, Anisotropic)],
    )
    def test_solvers_refuse_huge_alpha(self, solve, coupling):
        with pytest.raises(InvalidArgument, match="root not bracketed"):
            solve(params(alpha=400.0, g=0.5, coupling=coupling))

    @pytest.mark.parametrize("alpha", [13.0, 14.0, 20.0])
    @pytest.mark.parametrize(
        "solve, coupling",
        [(collapse_time_symmetric, Symmetric), (collapse_time_det, Symmetric),
         (collapse_time_det, Anisotropic), (collapse_time_conditional, Anisotropic)],
    )
    def test_root_below_the_default_floor(self, solve, coupling, alpha):
        # at ratio 1, t_c falls below 1e-12 / beta past alpha ~ 13.8, where a
        # bracket floor used to refuse it; there tau t_c << 1, so every
        # route's root sits at the closed-form bound ratio / (e^{2 alpha} - 1)
        p = params(alpha=alpha, g=0.5, coupling=coupling)
        result = solve(p)
        assert result.residual <= LOG_RESIDUAL_TOL
        assert result.t_c == pytest.approx(collapse_bound(p), rel=1e-9)

    @pytest.mark.parametrize("solve", [collapse_time_det, collapse_time_conditional])
    def test_root_below_the_reach_of_linear_halvings(self, solve):
        # at beta = 1e70 the root (~8e-69) lies 67 decades below the bound
        # 0.16; 200 halvings of one bracket spanning them would not reach
        # it, so the bracket is [t, 2t], found in factors of 2 from the bound
        result = solve(params(g=0.5, beta=1e70, coupling=Anisotropic))
        assert result.residual <= LOG_RESIDUAL_TOL
        assert result.t_c == pytest.approx(8.000975857400566e-69, rel=1e-9)

    @pytest.mark.parametrize(
        "coupling, alpha, ratio, beta, g",
        [("symmetric", 2.499992633245675e-05, 0.0019522500006667926,
          2.813980931992716e60, 4.574907935711922),
         ("anisotropic", 2.499992633245675e-05, 0.0019522500006667926,
          2.813980931992716e60, 4.574907935711922),
         ("symmetric", 26.240882573093707, 27.549353016708338, 3.996618513992128e81, 0.0)],
    )
    def test_root_above_the_last_midpoint(self, capsys, coupling, alpha, ratio, beta, g):
        # a bracket [1e-12 / beta, bound + 1 / beta] would span some 60 to
        # 74 decades, and 200 linear halvings of it stop short with f > 0 at
        # the last midpoint; a [t, 2t] bracket does not.  g / beta < 2e-60,
        # so every route meets the per-mode closed form at g = 0
        argv = ["collapse", "--coupling", coupling, f"--alpha={alpha!r}",
                f"--ratio={ratio!r}", f"--beta={beta!r}", f"--g={g!r}"]
        assert dispatch(argv) == 0
        out = json.loads(capsys.readouterr().out)
        want = collapse_time_mode(params(alpha=alpha, ratio=ratio, beta=beta), "+").t_c
        assert out["t_c"] == pytest.approx(want, rel=1e-9)
        if coupling == "anisotropic":
            assert out["t_c_conditional"] == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("g", [0.0, 0.5])
    def test_alpha_far_below_the_absolute_tolerance(self, capsys, g):
        # past the root f ~ -4 alpha, inside 1e-12 at alpha = 1e-14, so the
        # tolerance scales with alpha: else the first midpoint (2.5e13) passes
        argv = ["collapse", "--alpha", "1e-14", "--ratio", "1", f"--g={g}"]
        assert dispatch(argv) == 0
        out = json.loads(capsys.readouterr().out)
        low, high = sorted((out["t_c_minus"], out["t_c_plus"]))
        assert low * (1.0 - 1e-9) <= out["t_c"] <= high * (1.0 + 1e-9)
        if g == 0.0:
            assert out["t_c"] == pytest.approx(16.11809565095832, rel=1e-9)

    @pytest.mark.parametrize(
        "solve, coupling",
        [(collapse_time_det, Symmetric), (collapse_time_det, Anisotropic),
         (collapse_time_conditional, Anisotropic)],
    )
    def test_small_alpha_on_the_pivot_routes(self, solve, coupling):
        # the pivot routes' f is log1p of the gap over the pivot, so it keeps
        # its relative precision near the root, where f ~ alpha: they meet
        # the eigenmode route far below alpha ~ 1e-8, where a difference of
        # logarithms rounds at ~1e-16 absolute
        for alpha in (1e-8, 1e-14, 1e-30, 1e-100):
            want = collapse_time_symmetric(params(alpha=alpha)).t_c
            assert solve(params(alpha=alpha, coupling=coupling)).t_c == pytest.approx(
                want, rel=1e-9
            )

    @pytest.mark.parametrize("beta", [1e156, 1e158, 1e200, 1e300])
    @pytest.mark.parametrize(
        "solve, coupling",
        [(collapse_time_det, Symmetric), (collapse_time_det, Anisotropic),
         (collapse_time_conditional, Anisotropic)],
    )
    def test_huge_beta_solved(self, solve, coupling, beta):
        # unscaled, det C and det Q near the root (t_c beta = ln(beta) / 2 - 0.58)
        # are subnormal from beta ~ 1e158 and 0 from ~ 1e200; the pivots of
        # the blocks scaled by 2 beta / sW2 stay of order one.  At g / beta
        # ~ 0 every route meets the symmetric one.
        p = params(g=0.5, beta=beta, coupling=coupling)
        result = solve(p)
        assert result.residual <= LOG_RESIDUAL_TOL
        assert result.t_c == pytest.approx(
            collapse_time_symmetric(params(g=0.5, beta=beta)).t_c, rel=1e-9
        )

    def test_huge_beta_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        beta, g = 1e300, 0.5
        t_c = collapse_time_det(params(g=g, beta=beta, coupling=Anisotropic)).t_c
        assert t_c == 3.448070442683215e-298
        with mp.workdps(50):
            b, gg = mp.mpf(beta), mp.mpf(g)

            def f(t):
                # 1/4 log(det C / det Q) - alpha with s2 = sW2 = 1, unscaled
                e = mp.exp(-2 * b * t)
                a = 2 * b * t
                k = 1 - e * (1 + a)
                h = 1 - e * (1 + a + a * a / 2)
                q11 = (1 - e) / (2 * b)
                q12 = gg * k / (4 * b**2)
                q22 = q11 + gg**2 * h / (4 * b**3)
                c11, c12, c22 = q11 + e, q12 + e * gg * t, q22 + e * (1 + (gg * t) ** 2)
                return mp.log((c11 * c22 - c12**2) / (q11 * q22 - q12**2)) / 4 - 1

            # in x = beta t, where the root is of order one (344.8)
            root = mp.findroot(lambda x: f(x / b), mp.mpf(t_c) * b) / b
            assert float(root) == pytest.approx(t_c, rel=1e-11)


class TestDetRoute:
    def test_symmetric_cross_check(self):
        for g in (0.0, 0.4, 0.8):
            p = params(g=g)
            a = collapse_time_symmetric(p).t_c
            b = collapse_time_det(p).t_c
            assert abs(a - b) < 1e-10

    def test_anisotropic_decoupled_reference(self):
        p = params(g=0.0, coupling=Anisotropic)
        res = collapse_time_det(p)
        assert res.kind == KIND_JOINT_ANISO
        assert res.t_c == pytest.approx(T_REF, abs=1e-9)

    def test_weak_g_dependence(self):
        base = collapse_time_det(params(g=0.0, coupling=Anisotropic)).t_c
        for g in np.linspace(0.0, 1.0, 6):
            t_c = collapse_time_det(params(g=float(g), coupling=Anisotropic)).t_c
            assert abs(t_c - base) / base < 0.05


class TestConditional:
    def test_decoupled_equals_single_channel(self):
        p = params(g=0.0, coupling=Anisotropic)
        res = collapse_time_conditional(p)
        assert res.kind == KIND_CONDITIONAL
        # at g=0 the y channel is one decoupled mode with tau = 2 beta
        single = math.log1p(1.0 * 2.0 / math.expm1(2.0)) / 2.0
        assert res.t_c == pytest.approx(single, abs=1e-10)

    def test_conditioning_reduces_collapse_time(self):
        for g in (0.3, 0.8, 1.5):
            p = params(g=g, coupling=Anisotropic)
            joint = collapse_time_det(p).t_c
            cond = collapse_time_conditional(p).t_c
            assert cond < joint

    def test_residual_contract(self):
        res = collapse_time_conditional(params(g=0.7, coupling=Anisotropic))
        assert res.residual <= 1e-12

    def test_rejects_symmetric(self):
        with pytest.raises(UnsupportedShape):
            collapse_time_conditional(params(g=0.2))


def block_f(p: CollapseParams, conditional: bool):
    """f(t) of the collapse routes on the unscaled blocks of
    ``diffusion_kernel``: 1/4 log(det C / det Q) - alpha, or with
    ``conditional`` 1/2 log(C_y|x / Q_y|x) - alpha from Schur complements."""

    def f(t: float) -> float:
        ms = diffusion_kernel(p.spec, p.init, t)
        if conditional:
            if ms.q.det <= 0.0 or ms.q.a11 <= 0.0:
                return float("inf")
            c_yx, _ = schur_complement(ms.c.a11, ms.c.a12, ms.c.a22)
            q_yx, _ = schur_complement(ms.q.a11, ms.q.a12, ms.q.a22)
            return 0.5 * (math.log(c_yx) - math.log(q_yx)) - p.alpha
        if ms.q.det <= 0.0:
            return float("inf")
        return 0.25 * (math.log(ms.c.det) - math.log(ms.q.det)) - p.alpha

    return f


# the grid of the CLI's collapse pin, and two unequal initial variances
ORACLE_GRID = [
    dict(beta=beta, g=g, alpha=alpha, ratio=ratio)
    for beta, g, alpha, ratio in itertools.product(
        (0.5, 1.0, 3.0, 7.0), (0.0, 0.2, -0.4, 1.5), (0.1, 1.0, 5.0, 13.0), (0.3, 1.0, 4.0)
    )
] + [
    dict(beta=1.0, g=g, alpha=alpha, ratio=1.0, sigma2_y=sy2)
    for g, alpha, sy2 in itertools.product((0.0, 0.6), (0.1, 1.0, 5.0), (0.05, 3.0))
]


class TestBlockOracle:
    @pytest.mark.parametrize(
        "solve, coupling, conditional, kind",
        [(collapse_time_det, Symmetric, False, KIND_JOINT_SYMMETRIC),
         (collapse_time_det, Anisotropic, False, KIND_JOINT_ANISO),
         (collapse_time_conditional, Anisotropic, True, KIND_CONDITIONAL)],
    )
    def test_scaled_pivots_match_the_block_route(self, solve, coupling, conditional, kind):
        for case in ORACLE_GRID:
            if coupling is Symmetric and abs(case["g"]) >= case["beta"]:
                continue  # refused as unstable by both
            p = params(coupling=coupling, **case)
            want = _solve(p, block_f(p, conditional), kind)
            got = solve(p)
            assert got.kind == kind
            assert got.residual <= LOG_RESIDUAL_TOL
            assert got.t_c == pytest.approx(want.t_c, rel=1e-11), case

    @pytest.mark.parametrize("solve", [collapse_time_det, collapse_time_conditional])
    def test_schedule_refused(self, solve):
        p = params(coupling=lambda g: Scheduled(ScheduleSpec("late", g, 0.5)), g=0.5)
        with pytest.raises(UnsupportedShape):
            solve(p)


class TestParams:
    def test_ratio_consistency_enforced(self):
        spec = ModelSpec(1.0, Symmetric(0.0), 2.0)
        init = MixtureInit(1.0, 1.0, ModeMeans(1.0, 0.0))
        with pytest.raises(InvalidArgument):
            CollapseParams(alpha=1.0, ratio=1.0, spec=spec, init=init)
        p = CollapseParams.from_model(spec, init, alpha=1.0)
        assert p.ratio == pytest.approx(0.5)
