import math

import numpy as np
import pytest

from oudiff.collapse import (
    KIND_CONDITIONAL,
    KIND_JOINT_ANISO,
    KIND_JOINT_SYMMETRIC,
    LOG_RESIDUAL_TOL,
    CollapseParams,
    alpha_from_counts,
    cgf,
    chi,
    collapse_bound,
    collapse_time_conditional,
    collapse_time_det,
    collapse_time_mode,
    collapse_time_symmetric,
    rate_at_saddle,
)
from oudiff.errors import CgfDomainError, InvalidArgument, NoCollapse, UnsupportedShape
from oudiff.moments import (
    Anisotropic,
    MixtureInit,
    ModeMeans,
    ModelSpec,
    Symmetric,
)


def params(alpha=1.0, ratio=1.0, g=0.0, beta=1.0, coupling=Symmetric):
    sw2 = 1.0
    spec = ModelSpec(beta=beta, coupling=coupling(g), sigma_w2=sw2)
    init = MixtureInit(ratio * sw2, ratio * sw2, ModeMeans(1.0, 0.0))
    return CollapseParams(alpha=alpha, ratio=ratio, spec=spec, init=init)


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
        # at ratio 1, t_c falls below the bracket floor 1e-12 / beta past
        # alpha ~ 13.8; there tau t_c << 1, so every route's root sits at
        # the closed-form bound ratio / (e^{2 alpha} - 1)
        p = params(alpha=alpha, g=0.5, coupling=coupling)
        result = solve(p)
        assert result.residual <= LOG_RESIDUAL_TOL
        assert result.t_c == pytest.approx(collapse_bound(p), rel=1e-9)

    @pytest.mark.parametrize("solve", [collapse_time_det, collapse_time_conditional])
    def test_root_below_the_reach_of_linear_halvings(self, solve):
        # at beta = 1e70 the root (~8e-69) lies below what 200 halvings of
        # [1e-82, 0.16] reach; the solver brackets it as [t, 2t] below the
        # last midpoint and bisects again
        result = solve(params(g=0.5, beta=1e70, coupling=Anisotropic))
        assert result.residual <= LOG_RESIDUAL_TOL
        assert result.t_c == pytest.approx(8.000975857400566e-69, rel=1e-9)

    def test_unsolved_bisection_refused(self):
        # at beta = 1e160 det C and det Q near the root (~1.8e-158) are
        # subnormal, so f jumps by ~1e-5 between neighbouring floats: no
        # midpoint meets the tolerance, and the last one is refused
        with pytest.raises(InvalidArgument, match="collapse equation not solved"):
            collapse_time_det(params(g=0.5, beta=1e160, coupling=Anisotropic))


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


class TestParams:
    def test_alpha_from_counts(self):
        assert alpha_from_counts(16, 4) == pytest.approx(math.log(16) / 8.0)
        with pytest.raises(InvalidArgument):
            alpha_from_counts(0, 4)

    def test_ratio_consistency_enforced(self):
        spec = ModelSpec(1.0, Symmetric(0.0), 2.0)
        init = MixtureInit(1.0, 1.0, ModeMeans(1.0, 0.0))
        with pytest.raises(InvalidArgument):
            CollapseParams(alpha=1.0, ratio=1.0, spec=spec, init=init)
        p = CollapseParams.from_model(spec, init, alpha=1.0)
        assert p.ratio == pytest.approx(0.5)
