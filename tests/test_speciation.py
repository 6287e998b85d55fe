import math
import tracemalloc

import numpy as np
import pytest

from oudiff.blockmat import block_inverse
from oudiff.errors import (
    DegenerateDrift,
    DegenerateRate,
    InvalidArgument,
    UnstableAtTime,
    UnsupportedShape,
)
from oudiff.moments import (
    Anisotropic,
    AngledMeans,
    MixtureInit,
    ModeMeans,
    ModelSpec,
    Scheduled,
    ScheduleSpec,
    Symmetric,
    _q_parts,
    diffusion_kernel,
    kernel_K,
)
from oudiff.speciation import (
    KAPPA_TOL,
    REGIME_NO_SPECIATION,
    REGIME_SPECIATES,
    REGIME_UNSTABLE,
    _aniso_kappa,
    _bisect,
    _kappa_grid,
    _scan,
    _scan_grid,
    _scan_outcome,
    _symmetric_kappa,
    g_crit_aligned,
    kappa,
    kappa0_aniso,
    phase_diagram,
    speciation_time,
    speciation_time_pure_mode,
    stability_check,
)

BASE = dict(beta=1.0, sigma_w2=2.0)


def sym(g, m_plus2=1.0, m_minus2=0.0, s2=1.0):
    spec = ModelSpec(beta=BASE["beta"], coupling=Symmetric(g), sigma_w2=BASE["sigma_w2"])
    init = MixtureInit(s2, s2, ModeMeans(m_plus2, m_minus2))
    return spec, init


def aniso(g, theta=0.0, m_x2=1.0, m_y2=1.0, s2=1.0, sw2=2.0):
    spec = ModelSpec(beta=1.0, coupling=Anisotropic(g), sigma_w2=sw2)
    init = MixtureInit(s2, s2, AngledMeans(m_x2, m_y2, theta))
    return spec, init


def block_kappa(spec, init, t):
    """kappa(t) through the ``Block2`` chain, as ``kappa()`` was first
    written, kept as the oracle of the closed forms: symmetric coupling
    composes sW2 C^-1 (M + sW2 C^-1)^-1 C^-1 with ``block_inverse``,
    anisotropic coupling reads ``kernel_K``, both on ``diffusion_kernel``'s
    C(t) and mean plane.  Raises UnstableAtTime where a symmetric mode fails
    tail confinement, c_pm (lambda_pm c_pm + sW2) <= 0 with c_pm = c11 +- c12,
    and DegenerateDrift (from ``kernel_K``) where D(t) vanishes."""
    ms = diffusion_kernel(spec, init, t)
    mxx, myy, mxy = ms.mean_stats()
    sw2 = spec.sigma_w2
    if isinstance(spec.coupling, Symmetric):
        beta, g, c = spec.beta, spec.coupling.g, ms.c
        for lam, c_mode in ((-beta + g, c.a11 + c.a12), (-beta - g, c.a11 - c.a12)):
            if c_mode * (lam * c_mode + sw2) <= 0.0:
                raise UnstableAtTime(t)
        cinv = block_inverse(c)
        inner = spec.relaxation().add(cinv.scale(sw2))
        k = cinv.matmul(block_inverse(inner).matmul(cinv.scale(sw2)))
    else:
        k = kernel_K(spec, init, t).scale(sw2)
    return k.a11 * mxx + (k.a12 + k.a21) * mxy + k.a22 * myy


class TestKappa:
    def test_zero_mean_is_zero(self):
        spec, _ = sym(0.3)
        init = MixtureInit(1.0, 1.0, ModeMeans(0.0, 0.0))
        for t in (0.0, 0.5, 2.0):
            assert kappa(spec, init, t) == pytest.approx(0.0, abs=1e-15)

    def test_decoupled_closed_form(self):
        # g=0, s2=1, sW2=2: c(t)=1 and kappa(t) = 2 e^{-2t} m_plus^2
        spec, init = sym(0.0, m_plus2=1.0)
        for t in (0.0, 0.4, 1.1):
            assert kappa(spec, init, t) == pytest.approx(
                2.0 * math.exp(-2.0 * t), rel=1e-12
            )

    def test_closed_form_value_at_zero(self):
        spec, init = sym(0.0, m_plus2=1.0, m_minus2=1.0)
        assert kappa(spec, init, 0.0) == pytest.approx(4.0)
        spec, init = sym(0.5, m_plus2=1.0, m_minus2=0.0)
        assert kappa(spec, init, 0.0) == pytest.approx(4.0 / 3.0)

    def test_symmetric_form_broadcasts(self):
        # couplings x statistics x times in one call, each entry as its
        # own float call; m_pm^2 = (mxx + myy)/2 +- mxy from the statistics
        gs = np.array([-0.4, 0.0, 0.3])[:, None, None]
        inits = [MixtureInit(1.0, 1.0, ModeMeans(*m)) for m in ((1.0, 0.0), (0.3, 0.8))]
        stats = np.array([init.channel_stats() for init in inits]).T[:, None, :, None]
        ts = np.array([0.0, 0.2, 1.5])
        values, bad = _symmetric_kappa(1.0, 2.0, 1.0, gs, ts, stats)
        # the confinement mask depends on the coupling and time alone
        assert values.shape == (3, 2, 3) and bad.shape == (3, 1, 3) and not bad.any()
        for i, g in enumerate(gs.ravel().tolist()):
            for j, init in enumerate(inits):
                for k, t in enumerate(ts.tolist()):
                    one, one_bad = _symmetric_kappa(1.0, 2.0, 1.0, g, t, init.channel_stats())
                    assert values[i, j, k] == pytest.approx(one, rel=1e-15) and not one_bad
                    assert one == pytest.approx(
                        block_kappa(ModelSpec(1.0, Symmetric(g), 2.0), init, t), rel=1e-12
                    )

    def test_matrix_matches_closed(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            beta = rng.uniform(0.4, 2.0)
            g = rng.uniform(-0.9, 0.9) * beta
            s2 = rng.uniform(0.3, 1.2)
            sw2 = rng.uniform(1.2, 3.0)
            if not s2 < sw2 / (beta + abs(g)):
                continue
            spec = ModelSpec(beta, Symmetric(g), sw2)
            init = MixtureInit(s2, s2, ModeMeans(rng.uniform(0, 2), rng.uniform(0, 2)))
            t = rng.uniform(0.0, 4.0)
            assert kappa(spec, init, t) == pytest.approx(
                block_kappa(spec, init, t), abs=1e-10, rel=1e-10
            )

    def test_anisotropic_matches_block_kappa(self):
        rng = np.random.default_rng(1)
        for _ in range(60):
            spec = ModelSpec(rng.uniform(0.4, 2.0), Anisotropic(rng.uniform(-3.0, 3.0)),
                             rng.uniform(1.2, 3.0))
            init = MixtureInit(rng.uniform(0.3, 1.2), rng.uniform(0.3, 1.2), AngledMeans(
                rng.uniform(0, 2), rng.uniform(0, 2), rng.uniform(0, math.pi)))
            t = rng.uniform(0.0, 4.0)
            try:
                want = block_kappa(spec, init, t)
            except DegenerateDrift:
                with pytest.raises(DegenerateDrift):
                    kappa(spec, init, t)
                continue
            assert kappa(spec, init, t) == pytest.approx(want, abs=1e-10, rel=1e-10)

    @pytest.mark.parametrize("t", [math.nan, -1.0, math.inf])
    @pytest.mark.parametrize("model", [sym(0.3), aniso(0.5)])
    def test_refuses_bad_time(self, model, t):
        with pytest.raises(InvalidArgument, match="must be finite and >= 0"):
            kappa(*model, t)

    def test_refuses_non_constant_coupling(self):
        spec = ModelSpec(1.0, Scheduled(ScheduleSpec("late", 0.5, 1.0)), 2.0)
        init = MixtureInit(1.0, 1.0, ModeMeans(1.0, 0.0))
        message = "kappa needs a constant coupling kind"
        with pytest.raises(UnsupportedShape, match=message):
            kappa(spec, init, 0.5)
        with pytest.raises(UnsupportedShape, match=message):
            speciation_time(spec, init)

    def test_anisotropic_at_zero_matches_closed(self):
        spec, init = aniso(0.5, theta=0.4)
        assert kappa(spec, init, 0.0) == pytest.approx(
            kappa0_aniso(spec, init), rel=1e-12
        )

    def test_closed_form_at_stability_boundary_raises(self):
        # s2 = 2 sW2 / tau_plus: the plus-mode denominator is exactly 0 at t = 0
        spec = ModelSpec(1.0, Symmetric(0.5), 2.0)
        init = MixtureInit(4.0, 4.0, ModeMeans(1.0, 1.0))
        with pytest.raises(UnstableAtTime):
            kappa(spec, init, 0.0)
        res = speciation_time(spec, init)
        assert res.regime == REGIME_UNSTABLE and res.unstable_t == 0.0

    def test_unstable_raises(self):
        spec = ModelSpec(1.0, Symmetric(0.5), 2.0)
        init = MixtureInit(2.0, 2.0, ModeMeans(1.0, 0.0))  # s2 > sW2/(beta+g)
        with pytest.raises(Exception):
            # far enough out the tail margin turns negative
            for t in np.linspace(0.0, 10.0, 200):
                kappa(spec, init, float(t))


class TestKappa0Aniso:
    def test_reference_value(self):
        spec, init = aniso(0.0)
        assert kappa0_aniso(spec, init) == pytest.approx(4.0)

    def test_alignment_dependence(self):
        for g in (0.3, 0.8, 1.4):
            for theta in (0.0, 0.7, 2.5):
                spec, init = aniso(g, theta=theta)
                assert kappa0_aniso(spec, init) == pytest.approx(
                    4.0 - 2.0 * g * math.cos(theta), rel=1e-12
                )

    def test_orthogonal_insensitive_to_g(self):
        for g in (0.0, 0.5, 1.5):
            spec, init = aniso(g, theta=math.pi / 2)
            assert kappa0_aniso(spec, init) == pytest.approx(4.0, rel=1e-12)

    def test_degenerate_rate(self):
        spec = ModelSpec(1.0, Anisotropic(0.5), 1.0)
        init = MixtureInit(1.0, 1.0, AngledMeans(1.0, 1.0, 0.0))
        with pytest.raises(DegenerateRate):
            kappa0_aniso(spec, init)  # r = sW2/s2 = 1 = beta


class TestStability:
    def test_stable_case(self):
        spec, init = sym(0.5)
        rep = stability_check(spec, init)
        assert rep.stable

    def test_unstable_coupling(self):
        spec = ModelSpec(1.0, Symmetric(1.2), 2.0)
        init = MixtureInit(1.0, 1.0, ModeMeans(1.0, 0.0))
        rep = stability_check(spec, init)
        assert not rep.stable

    def test_boundary_is_unstable(self):
        # s2 exactly sW2/(beta+|g|): the closed-form bound is strict
        spec = ModelSpec(1.0, Symmetric(0.5), 2.0)
        init = MixtureInit(4.0 / 3.0, 4.0 / 3.0, ModeMeans(1.0, 0.0))
        rep = stability_check(spec, init)
        assert not rep.stable

    def test_violation_starts_at_zero(self):
        # c_pm(t) moves from s2 toward sW2/tau_pm, so the tail condition
        # fails somewhere only if it fails at t = 0
        rng = np.random.default_rng(11)
        kinds = set()
        for _ in range(300):
            beta = rng.uniform(0.3, 2.5)
            g = rng.uniform(-1.3, 1.3) * beta
            s2 = rng.uniform(0.1, 3.0)
            spec = ModelSpec(beta, Symmetric(g), rng.uniform(0.3, 3.0))
            rep = stability_check(spec, MixtureInit(s2, s2, ModeMeans(1.0, 0.5)))
            assert rep.stable == (spec.is_stable and s2 < spec.sigma_w2 / (beta + abs(g)))
            kinds.add((rep.stable, spec.is_stable))
        assert kinds == {(True, True), (False, True), (False, False)}


class TestSpeciationTime:
    def test_common_mode_reference(self):
        spec, init = sym(0.0, m_plus2=1.0, m_minus2=0.0)
        res = speciation_time(spec, init)
        assert res.regime == REGIME_SPECIATES
        assert res.t_s == pytest.approx(0.5 * math.log(2.0), abs=1e-9)

    def test_both_modes_reference(self):
        spec, init = sym(0.0, m_plus2=1.0, m_minus2=1.0)
        res = speciation_time(spec, init)
        assert res.t_s == pytest.approx(math.log(2.0), abs=1e-9)

    def test_zero_mean_no_speciation(self):
        spec, _ = sym(0.3)
        init = MixtureInit(1.0, 1.0, ModeMeans(0.0, 0.0))
        res = speciation_time(spec, init)
        assert res.regime == REGIME_NO_SPECIATION
        assert res.t_s is None

    def test_unstable_regime_reported(self):
        spec = ModelSpec(1.0, Symmetric(0.5), 2.0)
        init = MixtureInit(2.0, 2.0, ModeMeans(1.0, 0.0))
        res = speciation_time(spec, init)
        assert res.regime == REGIME_UNSTABLE
        assert res.unstable_t is not None

    def test_root_residual_and_bracketing(self):
        spec, init = sym(0.35, m_plus2=0.8, m_minus2=0.6)
        res = speciation_time(spec, init)
        assert abs(kappa(spec, init, res.t_s) - 1.0) <= 1e-10
        delta = 1e-4
        assert kappa(spec, init, res.t_s - delta) > 1.0
        assert kappa(spec, init, res.t_s + delta) < 1.0

    def test_monotone_decrease_under_invariant_condition(self):
        spec, init = sym(0.4, m_plus2=1.0, m_minus2=0.7)
        grid = np.linspace(0.0, 10.0, 1024)
        vals = [kappa(spec, init, float(t)) for t in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("coupling", [Symmetric(0.0), Anisotropic(0.0)])
    def test_overflowing_default_window_is_refused(self, coupling):
        # 10 / beta overflows at a subnormal beta, and a scan on [0, inf]
        # warned before a refusal at t = inf
        spec = ModelSpec(2.225073858507e-311, coupling, 1.0)
        init = MixtureInit(1.0, 1.0, ModeMeans(1.0, 1.0))
        with pytest.raises(InvalidArgument, match="default window 10 / beta overflows"):
            speciation_time(spec, init)

    def test_huge_scaled_variances_stay_finite(self):
        # 2 beta s2 / sW2 ~ 1e125: det C D(t) is of order 1e500 unscaled, and
        # kappa(0) read -0.0 past its overflow; the pivot form gives the
        # 50-digit mpmath value -1.21006149713296949e-234
        spec = ModelSpec(9325181603957256.0, Anisotropic(3.149074702019571e16),
                         6.076561898731563e16)
        init = MixtureInit(3.1691313508028806e125, 3.1691313508028806e125,
                           ModeMeans(9325181603957256.0, 9325181603957256.0))
        res = speciation_time(spec, init)
        assert res.regime == REGIME_NO_SPECIATION
        assert res.kappa0 == pytest.approx(-1.2100614971329695e-234, rel=1e-12, abs=0.0)

    def test_overflowing_kappa_is_inf_without_a_warning(self):
        # the symmetric closed form overflows here; kappa() returns inf, as
        # the speciation scan sees it, and numpy must not warn first
        spec = ModelSpec(6.606718364637808e16, Symmetric(1.959963984540054),
                         1.5074266548272768e23)
        tiny = 2.1566302402241094e-297
        init = MixtureInit(tiny, tiny, ModeMeans(1.5748310411821335e134, tiny))
        assert kappa(spec, init, 0.0) == math.inf

    def test_no_speciation_boundary_consistency(self):
        # sup over the refined grid vs the returned regime
        spec, init = aniso(1.9, theta=0.0)
        res = speciation_time(spec, init)
        if res.sup_kappa <= 1.0 + 1e-12:
            assert res.regime == REGIME_NO_SPECIATION
        else:
            assert res.regime == REGIME_SPECIATES


class TestPureMode:
    def test_g05_reference(self):
        spec, init = sym(0.5, m_plus2=1.0, m_minus2=0.0)
        t_s = speciation_time_pure_mode(spec, init, "+")
        x = 2.0 * math.sqrt(2.0) - 2.0
        assert t_s == pytest.approx(-math.log(x), abs=1e-12)
        assert t_s == pytest.approx(0.188226, abs=1e-5)

    def test_g02_reference(self):
        spec, init = sym(0.2, m_plus2=1.0, m_minus2=0.0)
        t_s = speciation_time_pure_mode(spec, init, "+")
        # root of 0.05 x^2 + 2 x - 1.25 in x = exp(-tau t)
        x = (-2.0 + math.sqrt(4.0 + 4 * 0.05 * 1.25)) / (2 * 0.05)
        assert t_s == pytest.approx(-math.log(x) / 1.6, rel=1e-10)

    def test_matches_bisection(self):
        for g, mode, mm in ((0.5, "+", (1.0, 0.0)), (0.2, "+", (1.0, 0.0)),
                            (0.3, "-", (0.0, 1.0))):
            spec, _ = sym(g)
            init = MixtureInit(1.0, 1.0, ModeMeans(*mm))
            closed = speciation_time_pure_mode(spec, init, mode)
            solved = speciation_time(spec, init).t_s
            assert abs(closed - solved) < 1e-8

    def test_degenerate_b_fallback(self):
        # g=0 at the variance-preserving point has B = 0 exactly
        spec, init = sym(0.0, m_plus2=1.0, m_minus2=0.0)
        t_s = speciation_time_pure_mode(spec, init, "+")
        assert t_s == pytest.approx(0.5 * math.log(2.0), abs=1e-9)

    def test_rejects_mixed_modes(self):
        spec, init = sym(0.5, m_plus2=1.0, m_minus2=1.0)
        with pytest.raises(InvalidArgument):
            speciation_time_pure_mode(spec, init, "+")


class TestAntiAlignedMonotonicity:
    def test_kappa0_increases_with_g_at_pi(self):
        vals = [kappa0_aniso(*aniso(g, theta=math.pi)) for g in np.linspace(0, 2, 9)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestPhaseDiagram:
    def test_g_crit_reference(self):
        spec, init = aniso(0.0, theta=0.0)
        assert g_crit_aligned(spec, init, 0.0) == pytest.approx(1.5, rel=1e-12)

    def test_orthogonal_has_no_boundary(self):
        spec, init = aniso(0.0)
        assert g_crit_aligned(spec, init, math.pi / 2) is None

    def test_sweep(self):
        spec, init = aniso(0.0, theta=0.0)
        cells = phase_diagram(
            spec, init, np.linspace(0.0, 2.0, 5), [0.0, math.pi / 2, math.pi], 8.0
        )
        assert len(cells) == 15
        by_key = {(round(c.g, 6), round(c.theta, 6)): c for c in cells}
        # anti-aligned column always speciates: kappa(0) = 4 + 2g > 1
        for g in (0.0, 0.5, 1.0, 1.5, 2.0):
            cell = by_key[(g, round(math.pi, 6))]
            assert cell.result is not None
            assert cell.result.regime == REGIME_SPECIATES
        # aligned boundary from kappa(0) = 1 sits at g = 1.5
        cell = by_key[(0.0, 0.0)]
        assert cell.g_crit == pytest.approx(1.5, rel=1e-12)
        # cells are ordered by (g, theta)
        keys = [(c.g, c.theta) for c in cells]
        assert keys == sorted(keys)

    @pytest.mark.parametrize(
        "t_max, message",
        [(0.0, "t_max_search must be positive"),
         (float("nan"), "t_max_search must be finite"),
         (float("inf"), "t_max_search must be finite")],
    )
    def test_invalid_window_recorded_in_every_cell(self, t_max, message):
        spec, init = aniso(0.0)
        cells = phase_diagram(spec, init, [0.0, 1.0], [0.0, math.pi], t_max)
        assert [c.error for c in cells] == [message] * 4
        with pytest.raises(InvalidArgument, match=message):
            speciation_time(spec, init, t_max)

    def test_unresolved_bisection_recorded_in_the_cell(self):
        # with every value 5.18e-81, the crossings lie some 80 decades below
        # 1 / beta, far below the first scan point past 0 (1.8e69), so 80
        # halvings stop far above the tolerance: in the batched loop and in
        # a lone cell's float loop
        v = 5.179327711732039e-81
        spec = ModelSpec(v, Anisotropic(v), v)
        cells = phase_diagram(spec, MixtureInit(v, v, AngledMeans(v, v, 0.0)), [v], [0.0, 0.4])
        for cell in cells:
            assert cell.result is None
            assert cell.error.startswith("kappa = 1 not resolved after 80 halvings")
            with pytest.raises(InvalidArgument) as info:
                speciation_time(spec, MixtureInit(v, v, AngledMeans(v, v, cell.theta)))
            assert str(info.value) == cell.error

    def test_errors_recorded_not_raised(self):
        # r = beta makes kappa0 degenerate but the sweep must not abort;
        # cells at sW2 == s2 still evaluate kappa numerically
        spec = ModelSpec(1.0, Anisotropic(0.0), 1.0)
        init = MixtureInit(1.0, 1.0, AngledMeans(1.0, 1.0, 0.0))
        cells = phase_diagram(spec, init, [0.5], [0.0], 8.0)
        assert len(cells) == 1

    def test_memory_bounded_at_benchmark_size(self):
        # the scan holds one coupling's (stats, t) arrays at a time, so the
        # 25 x 12 grid of the benchmark peaks near 0.5 MB
        spec, init = aniso(0.0, theta=0.0)
        tracemalloc.start()
        try:
            phase_diagram(spec, init, np.linspace(0.0, 2.0, 25), np.linspace(0.0, math.pi, 12))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


def _oracle_cell(spec, init, t_max):
    """Scan and bisection of one cell on ``block_kappa``."""
    grid = np.unique(np.concatenate(
        [np.linspace(0.0, t_max, 512), t_max * 0.5 ** np.arange(1, 41)]
    )).tolist()
    try:
        values = [block_kappa(spec, init, t) for t in grid]
        if max(values) <= 1.0 + 1e-12:
            return REGIME_NO_SPECIATION, None
        if values[-1] >= 1.0:
            return ("kappa > 1 at the end of the search window; increase "
                    "t_max_search"), None
        i = max(i for i in range(1, len(grid)) if values[i - 1] >= 1.0 > values[i])
        lo, hi = grid[i - 1], grid[i]
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            val = block_kappa(spec, init, mid)
            if abs(val - 1.0) <= 1e-11:
                break
            lo, hi = (mid, hi) if val >= 1.0 else (lo, mid)
        return REGIME_SPECIATES, mid
    except DegenerateDrift as exc:
        return str(exc), None
    except UnstableAtTime:
        return REGIME_UNSTABLE, None


# (sW2, s2_x, s2_y, m_x2, m_y2, g grid, theta grid, window, outcome kinds)
ORACLE_GRIDS = [
    # speciating, no-speciation and window-end error cells
    (2.0, 1.0, 1.0, 1.0, 1.0, np.linspace(0.0, 2.0, 5),
     [0.0, math.pi / 3, math.pi / 2, math.pi], 0.6,
     {REGIME_SPECIATES, REGIME_NO_SPECIATION, "kappa > 1"}),
    # D(t) vanishes at t = 0 (sW2 = beta s2): every cell degenerate
    (1.0, 1.0, 1.0, 1.0, 1.0, [0.5], [0.0, math.pi], 8.0,
     {"degenerate drift operator"}),
    # D(t) changes sign inside the window: bisection meets the pole
    (2.822308634965454, 0.8720205523304678, 4.704762063185329,
     1.8390099031591214, 2.751893114372708, [-8.0, -6.0, 1.0, 4.0],
     [0.0, math.pi / 2, math.pi], 5.0,
     {REGIME_SPECIATES, "degenerate drift operator"}),
]
ORACLE_GRID_ARGS = "sw2, sx2, sy2, m_x2, m_y2, g_grid, theta_grid, t_max, kinds"


class TestPhaseDiagramOracle:
    """The batched phase-diagram solver against a per-cell scalar solver on
    ``block_kappa``, and against ``speciation_time``, which bisects a lone
    cell on Python floats."""

    @pytest.mark.parametrize(ORACLE_GRID_ARGS, ORACLE_GRIDS)
    def test_matches_scalar_bisection(
        self, sw2, sx2, sy2, m_x2, m_y2, g_grid, theta_grid, t_max, kinds
    ):
        spec = ModelSpec(1.0, Anisotropic(0.0), sw2)
        init = MixtureInit(sx2, sy2, AngledMeans(m_x2, m_y2, 0.0))
        cells = phase_diagram(spec, init, g_grid, theta_grid, t_max)
        assert len(cells) == len(g_grid) * len(theta_grid)
        seen = set()
        for cell in cells:
            want, t_s = _oracle_cell(
                ModelSpec(1.0, Anisotropic(cell.g), sw2),
                MixtureInit(sx2, sy2, AngledMeans(m_x2, m_y2, cell.theta)),
                t_max,
            )
            got = cell.error if cell.result is None else cell.result.regime
            assert got == want, (cell.g, cell.theta)
            seen.add(want.split(" at")[0])
            if t_s is not None:
                assert abs(cell.result.t_s - t_s) <= 1e-10
            cell_spec = ModelSpec(1.0, Anisotropic(cell.g), sw2)
            cell_init = MixtureInit(sx2, sy2, AngledMeans(m_x2, m_y2, cell.theta))
            if cell.result is None:
                with pytest.raises((InvalidArgument, DegenerateDrift)) as info:
                    speciation_time(cell_spec, cell_init, t_max)
                assert str(info.value) == cell.error
                continue
            res = speciation_time(cell_spec, cell_init, t_max)
            assert res.regime == cell.result.regime
            if res.t_s is not None:
                assert res.t_s == pytest.approx(cell.result.t_s, rel=1e-12, abs=0.0)
        assert seen == kinds


def _scalar_symmetric_t_s(spec, init, t_max):
    """Symmetric t_s by the scalar path: the grid scan, then a scalar
    bisection of kappa - 1 on the eigenmode closed form.  A change to the
    symmetric solver loop must reproduce it bit for bit."""
    grid = _scan_grid(t_max)
    kappa0, sup_kappa, above_end, bracket = (
        r.item() for r in _scan(_kappa_grid(spec, init, grid))
    )
    if _scan_outcome(kappa0, sup_kappa, above_end, bracket) is not None:
        return None
    def kappa_at(t):
        return _symmetric_kappa(
            spec.beta, spec.sigma_w2, init.sigma2_x, spec.coupling.g, t, init.channel_stats()
        )

    lo, hi = grid[bracket - 1].item(), grid[bracket].item()
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        val = kappa_at(mid)[0] - 1.0
        if abs(val) <= 0.1 * KAPPA_TOL:
            break
        if val >= 0.0:
            lo = mid
        else:
            hi = mid
    return mid


class TestSymmetricOracle:
    """Symmetric speciation_time against the scalar solver on
    ``block_kappa``, and bit for bit against the scalar bisection."""

    def test_random_specs_match_scalar_bisection(self):
        rng = np.random.default_rng(23)
        seen = set()
        for _ in range(60):
            beta = rng.uniform(0.5, 2.0)
            g = rng.uniform(-1.3, 1.3) * beta
            sw2 = rng.uniform(0.5, 3.0)
            s2 = rng.uniform(0.1, 2.5)
            spec = ModelSpec(beta, Symmetric(g), sw2)
            scale = rng.choice([0.02, 1.0])  # small means rarely speciate
            init = MixtureInit(
                s2, s2, ModeMeans(scale * rng.uniform(0, 2), scale * rng.uniform(0, 2))
            )
            t_max = 10.0 / beta
            # no stationary law at |g| >= beta: unstable before any scan
            want, t_s = (
                _oracle_cell(spec, init, t_max) if spec.is_stable
                else (REGIME_UNSTABLE, None)
            )
            res = speciation_time(spec, init, t_max)
            assert res.regime == want, (beta, g, sw2, s2)
            seen.add(want)
            if t_s is not None:
                assert abs(res.t_s - t_s) <= 1e-10
                assert res.t_s == _scalar_symmetric_t_s(spec, init, t_max)
        assert seen == {REGIME_SPECIATES, REGIME_NO_SPECIATION, REGIME_UNSTABLE}


def _batched_oracle(spec, init, gs, stats, t_max):
    """Anisotropic speciation by the batched bisection loop that ran before
    the solver shared ``_bisect``: every pending cell halves together, and
    a cell leaves the active set once it meets a degenerate midpoint or
    |kappa - 1| <= 0.1 * KAPPA_TOL.  Returns t_s, or the error string, for
    each (g, stats) pair."""
    beta, sw2 = spec.beta, spec.sigma_w2
    sx2, sy2 = init.sigma2_x, init.sigma2_y
    grid = _scan_grid(t_max)
    grid_parts = _q_parts(beta, grid)
    columns = np.array(stats, dtype=float).reshape(-1, 3).T[:, :, None]
    outcomes, pending = [], []
    for g in gs:
        values, bad = _aniso_kappa(beta, sw2, sx2, sy2, g, grid, grid_parts, columns)
        if np.any(bad):
            outcomes.extend([str(DegenerateDrift(float(grid[np.argmax(bad)])))] * len(stats))
            continue
        for j, scanned in enumerate(zip(*(r.tolist() for r in _scan(values)))):
            outcome = _scan_outcome(*scanned)
            if outcome is None:
                pending.append((len(outcomes), g, j, scanned[3]))
            outcomes.append(outcome if outcome is None else getattr(outcome, "t_s", str(outcome)))
    if not pending:
        return outcomes
    cell, g, j, bracket = (np.array(x) for x in zip(*pending))
    mean_stats = columns[:, j, 0]
    lo, hi = grid[bracket - 1], grid[bracket]
    t_root = lo.copy()
    active = np.arange(cell.size)
    for _ in range(80):
        mid = 0.5 * (lo[active] + hi[active])
        val, bad = _aniso_kappa(
            beta, sw2, sx2, sy2, g[active], mid, _q_parts(beta, mid), mean_stats[:, active]
        )
        t_root[active] = mid
        for k in active[bad]:
            outcomes[cell[k]] = str(DegenerateDrift(float(t_root[k])))
        up = val >= 1.0
        lo[active] = np.where(up, mid, lo[active])
        hi[active] = np.where(up, hi[active], mid)
        active = active[~(bad | (np.abs(val - 1.0) <= 0.1 * KAPPA_TOL))]
        if not active.size:
            break
    for k, c in enumerate(cell.tolist()):
        if outcomes[c] is None:
            outcomes[c] = float(t_root[k])
    return outcomes


class TestBisect:
    """One bisection loop, on float brackets or elementwise on arrays."""

    @staticmethod
    def _cells():
        # monotone decreasing f_k(t) = (r_k - t) (a_k + b_k (r_k - t)^2),
        # NaN for t in [nan_lo_k, nan_hi_k)
        rng = np.random.default_rng(5)
        n = 40
        lo = rng.uniform(-2.0, 1.0, n)
        hi = lo + rng.uniform(0.1, 3.0, n)
        r = rng.uniform(lo, hi)
        a = rng.uniform(0.1, 10.0, n)
        b = rng.uniform(0.0, 5.0, n)
        nan_lo = np.full(n, np.inf)
        nan_hi = np.full(n, np.inf)
        # the root at the first midpoint: stops there with f = 0
        lo[0], hi[0], r[0] = 0.0, 1.0, 0.5
        # midpoints 0.5, 0.25, then 0.375 falls in the NaN band
        lo[1], hi[1], r[1], nan_lo[1], nan_hi[1] = 0.0, 1.0, 0.35, 0.3, 0.4
        # slope 1e8 needs about 57 halvings to reach the tolerance
        lo[2], hi[2], r[2], a[2], b[2] = 0.0, 1.0, 1.0 / 3.0, 1e8, 0.0
        return lo, hi, r, a, b, nan_lo, nan_hi

    @staticmethod
    def _f(r, a, b, nan_lo, nan_hi):
        if isinstance(r, float):
            def f(t):
                if nan_lo <= t < nan_hi:
                    return math.nan
                return (r - t) * (a + b * (r - t) * (r - t))
            return f
        def f(t):
            val = (r - t) * (a + b * (r - t) * (r - t))
            return np.where((nan_lo <= t) & (t < nan_hi), np.nan, val)
        return f

    def test_array_matches_float_cells_bit_for_bit(self):
        lo, hi, r, a, b, nan_lo, nan_hi = self._cells()
        tol, max_iter = 1e-9, 40
        t_arr, err_arr = _bisect(self._f(r, a, b, nan_lo, nan_hi), lo, hi, tol, max_iter)
        assert t_arr.shape == err_arr.shape == lo.shape
        for k, cell in enumerate(zip(lo.tolist(), hi.tolist(), r.tolist(), a.tolist(),
                                     b.tolist(), nan_lo.tolist(), nan_hi.tolist())):
            t, err = _bisect(self._f(*cell[2:]), cell[0], cell[1], tol, max_iter)
            assert t_arr[k].tobytes() == np.float64(t).tobytes(), k
            assert err_arr[k].tobytes() == np.float64(err).tobytes(), k
        assert (t_arr[0], err_arr[0]) == (0.5, 0.0)
        assert t_arr[1] == 0.375 and math.isnan(err_arr[1])
        calls = []
        f = self._f(0.35, 1.0, 0.0, 0.3, 0.4)
        _bisect(lambda t: calls.append(t) or f(t), 0.0, 1.0, tol, max_iter)
        assert calls == [0.5, 0.25, 0.375]  # a NaN stops the float cell
        assert err_arr[2] > tol  # exhausted max_iter
        assert np.all(err_arr[3:] <= tol)

    def test_float_call_returns_python_floats(self):
        for tol, max_iter in ((1e-12, 80), (0.0, 5)):
            t, err = _bisect(lambda x: 0.7 - x, 0.0, 2.0, tol, max_iter)
            assert type(t) is float and type(err) is float

    @pytest.mark.parametrize(ORACLE_GRID_ARGS, ORACLE_GRIDS)
    def test_phase_diagram_matches_batched_loop(
        self, sw2, sx2, sy2, m_x2, m_y2, g_grid, theta_grid, t_max, kinds
    ):
        spec = ModelSpec(1.0, Anisotropic(0.0), sw2)
        init = MixtureInit(sx2, sy2, AngledMeans(m_x2, m_y2, 0.0))
        cells = phase_diagram(spec, init, g_grid, theta_grid, t_max)
        stats = [
            MixtureInit(sx2, sy2, AngledMeans(m_x2, m_y2, c.theta)).channel_stats()
            for c in cells[: len(theta_grid)]
        ]
        want = _batched_oracle(spec, init, [c.g for c in cells[:: len(theta_grid)]],
                               stats, t_max)
        got = [
            c.error if c.result is None
            else c.result.t_s if c.result.regime == REGIME_SPECIATES
            else None
            for c in cells
        ]
        # no-speciation cells settle in the scan, the same in both
        assert [type(x) for x in got] == [type(x) for x in want]
        assert got == want
