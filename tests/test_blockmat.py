import math
import re

import numpy as np
import pytest

from oudiff.blockmat import (
    Block2,
    block_inverse,
    mat_exp,
    schur_complement,
)
from oudiff.errors import (
    InvalidArgument,
    NotPositiveDefinite,
    SingularMatrix,
    UnsupportedShape,
)


def taylor_exp(m: Block2, t: float, terms: int = 20) -> np.ndarray:
    """Truncated series oracle for exp(m t)."""
    a = m.as_array() * t
    out = np.eye(2)
    term = np.eye(2)
    for n in range(1, terms):
        term = term @ a / n
        out = out + term
    return out


def sym(beta, g):
    return Block2.exchange(-beta, g)


def lower(beta, g):
    return Block2(-beta, 0.0, g, -beta)


class TestMatExp:
    def test_identity_at_zero(self):
        for m in (sym(1.0, 0.5), lower(1.0, 0.5)):
            e = mat_exp(m, 0.0)
            assert np.allclose(e.as_array(), np.eye(2))

    def test_nilpotent_closed_form(self):
        e = mat_exp(lower(1.0, 0.5), 1.0)
        expected = math.exp(-1.0) * np.array([[1.0, 0.0], [0.5, 1.0]])
        assert np.allclose(e.as_array(), expected, atol=1e-15)

    def test_symmetric_matches_taylor(self):
        e = mat_exp(sym(1.0, 0.5), 1.0)
        assert np.max(np.abs(e.as_array() - taylor_exp(sym(1.0, 0.5), 1.0))) < 1e-12

    @pytest.mark.parametrize("kind", [sym, lower])
    def test_taylor_agreement_random(self, kind):
        # agreement holds on |t| * ||M|| <= 10
        rng = np.random.default_rng(42)
        for _ in range(50):
            beta = rng.uniform(0.2, 2.0)
            g = rng.uniform(-0.9, 0.9) * beta
            m = kind(beta, g)
            norm = np.linalg.norm(m.as_array(), 2)
            t = rng.uniform(0.0, 10.0 / norm)
            err = np.max(np.abs(mat_exp(m, t).as_array() - taylor_exp(m, t, 60)))
            assert err < 1e-10

    @pytest.mark.parametrize("kind", [sym, lower])
    def test_semigroup(self, kind):
        rng = np.random.default_rng(3)
        for _ in range(50):
            m = kind(rng.uniform(0.2, 2.0), rng.uniform(-1.0, 1.0))
            s, t = rng.uniform(0.0, 2.0, size=2)
            lhs = mat_exp(m, s + t).as_array()
            rhs = mat_exp(m, s).matmul(mat_exp(m, t)).as_array()
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_rejects_general_shape(self):
        with pytest.raises(UnsupportedShape):
            mat_exp(Block2(1.0, 2.0, 3.0, 4.0), 1.0)

    def test_rejects_nonfinite_time(self):
        with pytest.raises(InvalidArgument):
            mat_exp(sym(1.0, 0.0), float("nan"))

    def test_rejects_nonfinite_entries(self):
        with pytest.raises(InvalidArgument):
            Block2(float("inf"), 0.0, 0.0, 1.0)


class TestInverse:
    def test_identity(self):
        inv = block_inverse(Block2.diag(1.0, 1.0))
        assert np.allclose(inv.as_array(), np.eye(2))

    def test_triangular(self):
        inv = block_inverse(Block2(2.0, 0.0, 1.0, 2.0))
        assert np.allclose(inv.as_array(), [[0.5, 0.0], [-0.25, 0.5]])

    def test_random_product_is_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            m = Block2(*(rng.uniform(-2, 2, size=4)))
            if abs(m.det) < 1e-3:
                continue
            prod = m.matmul(block_inverse(m)).as_array()
            assert np.max(np.abs(prod - np.eye(2))) < 1e-12

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            block_inverse(Block2(1.0, 1.0, 1.0, 1.0))


class TestSchur:
    def test_diagonal_independence(self):
        c_yx, gain = schur_complement(2.0, 0.0, 3.0)
        assert c_yx == 3.0
        assert gain == 0.0

    def test_hand_value(self):
        c_yx, gain = schur_complement(2.0, 1.0, 2.0)
        assert c_yx == pytest.approx(1.5, abs=1e-15)
        assert gain == pytest.approx(0.5, abs=1e-15)

    def test_random_spd_positive(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            a = rng.uniform(-2, 2, size=(2, 2))
            spd = a @ a.T + 0.05 * np.eye(2)
            c_yx, _ = schur_complement(spd[0, 0], spd[0, 1], spd[1, 1])
            assert c_yx > 0.0

    def test_rejects_non_spd(self):
        with pytest.raises(NotPositiveDefinite):
            schur_complement(1.0, 2.0, 1.0)  # det < 0
        with pytest.raises(NotPositiveDefinite):
            schur_complement(-1.0, 0.0, 1.0)

    def test_array_form_matches_scalar_form_elementwise(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(-2, 2, size=(20, 2, 2))
        spd = a @ a.transpose(0, 2, 1) + 0.05 * np.eye(2)
        c_yx, gain = schur_complement(spd[:, 0, 0], spd[:, 0, 1], spd[:, 1, 1])
        for i in range(20):
            assert (c_yx[i], gain[i]) == schur_complement(*spd[i, [0, 0, 1], [0, 1, 1]])

    @pytest.mark.parametrize(
        "c11, c22", [([1.0, -1.0], [1.0, 1.0]), ([1.0, 1.0], [1.0, 0.25])]
    )
    def test_array_form_rejects_any_non_spd_entry(self, c11, c22):
        # the second entry has c11 <= 0 or c22 - c12^2/c11 = 0
        with pytest.raises(NotPositiveDefinite, match=r"at 1 of 2 entries, first at index \(1,\)$"):
            schur_complement(np.array(c11), np.array([0.0, 0.5]), np.array(c22))

    @pytest.mark.parametrize(
        "c11, c12, c22, name",
        [
            (1.0, 0.0, math.nan, "c22 - c12^2/c11"),
            (1.0, 1e200, 1.0, "c22 - c12^2/c11"),  # c12^2 overflows
            (math.inf, 0.0, 1.0, "c11"),
        ],
    )
    def test_non_finite_entries_named(self, c11, c12, c22, name):
        # an overflow or a nan is named as such, not printed as a value
        message = f"block not SPD: {name} holds non-finite values"
        with pytest.raises(NotPositiveDefinite, match=f"^{re.escape(message)}$"):
            schur_complement(c11, c12, c22)
        with pytest.raises(
            NotPositiveDefinite,
            match=f"^{re.escape(message)} at 1 of 2 entries, first at index \\(1,\\)$",
        ):
            schur_complement(np.array([1.0, c11]), np.array([0.0, c12]), np.array([1.0, c22]))
