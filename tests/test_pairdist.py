import math

import mpmath
import numpy as np
import pytest
from scipy import integrate
from scipy.special import ndtr, ndtri

from fdpctl.pairdist import (EquicorrelatedPairs, PairwiseNull, bvn_cdf,
                             conditional_cdf, two_sided_equicorr_cdf,
                             validate_pairwise)

# Pinned before the build by an adaptive 2-d quadrature of the bivariate
# density over the four tail quadrants (scipy dblquad, epsabs=1e-13).
TAIL_JOINT_05_05_RHO05 = 0.009253785795799501


class TestBvnCdf:
    def test_quadrant_at_half_correlation(self):
        # closed form: 1/4 + asin(rho) / (2 pi) at the origin
        assert bvn_cdf(0.0, 0.0, 0.5) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_independence_origin(self):
        assert bvn_cdf(0.0, 0.0, 0.0) == pytest.approx(0.25, abs=0)

    def test_arcsine_identity_grid(self):
        for rho in (-0.9, -0.5, 0.3, 0.8, 0.99):
            expect = 0.25 + math.asin(rho) / (2 * math.pi)
            assert bvn_cdf(0.0, 0.0, rho) == pytest.approx(expect, abs=1e-13)

    def test_marginalization(self):
        for a in (-2.0, 0.3, 1.5):
            assert bvn_cdf(a, np.inf, 0.7) == pytest.approx(float(ndtr(a)), abs=1e-14)
            assert bvn_cdf(np.inf, a, -0.4) == pytest.approx(float(ndtr(a)), abs=1e-14)
            assert bvn_cdf(a, -np.inf, 0.7) == 0.0

    def test_reflection_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a, b = rng.normal(size=2) * 2
            rho = float(rng.uniform(-0.99, 0.99))
            total = bvn_cdf(a, b, rho) + bvn_cdf(-a, b, -rho)
            assert total == pytest.approx(float(ndtr(b)), abs=1e-9)

    def test_degenerate_correlations(self):
        assert bvn_cdf(0.5, 1.5, 1.0) == pytest.approx(float(ndtr(0.5)), abs=0)
        assert bvn_cdf(0.5, -0.5, -1.0) == pytest.approx(
            max(float(ndtr(0.5)) + float(ndtr(-0.5)) - 1.0, 0.0), abs=1e-15)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            bvn_cdf(0.0, 0.0, 1.5)

    @pytest.mark.parametrize("a,b,rho,expected", [
        # frozen against a 40-digit reference integral with breakpoints at
        # the conditional-CDF transition
        (2.0, 1.0, -0.999, 0.818594614120364),
        (-1.96, -1.96, 0.999, 0.023955483102788),
        (0.0, 0.0, 0.999, 0.492881781296880),
        (0.5, -0.3, 0.999999, 0.382088577811047),
    ])
    def test_high_correlation_regression_values(self, a, b, rho, expected):
        assert bvn_cdf(a, b, rho) == pytest.approx(expected, abs=1e-12)

    def test_vectorized_matches_scalar(self):
        a = np.array([-1.0, 0.0, 2.0])
        b = np.array([0.5, -0.3, 0.1])
        got = bvn_cdf(a, b, 0.6)
        for i in range(3):
            assert got[i] == bvn_cdf(float(a[i]), float(b[i]), 0.6)


def _bvn_reference(a: float, b: float, rho: float) -> float:
    """The same one-dimensional integral by mpmath tanh-sinh at 30 digits."""
    with mpmath.workdps(30):
        a, b = mpmath.mpf(a), mpmath.mpf(b)

        def density(t):
            return mpmath.exp(-(a * a + b * b - 2 * a * b * mpmath.sin(t))
                              / (2 * mpmath.cos(t) ** 2))

        corr = mpmath.quad(density, [0, mpmath.asin(mpmath.mpf(rho))])
        return float(mpmath.ncdf(a) * mpmath.ncdf(b) + corr / (2 * mpmath.pi))


class TestNodeCountEdges:
    """The first panel takes 6, 12 or 20 nodes by |rho| band (edges 0.3 and
    0.75) and ends at 0.925, where 48-node panels take over."""

    LEVELS = [float(ndtri(u / 2)) for u in (1e-8, 1e-3, 0.05, 0.5, 1.0)]

    @pytest.mark.parametrize("edge", [0.3, 0.75, 0.925])
    @pytest.mark.parametrize("offset", [-1e-9, 1e-9])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_matches_mpmath_on_both_sides(self, edge, offset, sign):
        rho = sign * (edge + offset)
        for i, a in enumerate(self.LEVELS):
            for b in self.LEVELS[i:]:
                want = _bvn_reference(a, b, rho)
                assert abs(bvn_cdf(a, b, rho) - want) <= 1e-15
                assert abs(bvn_cdf(b, a, rho) - want) <= 1e-15


class TestTwoSidedEquicorr:
    def test_independence_factorizes_on_grid(self):
        u = np.linspace(0.0, 1.0, 50)
        g1, g2 = np.meshgrid(u, u)
        assert np.array_equal(two_sided_equicorr_cdf(g1, g2, 0.0), g1 * g2)

    def test_comonotone_limit(self):
        for u, v in ((0.3, 0.7), (0.05, 0.05), (0.9, 0.2)):
            got = two_sided_equicorr_cdf(u, v, 1.0 - 1e-8)
            assert got == pytest.approx(min(u, v), abs=1e-4)
        assert two_sided_equicorr_cdf(0.3, 0.7, 1.0) == 0.3

    def test_quadrature_pinned_value(self):
        got = two_sided_equicorr_cdf(0.05, 0.05, 0.5)
        assert got == pytest.approx(TAIL_JOINT_05_05_RHO05, abs=1e-12)

    @pytest.mark.parametrize("rho", [1.0, 0.5, 0.0])
    def test_nan_argument_rejected(self, rho):
        for u, v in ((math.nan, 0.5), (0.5, math.nan)):
            with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
                two_sided_equicorr_cdf(u, v, rho)
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            two_sided_equicorr_cdf(np.array([0.1, math.nan]), 0.5, rho)

    def test_symmetric_in_rho_sign(self):
        assert two_sided_equicorr_cdf(0.2, 0.6, 0.5) == pytest.approx(
            two_sided_equicorr_cdf(0.2, 0.6, -0.5), abs=1e-14)

    def test_monotone_in_rho(self):
        u = np.linspace(0.05, 0.95, 8)
        g1, g2 = np.meshgrid(u, u)
        prev = two_sided_equicorr_cdf(g1, g2, 0.0)
        for rho in (0.1, 0.5, 0.9):
            cur = two_sided_equicorr_cdf(g1, g2, rho)
            assert np.min(cur - prev) > -1e-10
            prev = cur


def _two_sided_composed(u, v, rho):
    """The four-quadrant form 2 (Phi2(a, b, rho) + Phi2(a, b, -rho))."""
    with np.errstate(divide="ignore"):
        a, b = ndtri(np.asarray(u) / 2.0), ndtri(np.asarray(v) / 2.0)
    return 2.0 * (bvn_cdf(a, b, rho) + bvn_cdf(a, b, -rho))


def _two_sided_quad(u: float, v: float, rho: float) -> float:
    """u v + (1/pi) int_0^asin|rho| [e^(c(a^2+b^2) - 2abc sin) -
    e^(c(a^2+b^2) + 2abc sin)] dtheta, c = -1/(2 cos^2), by adaptive quad."""
    a, b = float(ndtri(u / 2.0)), float(ndtri(v / 2.0))
    sq, two_ab = a * a + b * b, 2.0 * a * b

    def integrand(t):
        c = -0.5 / math.cos(t) ** 2
        return (math.exp(c * (sq - two_ab * math.sin(t)))
                - math.exp(c * (sq + two_ab * math.sin(t))))

    corr, _ = integrate.quad(integrand, 0.0, math.asin(abs(rho)),
                             epsabs=1e-17, epsrel=1e-13, limit=200)
    return u * v + corr / math.pi


class TestFusedTwoSided:
    """The one-pass two-sided kernel on a grid over the node-count edges,
    the band edge 0.925 and |rho| near 1."""

    LEVELS = np.array([0.0, 5e-324, 1e-300, 1e-8, 0.05, 0.5, 1.0])
    RHOS = [s * r for r in (0.1, 0.299, 0.3, 0.74, 0.76, 0.924, 0.926, 0.99,
                            1.0 - 1e-7) for s in (1.0, -1.0)]
    GRID = np.meshgrid(LEVELS, LEVELS, indexing="ij")

    @pytest.mark.parametrize("rho", RHOS)
    def test_matches_composition(self, rho):
        g1, g2 = self.GRID
        got = two_sided_equicorr_cdf(g1, g2, rho)
        assert np.max(np.abs(got - _two_sided_composed(g1, g2, rho))) <= 1e-15

    @pytest.mark.parametrize("rho", RHOS)
    def test_symmetric_bit_for_bit(self, rho):
        g1, g2 = self.GRID
        assert np.array_equal(two_sided_equicorr_cdf(g1, g2, rho),
                              two_sided_equicorr_cdf(g2, g1, rho))

    @pytest.mark.parametrize("rho", RHOS)
    def test_zero_argument_gives_zero(self, rho):
        zero = np.zeros_like(self.LEVELS)
        assert (two_sided_equicorr_cdf(zero, self.LEVELS, rho) == 0.0).all()
        assert (two_sided_equicorr_cdf(self.LEVELS, zero, rho) == 0.0).all()

    def test_matches_adaptive_quadrature(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            u, v = 10.0 ** -rng.uniform(0.0, 10.0, size=2)
            rho = float(rng.choice([-1.0, 1.0])
                        * (1.0 - 10.0 ** -rng.uniform(0.0, 7.0)))
            err = abs(two_sided_equicorr_cdf(u, v, rho)
                      - _two_sided_quad(u, v, rho))
            assert err <= 1e-15, (u, v, rho, err)


class TestKernelReturnTypes:
    """Both kernels return a float for scalar or 0-d input and a float
    array of the broadcast shape otherwise."""

    @pytest.mark.parametrize("rho", [0.0, 0.5, -1.0])
    @pytest.mark.parametrize("kernel,x,y", [(bvn_cdf, -0.3, 0.8),
                                            (two_sided_equicorr_cdf, 0.3, 0.8)],
                             ids=["bvn", "two_sided"])
    def test_scalar_zero_d_broadcast_and_array(self, kernel, x, y, rho):
        value = kernel(x, y, rho)
        assert type(value) is float
        for args in ((np.array(x), np.array(y)), (np.float64(x), y)):
            got = kernel(*args, rho)
            assert type(got) is float and got == value
        cases = [(np.full(3, x), y, (3,)),
                 (x, np.full((2, 1), y), (2, 1)),
                 (np.full((2, 1), x), np.full(4, y), (2, 4)),
                 (np.full(5, x), np.full(5, y), (5,))]
        for a, b, shape in cases:
            got = kernel(a, b, rho)
            assert isinstance(got, np.ndarray) and got.dtype == np.float64
            assert got.shape == shape
            np.testing.assert_allclose(got, value, rtol=1e-15, atol=0)


class TestCopulaInvariants:
    @pytest.mark.parametrize("rho", [0.0, 0.1, 0.5, 0.9])
    def test_equicorrelated_model(self, rho):
        F = EquicorrelatedPairs(rho)
        u = np.linspace(0.0, 1.0, 50)
        g1, g2 = np.meshgrid(u, u)
        vals = np.asarray(F.cdf(g1, g2))
        assert np.max(np.abs(vals - vals.T)) < 1e-10          # symmetry
        assert np.max(np.abs(vals[:, -1] - u)) < 1e-8         # uniform margins
        assert np.max(vals - np.minimum(g1, g2)) < 1e-10      # upper Frechet
        assert np.min(vals - np.maximum(g1 + g2 - 1, 0.0)) > -1e-10
        rect = vals[1:, 1:] - vals[:-1, 1:] - vals[1:, :-1] + vals[:-1, :-1]
        assert np.min(rect) > -1e-10                          # 2-increasing

    @pytest.mark.parametrize("F", [
        pytest.param(EquicorrelatedPairs(-0.0), id="independence"),
        pytest.param(EquicorrelatedPairs(-1.0), id="comonotone"),
        EquicorrelatedPairs(-0.9), EquicorrelatedPairs(0.0),
        EquicorrelatedPairs(0.3), EquicorrelatedPairs(0.999)],
        ids=lambda F: F.name)
    def test_symmetric_bit_for_bit(self, F):
        # the PairwiseNull precondition the half pair grid relies on
        u = np.concatenate([[0.0, 1e-9, 1e-4], np.linspace(0.0, 1.0, 41)])
        g1, g2 = np.meshgrid(u, u)
        assert np.array_equal(F.cdf(g1, g2), F.cdf(g2, g1))

    def test_validate_accepts_models(self):
        for rho in (0.0, 1.0, -1.0, 0.5):
            validate_pairwise(EquicorrelatedPairs(rho))

    def test_validate_rejects_bad_model(self):
        class Bad(PairwiseNull):
            def cdf(self, u, v):
                return np.minimum(np.asarray(u) * 2.0, 1.0) * np.asarray(v)

        with pytest.raises(ValueError):
            validate_pairwise(Bad())


class TestArgumentChecks:
    @pytest.mark.parametrize("F", [
        pytest.param(EquicorrelatedPairs(0.0), id="independence"),
        pytest.param(EquicorrelatedPairs(-1.0), id="comonotone"),
        EquicorrelatedPairs(0.3), EquicorrelatedPairs(1.0)],
        ids=lambda F: F.name)
    @pytest.mark.parametrize("bad", [-0.5, 1.5, math.nan])
    def test_out_of_range_or_nan_rejected(self, F, bad):
        for u, v in ((bad, 0.5), (0.5, bad), (np.array([0.2, bad]), 0.5)):
            with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
                F.cdf(u, v)
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            conditional_cdf(F, bad, 0.5)


class TestConditional:
    def test_independence(self):
        F = EquicorrelatedPairs(0.0)
        assert conditional_cdf(F, 0.3, 0.6) == pytest.approx(0.3, abs=0)

    def test_comonotone_saturates(self):
        F = EquicorrelatedPairs(1.0)
        assert conditional_cdf(F, 0.8, 0.3) == 1.0

    def test_equicorrelated_from_pinned_value(self):
        F = EquicorrelatedPairs(0.5)
        assert conditional_cdf(F, 0.05, 0.05) == pytest.approx(
            TAIL_JOINT_05_05_RHO05 / 0.05, abs=1e-10)

    def test_zero_condition_rejected(self):
        with pytest.raises(ValueError):
            conditional_cdf(EquicorrelatedPairs(0.0), 0.3, 0.0)

    def test_nan_condition_rejected(self):
        with pytest.raises(ValueError, match="must be positive"):
            conditional_cdf(EquicorrelatedPairs(0.0), 0.5, math.nan)
        with pytest.raises(ValueError, match="must be positive"):
            conditional_cdf(EquicorrelatedPairs(1.0), 0.5,
                            np.array([0.2, math.nan]))


class TestEquicorrelatedPairs:
    def test_correlation(self):
        assert EquicorrelatedPairs(0.4).rho == 0.4

    @pytest.mark.parametrize("rho", [0, 0.0, -0.0], ids=repr)
    def test_zero_correlation_is_independence(self, rho):
        u = np.linspace(0.0, 1.0, 101)
        g1, g2 = np.meshgrid(u, u)
        assert np.array_equal(EquicorrelatedPairs(rho).cdf(g1, g2), g1 * g2)

    @pytest.mark.parametrize("rho", [1.0, -1.0], ids=repr)
    def test_unit_correlation_is_comonotone(self, rho):
        u = np.linspace(0.0, 1.0, 101)
        g1, g2 = np.meshgrid(u, u)
        assert np.array_equal(EquicorrelatedPairs(rho).cdf(g1, g2),
                              np.minimum(g1, g2))

    def test_out_of_range(self):
        for rho in (1.5, -1.5, math.nan):
            with pytest.raises(ValueError, match=r"must lie in \[-1, 1\]"):
                EquicorrelatedPairs(rho)
