"""Tests for fracradial.specfun.

Reference values were frozen from mpmath at mp.dps = 40 and are quoted to
full double precision.
"""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from fracradial import specfun
from fracradial.specfun import (
    AsymptoticLaw,
    NonConvergenceError,
    ProfileParams,
    digamma,
    frac_lap_h_asymptotic,
    frac_lap_h_exact,
    frac_lap_h_prefactor,
    gamma_real,
    h_beta_eval,
    hyp2f1,
    riesz_constant,
)


def test_gamma_real_positive_axis():
    assert gamma_real(1.0) == 1.0
    assert gamma_real(5.0) == 24.0
    assert_allclose(gamma_real(0.5), math.sqrt(math.pi), rtol=1e-15)


def test_gamma_real_negative_axis():
    # mpmath: gamma(-1.5) = 2.363271801207355, gamma(-3.7) = 0.2516439959024227
    assert_allclose(gamma_real(-1.5), 2.363271801207355, rtol=1e-14)
    assert_allclose(gamma_real(-3.7), 0.2516439959024227, rtol=1e-14)


@pytest.mark.parametrize("x", [0.0, -1.0, -2.0, -17.0])
def test_gamma_real_rejects_poles(x):
    with pytest.raises(ValueError):
        gamma_real(x)


def test_gamma_recurrence():
    """gamma(x+1) = x gamma(x) away from the poles."""
    xs = np.concatenate([
        np.linspace(0.05, 9.95, 67),
        np.linspace(-4.95, -0.05, 53),
    ])
    for x in xs:
        if abs(x - round(x)) < 1e-3:
            continue
        assert_allclose(gamma_real(x + 1.0), x * gamma_real(x), rtol=1e-12)


# digamma, mpmath mp.dps = 40: positive arguments, psi(1) = -gamma,
# half-integers, -s for the equal_N offset of frac_lap_h_asymptotic, and
# the large n + A of the logarithmic 2F1 series.
DIGAMMA_CASES = [
    (1.0, -0.57721566490153286),
    (2.0, 0.42278433509846714),
    (0.3, -3.5025242222001331),
    (1.25, -0.22745353337626541),
    (1.75, 0.24747245354686116),
    (3.7, 1.1671535393615114),
    (9.999, 2.2516474172057353),
    (10.0, 2.2517525890667211),
    (0.5, -1.9635100260214235),
    (1.5, 0.036489973978576521),
    (2.5, 0.70315664064524319),
    (7.5, 1.9467574842460868),
    (-0.25, 2.9141391202135278),
    (-0.5, 0.036489973978576521),
    (-0.75, -2.8941202000429321),
    (201.5, 5.3033059393822159),
    (10000.75, 9.2103653720803338),
    (1000000.3, 13.815510357964296),
]


@pytest.mark.parametrize("x,expected", DIGAMMA_CASES)
def test_digamma_reference_values(x, expected):
    assert_allclose(digamma(x), expected, rtol=1e-14)


@pytest.mark.parametrize("x", [0.0, -1.0, -3.0])
def test_digamma_rejects_poles(x):
    with pytest.raises(ValueError):
        digamma(x)


@pytest.mark.parametrize("fn", [gamma_real, digamma], ids=["gamma_real", "digamma"])
@pytest.mark.parametrize("x", [math.nan, -math.inf], ids=["nan", "-inf"])
def test_gamma_real_and_digamma_refuse_nan_and_minus_inf(fn, x):
    """NaN came back as nan, and -inf raised OverflowError from round()."""
    with pytest.raises(ValueError, match="above -inf"):
        fn(x)


# 2F1 reference table, mpmath mp.dps = 40.  The rows cover every evaluation
# branch: direct series, Pfaff series, the three large-|x| connection cases
# (generic, a = b, a - b a positive integer), and the terminating b - c
# in {0, 1} families.
HYP2F1_CASES = [
    (0.9, 1.4, 2.2, -0.37, 0.8315383053760435),
    (1.9, 0.6, 1.1, -0.995, 0.5102504171767118),
    (2.3, 0.8, 1.9, -55.0, 0.030979765274255507),
    (1.5, 1.2, 1.0, -10000.0, -7.859606283396258e-06),
    (2.0, 2.25, 1.5, -1000000.0, -7.715804987829107e-13),
    (1.75, 1.75, 1.5, -2500.0, -7.799612199318395e-07),
    (2.0, 2.0, 1.5, -1000000.0, -3.0504414534360575e-12),
    (2.8, 1.8, 2.5, -400.0, 1.2703176569361037e-05),
    (3.6, 1.6, 2.5, -40000.0, 1.4498389671143972e-08),
    (4.1, 1.1, 2.05, -200000.0, 4.292005733393078e-07),
    (1.6, 1.6, 1.6, -900000.0, 2.9731116098747454e-10),
    (2.0, 2.3, 1.3, -321.0, -5.147213722433079e-06),
    (1.75, 2.25, 1.75, -500000.0, 1.5042344681709892e-13),
    # b - a just off an integer k <= 0 (mp.dps = 50), where the generic
    # connection terms cancel: the parameters frac_lap_h_exact passes for
    # beta = N -+ 1e-11, N + 1e-7 and N - 2 + 1e-9, and one inside the
    # 1e-12 integer snap (beta = N + 1e-12)
    (2.25, 2.249999999995, 2.0, -101.0, 2.551705860647374e-07),
    (2.25, 2.250000000005, 2.0, -101.0, 2.551705855761483e-07),
    (2.0, 1.999999999995, 1.5, -150.0, -3.6815963811507545e-05),
    (1.25, 1.25000005, 1.0, -10000.0, -1.2082969153579373e-05),
    (3.25, 2.2500000005, 2.5, -1000.0, 2.5947883658200386e-08),
    (2.25, 2.2500000000005, 2.0, -101.0, 2.551705857960112e-07),
    # b - a just above a positive integer (mp.dps = 50): a and b are
    # exchanged so that the same interpolation covers it
    (1.25, 2.25000000001, 1.0, -150.0, -0.00034497807911634457),
    (0.7, 1.700000000005, 1.0, -101.0, 0.014983768582760524),
    (0.5, 1.5000000001, 2.0, -10000.0, 0.012728899588828228),
    # the far end of the range (mp.dps = 50): about the angular kernel's
    # argument -4 (1 + gap) / gap^2 at gap 1e-13 and 1e-11, with its
    # parameters for (N, p) = (2, -3), (4, -5), (2, -1/2), (2, 1/2), (4, -3)
    (1.5, 0.5, 1.0, -4e26, 3.1830988618379065e-14),
    (2.5, 1.5, 3.0, -4e26, 2.122065907891938e-40),
    (0.5, 0.25, 1.0, -4e26, 3.732564326278482e-07),
    (1.25, 0.5, 1.0, -4e26, 3.813798817509066e-14),
    (1.5, 1.5, 3.0, -4e22, 1.6175157231528157e-32),
    # between the Pfaff/connection seam at -5 and the old one at -100
    # (mp.dps = 50), where the connection formulas now take over: generic
    # (the oracle's (3, 1/2, 3.5) at r = 2.5, and the kernel's (2, -3)),
    # a = b, a - b = 1, and b - a within 5e-12 of 0 and of -1 and +1
    (2.0, 2.25, 1.5, -6.25, -0.0018313722971401716),
    (1.5, 0.5, 1.0, -20.0, 0.14699942849260927),
    (2.6, 1.3, 3.0, -99.5, 0.00340880058296088),
    (1.75, 1.75, 1.5, -9.0, 0.007589391179335826),
    (2.0, 2.0, 1.5, -5.5, 0.0020345176417160844),
    (2.8, 1.8, 2.5, -12.0, 0.006788580671722655),
    (2.5, 1.5, 3.0, -50.0, 0.0044439135907602),
    (2.25, 2.249999999995, 2.0, -8.0, 0.0034009295617350743),
    (2.25, 2.250000000005, 2.0, -60.0, 9.990862583232256e-06),
    (3.25, 2.250000000005, 2.5, -15.0, 0.00045599783149800557),
    (0.7, 1.700000000005, 1.0, -6.0, 0.1284524880898176),
    # next to a zero of F (mp.dps = 50), where the connection terms are
    # 2.7e4 to 2.6e5 times |F| and cancel, so hyp2f1 takes the Pfaff series
    # (the connection branch alone is 4.5e-12, 8.6e-11 and 1.4e-10 off):
    # frac_lap_h_exact's triple for N = 4, s = 0.6065, beta = 4.0072, and
    # b - a just outside the interpolation window
    (2.6065, 2.6101, 2.0, -6.0, -1.801070847718061e-05),
    (3.75, 3.751001, 3.0, -5.5, -3.427553287113827e-07),
    (3.0, 3.001001, 2.5, -12.4, -6.070221282050641e-07),
]

# b - a about 1.2e-3 from an integer, just outside the interpolation window
# of _hyp_large_x (1e-3), at x in (-100, -5] (mp.dps = 50).  There the two
# generic connection terms grow like 1/(b - a - k) and cancel, to 1/8433
# of their size at (1.5, 1.5012, 1.0; -5.5), which the connection branch
# alone gets 1.7e-12 of |F| off.  hyp2f1 takes the Pfaff series for the
# three rows beyond 1/1000 (see specfun._CANCEL_LIMIT), and the worst row
# is then 6.9e-14 off, so the test holds them to HYP2F1_CASES' 1e-12.
HYP2F1_NEAR_WINDOW_CASES = [
    (2.25, 2.2512, 2.0, -6.0, 0.006626735802905524),
    (2.25, 2.2488, 2.0, -40.0, 4.2471837615027625e-05),
    (3.25, 2.2512, 2.5, -9.0, 0.0015487181875669105),
    (1.25, 2.2488, 1.0, -20.0, -0.003812094165130132),
    (1.5, 1.5012, 1.0, -5.5, -0.003330626449196625),
    (2.0012, 2.0, 4.0, -5.0, 0.12190007613515917),
]


@pytest.mark.parametrize("a,b,c,x,expected", HYP2F1_CASES)
def test_hyp2f1_reference_values(a, b, c, x, expected):
    assert_allclose(hyp2f1(a, b, c, x), expected, rtol=1e-12)


@pytest.mark.parametrize("a,b,c,x,expected", HYP2F1_NEAR_WINDOW_CASES)
def test_hyp2f1_just_outside_the_near_integer_window(a, b, c, x, expected):
    assert_allclose(hyp2f1(a, b, c, x), expected, rtol=1e-12)


def test_hyp2f1_at_zero():
    assert hyp2f1(1.3, 0.7, 2.1, 0.0) == 1.0


def test_hyp2f1_binomial_identity():
    """2F1(a, b, b; x) = (1 - x)^(-a), checked over the whole argument range."""
    for a in (0.3, 1.0, 2.7):
        for x in (-1e-3, -0.4, -3.0, -98.6, -1e4, -1e6):
            assert_allclose(hyp2f1(a, 1.3, 1.3, x), (1.0 - x) ** (-a), rtol=1e-13)


def test_hyp2f1_seam_consistency():
    # The evaluation strategy switches branches at x = -0.5 and x = -5 (and
    # did at x = -100); values on either side must agree to within the
    # function's own variation.
    for a, b, c in [(1.5, 1.2, 1.0), (2.3, 0.8, 1.9), (1.75, 1.75, 1.5)]:
        for seam in (-0.5, -5.0, -100.0):
            lo = hyp2f1(a, b, c, seam * (1.0 + 1e-12))
            hi = hyp2f1(a, b, c, seam * (1.0 - 1e-12))
            assert_allclose(lo, hi, rtol=1e-10)


def test_hyp2f1_rejects_bad_parameters():
    with pytest.raises(ValueError):
        hyp2f1(-0.5, 1.0, 1.5, -1.0)
    with pytest.raises(ValueError):
        hyp2f1(1.0, 0.0, 1.5, -1.0)
    with pytest.raises(ValueError):
        hyp2f1(1.0, 1.0, 1.5, 0.25)  # positive argument
    with pytest.raises(ValueError):
        hyp2f1(1.1, 3.5, 1.5, -1.0)  # b - c = 2


@pytest.mark.parametrize("x", [-0.3, -2.0, -50.0, -1e4])
def test_hyp2f1_swaps_a_negative_integer_a_minus_b(x):
    # a - b = -1 is evaluated as 2F1(b, a, c; x); one x per branch: the
    # defining series, Pfaff, the connection formulas on [-100, -5) (with
    # their Pfaff fallback) and beyond _PFAFF_FLOOR
    assert hyp2f1(0.25, 1.25, 1.0, x) == hyp2f1(1.25, 0.25, 1.0, x)
    xs = np.array([x, 0.0])
    assert np.array_equal(hyp2f1(0.25, 1.25, 1.0, xs),
                          hyp2f1(1.25, 0.25, 1.0, xs))


def test_hyp2f1_swapped_parameters_match_mpmath():
    # mpmath at mp.dps = 40
    assert_allclose(hyp2f1(0.25, 1.25, 1.0, -0.5), 0.8830407510817124033,
                    rtol=1e-14)
    assert_allclose(hyp2f1(0.25, 1.25, 1.0, -50.0), 0.3390201375713290055,
                    rtol=1e-14)


# Arguments across every branch of hyp2f1: x = 0, the defining series on
# (-1/2, 0), the Pfaff series on [-5, -1/2], the connection formulas below
# -5 (with the Pfaff fallback on [-100, -5)) and beyond _PFAFF_FLOOR.
ARRAY_XS = np.array([0.0, -1e-3, -0.3, -0.4999, -0.5, -1.0, -3.0, -4.9, -5.0,
                     -5.5, -6.0, -12.4, -60.0, -99.5, -100.0, -150.0, -1e4,
                     -1e6, -4e26])

# Parameter triples for each shape of the connection formulas and each
# integer degeneracy.
ARRAY_TRIPLES = [
    (2.0, 2.25, 1.5),              # generic, the oracle's (3, 1/2, 3.5)
    (2.6065, 2.6101, 2.0),         # cancels at -6: the Pfaff fallback
    (2.25, 2.249999999995, 2.0),   # b - a just below 0: the stencil in b
    (2.25, 2.250000000005, 2.0),   # b - a just above 0
    (3.25, 2.2500000005, 2.5),     # b - a just above -1
    (0.7, 1.700000000005, 1.0),    # b - a just above +1: a and b exchanged
    (1.75, 1.75, 1.5),             # b = a: logarithmic series
    (1.5, 0.5, 1.0),               # a - b = 1: the (N, p) = (2, -3) kernel
    (2.5, 1.5, 3.0),               # a - b = 1: the (4, -5) kernel
    (0.7, 1.3, 1.3),               # b - c = 0: closed form
    (1.1, 2.5, 1.5),               # b - c = 1: closed form
]


@pytest.mark.parametrize("a,b,c", ARRAY_TRIPLES)
def test_hyp2f1_array_equals_scalar_calls_bitwise(a, b, c):
    got = hyp2f1(a, b, c, ARRAY_XS)
    want = np.array([hyp2f1(a, b, c, float(x)) for x in ARRAY_XS])
    assert got.shape == ARRAY_XS.shape
    assert np.array_equal(got, want)
    # any shape, and an argument's value does not depend on its neighbours
    grid = hyp2f1(a, b, c, ARRAY_XS[::-1].reshape(1, -1))
    assert grid.shape == (1, ARRAY_XS.size)
    assert np.array_equal(grid[0, ::-1], want)


def _series_term_by_term(ratio, z, first=1.0, floor=0.0):
    """sum_n poch_n with poch_0 = first and poch_(n+1) = poch_n (ratio(n) z),
    one term at a time, to the first n >= 1 with |term| <= _SERIES_RTOL
    max(|sum|, floor)."""
    total, term = 0.0, first
    for n in range(specfun._SERIES_MAX_TERMS):
        total += term
        if n > 0 and abs(term) <= specfun._SERIES_RTOL * max(abs(total), floor):
            return total
        term *= ratio(n) * z
    raise AssertionError("no convergence")


@pytest.mark.parametrize("a,b,c", [(2.0, 2.25, 1.5), (2.0, -0.75, 1.5),
                                   (1.75, 0.25, 0.5), (1.5, 0.5, 1.0)])
def test_blockwise_series_stops_where_a_loop_stops(a, b, c):
    # arguments that need from a handful to a few hundred terms, so the
    # columns finish in different blocks of _sum_series, and enough of them
    # that the first blocks are narrower than _BLOCK
    z = np.concatenate([-np.geomspace(1e-6, 0.5, 200),
                        np.linspace(0.01, 5.0 / 6.0, 200) * np.array([-1.0, 1.0] * 100)])
    assert z.size > specfun._BLOCK_CELLS // specfun._BLOCK
    got = specfun._defining_series(a, b, c, z)

    def ratio(n):
        return (a + n) * (b + n) / ((c + n) * (1.0 + n))

    want = [_series_term_by_term(ratio, float(v)) for v in z]
    assert np.array_equal(got, want)


def test_blockwise_series_with_a_floor_runs_past_the_first_term():
    # a floor far above the sum (the finite part of the a - b = m series)
    # would stop every column at its first term, which is never checked
    def ratio(n):
        return (1.5 + n) * (0.5 + n) / ((n + 1.0) * (n + 2.0))

    z = np.geomspace(1e-3, 0.1, 12)
    floor = np.where(np.arange(z.size) % 2 == 0, 1e30, 0.0)
    got, _ = specfun._sum_series(z, ratio, first=0.5, floor=floor)
    want = [_series_term_by_term(ratio, v, 0.5, f) for v, f in zip(z, floor)]
    assert np.array_equal(got, want)
    assert got[0] != 0.5


def test_array_triples_reach_the_pfaff_fallback():
    value, size = specfun._hyp_large_x(2.6065, 2.6101, 2.0, np.array([-6.0, -60.0]))
    assert size[0] > specfun._CANCEL_LIMIT * abs(value[0])
    assert size[1] <= specfun._CANCEL_LIMIT * abs(value[1])


def test_hyp2f1_scalar_gives_a_float():
    for x in (0.0, -0.3, -3.0, -60.0, np.float64(-60.0), np.array(-60.0)):
        assert type(hyp2f1(2.0, 2.25, 1.5, x)) is float
    assert type(hyp2f1(0.7, 1.3, 1.3, -2.0)) is float
    assert hyp2f1(2.0, 2.25, 1.5, np.array([])).shape == (0,)


def test_hyp2f1_rejects_an_array_with_one_positive_argument():
    xs = ARRAY_XS.copy()
    xs[7] = 0.25
    with pytest.raises(ValueError, match="x <= 0, got 0.25"):
        hyp2f1(2.0, 2.25, 1.5, xs)
    xs[7] = np.nan
    with pytest.raises(ValueError):
        hyp2f1(2.0, 2.25, 1.5, xs)


# A non-finite argument was refused as one that fails x <= 0, which -inf
# satisfies.
@pytest.mark.parametrize("x", [-math.inf, math.nan, math.inf])
def test_hyp2f1_refuses_a_non_finite_argument(x):
    with pytest.raises(ValueError, match=f"argument must be finite, got {x!r}"):
        hyp2f1(1.5, 1.0, 1.5, x)
    xs = ARRAY_XS.copy()
    xs[3] = x
    with pytest.raises(ValueError, match=f"argument must be finite, got {x!r}"):
        hyp2f1(2.0, 2.25, 1.5, xs)


# A radius whose square overflows passed -inf to hyp2f1, after numpy's
# overflow warning.
@pytest.mark.parametrize("r", [1e200, math.inf, np.array([1.0, 2e154])])
def test_frac_lap_h_exact_refuses_a_radius_whose_square_overflows(r):
    big = float(np.max(r))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"must have a finite square, at "
                           r"most 1\.34\d*e\+154, got " + re.escape(repr(big))):
            frac_lap_h_exact(r, ProfileParams(3, 0.5, 2.0))


def test_frac_lap_h_exact_array():
    p = ProfileParams(3, 0.25, 3.0)
    r = np.array([0.0, 0.05, 0.7, 2.2, 2.5, 9.0, 40.0])
    got = frac_lap_h_exact(r, p)
    assert np.array_equal(got, [frac_lap_h_exact(float(v), p) for v in r])
    assert type(frac_lap_h_exact(2.5, p)) is float
    r[3] = -1e-3
    with pytest.raises(ValueError, match="radius must be >= 0, got -0.001"):
        frac_lap_h_exact(r, p)


def test_non_convergence_error_is_runtime_error():
    assert issubclass(NonConvergenceError, RuntimeError)


@pytest.mark.parametrize("N,alpha,expected", [
    (3, 2.0, 1.0 / (4.0 * math.pi)),
    (2, 1.0, 1.0 / (2.0 * math.pi)),
    (4, 2.0, 1.0 / (4.0 * math.pi ** 2)),
])
def test_riesz_constant_known_values(N, alpha, expected):
    assert_allclose(riesz_constant(N, alpha), expected, rtol=1e-14)


def test_riesz_constant_domain():
    with pytest.raises(ValueError):
        riesz_constant(3, 0.0)
    with pytest.raises(ValueError):
        riesz_constant(3, 3.0)
    with pytest.raises(ValueError):
        riesz_constant(0, 0.5)


def test_h_beta_eval():
    assert h_beta_eval(0.0, 3.0) == 1.0
    assert_allclose(h_beta_eval(1.0, 3.0), 2.0 ** -1.5, rtol=1e-15)
    r = np.array([0.0, 1.0, 3.0])
    out = h_beta_eval(r, 2.0)
    assert_allclose(out, [1.0, 0.5, 0.1], rtol=1e-15)
    with pytest.raises(ValueError):
        h_beta_eval(1.0, 0.0)


def test_profile_params_validation():
    ProfileParams(3, 0.5, 4.0)  # beta = N + 2s is allowed
    with pytest.raises(ValueError):
        ProfileParams(1, 0.5, 1.0)
    with pytest.raises(ValueError):
        ProfileParams(3, 1.0, 2.0)
    with pytest.raises(ValueError):
        ProfileParams(3, 0.5, 4.2)  # beta > N + 2s
    with pytest.raises(ValueError):
        ProfileParams(3, 0.5, 0.0)


def test_frac_lap_prefactor():
    # N = 2, s = 1/2, beta = 2: the prefactor collapses to pi/2.
    p = ProfileParams(2, 0.5, 2.0)
    assert_allclose(frac_lap_h_prefactor(p), math.pi / 2.0, rtol=1e-14)


def test_frac_lap_prefactor_positive():
    for N in (2, 3, 4, 6):
        for s in (0.1, 0.5, 0.9):
            for frac in (0.2, 0.7, 1.0):
                beta = frac * (N + 2.0 * s)
                assert frac_lap_h_prefactor(ProfileParams(N, s, beta)) > 0.0


# (-Delta)^s h_beta at a point, frozen from the prefactor times mpmath's
# hypergeometric at mp.dps = 40.
FRAC_LAP_CASES = [
    (3, 0.25, 3.0, 2.5, 0.023660802475864696),
    (2, 0.5, 2.5, 7.0, -0.003330186144939285),
    (3, 0.75, 3.5, 1.0, 0.27488105490005105),
]


@pytest.mark.parametrize("N,s,beta,r,expected", FRAC_LAP_CASES)
def test_frac_lap_h_exact_reference_values(N, s, beta, r, expected):
    assert_allclose(frac_lap_h_exact(r, ProfileParams(N, s, beta)), expected,
                    rtol=1e-12)


def test_frac_lap_h_exact_special_points():
    # At the origin the hypergeometric factor is 1.
    p = ProfileParams(2, 0.5, 2.0)
    assert_allclose(frac_lap_h_exact(0.0, p), math.pi / 2.0, rtol=1e-14)
    # N = 3, s = 1/2, beta = N - 2s = 2: exact identity 2 h_4, so the value
    # at r = 1 is 2 / 4 = 1/2.
    p = ProfileParams(3, 0.5, 2.0)
    assert_allclose(frac_lap_h_exact(1.0, p), 0.5, rtol=1e-13)
    with pytest.raises(ValueError):
        frac_lap_h_exact(-1.0, p)


def test_asymptotic_regime_classification():
    def regime(N, s, beta):
        return frac_lap_h_asymptotic(ProfileParams(N, s, beta)).regime

    assert regime(3, 0.5, 3.8) == "above_N"
    assert regime(3, 0.5, 4.0) == "above_N"
    assert regime(3, 0.5, 3.0) == "equal_N"
    assert regime(3, 0.5, 2.5) == "between"
    assert regime(3, 0.5, 2.0) == "equal_N_minus_2s"
    assert regime(3, 0.5, 1.5) == "below_N_minus_2s"
    # Near-boundary values snap onto the degenerate regimes.
    assert regime(3, 0.5, 3.0 + 1e-12) == "equal_N"
    assert regime(3, 0.5, 2.0 - 1e-12) == "equal_N_minus_2s"


def test_asymptotic_exponents():
    law = frac_lap_h_asymptotic(ProfileParams(3, 0.5, 3.8))
    assert law.exponent == 4.0
    law = frac_lap_h_asymptotic(ProfileParams(3, 0.5, 3.0))
    assert law.exponent == 4.0 and law.has_log_factor
    law = frac_lap_h_asymptotic(ProfileParams(3, 0.5, 2.5))
    assert law.exponent == 3.5 and not law.has_log_factor
    law = frac_lap_h_asymptotic(ProfileParams(3, 0.5, 1.5))
    assert law.exponent == 2.5


def test_asymptotic_constants_frozen():
    # Reference constants from the Gamma-ratio formulas at mp.dps = 40.
    law = frac_lap_h_asymptotic(ProfileParams(3, 0.5, 3.8))
    assert_allclose(law.constant, -1.3012133179582948, rtol=1e-13)

    # beta = N + 2s collapses to 4^s Gamma(s)/Gamma(-s) = -1 at s = 1/2.
    law = frac_lap_h_asymptotic(ProfileParams(3, 0.5, 4.0))
    assert_allclose(law.constant, -1.0, rtol=1e-13)

    law = frac_lap_h_asymptotic(ProfileParams(3, 0.5, 3.0))
    assert_allclose(law.constant, -4.0 / math.pi, rtol=1e-13)
    assert_allclose(law.log_offset, -0.8068528194400547, rtol=1e-13)

    law = frac_lap_h_asymptotic(ProfileParams(3, 0.5, 2.5))
    assert_allclose(law.constant, -1.5, rtol=1e-13)

    law = frac_lap_h_asymptotic(ProfileParams(3, 0.5, 2.0))
    assert_allclose(law.constant, 2.0, rtol=1e-13)

    law = frac_lap_h_asymptotic(ProfileParams(3, 0.5, 1.5))
    assert_allclose(law.constant, 0.5, rtol=1e-13)

    law = frac_lap_h_asymptotic(ProfileParams(3, 0.75, 3.5))
    assert_allclose(law.constant, -2.615124050132754, rtol=1e-13)

    law = frac_lap_h_asymptotic(ProfileParams(3, 0.75, 1.0))
    assert_allclose(law.constant, 0.3989422804014327, rtol=1e-13)


def test_asymptotic_constant_signs():
    """Negative above N - 2s (except the exact identity point), positive below."""
    for N in (2, 3, 5):
        for s in (0.2, 0.5, 0.8):
            lo, hi = N - 2.0 * s, N + 2.0 * s
            for beta, sign in [
                (0.5 * lo, +1),
                (lo, +1),
                (0.5 * (lo + N), -1),
                (float(N), -1),
                (0.5 * (N + hi), -1),
                (hi, -1),
            ]:
                if beta <= 0:
                    continue
                law = frac_lap_h_asymptotic(ProfileParams(N, s, beta))
                assert sign * law.constant > 0.0, (N, s, beta, law)


def test_asymptotic_exact_identity_regime():
    # beta = N - 2s: the law reproduces the closed form at every radius,
    # not only in the far field.
    p = ProfileParams(3, 0.5, 2.0)
    law = frac_lap_h_asymptotic(p)
    for r in (0.0, 0.3, 1.0, 10.0, 250.0):
        assert_allclose(law.evaluate(r), frac_lap_h_exact(r, p), rtol=1e-12)


def test_asymptotic_matches_closed_form_far_field():
    # One representative per regime; the model should sit within a couple of
    # percent of the closed form by r = 100.
    reps = [
        (ProfileParams(3, 0.5, 3.8), 0.02),
        (ProfileParams(3, 0.5, 3.0), 0.01),
        (ProfileParams(3, 0.9, 1.65), 0.01),
        (ProfileParams(3, 0.5, 2.0), 1e-12),
        (ProfileParams(3, 0.5, 1.5), 0.01),
    ]
    for p, tol in reps:
        law = frac_lap_h_asymptotic(p)
        exact = frac_lap_h_exact(100.0, p)
        model = law.evaluate(100.0)
        assert abs(exact / model - 1.0) <= tol, (p, exact, model)


def test_asymptotic_law_evaluate_vectorized():
    law = AsymptoticLaw(regime="above_N", exponent=4.0, constant=-2.0)
    r = np.array([10.0, 100.0])
    assert_allclose(law.evaluate(r), -2.0 * r ** -4.0, rtol=1e-15)


def _hand_law(N, s, beta):
    """The law's constant and log offset from its Gamma-ratio formulas,
    written out regime by regime."""
    g, h = math.gamma, N / 2.0
    if beta == N:
        offset = (-2.0 * 0.5772156649015329 - digamma(h + s) - digamma(-s)) / 2.0
        return 2.0 ** (2.0 * s + 1.0) * g(h + s) / (g(h) * g(-s)), offset
    if beta == N - 2.0 * s:
        return 4.0 ** s * g(h + s) / g(h - s), 0.0
    if beta > N:
        return 4.0 ** s * g(h + s) * g((beta - N) / 2.0) / (g(beta / 2.0) * g(-s)), 0.0
    return 4.0 ** s * g(beta / 2.0 + s) * g((N - beta) / 2.0) / (
        g(beta / 2.0) * g((N - beta) / 2.0 - s)), 0.0


# beta in every regime: N + 2s and midway to N (above), N, N - s (between),
# N - 2s, (N - 2s)/2 and N - 2 (below; a - b = 1 is the logarithmic shape).
# The constants are read off the closed form's 2F1 parameters, so within
# 0.05 of a boundary, where the hand formulas' exact beta - N and
# (N - beta)/2 - s cancel less, the two differ by more than rounding.
@pytest.mark.parametrize("N", [2, 3, 4, 5])
@pytest.mark.parametrize("s", [0.1, 0.25, 0.5, 0.75, 0.9])
def test_law_constants_match_their_gamma_formulas(N, s):
    betas = {N + 2.0 * s, N + s, float(N), N - s, N - 2.0 * s,
             (N - 2.0 * s) / 2.0, N - 2.0}
    regimes = set()
    for beta in sorted(b for b in betas if b > 0.0):
        law = frac_lap_h_asymptotic(ProfileParams(N, s, beta))
        regimes.add(law.regime)
        constant, offset = _hand_law(N, s, beta)
        assert_allclose(law.constant, constant, rtol=1e-13)
        assert_allclose(law.log_offset, offset, rtol=1e-13)
    assert regimes == set(specfun.REGIMES)
    fraclap_C = 4.0 ** s * math.gamma(N / 2.0 + s) / (
        math.pi ** (N / 2.0) * abs(math.gamma(-s)))
    # the fractional Laplacian is the Riesz operator of order -2s
    C = -specfun._riesz_normalization(N, -2.0 * s)
    assert abs(C - fraclap_C) <= 4 * math.ulp(fraclap_C)


# Far out, (1 - x)^(-a) underflowed against an overflowing (1 - x)^(a - b):
# (3, 1/2, 1/2) read 0.0 at r = 1e100 and NaN at 1e150, (2, 1/4, 1) 0.0 at
# 1e150.  One beta per regime below N, and a - b = 1 for (3, 1/2, 1); where
# the law is below the normal doubles the closed form is too.
@pytest.mark.parametrize("N,s,beta", [
    (2, 0.25, 1.0), (2, 0.5, 1.5), (2, 0.25, 1.5),
    (3, 0.5, 0.5), (3, 0.5, 1.0), (3, 0.5, 2.5), (3, 0.5, 2.0)])
def test_closed_form_meets_its_law_far_out_below_N(N, s, beta):
    p = ProfileParams(N, s, beta)
    law = frac_lap_h_asymptotic(p)
    for r in (1e50, 1e100, 1e150):
        want, got = law.evaluate(r), frac_lap_h_exact(r, p)
        if abs(want) < np.finfo(float).tiny:
            assert abs(got) < 1e-300
        else:
            assert abs(got / want - 1.0) <= 1e-12, (r, got, want)


# ----------------------------------------------------------------------------
# properties (hypothesis, derandomized so that every run draws the same cases)
# ----------------------------------------------------------------------------

@st.composite
def profile_params(draw):
    N = draw(st.integers(2, 6))
    s = draw(st.floats(0.01, 0.99))
    return ProfileParams(N, s, draw(st.floats(0.01, N + 2.0 * s)))


# The parameters are those frac_lap_h_exact passes, 2F1(N/2 + s, beta/2 + s,
# N/2; x).  Either side of a seam, 1e-12 of x away, the exact function moves
# by up to |F'| |dx|, with F' = (ab/c) 2F1(a+1, b+1, c+1; x); near a zero of
# F that alone is more than 1e-10 of |F|, so the property allows it on top.
# Measured over 40000 random draws: at most 4.6e-11 of |F| beyond it; at
# the seam x = -5, over 20000 draws, at most 9.0e-13.
@settings(derandomize=True, max_examples=60, deadline=None)
@given(p=profile_params(), seam=st.sampled_from([-0.5, -5.0, -100.0]))
def test_hyp2f1_is_continuous_across_its_seams(p, seam):
    assert_continuous_across_seam(p.N / 2.0 + p.s, p.beta / 2.0 + p.s,
                                  p.N / 2.0, seam)


# The parameters _kernel_at_gap passes for the operators' exponents p in
# (-N - 2, 0) (p = alpha - N or -(N + 2s)): 2F1(max(-p/2, (N-1)/2),
# min(-p/2, (N-1)/2), N - 1; x).  Measured over 20000 random draws: at most
# 2.5e-13 of |F| beyond the slope, and 7.1e-13 at the seam x = -5.
@settings(derandomize=True, max_examples=60, deadline=None)
@given(N=st.integers(2, 6), t=st.floats(0.001, 0.999),
       seam=st.sampled_from([-0.5, -5.0, -100.0]))
def test_hyp2f1_is_continuous_across_its_seams_for_the_kernel(N, t, seam):
    half_p, h = 0.5 * t * (N + 2.0), 0.5 * (N - 1.0)
    assert_continuous_across_seam(max(half_p, h), min(half_p, h), N - 1.0, seam)


def assert_continuous_across_seam(a, b, c, seam):
    x_in, x_out = seam * (1.0 - 1e-12), seam * (1.0 + 1e-12)
    f_in, f_out = hyp2f1(a, b, c, x_in), hyp2f1(a, b, c, x_out)
    slope = max(abs(a * b / c * hyp2f1(a + 1.0, b + 1.0, c + 1.0, x))
                for x in (x_in, x_out))
    jump = abs(f_out - f_in) - slope * (x_in - x_out)
    assert jump <= 1e-10 * max(abs(f_in), abs(f_out))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(N=st.integers(2, 6), s=st.floats(0.01, 0.99),
       at_N=st.booleans(), offset=st.floats(-0.99e-9, 0.99e-9),
       away=st.floats(2e-9, 1e-3), above=st.booleans())
def test_asymptotic_regime_snaps_onto_boundaries(N, s, at_N, offset, away, above):
    boundary = float(N) if at_N else N - 2.0 * s
    law = frac_lap_h_asymptotic(ProfileParams(N, s, boundary))
    assert law.regime == ("equal_N" if at_N else "equal_N_minus_2s")
    # within 1e-9 of the boundary: the same law, to the bit
    assert frac_lap_h_asymptotic(ProfileParams(N, s, boundary + offset)) == law
    # further out: the neighbouring regime
    beta = boundary + away if above else boundary - away
    neighbour = {(True, True): "above_N", (True, False): "between",
                 (False, True): "between", (False, False): "below_N_minus_2s"}
    assert frac_lap_h_asymptotic(ProfileParams(N, s, beta)).regime \
        == neighbour[(at_N, above)]
