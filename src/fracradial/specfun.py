"""Special functions for radial nonlocal operators.

Real Gamma and digamma, the Gauss hypergeometric function 2F1 on the half
line x <= 0, the bump profile h_beta(x) = (1+|x|^2)^(-beta/2), its exact
fractional Laplacian, and the far-field asymptotic law of that fractional
Laplacian in all five decay regimes (with signed constants): the leading
term of the closed form's connection formula.  _gamma_quotient forms every
Gamma quotient here.

Everything here is a pure function of its inputs and safe to call from
multiple threads.  hyp2f1, frac_lap_h_exact and h_beta_eval take a scalar
argument, which gives a float, or an ndarray of arguments, which gives an
array; the parameters (a, b, c, or the profile) are scalars.  An array is
evaluated series by series over all its arguments at once, with the
values a scalar call would give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NonConvergenceError",
    "ProfileParams",
    "AsymptoticLaw",
    "REGIMES",
    "gamma_real",
    "digamma",
    "hyp2f1",
    "riesz_constant",
    "h_beta_eval",
    "frac_lap_h_prefactor",
    "frac_lap_h_exact",
    "frac_lap_h_asymptotic",
]

# Relative tolerance for terminating hypergeometric series.
_SERIES_RTOL = 1e-16
_SERIES_MAX_TERMS = 200_000

# Terms per block of the series sums (_sum_series): a block holds _BLOCK
# terms of every argument still running, fewer while more than
# _BLOCK_CELLS / _BLOCK arguments run, so that each of its arrays stays
# within _BLOCK_CELLS doubles (32 kB).  For the 2400 arguments of a kernel
# table, blocks of 32 terms took the peak traced memory of a table build
# from 0.4 MB to 4.9 MB; with the cap it is 0.7 MB.
_BLOCK = 32
_BLOCK_CELLS = 4096
_BLOCK_TERMS = np.arange(_BLOCK, dtype=float)

# Tolerance for "is this float an integer" decisions in parameter validation.
_INT_SNAP = 1e-12

# Euler's constant, -psi(1).
_EULER_GAMMA = 0.5772156649015329

# Regime boundaries are snapped to the degenerate case inside this window.
_REGIME_SNAP = 1e-9

# Left of this argument hyp2f1 leaves the Pfaff series for the connection
# formulas of _hyp_large_x.  The Pfaff series runs in w = x/(x-1), which
# tends to 1 as x falls: at x = -5 (w = 5/6) it needs about 200 terms, at
# x = -100 (w = 0.99) 2600 to 3800.  The connection series run in
# u = 1/(1-x) <= 1/6 here and need about 20 each.  A seam at -10 costs
# about 25% more 2F1 time on the oracle radii.
_CONNECTION_SEAM = -5.0

# The connection terms cancel next to a zero of F, or for b - a near an
# integer, and their rounding then grows with size/|F| (size: the sum of
# the terms' magnitudes); against mpmath (40 digits) the relative error
# stayed below 1e-15 size/|F| + 3.5e-13.  So on [_PFAFF_FLOOR, _CONNECTION_SEAM)
# hyp2f1 falls back to the Pfaff series, which needs at most ~3800 terms
# there, when size exceeds _CANCEL_LIMIT |F|.  On (-100, -5] (2 x 4800
# random points of the checked parameter box, 27712 with b - a at and near
# integers) the result was at most 7.4e-12 off, and the connection branch
# below the limit at most 8.0e-13.  The oracle's cases stay below
# size/|F| = 22 and never fall back; of 1000 kernel triples (N = 2..6, p
# across (-N - 2, 0)) 4 do somewhere, all with b - a within 0.012 of an
# integer.
_PFAFF_FLOOR = -100.0
_CANCEL_LIMIT = 1e3

# Within this distance of an integer the connection terms, with coefficients
# Gamma(b-a) and Gamma(a-b), cancel, so _hyp_large_x interpolates the
# function in b through points this far apart instead.
_NEAR_INT = 1e-3

REGIMES = ("above_N", "equal_N", "between", "equal_N_minus_2s", "below_N_minus_2s")


class NonConvergenceError(RuntimeError):
    """An iterative computation failed to reach its tolerance."""


def _is_integer(v: float) -> bool:
    return abs(v - round(v)) <= _INT_SNAP * max(1.0, abs(v))


def _check_argument(name: str, x: float) -> None:
    """A ValueError naming the function `name` if x is NaN, -inf or a pole
    of Gamma (0, -1, -2, ...)."""
    if not x > -math.inf:
        raise ValueError(f"{name}: argument must be a number above -inf, got {x!r}")
    if x <= 0.0 and _is_integer(x):
        raise ValueError(f"{name}: pole at x = {x!r} (zero or negative integer)")


def gamma_real(x: float) -> float:
    """Gamma function on the real line away from the poles.

    Wraps the C library tgamma (relative error comfortably below 1e-12 for
    |x| <= 50, reflection for negative arguments included) and turns the
    poles at 0, -1, -2, ..., NaN and -inf into a ValueError instead of a
    platform-dependent error value.
    """
    _check_argument("gamma_real", x)
    return math.gamma(x)


def _gamma_quotient(num, den, scale: float = 1.0) -> float:
    """scale * prod Gamma(num) / prod Gamma(den), zero at a pole of den
    (1/Gamma is entire).  A pole in num raises ValueError."""
    if any(x <= 0.0 and _is_integer(x) for x in den):
        return 0.0
    return (math.prod(map(gamma_real, num), start=scale)
            / math.prod(map(math.gamma, den)))


def digamma(x: float) -> float:
    """Digamma psi(x) = Gamma'(x) / Gamma(x) on the real line away from the
    poles at 0, -1, -2, ...

    Negative x reflects, psi(x) = psi(1 - x) - pi cot(pi x).  Positive x
    below 10 recurs upward, psi(x) = psi(x + k) - sum_{j<k} 1/(x + j); from
    10 on, the asymptotic series log x - 1/(2x) - sum_j B_2j / (2j x^(2j))
    through x^(-14) is within 1e-16 of psi.

    Raises
    ------
    ValueError
        At a pole, NaN or -inf.
    """
    _check_argument("digamma", x)
    if x < 0.0:
        # cot has period 1 and t = x - round(x) is exact; for |t| >= 1/4,
        # cot(pi t) = tan(pi (+-1/2 - t)) keeps tan's argument within pi/4
        t = x - round(x)
        if abs(t) < 0.25:
            cot = 1.0 / math.tan(math.pi * t)
        else:
            cot = math.tan(math.pi * (math.copysign(0.5, t) - t))
        return digamma(1.0 - x) - math.pi * cot
    shift = 0.0
    while x < 10.0:
        shift += 1.0 / x
        x += 1.0
    z = 1.0 / (x * x)
    series = z * (1.0 / 12.0 - z * (1.0 / 120.0 - z * (1.0 / 252.0 - z * (
        1.0 / 240.0 - z * (1.0 / 132.0 - z * (691.0 / 32760.0 - z / 12.0))))))
    return math.log(x) - 0.5 / x - series - shift


# ----------------------------------------------------------------------------
# Gauss hypergeometric function on x <= 0
# ----------------------------------------------------------------------------

def _digamma_run(x0: float, n: np.ndarray) -> np.ndarray:
    """psi(x0 + n) - psi(x0) as a column, for the consecutive term indices n
    of a block, by psi(x + 1) = psi(x) + 1/x added in order from n = 0."""
    steps = 1.0 / (x0 + np.arange(n[-1]))
    return np.cumsum(np.concatenate(([0.0], steps)))[int(n[0]):, None]


def _sum_series(z: np.ndarray, ratio, bracket=None, first: float = 1.0,
                floor=None, sized: bool = False, what: str = "2F1 series"):
    """sum_n poch_n bracket_n at every argument of the 1-d array z, and with
    `sized` the sum of the terms' magnitudes (else None).

    poch_0 = first and poch_(n+1) = poch_n * (ratio(n) * z); bracket(n, cols)
    gives the brackets of the terms n at the arguments z[cols] (1 without
    it).  Both take the term indices of a block as a float array.  Each
    argument adds its terms in order and stops at the first n >= 1 with
    |term| <= _SERIES_RTOL max(|sum|, floor), the sum including that term:
    the term, and the roundings, of a term-by-term loop.  The terms are
    formed a block at a time (see _BLOCK) for the arguments still running,
    by cumprod and cumsum down each column.
    """
    total = np.empty_like(z)
    size = np.empty_like(z) if sized else None
    cols = np.arange(z.size)
    zc = z
    poch = np.full(z.size, first)
    acc = acc_size = np.zeros(z.size)
    n0 = 0
    while cols.size:
        if n0 >= _SERIES_MAX_TERMS:
            raise NonConvergenceError(
                f"{what} did not converge at z={float(zc[0])!r}")
        rows = max(1, min(_BLOCK, _BLOCK_CELLS // cols.size))
        n = n0 + _BLOCK_TERMS[:rows]
        step = ratio(n)[:, None] * zc
        pochs = np.concatenate((poch[None], step[:-1])).cumprod(axis=0)
        terms = pochs if bracket is None else pochs * bracket(n, cols)
        mags = np.abs(terms)
        sums = np.concatenate(((acc + terms[0])[None], terms[1:])).cumsum(axis=0)
        scale = np.abs(sums)
        if floor is not None:
            np.maximum(scale, floor[cols], out=scale)
        stop = mags <= _SERIES_RTOL * scale
        stop[0] &= n0 > 0
        poch, acc = pochs[-1] * step[-1], sums[-1]
        if sized:
            sizes = np.concatenate(
                ((acc_size + mags[0])[None], mags[1:])).cumsum(axis=0)
            acc_size = sizes[-1]
        done = stop.any(axis=0)
        if done.any():
            at = stop.argmax(axis=0)[done]
            total[cols[done]] = sums[at, done]
            if sized:
                size[cols[done]] = sizes[at, done]
            run = ~done
            cols, zc, poch, acc, acc_size = (
                cols[run], zc[run], poch[run], acc[run], acc_size[run])
        n0 += rows
    return total, size


def _defining_series(a: float, b: float, c: float, z: np.ndarray) -> np.ndarray:
    """Defining series sum_n (a)_n (b)_n / ((c)_n n!) z^n for |z| < 1, at
    every argument of the 1-d array z.

    c must not be a non-positive integer; callers guarantee c > 0 here.
    When a or b is a non-positive integer the series ends at its first zero
    term, which meets the stopping rule of _sum_series.
    """
    return _sum_series(
        z, lambda n: (a + n) * (b + n) / ((c + n) * (1.0 + n)),
        what=f"2F1 series for (a={a}, b={b}, c={c})")[0]


def _hyp_large_x(a: float, b: float, c: float,
                 x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """2F1(a, b, c; x) for x < _CONNECTION_SEAM = -5, by _hyp_connection,
    with the size of the terms it summed (see _CANCEL_LIMIT).

    When b - a lies within _NEAR_INT of an integer k <= 0 without equalling
    it, the two connection terms are huge and of opposite sign (they lose
    up to ~1e-3 relative for b - a = k + 5e-12), and inside the integer snap
    the integer formula is off by the slope times the distance.  2F1 is
    smooth in b there, so it is taken from the 5-point Lagrange polynomial
    through b = a + k + j _NEAR_INT, j = -2..2; the j = 0 point uses the
    integer formula and the others stay at least _NEAR_INT from it.  For
    k > 0 (b - a never equals it: hyp2f1 rejects a - b a negative integer)
    a and b are exchanged, since 2F1 is symmetric in them.  The size is
    then sum_j |weight_j| size_j.  Just outside the window the two terms
    are still about 1/(b - a - k) times F and cancel: against mpmath,
    b - a - k = +-1.2e-3 is up to 1.7e-12 of |F| off on x in (-100, -5],
    and more where F itself nears a zero, where hyp2f1 falls back to the
    Pfaff series.
    """
    k = round(b - a)
    t = (b - a - k) / _NEAR_INT
    if k > 0 and abs(t) < 1.0:
        return _hyp_large_x(b, a, c, x)
    if k > 0 or t == 0.0 or abs(t) >= 1.0:
        return _hyp_connection(a, b, c, x)
    stencil = range(-2, 3)
    total = size = 0.0
    for j in stencil:
        weight = math.prod((t - i) / (j - i) for i in stencil if i != j)
        value, size_j = _hyp_connection(a, a + k + j * _NEAR_INT, c, x)
        total += weight * value
        size += abs(weight) * size_j
    return total, size


def _connection_coefficients(a: float, b: float,
                             c: float) -> tuple[float, float, float]:
    """Leading coefficients (first, second, psi) of 2F1(a, b, c; x) as
    x -> -inf, from the w -> 1 connection formulas of its Pfaff form
    (1-x)^(-a) 2F1(a, c-b, c; w), w = x/(x-1), u = 1 - w = 1/(1-x):

        2F1 ~ first (1-x)^(-a) + second (1-x)^(-b)       (b - a not an integer),
        2F1 ~ first (1-x)^(-a) (log u + psi) / m! + second (1-x)^(-b)

    for a - b = m >= 0 an integer, where second leads the finite part of m
    terms (0 for m = 0) and psi is the logarithmic series' n = 0 offset.

    References
    ----------
    .. [AS] Abramowitz & Stegun, Handbook of Mathematical Functions,
            15.3.6, 15.3.10, 15.3.12 (applied after 15.3.4).
    """
    A, B, C = a, c - b, c
    d = b - a  # equals C - A - B
    if not _is_integer(d):
        return (_gamma_quotient((C, d), (C - A, C - B)),
                _gamma_quotient((C, -d), (A, B)), 0.0)
    m = round(-d)
    second = _gamma_quotient((m, C), (A, B)) if m else 0.0
    first = _gamma_quotient((C,), (A - m, B - m), -((-1.0) ** m))
    # A or B at a pole puts A - m or B - m at one, and first is then 0
    psi = (digamma(A) + digamma(B) + _EULER_GAMMA - digamma(m + 1.0)
           if first != 0.0 else 0.0)
    return first, second, psi


def _hyp_connection(a: float, b: float, c: float,
                    x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """2F1(a, b, c; x) for large negative x via connection formulas, and
    the sum of the magnitudes of the terms that make it up: the series in
    u = 1/(1-x) that _connection_coefficients' terms lead, each scaled by
    its own power (1-x)^(-a) or (1-x)^(-b).  Far out, (1-x)^(-a) underflows
    where (1-x)^(a-b) overflows, so their product would be no number.
    """
    u = 1.0 / (1.0 - x)
    A, B, C = a, c - b, c
    first, second, psi = _connection_coefficients(a, b, c)
    d = b - a
    if not _is_integer(d):
        s1 = _defining_series(A, B, 1.0 - d, u) if first != 0.0 else 0.0
        s2 = _defining_series(C - A, C - B, 1.0 + d, u) if second != 0.0 else 0.0
        t1 = (1.0 - x) ** (-a) * (first * s1)
        t2 = (1.0 - x) ** (-b) * (second * s2)
        return t1 + t2, np.abs(t1) + np.abs(t2)

    m = round(-d)
    finite = finite_size = 0.0
    poch = 1.0
    for n in range(m):
        term = poch * u ** n
        finite += term
        finite_size += abs(term)
        if n + 1 < m:
            poch *= (A - m + n) * (B - m + n) / ((n + 1.0) * (n + 1.0 - m))
    log_part = log_size = 0.0
    if first != 0.0:
        log_u = np.log(u)

        def bracket(n, cols):
            return (log_u[cols] + psi - _digamma_run(1.0, n)
                    - _digamma_run(m + 1.0, n)
                    + _digamma_run(A, n) + _digamma_run(B, n))

        # the finite part in the logarithmic series' units, infinite where
        # the logarithmic part is below its rounding
        with np.errstate(over="ignore"):
            floor = np.abs(finite) * (1.0 - x) ** m if m else None
        log_part, log_size = _sum_series(
            u, lambda n: (A + n) * (B + n) / ((n + 1.0) * (n + m + 1.0)), bracket,
            first=1.0 / math.gamma(m + 1.0), floor=floor,
            sized=True, what="logarithmic 2F1 series")
    lead_a, lead_b = (1.0 - x) ** (-a), (1.0 - x) ** (m - a)
    return (lead_b * (second * finite) + lead_a * (first * log_part),
            lead_b * (abs(second) * finite_size) + lead_a * (abs(first) * log_size))


def hyp2f1(a: float, b: float, c: float, x):
    """Gauss hypergeometric function 2F1(a, b, c; x) for x <= 0.

    x is a scalar, which gives a float, or an ndarray, which gives an array
    of its shape.  An array is evaluated in one pass per branch: each series
    runs over all the arguments that take it, and every argument stops at
    the term, and gets the value, a call with it alone would (see
    _sum_series).

    Parameters are restricted to the domain the far-field lemmas need:
    a, b, c > 0, and the only integer degeneracies admitted are
    a - b integer (a negative one by swapping a and b, under which 2F1 is
    symmetric) and b - c in {0, 1}.  Anything else raises ValueError up
    front rather than silently computing a wrong branch.

    Evaluation: defining series on (-1/2, 0]; Pfaff transformation
    2F1(a,b,c;x) = (1-x)^(-a) 2F1(a, c-b, c; x/(x-1)) plus the series on
    [-5, -1/2]; for x < -5 the w -> 1 connection formulas of the
    transformed series (including the logarithmic cases), whose series in
    1/(1-x) converge in tens of terms there where the Pfaff series would
    need thousands near x = -100 (see _CONNECTION_SEAM).  On [-100, -5)
    the Pfaff series still takes over where the connection terms cancel
    to less than 1/_CANCEL_LIMIT of their size.  The b - c in {0, 1}
    families terminate after the Pfaff map and are evaluated in closed
    form for every x.

    Relative accuracy target is 1e-10 across x in [-4e26, 0], also for
    b - a just off an integer on either side (see _hyp_large_x), as long as
    the value stays a normal double.  The far end is the angular kernel's
    argument -4 (1 + gap) / gap^2 at gap 1e-13 (radial_ops).  The target is
    checked on the parameters the package passes, for N in 2..6:

    * (N/2 + s, beta/2 + s, N/2) with s in (0, 1) and beta in (0, N + 2s]
      (frac_lap_h_exact);
    * (max(-p/2, (N-1)/2), min(-p/2, (N-1)/2), N - 1) with p in (-N - 2, 0)
      (the angular kernel of both operators, radial_ops._kernel_at_gap).

    Outside that box the defining series just above x = -1/2 can lose more
    for large a, b and small c: at (a, b, c) = (4.99, 5.87, 1.24) it is
    1.1e-9 of |F| off the Pfaff branch across the seam.

    Raises
    ------
    ValueError
        If parameters lie outside the validated domain, or any x is
        positive or not finite.
    NonConvergenceError
        If an internal series fails its tolerance budget.
    """
    for name, v in (("a", a), ("b", b), ("c", c)):
        if not (v > 0.0) or not math.isfinite(v):
            raise ValueError(f"hyp2f1: parameter {name} must be positive, got {v!r}")
    shape = np.shape(x)
    x = np.array(x, dtype=float).ravel()
    for bad, rule in ((~np.isfinite(x), "be finite"),
                      (x > 0.0, "satisfy x <= 0")):
        if bad.any():
            raise ValueError(
                f"hyp2f1: argument must {rule}, got {float(x[bad][0])!r}")
    out = np.ones_like(x)  # the value at x = 0
    live = x != 0.0

    if _is_integer(b - c) and b - c >= -_INT_SNAP:
        k = round(b - c)
        if k not in (0, 1):
            raise ValueError(
                f"hyp2f1: b - c = {b - c} is a non-negative integer outside {{0, 1}}"
            )
        # Terminating Pfaff series: F(a, c-b, c; w) is a polynomial in w.
        xs = x[live]
        out[live] = (1.0 - xs) ** (-a)
        if k == 1:
            w = xs / (xs - 1.0)
            out[live] *= 1.0 - a * w / c
    elif _is_integer(a - b) and a - b < -_INT_SNAP:
        # 2F1 is symmetric in a and b, and a - b = m > 0 has its branch
        return hyp2f1(b, a, c, x.reshape(shape))
    else:
        near = live & (x > -0.5)
        if near.any():
            out[near] = _defining_series(a, b, c, x[near])
        pfaff = live & ~near
        far = x < _CONNECTION_SEAM
        if far.any():
            value, size = _hyp_large_x(a, b, c, x[far])
            keep = ((x[far] < _PFAFF_FLOOR)
                    | (size <= _CANCEL_LIMIT * np.abs(value)))
            out[far] = value
            pfaff[far] = ~keep
        if pfaff.any():
            xs = x[pfaff]
            out[pfaff] = (1.0 - xs) ** (-a) * _defining_series(
                a, c - b, c, xs / (xs - 1.0))
    return float(out[0]) if shape == () else out.reshape(shape)


# ----------------------------------------------------------------------------
# Riesz normalization and the bump profiles
# ----------------------------------------------------------------------------

def _riesz_normalization(N: int, alpha: float) -> float:
    """C_{N,alpha} = Gamma((N-alpha)/2) / (2^alpha pi^(N/2) Gamma(alpha/2))
    for any alpha < N.  At alpha = -2s, s in (0, 1), it is -C_{N,s}, minus
    the normalization of the pointwise fractional Laplacian."""
    return _gamma_quotient(((N - alpha) / 2.0,), (alpha / 2.0,),
                           2.0 ** -alpha * math.pi ** (-N / 2.0))


def riesz_constant(N: int, alpha: float) -> float:
    """Normalization C_{N,alpha} of the Riesz kernel C_{N,alpha} |x|^(alpha-N).

    C_{N,alpha} = Gamma((N-alpha)/2) / (2^alpha pi^(N/2) Gamma(alpha/2)),
    positive on the whole admissible range 0 < alpha < N.
    """
    if int(N) != N or N < 1:
        raise ValueError(f"riesz_constant: N must be a positive integer, got {N!r}")
    if not (0.0 < alpha < N):
        raise ValueError(f"riesz_constant: alpha must lie in (0, N), got {alpha!r}")
    return _riesz_normalization(N, alpha)


def h_beta_eval(r, beta: float):
    """The profile h_beta(r) = (1 + r^2)^(-beta/2).

    Accepts a scalar or an ndarray of radii.
    """
    if not (beta > 0.0):
        raise ValueError(f"h_beta_eval: beta must be positive, got {beta!r}")
    r = np.asarray(r, dtype=float)
    out = (1.0 + r * r) ** (-beta / 2.0)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class ProfileParams:
    """Parameters of the profile h_beta in dimension N with fractional order s.

    Attributes
    ----------
    N : int
        Space dimension, at least 2.
    s : float
        Fractional order of the operator, in (0, 1).
    beta : float
        Profile decay exponent, in (0, N + 2s].
    """

    N: int
    s: float
    beta: float

    def __post_init__(self):
        if int(self.N) != self.N or self.N < 2:
            raise ValueError(f"ProfileParams: N must be an integer >= 2, got {self.N!r}")
        if not (0.0 < self.s < 1.0):
            raise ValueError(f"ProfileParams: s must lie in (0, 1), got {self.s!r}")
        if not (0.0 < self.beta <= self.N + 2.0 * self.s):
            raise ValueError(
                f"ProfileParams: beta must lie in (0, N + 2s] = "
                f"(0, {self.N + 2.0 * self.s}], got {self.beta!r}"
            )


def frac_lap_h_prefactor(p: ProfileParams) -> float:
    """Constant C in (-Delta)^s h_beta = C * 2F1(N/2+s, beta/2+s, N/2; -r^2).

    C = 2^(2s) Gamma(N/2+s) Gamma(beta/2+s) / (Gamma(N/2) Gamma(beta/2)),
    strictly positive for every valid parameter set.
    """
    N, s, beta = p.N, p.s, p.beta
    return _gamma_quotient((N / 2.0 + s, beta / 2.0 + s), (N / 2.0, beta / 2.0),
                           2.0 ** (2.0 * s))


def frac_lap_h_exact(r, p: ProfileParams):
    """Pointwise (-Delta)^s h_beta at radius r, in closed form.

    The closed form is a positive prefactor (see frac_lap_h_prefactor) times
    2F1(N/2 + s, beta/2 + s, N/2; -r^2).  It is evaluated at r = 0 as well
    (the hypergeometric series is 1 there); the profile is smooth at the
    origin, so nothing special happens to the formula.

    r is a scalar, which gives a float, or an ndarray of radii, which gives
    an array from one hyp2f1 call; each value equals the scalar call's.  A
    negative or NaN radius, or one whose square overflows, raises ValueError.
    """
    r = np.asarray(r, dtype=float)
    bad = ~(r >= 0.0)
    if bad.any():
        raise ValueError(
            f"frac_lap_h_exact: radius must be >= 0, got {float(r[bad][0])!r}")
    with np.errstate(over="ignore"):
        x = -(r * r)
    bad = np.isinf(x)
    if bad.any():
        raise ValueError(
            f"frac_lap_h_exact: radius must have a finite square, at most "
            f"{math.sqrt(np.finfo(float).max)!r}, got {float(r[bad][0])!r}")
    N, s, beta = p.N, p.s, p.beta
    value = hyp2f1(N / 2.0 + s, beta / 2.0 + s, N / 2.0, x)
    return frac_lap_h_prefactor(p) * value


@dataclass(frozen=True)
class AsymptoticLaw:
    """Far-field law of (-Delta)^s h_beta: regime, exponent, signed constant.

    The model value at radius r is

        constant * (log r + log_offset) * r^(-exponent)   in the log regime
                                                          (beta = N),
        constant * h_exponent(r)                          in the exact regime
                                                          (beta = N - 2s),
        constant * r^(-exponent)                          otherwise.

    log_offset is the second-order term of the logarithmic expansion; with it
    the model matches the closed form to a fraction of a percent already at
    r ~ 100 instead of converging like 1/log r.
    """

    regime: str
    exponent: float
    constant: float
    log_offset: float = 0.0

    @property
    def has_log_factor(self) -> bool:
        return self.regime == "equal_N"

    def evaluate(self, r):
        """Model value at radius r (scalar or ndarray), valid for r > 1."""
        r = np.asarray(r, dtype=float)
        if self.has_log_factor:
            out = self.constant * (np.log(r) + self.log_offset) * r ** (-self.exponent)
        elif self.regime == "equal_N_minus_2s":
            # The identity is exact at every radius, not only asymptotically.
            out = self.constant * (1.0 + r * r) ** (-self.exponent / 2.0)
        else:
            out = self.constant * r ** (-self.exponent)
        return float(out) if out.ndim == 0 else out


def frac_lap_h_asymptotic(p: ProfileParams) -> AsymptoticLaw:
    """Asymptotic regime of (-Delta)^s h_beta as r -> infinity.

    Five regimes, split by where beta sits relative to N - 2s and N:

    * beta in (N, N + 2s]        decay r^(-(N+2s)), negative constant
    * beta = N                   decay log(r) r^(-(N+2s)), negative constant
    * beta in (N - 2s, N)        decay r^(-(beta+2s)), negative constant
    * beta = N - 2s              exact identity against h_{N+2s}, positive
    * beta in (0, N - 2s)        decay r^(-(beta+2s)), positive constant

    The law is the leading term of the closed form as r -> inf, with
    1 - x = 1 + r^2 ~ r^2: the prefactor times the first coefficient of
    _connection_coefficients above N, the second below N, and -2 times the
    logarithmic one at N (log u ~ -2 log r).  At N - 2s the 2F1 is
    (1-x)^(-N/2-s) itself, and the constant is the prefactor.

    Values of beta within 1e-9 of a boundary are snapped onto it, since the
    constants have removable ambiguity exactly there.
    """
    N, s, beta = p.N, float(p.s), float(p.beta)
    two_s = 2.0 * s
    if abs(beta - N) <= _REGIME_SNAP:
        beta, regime = float(N), "equal_N"
    elif abs(beta - (N - two_s)) <= _REGIME_SNAP:
        beta, regime = N - two_s, "equal_N_minus_2s"
    else:
        regime = ("above_N" if beta > N else
                  "between" if beta > N - two_s else "below_N_minus_2s")
    prefactor = frac_lap_h_prefactor(ProfileParams(N, s, beta))
    if regime == "equal_N_minus_2s":
        return AsymptoticLaw(regime, N + two_s, prefactor)
    first, second, psi = _connection_coefficients(N / 2.0 + s, beta / 2.0 + s,
                                                  N / 2.0)
    if regime == "equal_N":
        return AsymptoticLaw(regime, N + two_s, -2.0 * prefactor * first,
                             log_offset=-psi / 2.0)
    if regime == "above_N":
        return AsymptoticLaw(regime, N + two_s, prefactor * first)
    return AsymptoticLaw(regime, beta + two_s, prefactor * second)
