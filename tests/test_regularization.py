"""Regularization-family tests.

The closed-form bridge polynomials are checked against adaptive quadrature
of an independently written cutoff (the integral definitions), and all
bound/branch contracts are sampled.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from chemostokes.errors import ConfigError
from chemostokes import regularization as reg


def reference_chi(s, eps):
    """Independent piecewise cutoff for quadrature oracles."""
    if s <= 1.0 / eps:
        return 1.0
    if s >= 2.0 / eps:
        return 0.0
    r = eps * s - 1.0
    return 1.0 - (6.0 * r**5 - 15.0 * r**4 + 10.0 * r**3)


SAMPLE_FRACTIONS = (0.0, 0.3, 1.0, 1.2, 1.5, 1.8, 2.0, 3.0)


@pytest.mark.parametrize("eps", [0.1, 0.05, 0.5])
def test_f_eps_matches_quadrature(eps):
    for frac in SAMPLE_FRACTIONS:
        s = frac / eps
        want, err = quad(reference_chi, 0.0, s, args=(eps,),
                         points=[1.0 / eps, 2.0 / eps], limit=200)
        assert err < 1e-10
        assert reg.f_eps(s, eps) == pytest.approx(want, abs=1e-9 / eps)


@pytest.mark.parametrize("eps", [0.1, 0.05, 0.5])
def test_g_eps_matches_quadrature(eps):
    for frac in SAMPLE_FRACTIONS:
        s = frac / eps
        want, err = quad(lambda x: x * reference_chi(x, eps), 0.0, s,
                         points=[1.0 / eps, 2.0 / eps], limit=200)
        assert err < 1e-8
        assert reg.g_eps(s, eps) == pytest.approx(want, abs=1e-8 / eps**2)


def test_plateau_values():
    for eps in (0.1, 0.05, 1.0):
        assert reg.f_eps(2.0 / eps, eps) == pytest.approx(1.5 / eps, rel=1e-14)
        assert reg.f_eps(100.0 / eps, eps) == 1.5 / eps
        assert reg.g_eps(2.0 / eps, eps) == pytest.approx(
            8.0 / (7.0 * eps * eps), rel=1e-13)
        assert reg.g_eps(50.0 / eps, eps) == 8.0 / (7.0 * eps * eps)


def test_chi_branch_values():
    eps = 0.1
    assert reg.chi_eps(0.0, eps) == 1.0
    assert reg.chi_eps(1.0 / eps, eps) == 1.0
    assert reg.chi_eps(2.0 / eps, eps) == 0.0
    # midpoint of the bridge: w(1/2) = 6/32 - 15/16 + 10/8 = 1/2
    assert reg.chi_eps(1.5 / eps, eps) == pytest.approx(0.5, rel=1e-14)


def test_identity_below_cutoff():
    eps = 0.05
    s = np.linspace(0.0, 1.0 / eps, 101)
    assert np.array_equal(reg.f_eps(s, eps), s)
    assert np.array_equal(reg.g_eps(s, eps), 0.5 * s * s)
    assert np.all(reg.chi_eps(s, eps) == 1.0)


def chi_polynomial(s, eps):
    """chi_eps through its bridge polynomial on every entry."""
    r = np.clip(eps * np.asarray(s, dtype=float) - 1.0, 0.0, 1.0)
    return 1.0 - reg.smoothstep(r)


def f_polynomial(s, eps):
    """f_eps through its bridge polynomial on every entry."""
    a = np.asarray(s, dtype=float)
    r = np.clip(eps * a - 1.0, 0.0, 1.0)
    w_int = (r * r) * (r * r) * (2.5 + r * (-3.0 + r))
    return np.where(a >= 2.0 / eps, 1.5 / eps, a - w_int / eps)


def same_bits(x, y):
    """Equal arrays bit for bit: the sign of zero and NaN payloads count."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return x.shape == y.shape and np.array_equal(x.view(np.uint64),
                                                 y.view(np.uint64))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(eps=st.floats(1e-6, 1.0),
       fractions=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=30))
def test_identity_below_cutoff_is_the_polynomial_bit_for_bit(eps, fractions):
    """Wherever the short cut below 1/eps applies, chi_eps and f_eps return
    the polynomial's bits; elsewhere they take the polynomial itself."""
    s = np.asarray(fractions) / eps
    edges = np.array([0.0, -0.0, 1.0 / eps])
    for arr in (s, edges, np.concatenate([s, edges]), s[s <= 1.0 / eps]):
        assert same_bits(reg.chi_eps(arr, eps), chi_polynomial(arr, eps))
        assert same_bits(reg.f_eps(arr, eps), f_polynomial(arr, eps))
    assert reg._below_cutoff(edges, eps) == (eps * (1.0 / eps) <= 1.0)


@pytest.mark.parametrize("eps", [1.0, 0.5, 0.1, 0.05, 0.025])
def test_identity_short_cut_edges(eps):
    # one ulp above 1/eps, eps s - 1 > 0: the polynomial path runs
    above = np.array([0.0, np.nextafter(1.0 / eps, np.inf)])
    assert eps * above[1] - 1.0 > 0.0 and not reg._below_cutoff(above, eps)
    assert same_bits(reg.chi_eps(above, eps), chi_polynomial(above, eps))
    assert same_bits(reg.f_eps(above, eps), f_polynomial(above, eps))
    # NaN passes no test, so it reaches the polynomial and propagates
    with_nan = np.array([0.5, np.nan])
    assert np.isnan(reg.chi_eps(with_nan, eps)).tolist() == [False, True]
    assert np.isnan(reg.f_eps(with_nan, eps)).tolist() == [False, True]
    # empty and 0-d inputs keep their shapes and types
    for fun in (reg.chi_eps, reg.f_eps):
        assert fun(np.array([]), eps).shape == (0,)
        assert isinstance(fun(np.float64(0.5), eps), float)
        assert isinstance(fun(np.array(0.5), eps), float)
    assert reg.chi_eps(0.0, eps) == 1.0 and reg.f_eps(-0.0, eps) == 0.0
    # f returns its own array, never the caller's
    s = np.array([0.25, 0.5])
    out = reg.f_eps(s, eps)
    out[0] = 7.0
    assert s[0] == 0.25


@settings(derandomize=True, deadline=None, max_examples=100)
@given(s=st.lists(st.floats(-1.0, 1e6), max_size=30),
       m=st.floats(1.0, 4.0), k_d=st.floats(0.0, 10.0))
def test_d_base_in_place_keeps_its_bits(s, m, k_d):
    a = np.asarray(s, dtype=float)
    expected = k_d * np.power(np.maximum(a, 0.0), m - 1.0)
    assert same_bits(reg.d_base(a, m, k_d), expected)
    if s:
        assert same_bits(reg.d_base(s[0], m, k_d), expected[0])


def test_bounds_sampled():
    rng = np.random.default_rng(29)
    for eps in (1.0, 0.1, 0.025):
        s = np.exp(rng.uniform(np.log(1e-8 / eps), np.log(10.0 / eps), 4000))
        chi = reg.chi_eps(s, eps)
        assert np.all((0.0 <= chi) & (chi <= 1.0))
        f = reg.f_eps(s, eps)
        assert np.all(f >= 0.0) and np.all(f <= s * (1.0 + 1e-15) + 1e-15)
        g = reg.g_eps(s, eps)
        assert np.all(g >= 0.0)
        assert np.all(g <= 0.5 * s * s * (1.0 + 1e-14) + 1e-300)
        d0 = reg.d_base(s, 1.2, 0.7)
        de = reg.d_eps(s, eps, 1.2, 0.7)
        assert np.all(de >= eps * (1.0 - 1e-15))
        assert np.all(de >= d0)
        assert np.all(de <= d0 + 2.0 * eps)


def test_f_monotone_and_converging():
    s = np.linspace(0.0, 100.0, 2001)
    prev_gap = None
    for eps in (0.4, 0.2, 0.1, 0.05):
        f = reg.f_eps(s, eps)
        assert np.all(np.diff(f) >= -1e-12)        # nondecreasing in s
        gap = np.max(s - f)
        if prev_gap is not None:
            assert gap <= prev_gap + 1e-12         # improves as eps drops
        prev_gap = gap
    # convergence: once eps < 1/max(s), f is exactly the identity
    assert np.array_equal(reg.f_eps(s, 0.009), s)


def test_d_base_degenerate_at_zero():
    assert reg.d_base(0.0, 1.2) == 0.0
    assert reg.d_base(0.0, 2.0) == 0.0
    assert reg.d_eps(0.0, 0.05, 1.2) == 0.05
    # m = 1 edge: s^0 = 1 for s > 0
    assert reg.d_base(3.0, 1.0, 2.0) == 2.0


def test_scalar_and_array_round_trip():
    assert isinstance(reg.f_eps(1.0, 0.1), float)
    out = reg.f_eps(np.array([1.0, 2.0]), 0.1)
    assert isinstance(out, np.ndarray) and out.shape == (2,)


def test_property_suite_all_pass():
    reports = reg.run_property_suite([0.1, 0.05, 1.0], n_samples=3000, seed=1)
    for report in reports:
        for res in report.results:
            assert res.passed, f"eps={report.eps} {res.name}: worst={res.worst}"


def test_property_suite_validation():
    with pytest.raises(ConfigError):
        reg.run_property_suite([])
    with pytest.raises(ConfigError):
        reg.run_property_suite([0.0])
    with pytest.raises(ConfigError):
        reg.run_property_suite([1.5])
    with pytest.raises(ConfigError):
        reg.run_property_suite([0.1], n_samples=0)


@pytest.mark.parametrize("m", [1.0, 0.5, np.nan])
def test_property_suite_requires_m_above_1(m):
    with pytest.raises(ConfigError, match="m must be > 1"):
        reg.run_property_suite([0.1], n_samples=10, m=m)
