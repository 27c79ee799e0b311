"""Exponent-algebra tests.

Expected values are either hand-checkable rationals, independent
re-derivations (polynomial roots via np.roots), or frozen outputs of
those oracles.
"""

import math
import re

import numpy as np
import pytest

from chemostokes.errors import ExponentDomainError
from chemostokes import exponents as ex


# ---------- rho ----------

def test_rho_hand_value():
    # 20*2.25^2 - (33-15)*2.25 - 18*0.25 = 101.25 - 40.5 - 4.5
    assert ex.rho(2.25, 1.25) == 56.25


def test_rho_pivot_factorization():
    rng = np.random.default_rng(7)
    for m in rng.uniform(1.0, 3.0, size=1000):
        piv = 9.0 * (m - 1.0)
        lhs = ex.rho(piv, m)
        rhs = piv * (192.0 * m - 215.0)
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(rhs))


def test_rho_positive_beyond_delta1():
    rng = np.random.default_rng(11)
    count = 0
    while count < 1000:
        m = rng.uniform(215.0 / 192.0 + 1e-6, 3.0)
        d1 = ex.delta1(m)
        p = 9.0 * (m - 1.0) - d1 + rng.uniform(1e-9, 50.0)
        assert ex.rho(p, m) > 0.0
        count += 1


def test_delta1_against_polynomial_roots():
    for m in (1.2, 1.25, 1.5, 2.0, 2.75):
        roots = np.roots([20.0, -(33.0 - 12.0 * m), -18.0 * (m - 1.0)])
        p_plus = float(np.max(roots))
        piv = 9.0 * (m - 1.0)
        assert ex.delta1(m) == pytest.approx(piv - p_plus, rel=1e-12)
        assert 0.0 < ex.delta1(m) < piv


def test_delta1_frozen_value():
    # p_plus = (18.6 + sqrt(18.6^2 + 288)) / 40 at m = 1.2
    assert ex.delta1(1.2) == pytest.approx(0.7055359422492808, abs=1e-14)


def test_delta1_domain():
    with pytest.raises(ExponentDomainError):
        ex.delta1(215.0 / 192.0)
    with pytest.raises(ExponentDomainError):
        ex.delta1(1.0)
    assert ex.delta1(215.0 / 192.0 + 1e-9) > 0.0


# ---------- psi / q / identity ----------

def test_psi_hand_values():
    assert ex.psi(2.25, 1.25) == pytest.approx(6.25, rel=1e-14)
    # m = 1.5 kills the constant term: psi = (10*20.25 + 12*4.5)/9
    assert ex.psi(4.5, 1.5) == pytest.approx(28.5, rel=1e-14)
    # fixed point exactly at the threshold m = 9/8
    assert ex.psi(1.125, 1.125) == pytest.approx(1.125, rel=1e-14)


def test_psi_identity_with_space_time_exponent():
    assert ex.space_time_exponent(2.25, 1.25) == 4.0
    # psi(p) = (2(q-1)/3) p + (2q-1)(m-1) exactly when q = (5p+3m-3)/3
    rng = np.random.default_rng(5)
    for _ in range(1000):
        p, m = rng.uniform(1.0, 40.0), rng.uniform(1.0, 3.0)
        q = ex.space_time_exponent(p, m)
        rhs = ex.step_bound(p, q, m)
        assert abs(ex.psi(p, m) - rhs) <= 1e-12 * (1.0 + abs(rhs))


def test_fixed_point_gap_identity():
    rng = np.random.default_rng(13)
    for m in rng.uniform(1.0, 3.0, size=1000):
        piv = 9.0 * (m - 1.0)
        gap = ex.psi(piv, m) - piv
        rhs = 16.0 * (8.0 * m - 9.0) * (m - 1.0)
        assert abs(gap - rhs) <= 1e-10 * (1.0 + abs(rhs))
    assert ex.psi(1.125, 1.125) - 1.125 == 0.0


# ---------- thresholds ----------

def test_threshold_certificate_flips():
    at = ex.threshold_certificate(1.125)
    assert at.above_9_8 is False and at.fixed_point_gap == 0.0
    assert ex.threshold_certificate(1.125 + 1e-6).above_9_8 is True
    assert ex.threshold_certificate(1.125 - 1e-6).above_9_8 is False

    boundary = ex.threshold_certificate(215.0 / 192.0)
    assert boundary.above_215_192 is False
    assert ex.threshold_certificate(215.0 / 192.0 + 1e-9).above_215_192 is True
    assert ex.threshold_certificate(215.0 / 192.0 - 1e-9).above_215_192 is False


def test_threshold_certificate_domain():
    with pytest.raises(ExponentDomainError):
        ex.threshold_certificate(1.0)


# ---------- gamma / delta2 ----------

def test_gamma_frozen_values():
    # psi(2.25, 1.25)/2.25 = 25/9 -> Gamma = 17/9
    assert ex.gamma_of(1.25) == pytest.approx(17.0 / 9.0, rel=1e-14)
    # psi(4.5, 1.5) = 28.5 -> psi/p = 19/3 -> Gamma = 11/3
    assert ex.gamma_of(1.5) == pytest.approx(11.0 / 3.0, rel=1e-14)
    with pytest.raises(ExponentDomainError):
        ex.gamma_of(1.125)


def test_delta2_closed_form_m125():
    # psi(p)/p = Gamma is 10 p^2 - 14 p - 1.125 = 0 at m = 1.25
    p_star = (14.0 + math.sqrt(241.0)) / 20.0
    assert ex.delta2(1.25) == pytest.approx(2.25 - p_star, rel=1e-14)
    # at m = 1.5 the root is 2.1 = 4.5 - 2.4
    assert ex.delta2(1.5) == 2.4


def test_delta2_operational_contract():
    """psi(p)/p >= Gamma holds on the whole closed interval [pivot - delta2,
    pivot] and fails just to the left of it."""
    for m in (1.13, 1.2, 1.25, 1.5, 2.0, 3.0, 10.0, 1e6):
        d2 = ex.delta2(m)
        piv = 9.0 * (m - 1.0)
        gam = ex.gamma_of(m)
        assert 0.0 < d2 < piv - 1.0
        p = np.linspace(piv - d2, piv, 10_001)
        assert np.all(ex.psi(p, m) / p >= gam * (1.0 - 1e-12))
        left = piv - d2 - 1e-6 * piv
        assert ex.psi(left, m) / left < gam


# ---------- admissibility ----------

def test_step_admissible_examples():
    assert ex.step_admissible(1.0, 1.2, 2.0, 1.2) is True
    assert ex.step_admissible(1.0, 1.3, 2.0, 1.2) is False


def test_step_admissible_hypotheses():
    with pytest.raises(ExponentDomainError):
        ex.step_admissible(0.5, 2.0, 2.0, 1.2)
    with pytest.raises(ExponentDomainError):
        ex.step_admissible(1.0, 1.0, 2.0, 1.2)
    with pytest.raises(ExponentDomainError):
        ex.step_admissible(1.0, 2.0, 1.9, 1.2)
    with pytest.raises(ExponentDomainError):
        ex.step_admissible(1.0, 2.0, 2.0, 1.0)


# ---------- linear ladder ----------

def test_linear_ladder_first_entries_and_limit():
    lad = ex.run_linear_ladder(4.0 / 3.0, 1.0, 10.0)
    ps = [e.p for e in lad.entries]
    assert ps[0] == 1.0
    assert ps[1] == pytest.approx(5.0 / 3.0, rel=1e-15)
    assert ps[2] == pytest.approx(19.0 / 9.0, rel=1e-15)
    assert lad.terminated_reason == "converged"
    # reaches the fixed point 3 to 1e-10 well within 100 steps
    hit = [e.k for e in lad.entries if abs(e.p - 3.0) < 1e-10]
    assert hit and min(hit) <= 100
    assert abs(lad.entries[-1].p - 3.0) < 1e-12


def test_linear_ladder_certificates_bit_exact():
    lad = ex.run_linear_ladder(1.3, 1.0, 50.0)
    for prev, entry in zip(lad.entries, lad.entries[1:]):
        cert = entry.certificate
        assert cert.q == 2.0
        assert cert.admissible
        assert cert.bound == entry.p          # equality by construction
        assert entry.p == ex.step_bound(prev.p, 2.0, lad.m)


def test_linear_ladder_random_limits():
    rng = np.random.default_rng(17)
    for _ in range(100):
        m = rng.uniform(10.0 / 9.0 + 1e-3, 3.0)
        piv = 9.0 * (m - 1.0)
        p0 = rng.uniform(1.0, max(1.0 + 1e-6, piv * 0.9))
        lad = ex.run_linear_ladder(m, p0, piv + 10.0)
        assert lad.terminated_reason == "converged"
        assert abs(lad.entries[-1].p - piv) < 1e-12


def test_linear_ladder_cap_and_domain():
    lad = ex.run_linear_ladder(2.0, 1.0, 3.0)   # fixed point 9 above cap
    assert lad.terminated_reason == "reached_cap"
    assert lad.entries[-1].p > 3.0
    with pytest.raises(ExponentDomainError):
        ex.run_linear_ladder(10.0 / 9.0, 1.0, 5.0)
    with pytest.raises(ExponentDomainError):
        ex.run_linear_ladder(1.3, 0.5, 5.0)
    with pytest.raises(ExponentDomainError):
        ex.run_linear_ladder(1.3, 2.0, 1.5)


# ---------- psi ladder ----------

def test_psi_ladder_m125_escape():
    lad = ex.run_psi_ladder(1.25, 1e6)
    assert lad.terminated_reason == "reached_cap"
    assert lad.entries[-1].p > 1e6
    assert len(lad.entries) <= 40
    p0 = lad.entries[0].p
    d1, d2 = ex.delta1(1.25), ex.delta2(1.25)
    assert p0 == pytest.approx(2.25 - min(d1, d2) / 2.0, rel=1e-14)
    gam = ex.gamma_of(1.25)
    for entry in lad.entries:
        assert entry.growth_ok
        assert entry.gamma_floor == pytest.approx(
            gam ** entry.k * p0, rel=1e-12)
    for prev, entry in zip(lad.entries, lad.entries[1:]):
        cert = entry.certificate
        assert cert.admissible
        assert cert.q == ex.space_time_exponent(prev.p, 1.25)
        assert cert.q >= 2.0
        assert abs(entry.p - cert.bound) <= 1e-12 * (1.0 + abs(cert.bound))


def test_psi_ladder_growth_certified_across_m():
    rng = np.random.default_rng(23)
    for _ in range(50):
        m = rng.uniform(1.125 + 1e-4, 3.0)
        lad = ex.run_psi_ladder(m, 1e8)
        assert lad.terminated_reason == "reached_cap"
        assert all(e.growth_ok for e in lad.entries)
        assert all(e.certificate.admissible for e in lad.entries[1:])


def test_psi_ladder_domain():
    with pytest.raises(ExponentDomainError):
        ex.run_psi_ladder(1.125, 1e6)
    with pytest.raises(ExponentDomainError):
        ex.run_psi_ladder(1.1, 1e6)
    with pytest.raises(ExponentDomainError):
        ex.run_psi_ladder(1.25, 0.5)


def test_pivot_overflow_is_refused_by_both_ladders():
    """9(m-1) overflows from m ~ 2e307; the one finiteness test in pivot()
    makes both ladders raise naming m, instead of a linear row of inf or a
    psi error that blames m > 9/8 with a NaN gap."""
    assert ex.pivot(1e300) == 9.0 * (1e300 - 1.0)
    lad = ex.run_linear_ladder(1e300, 1.0, 1e6)
    assert all(math.isfinite(e.p) for e in lad.entries)
    for m in (2e307, 1e308, math.inf):
        with pytest.raises(ExponentDomainError, match=re.escape(f"at m = {m}")):
            ex.pivot(m)
        with pytest.raises(ExponentDomainError, match="pivot 9"):
            ex.run_linear_ladder(m, 1.0, 1e6)
        with pytest.raises(ExponentDomainError, match="pivot 9"):
            ex.run_psi_ladder(m, 1e6)


def test_ladder_domains_reject_nan():
    # every domain check is written so that NaN fails it
    nan = math.nan
    for args in ((nan, 1.0, 5.0), (1.3, nan, 5.0), (1.3, 1.0, nan)):
        with pytest.raises(ExponentDomainError):
            ex.run_linear_ladder(*args)
    for args in ((nan, 1e6), (1.25, nan)):
        with pytest.raises(ExponentDomainError):
            ex.run_psi_ladder(*args)
    for fun in (ex.threshold_certificate, ex.delta1):
        with pytest.raises(ExponentDomainError):
            fun(nan)
