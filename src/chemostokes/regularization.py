"""Epsilon-regularized coefficient families.

The degenerate diffusivity and the chemotactic sensitivity are replaced by
smooth eps-families that restore uniform parabolicity and cap the
sensitivity at large density, without changing anything at moderate
density (s <= 1/eps):

  d_base(s) = k_D s^(m-1)                  degenerate diffusivity
  d_eps(s)  = d_base(s) + eps              uniformly elliptic lift

  chi_eps(s)  C^2 cutoff: 1 on [0, 1/eps], 0 on [2/eps, inf), bridged by
              the quintic smoothstep w(r) = 6r^5 - 15r^4 + 10r^3 via
              chi = 1 - w(eps s - 1).

  f_eps(s) = int_0^s chi_eps               capped-identity: s below 1/eps,
              plateau 3/(2 eps) above 2/eps.

Bridge closed form (r = eps s - 1 in [0, 1]):
  f_eps = s - W(r)/eps,          W(r) = r^4 (r^2 - 3 r + 2.5)
with W(1) = 1/2 giving the plateau value.

Below the cutoff the families are exact: where eps s - 1 <= 0 on every
entry, the clipped r is 0, and chi_eps returns ones and f_eps a copy of
s without evaluating the bridge (the polynomial gives these bits there).
Bounded solutions live in that regime: for m > 9/8 the paper bounds
||n||_inf by a constant M independent of eps, so along eps -> 0, once
eps < 1/M, chi_eps(n) is identically 1 and f_eps(n) = n.  The test is
one max over the array, and NaN fails it, so NaN still propagates
through the polynomial.

All functions are vectorized over s and assume s >= 0 (they are evaluated
on density fields, which the solver keeps nonnegative); values for s < 0
extend the low-density branch.  eps is not validated here (hot path); the
configuration layer enforces eps in (0, 1], and run_property_suite
re-checks every contract by sampling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

# Most sampled densities per eps in run_property_suite.  The samples and
# the arrays derived from them are all held at once: a million peak at
# 160 MiB, ten million at 1.2 GiB.  The default is 10_000.
MAX_PROPERTY_SAMPLES = 10**6


def _match(s, out):
    """Return float for scalar input, ndarray otherwise."""
    return float(out) if np.ndim(s) == 0 else out


def _below_cutoff(a: np.ndarray, eps: float) -> bool:
    """True when eps a - 1 <= 0 on every entry (eps > 0 makes that a test
    of the max), so that the clipped bridge variable r is 0 everywhere.
    False for empty input and for NaN."""
    return a.size > 0 and eps * np.max(a) - 1.0 <= 0.0


def d_base(s, m: float, k_d: float = 1.0):
    """Degenerate diffusivity k_D s^(m-1); vanishes at s = 0 when m > 1."""
    a = np.asarray(s, dtype=float)
    out = np.maximum(a, 0.0, out=np.empty_like(a))
    np.power(out, m - 1.0, out=out)
    out *= k_d
    return _match(s, out)


def d_eps(s, eps: float, m: float, k_d: float = 1.0):
    """Regularized diffusivity d_base + eps.

    Satisfies d_base <= d_eps <= d_base + 2 eps and d_eps >= eps.
    """
    return d_base(s, m, k_d) + eps


def smoothstep(r):
    """Quintic smoothstep w(r) = 6r^5 - 15r^4 + 10r^3 on [0,1].

    w(0)=0, w(1)=1, w' = w'' = 0 at both ends (C^2 bridge).
    """
    r = np.asarray(r, dtype=float)
    return r * r * r * (10.0 + r * (-15.0 + 6.0 * r))


def chi_eps(s, eps: float):
    """C^2 sensitivity cutoff: 1 below 1/eps, 0 above 2/eps."""
    a = np.asarray(s, dtype=float)
    if _below_cutoff(a, eps):
        return _match(s, np.ones_like(a))
    r = np.clip(eps * a - 1.0, 0.0, 1.0)
    return _match(s, 1.0 - smoothstep(r))


def f_eps(s, eps: float):
    """Capped identity f_eps(s) = int_0^s chi_eps.

    Equals s on [0, 1/eps], bridges with s - W(eps s - 1)/eps, and sits at
    the plateau 3/(2 eps) from 2/eps on.  0 <= f_eps <= s and f_eps is
    nondecreasing with derivative chi_eps.
    """
    a = np.asarray(s, dtype=float)
    if _below_cutoff(a, eps):
        return _match(s, a.copy())
    r = np.clip(eps * a - 1.0, 0.0, 1.0)
    w_int = (r * r) * (r * r) * (2.5 + r * (-3.0 + r))   # W(r)
    bridge = a - w_int / eps
    # on [0, 1/eps] the clipped r is 0 (or a few ulps above), so the
    # bridge equals a there bit for bit
    return _match(s, np.where(a >= 2.0 / eps, 1.5 / eps, bridge))


# ============================================================
# property suite (backs the `regcheck` CLI subcommand)
# ============================================================

@dataclass(frozen=True)
class PropertyResult:
    name: str
    passed: bool
    samples: int
    worst: float     # most adverse margin seen (<= tolerance when passed)


@dataclass(frozen=True)
class PropertyReport:
    eps: float
    results: list[PropertyResult]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)


def _sample_points(eps: float, n_samples: int, rng) -> np.ndarray:
    """Sample densities covering all branches: log-uniform over
    [1e-8/eps, 4/eps], plus the breakpoints and 0."""
    lo, hi = np.log(1e-8 / eps), np.log(4.0 / eps)
    s = np.exp(rng.uniform(lo, hi, size=n_samples))
    return np.concatenate([[0.0, 1.0 / eps, 2.0 / eps], s])


def run_property_suite(eps_list, n_samples: int = 10_000,
                       seed: int = 0) -> list[PropertyReport]:
    """Sampled verification of every contract of the eps-families.

    For each eps: the squeeze d_base <= d_eps <= d_base + 2 eps with
    d_eps >= eps, bounds and branch values of chi and f, finite-difference
    agreement of f' with chi, C^2 smoothness of chi at the breakpoints,
    and monotone pointwise convergence f_eps -> identity as eps
    decreases.  The d_eps checks use k_D = 1 and m = 1.2: d_eps is
    d_base + eps at every m, so the squeeze does not depend on m.
    """
    eps_list = list(eps_list)
    if not eps_list:
        raise ConfigError("run_property_suite: eps list must be nonempty")
    for e in eps_list:
        if not 0.0 < e <= 1.0:
            raise ConfigError(
                f"run_property_suite: eps must lie in (0, 1], got {e}")
    if not 1 <= n_samples <= MAX_PROPERTY_SAMPLES:
        raise ConfigError(f"run_property_suite: n_samples must lie in "
                          f"[1, {MAX_PROPERTY_SAMPLES:g}], got {n_samples}")
    if seed < 0:
        raise ConfigError(f"run_property_suite: seed must be >= 0, got {seed}")

    reports = []
    for eps in eps_list:
        rng = np.random.default_rng(seed)
        s = _sample_points(eps, n_samples, rng)
        results = []

        def add(name, margins, tol=0.0):
            worst = float(np.max(margins))
            results.append(PropertyResult(
                name=name, passed=worst <= tol, samples=s.size, worst=worst))

        db = d_base(s, 1.2)
        de = d_eps(s, eps, 1.2)
        add("d_eps_squeeze",
            np.maximum.reduce([db - de, de - (db + 2.0 * eps), eps - de]),
            tol=1e-15 * (1.0 + float(np.max(db))))

        chi = chi_eps(s, eps)
        add("chi_bounds", np.maximum(-chi, chi - 1.0))
        add("chi_low_branch", np.abs(chi[s <= 1.0 / eps] - 1.0))
        add("chi_high_branch", np.abs(chi[s >= 2.0 / eps]))

        f = f_eps(s, eps)
        add("f_squeeze", np.maximum(-f, f - s), tol=1e-12 / eps)
        add("f_plateau",
            np.abs(f[s >= 2.0 / eps] - 1.5 / eps), tol=1e-12 / eps)
        # derivative check away from breakpoints (FD smears across them)
        dhf = 1e-6 / eps
        interior = (s > 2 * dhf) & (np.abs(s - 1.0 / eps) > 2 * dhf) \
            & (np.abs(s - 2.0 / eps) > 2 * dhf)
        si = s[interior]
        fd = (f_eps(si + dhf, eps) - f_eps(si - dhf, eps)) / (2.0 * dhf)
        add("f_prime_is_chi", np.abs(fd - chi_eps(si, eps)), tol=1e-7)

        # C^2 at the breakpoints: one-sided derivative limits agree through
        # order 2.  A merely-C^1 bridge (cubic smoothstep) would show an
        # O(1) normalized mismatch in the second derivative; the quintic's
        # residual is O(eps h) from the (allowed) third-derivative jump.
        worst_c2 = 0.0
        hh = 1e-5 / eps
        for brk in (1.0 / eps, 2.0 / eps):
            for k, scale in ((0, 1.0), (1, eps), (2, eps * eps)):
                left = _one_sided(chi_eps, brk, -hh, k, eps)
                right = _one_sided(chi_eps, brk, hh, k, eps)
                worst_c2 = max(worst_c2, abs(left - right) / scale)
        results.append(PropertyResult(
            name="chi_c2_breakpoints", passed=worst_c2 <= 1e-2,
            samples=12, worst=worst_c2))

        # monotone convergence f_eps -> id: halving eps moves f up toward s
        f_half = f_eps(s, eps / 2.0)
        add("f_monotone_in_eps", f - f_half, tol=1e-12 / eps)

        reports.append(PropertyReport(eps=eps, results=results))
    return reports


def _one_sided(fun, x, h, order, eps):
    """One-sided derivative estimate at x using points x, x+h, x+2h
    (h signed: negative h probes the left limit)."""
    if order == 0:
        return float(fun(x, eps))
    if order == 1:
        return float((fun(x + h, eps) - fun(x, eps)) / h)
    return float((fun(x, eps) - 2.0 * fun(x + h, eps) + fun(x + 2.0 * h, eps))
                 / (h * h))
