"""Exponent algebra for the integrability bootstrap.

The nonlinear diffusion exponent m > 1 controls how far an L^p bound on the
cell density can be upgraded.  Everything here is scalar bookkeeping around
two quadratics and two iteration schemes:

  rho(p)   = 20 p^2 - (33 - 12 m) p - 18 (m - 1)
             sign certificate: rho > 0 marks exponents p where the coupled
             estimate closes.  At the pivot p = 9(m-1) it factors as
             9 (m-1) (192 m - 215), hence the threshold m > 215/192.

  psi(p)   = (10 p^2 + (36 m - 42) p + (m-1)(18 m - 27)) / 9
             one bootstrap round: an L^p density bound yields L^psi(p).
             Identity: psi(p) = (2(q-1)/3) p + (2q-1)(m-1) with
             q = (5p + 3m - 3)/3 (the space-time exponent), which is how
             each round is certified admissible.  The fixed-point gap
             psi(9(m-1)) - 9(m-1) = 16 (8m - 9)(m - 1) gives m > 9/8.

  Gamma(m) = 1 + 8 (8m - 9)/9, halfway between 1 and psi(p)/p at the
             pivot.  psi(p)/p >= Gamma is the quadratic
             10 p^2 + (21 - 28m) p + (m-1)(18m - 27) >= 0, whose larger
             root fixes the margin delta2 below the pivot.

  linear ladder  p_{k+1} = (2/3) p_k + 3(m-1), the q = 2 bootstrap round;
             increases to its fixed point 9(m-1) whenever m > 10/9.

  psi ladder     p_k = psi(p_{k-1}), started just below the pivot; grows
             at least geometrically with ratio Gamma(m) > 1 once m > 9/8.

Every domain check is written as "not (inside)", so that NaN fails it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ExponentDomainError

# thresholds, exact in binary floating point where it matters
M_RHO = 215.0 / 192.0   # rho(9(m-1)) > 0 above this
M_LINEAR = 10.0 / 9.0   # linear-ladder fixed point exceeds 1 above this

_MAX_ITER = 10_000


# ============================================================
# scalar algebra
# ============================================================

def rho(p: float, m: float) -> float:
    """Sign certificate rho(p) = 20 p^2 - (33 - 12m) p - 18 (m-1).

    Total on all real inputs; positivity is what callers test.
    """
    return 20.0 * p * p - (33.0 - 12.0 * m) * p - 18.0 * (m - 1.0)


def psi(p: float, m: float) -> float:
    """One bootstrap round: L^p density bound -> L^psi(p) bound.

    psi(p) = (10 p^2 + (36m - 42) p + (m-1)(18m - 27)) / 9.  Total, and
    elementwise on arrays of p.
    """
    return (10.0 * p * p + (36.0 * m - 42.0) * p
            + (m - 1.0) * (18.0 * m - 27.0)) / 9.0


def space_time_exponent(p: float, m: float) -> float:
    """Exponent q = (5p + 3m - 3)/3 of the space-time density estimate.

    An L^p density bound controls the density in L^q of space-time; this
    is the q at which each psi-ladder round is admissible with equality.
    """
    return (5.0 * p + 3.0 * (m - 1.0)) / 3.0


def pivot(m: float) -> float:
    """Limiting exponent 9(m-1) of the linear ladder.

    Both ladders aim at it, so it is where they refuse an m too large for
    floats: 9(m-1) overflows from m ~ 2e307, and the call raises there.
    """
    piv = 9.0 * (m - 1.0)
    if not math.isfinite(piv):
        raise ExponentDomainError(
            f"pivot 9(m-1) overflows a float at m = {m}")
    return piv


def step_bound(p_star: float, q: float, m: float) -> float:
    """Largest p reachable in one admissible bootstrap round from p_star.

    bound = (2(q-1)/3) p_star + (2q-1)(m-1).
    """
    return (2.0 * (q - 1.0) / 3.0) * p_star + (2.0 * q - 1.0) * (m - 1.0)


def step_admissible(p_star: float, p: float, q: float, m: float) -> bool:
    """Whether the bootstrap round p_star -> p is admissible at exponent q.

    Hypotheses p_star >= 1, p > 1, q >= 2, m > 1 are enforced; outside them
    the bound does not apply and the call raises.  The comparison allows a
    1e-12 relative round-off margin so that the equality case (ladder steps
    land exactly on the bound) does not flicker.
    """
    if not p_star >= 1.0:
        raise ExponentDomainError(
            f"step_admissible: p_star must be >= 1, got {p_star}")
    if not p > 1.0:
        raise ExponentDomainError(
            f"step_admissible: p must be > 1, got {p}")
    if not q >= 2.0:
        raise ExponentDomainError(
            f"step_admissible: q must be >= 2 (below it the space-time "
            f"estimate does not control the round), got {q}")
    if not m > 1.0:
        raise ExponentDomainError(
            f"step_admissible: m must be > 1, got {m}")
    bound = step_bound(p_star, q, m)
    return p <= bound + 1e-12 * (1.0 + abs(bound))


def delta1(m: float) -> float:
    """Distance delta1 = 9(m-1) - p_plus from the pivot down to the larger
    root of rho.  Requires m > 215/192 so that rho(9(m-1)) > 0; then every
    p > 9(m-1) - delta1 has rho(p) > 0.
    """
    if not m > M_RHO:
        raise ExponentDomainError(
            f"delta1 requires m > 215/192: rho(9(m-1)) = 9(m-1)(192m-215) "
            f"must be positive, got m = {m}")
    b = 33.0 - 12.0 * m
    p_plus = (b + math.sqrt(b * b + 1440.0 * (m - 1.0))) / 40.0
    return pivot(m) - p_plus


@dataclass(frozen=True)
class ThresholdCertificate:
    """Sign evidence for the two m-thresholds, evaluated at the pivot."""
    m: float
    fixed_point_gap: float   # psi(9(m-1)) - 9(m-1) = 16 (8m-9)(m-1)
    above_9_8: bool
    rho_at_pivot: float      # rho(9(m-1)) = 9 (m-1)(192m - 215)
    above_215_192: bool


def threshold_certificate(m: float) -> ThresholdCertificate:
    """Evaluate both threshold signs at the pivot p = 9(m-1).

    Requires m > 1.  above_215_192 carries a small round-off guard:
    float(215/192) rounds up, so at the threshold itself rho evaluates to
    ~+1e-14 and a bare sign test would misreport the boundary.  Genuine
    positives clear the guard by several orders of magnitude.
    """
    if not m > 1.0:
        raise ExponentDomainError(
            f"threshold_certificate requires m > 1, got {m}")
    piv = pivot(m)
    gap = psi(piv, m) - piv
    r = rho(piv, m)
    guard = 4e-12 * (1.0 + piv * piv)
    return ThresholdCertificate(
        m=m,
        fixed_point_gap=gap,
        above_9_8=gap > 0.0,
        rho_at_pivot=r,
        above_215_192=r > guard,
    )


def gamma_of(m: float) -> float:
    """Geometric growth ratio Gamma = 1 + (psi(9(m-1))/(9(m-1)) - 1)/2.

    Defined for m > 9/8, where the normalized map psi(p)/p exceeds 1 at the
    pivot; Gamma sits halfway between 1 and that value.  Raises where
    Gamma is not finite: psi(9(m-1)) overflows a float from m ~ 4e152.
    """
    cert = threshold_certificate(m)
    if not cert.above_9_8:
        raise ExponentDomainError(
            f"gamma_of requires m > 9/8: fixed-point gap 16(8m-9)(m-1) must "
            f"be positive, got m = {m} (gap = {cert.fixed_point_gap:g})")
    piv = pivot(m)
    gam = 1.0 + (psi(piv, m) / piv - 1.0) / 2.0
    if not math.isfinite(gam):
        raise ExponentDomainError(
            f"gamma_of: psi(9(m-1)) overflows a float at m = {m}, so Gamma "
            f"is not finite")
    return gam


def delta2(m: float) -> float:
    """Distance delta2 = 9(m-1) - r_plus from the pivot down to the larger
    root of 10 p^2 + (21 - 28m) p + (m-1)(18m - 27), which is
    9 p (psi(p)/p - Gamma(m)).  Exact on the closed interval: psi(p)/p >=
    Gamma(m) on all of [9(m-1) - delta2, 9(m-1)] and fails just left of
    it.  Requires m > 9/8 (so that Gamma is defined); there the
    discriminant is at least 144 and r_plus >= 9/8.
    """
    gamma_of(m)   # raises below 9/8 and where Gamma overflows
    r_plus = (28.0 * m - 21.0
              + math.sqrt(64.0 * m * m + 624.0 * m - 639.0)) / 20.0
    return pivot(m) - r_plus


# ============================================================
# ladders
# ============================================================

@dataclass(frozen=True)
class StepCertificate:
    """Admissibility evidence for one ladder step p_prev -> p."""
    q: float          # exponent the round is certified at
    bound: float      # step_bound(p_prev, q, m); equality at round-off
    admissible: bool


@dataclass(frozen=True)
class LadderEntry:
    k: int
    p: float
    gamma_floor: float | None          # Gamma^k * p0 (psi ladder only)
    growth_ok: bool | None             # p >= gamma_floor (psi ladder only)
    certificate: StepCertificate | None   # None at k = 0


@dataclass(frozen=True)
class BootstrapLadder:
    kind: str                  # 'linear' | 'psi'
    m: float
    cap: float
    entries: list[LadderEntry]
    terminated_reason: str     # 'converged' | 'reached_cap' | 'inadmissible'


def run_linear_ladder(m: float, p0: float, cap: float) -> BootstrapLadder:
    """Iterate p_{k+1} = (2/3) p_k + 3(m-1) from p0.

    Each step is the q = 2 bootstrap round taken with equality.  Converges
    monotonically to the fixed point 9(m-1); stops when |p_k - 9(m-1)| <
    1e-12, when p_k exceeds cap, or after 1e4 steps (also reported as
    reached_cap).  Requires m > 10/9 (fixed point must exceed 1), p0 >= 1,
    cap > p0.
    """
    if not m > M_LINEAR:
        raise ExponentDomainError(
            f"run_linear_ladder requires m > 10/9: fixed point 9(m-1) must "
            f"exceed 1, got m = {m}")
    if not p0 >= 1.0:
        raise ExponentDomainError(
            f"run_linear_ladder requires p0 >= 1, got {p0}")
    if not cap > p0:
        raise ExponentDomainError(
            f"run_linear_ladder requires cap > p0, got cap = {cap}, p0 = {p0}")

    limit = pivot(m)
    entries = [LadderEntry(0, p0, None, None, None)]
    p = p0
    reason = "reached_cap"
    for k in range(1, _MAX_ITER + 1):
        # the recursion IS the q=2 step bound, so the certificate holds
        # with bit-exact equality
        p_next = step_bound(p, 2.0, m)
        cert = StepCertificate(
            q=2.0, bound=p_next,
            admissible=step_admissible(p, p_next, 2.0, m))
        entries.append(LadderEntry(k, p_next, None, None, cert))
        p = p_next
        if abs(p - limit) < 1e-12:
            reason = "converged"
            break
        if p > cap:
            reason = "reached_cap"
            break
    return BootstrapLadder("linear", m, cap, entries, reason)


def run_psi_ladder(m: float, cap: float) -> BootstrapLadder:
    """Iterate p_k = psi(p_{k-1}) from the canonical seed until p > cap.

    Seed: p0 = max(1 + 1e-6, 9(m-1) - min(delta1, delta2)/2), i.e. just
    below the pivot but inside both safety margins.  Each step carries an
    admissibility certificate at q = space_time_exponent(p_{k-1}, m)
    (equality at round-off) and a geometric floor Gamma^k p0.  Requires
    m > 9/8 and cap > 1.
    """
    gam = gamma_of(m)   # raises below 9/8
    if not cap > 1.0:
        raise ExponentDomainError(
            f"run_psi_ladder requires cap > 1, got {cap}")

    p0 = max(1.0 + 1e-6, pivot(m) - min(delta1(m), delta2(m)) / 2.0)
    entries = [LadderEntry(0, p0, p0, True, None)]
    if p0 > cap:
        return BootstrapLadder("psi", m, cap, entries, "reached_cap")

    p = p0
    floor = p0
    reason = "reached_cap"
    for k in range(1, _MAX_ITER + 1):
        p_next = psi(p, m)
        q = space_time_exponent(p, m)
        bound = step_bound(p, q, m)
        try:
            ok = step_admissible(p, p_next, q, m)
        except ExponentDomainError:
            entries.append(LadderEntry(
                k, p_next, None, None,
                StepCertificate(q=q, bound=bound, admissible=False)))
            reason = "inadmissible"
            break
        floor *= gam
        entries.append(LadderEntry(
            k, p_next,
            gamma_floor=floor,
            growth_ok=p_next >= floor * (1.0 - 1e-12),
            certificate=StepCertificate(q=q, bound=bound, admissible=ok)))
        p = p_next
        if p > cap:
            reason = "reached_cap"
            break
    return BootstrapLadder("psi", m, cap, entries, reason)
