"""Certified canonical heights, explicit per-map transition constants, preperiodicity.

The non-explicit degree-only constant in the classical height estimates is
replaced by constants computed from the cofactor certificate, which is what
makes the returned radii certificates rather than asymptotics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import SizeBudgetExceededError
from .maps import RationalMapQ, evaluate, make_map
from .points import ProjPointQ, enumerate_points, log_of_int

# Reaching radius <= tol costs d^n ~ c/tol iterations, whose coordinates hold
# ~d^n * h(P) bits; the budget is sized for tol = 1e-6 on desk-scale maps and
# read at call time.
HEIGHT_ITER_BITS = 1 << 25


def transition_constants(m: RationalMapQ) -> tuple[int, int]:
    """Explicit one-step height bounds as integers (U, L), exact for every P:

        H(phi(P)) <= U * H(P)^d   and   H(P)^d <= L * H(phi(P)).

    Upper: each coordinate of phi(P) is a sum of d+1 monomials, so
    U = (d+1) * H(phi).

    Lower: with p*F + q*G = R*X^D, R*Y^D and M the largest cofactor
    coefficient, |R| * H(P)^D <= 2d * M * H(P)^(D-d) * max(|F|,|G|)(a,b),
    and the gcd divided out in evaluation divides R, so L = 2d * M.

    The certificate, and so M, is cached on the map: canheight and verify
    solve it once per map. is_preperiodic does not need it.
    """
    d = m.degree
    return (d + 1) * m.height, 2 * d * m.certificate.max_coefficient


@dataclass(frozen=True)
class CanonicalHeightEstimate:
    """Certified interval: |value - hhat(P)| <= radius."""

    value: float
    radius: float
    iterations_used: int


def _require_degree_two(m: RationalMapQ) -> None:
    if m.degree < 2:
        raise ValueError("canonical heights need a map of degree >= 2")


def _walk_over_budget() -> SizeBudgetExceededError:
    return SizeBudgetExceededError(
        f"orbit point outgrew the {HEIGHT_ITER_BITS}-bit coordinate budget"
    )


def _outgrows(height: int, d: int, loss: int, steps: int) -> bool:
    """True when one of the next `steps` walk points from a point of height
    `height` certainly has a coordinate over HEIGHT_ITER_BITS bits.

    lb_0 = bit_length(height) - 1 and lb_(k+1) = d*lb_k - loss, with loss
    the bit length of L, satisfy 2^lb_k < H(phi^k P) for k >= 1, because
    H(P)^d <= L * H(phi(P)) and L < 2^loss. Once a step does not raise
    lb, no later step does.
    """
    lb = height.bit_length() - 1
    for _ in range(steps):
        nxt = d * lb - loss
        if nxt >= HEIGHT_ITER_BITS:
            return True
        if nxt <= lb:
            return False
        lb = nxt
    return False


def canonical_height(m: RationalMapQ, p: ProjPointQ, tol: float) -> CanonicalHeightEstimate:
    """Estimate hhat(P) = lim h(phi^n P) / d^n with a certified geometric tail.

    The one-step drift |h(phi(P)) - d*h(P)| is at most c = max(ln U, ln L)
    for the transition constants U and L, so after n steps the tail is
    bounded by c / (d^n (d-1)); iteration stops at the first n where that
    bound is <= tol. A tol that no such n reaches before d^n (d-1) passes
    the largest float is refused (ValueError), before any step. A walk
    point with a coordinate over HEIGHT_ITER_BITS bits raises
    SizeBudgetExceededError, and so does a walk that H(P)^d <= L * H(phi(P))
    shows will reach one, before the step that would pay for it.
    """
    _require_degree_two(m)
    if not tol > 0:  # also rejects NaN
        raise ValueError("tol must be positive")
    d = m.degree
    c = max(log_of_int(m.height) + math.log(d + 1),
            math.log(2 * d) + log_of_int(m.certificate.max_coefficient))
    n = 0
    scale = d - 1
    try:
        while c / (d**n * scale) > tol:
            n += 1
    except OverflowError:
        raise ValueError("tol is too small: d^n*(d-1) would pass the largest float") from None
    loss = transition_constants(m)[1].bit_length()
    cur = p
    for left in range(n, 0, -1):
        if _outgrows(max(abs(cur.a), abs(cur.b)), d, loss, left):
            raise _walk_over_budget()
        cur = evaluate(m, cur)
        if max(abs(cur.a), abs(cur.b)).bit_length() > HEIGHT_ITER_BITS:
            raise _walk_over_budget()
    h = log_of_int(max(abs(cur.a), abs(cur.b)))
    return CanonicalHeightEstimate(value=h / d**n, radius=c / (d**n * scale), iterations_used=n)


def is_preperiodic(m: RationalMapQ, p: ProjPointQ) -> bool:
    """Exact preperiodicity decision by cycle detection under a height ceiling.

    Every point Q of a preperiodic orbit satisfies H(Q)^(d-1) <= L: the
    orbit is finite, and its highest point Q* has H(Q*)^d <= L * H(phi(Q*))
    <= L * H(Q*). The ceiling is the orbit scan's switch (maps.make_map):
    a Q of more than switch_bits = ceil(lam / (d-1)) + 1 bits has
    H(Q)^(d-1) >= 2^lam > L' >= L, for L' = maps.hadamard_loss, so no
    cofactor solve is needed. The orbit either repeats a point
    (preperiodic) or reaches a point above that ceiling (wandering); either
    way the walk terminates because only finitely many rationals sit below
    any height bound.
    """
    _require_degree_two(m)
    switch_bits = m.scan[2]
    seen = {p}
    cur = p
    while True:
        if max(abs(cur.a), abs(cur.b)).bit_length() > switch_bits:
            return False
        cur = evaluate(m, cur)
        if cur in seen:
            return True
        seen.add(cur)


def transition_constants_check():
    """Brute-force validation of the one-step drift bounds for two reference maps,
    at every point of height at most 30."""
    from .families import pell_map
    from .reports import CheckResult, VerificationReport

    targets = {
        "x^2": make_map([0, 0, 1], [1, 0, 0]),
        "pell_D2": pell_map(2),
    }
    checks = []
    for label, m in targets.items():
        up, low = transition_constants(m)
        d = m.degree
        bad = 0
        for p in enumerate_points(30):
            h_d = max(abs(p.a), abs(p.b)) ** d
            img = evaluate(m, p)
            h_img = max(abs(img.a), abs(img.b))
            if not (h_d <= low * h_img and h_img <= up * h_d):
                bad += 1
        checks.append(CheckResult(f"transition_constants[{label}]", bad == 0,
                                  f"all H <= 30, {bad} violations"))
    return VerificationReport(tuple(checks))
