"""Operator-splitting schemes for the split-step propagator.

A scheme advances exp(h*(A+B)) as the ordered product
A(a_1) B(b_1) ... A(a_s) B(b_s), where A is the kinetic flow (which also
carries the clock for time-dependent potentials) and B the potential flow
evaluated at the frozen clock time.

The default "pp34a" scheme is a palindromic pair: its coefficient string
read backwards with the roles of A and B swapped reproduces itself
(a_i = b_{s+1-i}).  Each member is order 3; the role-swapped partner is
the adjoint, so the pair average is order 4 and the half-difference is a
free local-error estimate.  Swapping roles and negating the step size
inverts a step exactly.  That time-reversal identity is `check`'s
palindromic_reversal row, through
``gridprop.propagate_pulse_fixed(backward=True)``, and the tests use it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

# Palindromic order-3 coefficients: solution of the order conditions with
# b = reversed(a), family parameter a_4 = 0.46 chosen for a small local
# error constant.  Verified orders: member 3, pair average 4.
_PP34A_A = (
    0.262542481272861033480633396497,
    0.459498950195451011327634874765,
    -0.182041431468312044808268271263,
    0.460000000000000000000000000000,
)


@dataclass(frozen=True)
class SplittingScheme:
    """Splitting coefficients plus the embedded error-estimation strategy.

    err_order: order of the pair member underlying the error estimate
      (controller exponent is 1/(err_order + 1)).
    advance: "average" propagates the pair mean (local extrapolation),
      "primary" propagates the plain scheme.
    """

    name: str
    a: tuple
    b: tuple
    err_order: int
    advance: str

    def __post_init__(self):
        if len(self.a) != len(self.b):
            raise ConfigurationError("coefficient lists a and b must have equal length")
        if self.advance not in ("average", "primary"):
            raise ConfigurationError(f"unknown advance mode {self.advance!r}")
        if abs(sum(self.a) - 1.0) > 1e-12 or abs(sum(self.b) - 1.0) > 1e-12:
            raise ConfigurationError(f"scheme {self.name}: coefficients must each sum to 1")

    @property
    def is_palindromic(self):
        s = len(self.a)
        return all(abs(self.a[i] - self.b[s - 1 - i]) < 1e-14 for i in range(s))

    def substeps(self, swap_roles=False):
        """Ordered (slot, weight) pairs; slot "A" = kinetic+clock, "B" = potential."""
        out = []
        for ai, bi in zip(self.a, self.b):
            first, second = ("B", "A") if swap_roles else ("A", "B")
            out.append((first, ai))
            out.append((second, bi))
        return [(slot, w) for slot, w in out if w != 0.0]


PP34A = SplittingScheme(
    name="pp34a",
    a=_PP34A_A,
    b=tuple(reversed(_PP34A_A)),
    err_order=3,
    advance="average",
)

STRANG = SplittingScheme(
    name="strang",
    a=(0.5, 0.5),
    b=(1.0, 0.0),
    err_order=2,
    advance="primary",
)

SCHEMES = {"pp34a": PP34A, "strang": STRANG}


def composition_defect(scheme, h=0.05, dim=6, seed=42, swap_roles=False, average=False):
    """Operator-norm defect of one step against expm(h*(A+B)) on random matrices.

    Used by tests to pin the convergence order of the coefficients
    independently of the PDE propagator.
    """
    from scipy.linalg import expm

    rng = np.random.default_rng(seed)
    A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    B = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    A /= np.linalg.norm(A)
    B /= np.linalg.norm(B)
    ref = expm(h * (A + B))

    def one(swapped):
        M = np.eye(dim, dtype=complex)
        for slot, w in scheme.substeps(swap_roles=swapped):
            G = A if slot == "A" else B
            M = expm(h * w * G) @ M
        return M

    M = one(swap_roles)
    if average:
        M = 0.5 * (M + one(not swap_roles))
    return float(np.linalg.norm(M - ref))
