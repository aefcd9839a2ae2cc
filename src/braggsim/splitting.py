"""The one operator splitting of the split-step propagator: the palindromic pair pp56.

Its plain member advances exp(h*(A+B)) as the ordered product A(a_1) B(a_s)
A(a_2) B(a_{s-1}) ... A(a_s) B(a_1), where A is the kinetic flow (which also
carries the clock for time-dependent potentials) and B the potential flow
evaluated at the frozen clock time: the B weights are the A weights
reversed.  The role-swapped member, B first, is its adjoint, so the pair
average gains an order and the half-difference is a free local-error
estimate.  Swapping roles and negating the step size inverts a step
exactly.  That time-reversal identity is `check`'s palindromic_reversal
row, through ``gridprop.propagate_pulse_fixed(run="backward")``, and the
tests use it.

pp56 is a "PP 5/6" pair (Auzinger, Hofstaetter, Ketcheson and Koch, BIT
Numer. Math. 57, 55-74 (2017)): members of order 5, pair average of order
6.  Sum a = 1 and the order conditions on the Lyndon words of degree 2-5
are 8 equations in 8 a_i; of their real roots, which
``tools/splitting_roots.py`` finds, pp56 is the one of smallest sum |a_i|
(2.6346).  Defect slopes (h 0.1 -> 0.05): members 6.0, pair average 7.0.
A step is 16 substeps, and its tol, 1e-10, is the default ``[propagator] tol``.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigurationError

_PP56_A = (   # see the module docstring
    0.132057629900873208033361475567, 0.929627060334630106497029690198,
    -0.273858211983391392232092003738, 0.421871627414165234810271905358,
    -0.122018349078105349661474779445, -0.252917619788021532522101947815,
    -0.168503174307497168379444809427, 0.333741037507346893454450469303,
)


@dataclass(frozen=True)
class SplittingScheme:
    """A palindromic pair: A weights a, B weights reversed(a).

    err_order: order of the pair members, which the error estimate
      compares (controller exponent is 1/(err_order + 1)).
    tol: default bound on the error estimate per unit time.
    """

    a: tuple
    err_order: int
    tol: float = 1e-8

    def __post_init__(self):
        if abs(sum(self.a) - 1.0) > 1e-12:
            raise ConfigurationError("splitting coefficients must sum to 1")

    def substeps(self, swap_roles=False):
        """Ordered (slot, weight) pairs; slot "A" = kinetic+clock, "B" = potential."""
        first, second = ("B", "A") if swap_roles else ("A", "B")
        return [pair for ai, bi in zip(self.a, reversed(self.a))
                for pair in ((first, ai), (second, bi))]


PP56 = SplittingScheme(a=_PP56_A, err_order=5, tol=1e-10)
