import numpy as np
import pytest
from scipy.linalg import expm

from braggsim.splitting import PP56


def composition_defect(scheme, h=0.05, dim=6, seed=42, swap_roles=False, average=False):
    """Operator-norm defect of one step against expm(h*(A+B)) on random matrices.

    Pins the convergence order of the coefficients independently of the PDE
    propagator.
    """
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


def test_coefficients_sum_to_one():
    assert sum(PP56.a) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("swap_roles, average, min_slope", [
    (False, False, 5.8), (True, False, 5.8), (False, True, 6.8)],
    ids=["member", "swapped-member", "pair-average"])
def test_pp56_orders(swap_roles, average, min_slope):
    # members of order 5 (local error ~ h^6), pair average of order 6 (~ h^7)
    e1, e2 = (composition_defect(PP56, h=h, swap_roles=swap_roles, average=average)
              for h in (0.1, 0.05))
    assert np.log2(e1 / e2) >= min_slope


def test_substeps_swap():
    subs = PP56.substeps()
    swapped = PP56.substeps(swap_roles=True)
    assert [s for s, _ in subs] == ["A", "B"] * len(PP56.a)
    assert [s for s, _ in swapped] == ["B", "A"] * len(PP56.a)
    assert [w for _, w in subs] == [w for _, w in swapped]
