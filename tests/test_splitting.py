import numpy as np
import pytest

from braggsim.splitting import PP34A, STRANG, composition_defect


def test_coefficients_sum_to_one():
    for scheme in (PP34A, STRANG):
        assert sum(scheme.a) == pytest.approx(1.0, abs=1e-12)
        assert sum(scheme.b) == pytest.approx(1.0, abs=1e-12)


def test_pp34a_is_palindromic():
    s = len(PP34A.a)
    for i in range(s):
        assert PP34A.a[i] == pytest.approx(PP34A.b[s - 1 - i], abs=1e-15)
    assert PP34A.is_palindromic
    assert not STRANG.is_palindromic


def test_pp34a_member_is_order_three():
    # local error ~ h^4 -> defect ratio ~ 16 when halving h
    e1 = composition_defect(PP34A, h=0.1)
    e2 = composition_defect(PP34A, h=0.05)
    slope = np.log2(e1 / e2)
    assert slope > 3.8


def test_pp34a_swapped_member_same_order():
    e1 = composition_defect(PP34A, h=0.1, swap_roles=True)
    e2 = composition_defect(PP34A, h=0.05, swap_roles=True)
    assert np.log2(e1 / e2) > 3.8


def test_pp34a_pair_average_is_order_four():
    # local error ~ h^5
    e1 = composition_defect(PP34A, h=0.1, average=True)
    e2 = composition_defect(PP34A, h=0.05, average=True)
    assert np.log2(e1 / e2) > 4.8


def test_strang_is_order_two():
    e1 = composition_defect(STRANG, h=0.1)
    e2 = composition_defect(STRANG, h=0.05)
    assert 2.7 < np.log2(e1 / e2) < 3.3  # local h^3


def test_substeps_swap():
    subs = PP34A.substeps()
    swapped = PP34A.substeps(swap_roles=True)
    assert [s for s, _ in subs] == ["A", "B"] * len(PP34A.a)
    assert [s for s, _ in swapped] == ["B", "A"] * len(PP34A.a)
    assert [w for _, w in subs] == [w for _, w in swapped]
