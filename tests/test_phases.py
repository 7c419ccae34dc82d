import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from projalg.phases import TWO_PI, circle_distance, reduce_phase


def exact_remainder(x: float) -> float:
    """x mod TWO_PI in (-pi, pi], exact: math.fmod is, and so is one TWO_PI step from
    its result, whose magnitude lies within a factor of 2 of TWO_PI there (Sterbenz)."""
    r = math.fmod(x, TWO_PI)
    return r - TWO_PI if r > np.pi else r + TWO_PI if r <= -np.pi else r


@given(st.floats(min_value=-1e6, max_value=1e6))
def test_reduce_phase_lands_in_branch(x):
    r = reduce_phase(x)
    assert -np.pi < r <= np.pi
    k = (x - r) / (2 * np.pi)
    assert abs(k - round(k)) < 1e-6


@given(st.floats(min_value=-1e300, max_value=1e300))
@example(2.0 ** 52 + 0.5)
@example(-(2.0 ** 52 + 0.5))
@example(0.3 * 2.0 ** 104)
@example(-0.3 * 2.0 ** 104)
@example(1e300)
@example(-1e300)
def test_reduce_phase_is_the_exact_remainder(x):
    """np.mod's remainder is exact at any magnitude; only its fold of a negative
    remainder into (0, 2 pi) rounds, by at most half an ulp of 2 pi (4.4e-16).  The
    rint form x - 2 pi rint(x / 2 pi) is off by up to 6.77 near 2**52 and leaves the
    branch near 1e300."""
    r = reduce_phase(x)
    assert -np.pi < r <= np.pi
    assert abs(r - exact_remainder(x)) <= 4.5e-16


def test_reduce_phase_array():
    x = np.array([0.0, np.pi, -np.pi, 3 * np.pi, -0.5, 2 * np.pi])
    r = reduce_phase(x)
    assert r.shape == x.shape
    assert np.all(r > -np.pi) and np.all(r <= np.pi)
    assert r[0] == 0.0
    assert r[1] == pytest.approx(np.pi)
    assert r[2] == pytest.approx(np.pi)  # -pi maps to the +pi representative
    assert r[3] == pytest.approx(np.pi)
    assert r[4] == pytest.approx(-0.5)
    assert abs(r[5]) < 1e-15


def test_scalar_comes_back_as_float():
    assert isinstance(reduce_phase(7.0), float)


def test_circle_distance_wraps_branch_cut():
    assert circle_distance(np.pi - 0.01, -np.pi + 0.01) == pytest.approx(0.02)
    assert circle_distance(0.1, 0.1 + 4 * np.pi) < 1e-14
