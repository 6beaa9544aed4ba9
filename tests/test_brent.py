"""The Brent ports in ``passcheck.brent`` against scipy 1.17.1, which they follow.

scipy stays the reference: on every function and bracket, a port must
evaluate exactly the points scipy evaluates, in the same order, and
return exactly scipy's result.  ``brentq`` is handed the bracket values,
so it skips scipy's first two evaluations (the bracket ends).
"""

import math
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, minimize_scalar

from passcheck import brent

PROPERTY = settings(derandomize=True, deadline=None, max_examples=100)

# The band-edge and peak-polish settings of ``passcheck.verifier``.
XTOL, RTOL, ROOT_MAXITER = 1e-16, 4 * sys.float_info.epsilon, 200
PEAK_MAXITER = 500

ends = st.floats(-10.0, 10.0)
widths = st.floats(1e-9, 20.0)
fractions = st.floats(0.0, 1.0)
scales = st.sampled_from([1e-200, 1e-9, 1.0, 1e9])
powers = st.sampled_from([1, 3, 5])
wiggles = st.sampled_from([0.0, 1e-3, 0.3])


def recording(f):
    calls = []

    def g(x):
        calls.append(x)
        return f(x)
    return g, calls


def profile(c, scale, power, wiggle, sign):
    """sign * scale * ((c - x)**power + wiggle * sin(5x)): hot (> 0) left
    of c when sign is 1, right of it when sign is -1."""
    return lambda x: sign * scale * ((c - x) ** power + wiggle * math.sin(5.0 * x))


def roots(f, a, b, maxiter=ROOT_MAXITER):
    """(scipy's root and points, the port's root and points)."""
    ref_f, ref_calls = recording(f)
    ref = brentq(ref_f, a, b, xtol=XTOL, rtol=RTOL, maxiter=maxiter, disp=False)
    port_f, port_calls = recording(f)
    got = brent.brentq(port_f, a, b, f(a), f(b), XTOL, RTOL, maxiter)
    assert ref_calls[:2] == [a, b]
    return (ref, ref_calls[2:]), (got, port_calls)


@PROPERTY
@given(a=ends, width=widths, frac=fractions, scale=scales, power=powers,
       wiggle=wiggles, hot_left=st.booleans())
def test_brentq_matches_scipy(a, width, frac, scale, power, wiggle, hot_left):
    b = a + width
    f = profile(a + frac * width, scale, power, wiggle, 1 if hot_left else -1)
    assume(f(a) != 0 and f(b) != 0 and (f(a) > 0) != (f(b) > 0))
    ref, got = roots(f, a, b)
    assert got == ref


@PROPERTY
@given(a=ends, width=widths, at_b=st.booleans(), scale=scales, power=powers,
       hot_left=st.booleans())
def test_brentq_root_at_a_bracket_end_evaluates_nothing(a, width, at_b, scale,
                                                        power, hot_left):
    b = a + width
    f = profile(b if at_b else a, scale, power, 0.0, 1 if hot_left else -1)
    ref, got = roots(f, a, b)
    assert got == ref == ((b if at_b else a), [])


@PROPERTY
@given(a=ends, width=widths, frac=fractions, scale=scales, power=powers,
       wiggle=wiggles, hot_left=st.booleans(), maxiter=st.integers(0, 6))
def test_brentq_maxiter_returns_the_estimate(a, width, frac, scale, power,
                                             wiggle, hot_left, maxiter):
    b = a + width
    f = profile(a + frac * width, scale, power, wiggle, 1 if hot_left else -1)
    assume(f(a) != 0 and f(b) != 0 and (f(a) > 0) != (f(b) > 0))
    ref, got = roots(f, a, b, maxiter)
    assert got == ref
    assert len(got[1]) <= maxiter


@PROPERTY
@given(a=ends, width=widths, beyond=st.floats(1e-6, 5.0), scale=scales,
       power=powers, left=st.booleans())
def test_brentq_sign_error(a, width, beyond, scale, power, left):
    b = a + width
    f = profile(a - beyond if left else b + beyond, scale, power, 0.0, 1)
    assume(f(a) != 0 and f(b) != 0)
    with pytest.raises(ValueError, match="different signs"):
        brentq(f, a, b, xtol=XTOL, rtol=RTOL, maxiter=ROOT_MAXITER, disp=False)
    port_f, port_calls = recording(f)
    with pytest.raises(ValueError, match="different signs"):
        brent.brentq(port_f, a, b, f(a), f(b), XTOL, RTOL, ROOT_MAXITER)
    assert port_calls == []


def minima(f, a, b, maxiter=PEAK_MAXITER):
    """(scipy's x, f(x) and points, the port's)."""
    xatol = 1e-14 * max(b - a, 1.0)
    ref_f, ref_calls = recording(f)
    res = minimize_scalar(ref_f, bounds=(a, b), method="bounded",
                          options={"xatol": xatol, "maxiter": maxiter})
    port_f, port_calls = recording(f)
    x, fx = brent.minimize_bounded(port_f, a, b, xatol, maxiter)
    return (res.x, res.fun, ref_calls), (x, fx, port_calls)


@PROPERTY
@given(a=ends, width=widths, frac=fractions, scale=scales,
       wiggle=wiggles, maxiter=st.sampled_from([1, 2, 5, PEAK_MAXITER]))
def test_minimize_bounded_matches_scipy(a, width, frac, scale, wiggle, maxiter):
    b = a + width
    c = a + frac * width
    ref, got = minima(lambda x: scale * ((x - c) ** 2 - wiggle * math.cos(7.0 * x)),
                      a, b, maxiter)
    assert got == ref


@PROPERTY
@given(a=ends, width=widths, level=st.floats(-2.0, 2.0),
       ripple=st.sampled_from([0.0, 1e-300, 1e-16, 1e-12]), frac=fractions)
def test_minimize_bounded_flat_and_near_flat(a, width, level, ripple, frac):
    b = a + width
    c = a + frac * width
    ref, got = minima(lambda x: level + ripple * math.sin(3.0 * (x - c)), a, b)
    assert got == ref
