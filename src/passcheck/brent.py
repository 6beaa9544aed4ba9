"""Brent's root finder and bounded minimizer, for band refinement.

Pure-Python ports of the two scipy 1.17.1 routines that band refinement
needs: ``brentq`` follows scipy's C ``brentq.c`` and ``minimize_bounded``
follows ``scipy.optimize._optimize._minimize_scalar_bounded`` (Brent,
*Algorithms for Minimization without Derivatives*, 1973, ch. 4-5).  Each
does the same floating-point operations in the same order as scipy, so
it evaluates the same points and returns the same result;
``tests/test_brent.py`` holds scipy to that as the reference.  They exist
so that a violating check never imports ``scipy.optimize``, which adds
about 49 MB to the peak memory of a fresh process.  ``f`` must return
finite floats: the ``Evaluator`` raises on anything else.
"""

from __future__ import annotations

import math

SQRT_EPS = math.sqrt(2.2e-16)
GOLDEN_MEAN = 0.5 * (3.0 - math.sqrt(5.0))


def brentq(f, a, b, fa, fb, xtol, rtol, maxiter):
    """A root of ``f`` in [a, b], given ``fa = f(a)`` and ``fb = f(b)``.

    Neither end is evaluated.  Like scipy's C code, it works in plain
    floats.  A zero end value returns that end; ends of the same sign
    raise ``ValueError``.  After ``maxiter`` evaluations the best estimate
    is returned without an error, as scipy's ``disp=False`` does.
    """
    xpre, xcur, fpre, fcur = float(a), float(b), float(fa), float(fb)
    xtol, rtol = float(xtol), float(rtol)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                # C's division gives an inf or nan step here, which bisects.
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry     # good short step
            else:
                spre = scur = sbis          # bisect
        else:
            spre = scur = sbis              # bisect

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = float(f(xcur))
    return xcur


def minimize_bounded(f, a, b, xatol, maxiter):
    """``(x, f(x))`` at the least value of ``f`` found on [a, b], a < b.

    Golden-section search with parabolic steps, stopped when x is known
    to about ``xatol`` or after ``maxiter`` evaluations, whichever comes
    first; the best point so far is returned either way.
    """
    fulc = a + GOLDEN_MEAN * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = f(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            # try a parabolic fit through xf, nfc and fulc
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = p / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm - xf >= 0 else -tol1
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = GOLDEN_MEAN * e

        step = max(abs(rat), tol1)
        x = xf + step if rat >= 0 else xf - step
        fu = f(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxiter:
            break
    return xf, fx
