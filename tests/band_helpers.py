"""Band membership for tests that compare a reported band with a frequency
found by another route (a crossing, a dense sweep, a planted resonance)."""

import math

CONTAINS_TOL = 1e-6  # relative widening of a band's edges


def band_contains(band, omega):
    """Whether ``omega`` lies in ``band`` widened by CONTAINS_TOL at each edge."""
    pad = CONTAINS_TOL * max(abs(band.omega_lo),
                             abs(omega) if math.isfinite(omega) else 0.0, 1e-300)
    hi = band.omega_hi
    return band.omega_lo - pad <= omega and (
        hi == math.inf or omega <= hi + CONTAINS_TOL * hi)
