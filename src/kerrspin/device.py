"""Device-level parameter estimates for a magnon sphere coupled to a spin.

Produces three quantities from the sphere radius, the spin-to-surface
distance and the bias field, all in angular frequency (rad/s):

- ``kerr_coefficient``: self-interaction strength of the magnon mode,
  scaling inversely with sphere volume.
- ``bare_coupling``: magnon-spin coupling for a spin at distance ``d``
  from the sphere surface.
- ``magnon_frequency``: mode frequency under a bias field, including the
  small anisotropy corrections.

Each takes plain floats (m, T) or NumPy arrays that broadcast, and
returns a value of the broadcast shape. Floats go through Python float
arithmetic, where an overflowing power raises OverflowError; arrays go
through NumPy's, where it gives inf. The material is the iron-garnet
sphere, fixed by the module constants below.

Two calibration modes exist because the closed-form expressions and the
published reference values for this device family disagree in absolute
scale (the shapes agree). ``anchored`` (default) pins the output to
reference values at a reference geometry and scales with the exact
geometric law; ``formula`` evaluates the closed forms literally with SI
constants. Anchored mode is used for all headline checks; formula mode
is kept for shape studies and for the enhanced-coupling estimate, whose
published magnitude matches the formula scale rather than the anchored
one. See README for the full calibration discussion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# CODATA 2018 constants.
VACUUM_PERMEABILITY = 1.25663706212e-6  # T m / A
BOHR_MAGNETON = 9.2740100783e-24  # J / T
REDUCED_PLANCK = 1.054571817e-34  # J s
ELECTRON_G_FACTOR = 2.00231930436256
ELECTRON_GYROMAGNETIC = 1.76085963023e11  # rad / s / T

# Iron-garnet sphere material, low temperature.
SATURATION_MAGNETIZATION = 1.94e5  # A / m
ANISOTROPY_CONSTANT = 610.0  # J / m^3, first order
SPIN_DENSITY = 2.1e28  # m^-3, net
SPIN_QUANTUM_NUMBER = 2.5

# Anchor points for `anchored` calibration (ordinary frequency, Hz).
KERR_ANCHOR_HZ = 128.0
KERR_ANCHOR_RADIUS = 50e-9
COUPLING_ANCHOR_HZ = 860.0
COUPLING_ANCHOR_RADIUS = 50e-9
COUPLING_ANCHOR_DISTANCE = 6e-9

CALIBRATION_MODES = ("anchored", "formula")


def _check(calibration: str, radius, distance=0.0, b0=0.0) -> None:
    """Reject an unknown calibration, and any element of `radius` that is
    not > 0 or of `distance` or `b0` that is not >= 0 (NaN included)."""
    if calibration not in CALIBRATION_MODES:
        raise ValueError(
            f"calibration must be one of {CALIBRATION_MODES}, got {calibration!r}"
        )
    if not np.all(radius > 0.0):
        raise ValueError(f"radius must be > 0, got {radius}")
    for name, value in (("distance", distance), ("b0", b0)):
        if not np.all(value >= 0.0):
            raise ValueError(f"{name} must be >= 0, got {value}")


def _volume(radius):
    return 4.0 * math.pi * radius**3 / 3.0


def kerr_coefficient(radius, calibration: str = "anchored"):
    """Magnon self-interaction coefficient K (rad/s) of a sphere of `radius` (m).

    anchored: K(R) = K_ref * (V_ref / V), the inverse-volume law pinned
    to 128 Hz (ordinary) at R = 50 nm. The ratio K(R1)/K(R2) then equals
    (R2/R1)^3 to floating-point accuracy.

    formula: literal closed form 2*mu0*K_an*gamma^2 / (M^2 * V^2). Note
    this expression is not dimensionally a rate with SI inputs; it is
    provided only for traceability against the printed form and is not
    used by any headline check.
    """
    _check(calibration, radius)
    if calibration == "anchored":
        ratio = (KERR_ANCHOR_RADIUS / radius) ** 3
        return 2.0 * math.pi * KERR_ANCHOR_HZ * ratio
    return (
        2.0
        * VACUUM_PERMEABILITY
        * ANISOTROPY_CONSTANT
        * ELECTRON_GYROMAGNETIC**2
        / (SATURATION_MAGNETIZATION**2 * _volume(radius) ** 2)
    )


def _coupling_shape(radius, distance):
    """Geometry factor R^{3/2} / (d+R)^3 shared by both coupling modes."""
    return radius**1.5 / (distance + radius) ** 3


def bare_coupling(radius, distance, calibration: str = "anchored"):
    """Bare magnon-spin coupling g (rad/s) for a sphere of `radius` (m) and
    a spin `distance` (m) from its surface.

    Both modes share the exact geometric shape g ~ R^{3/2}/(d+R)^3:
    monotonically decreasing in d, single interior maximum in R at R = d.

    anchored: pinned to 0.86 kHz (ordinary) at R = 50 nm, d = 6 nm; the
    material factor cancels in the ratio, so this mode is geometry-pure.

    formula: g = 2*pi * sqrt(|gamma| M R^3/(24 pi hbar)) * g_e mu0 mu_B/(d+R)^3,
    evaluated literally with SI constants. Its absolute scale sits roughly
    3.6e3 above the anchored scale; the enhanced-coupling magnitude quoted
    for micrometer separations matches this scale.
    """
    _check(calibration, radius, distance)
    if calibration == "anchored":
        shape = _coupling_shape(radius, distance)
        ref = _coupling_shape(COUPLING_ANCHOR_RADIUS, COUPLING_ANCHOR_DISTANCE)
        return 2.0 * math.pi * COUPLING_ANCHOR_HZ * shape / ref
    prefactor = np.sqrt(
        ELECTRON_GYROMAGNETIC
        * SATURATION_MAGNETIZATION
        * radius**3
        / (24.0 * math.pi * REDUCED_PLANCK)
    )
    g_ordinary = (
        prefactor
        * ELECTRON_G_FACTOR
        * VACUUM_PERMEABILITY
        * BOHR_MAGNETON
        / (distance + radius) ** 3
    )
    return 2.0 * math.pi * g_ordinary


def magnon_frequency(b0, radius, calibration: str = "anchored"):
    """Magnon mode frequency omega_m (rad/s) under the bias field `b0` (T).

    Structure: gamma*B0 + K - K * rho_s * s * V^2, i.e. the Zeeman term
    plus two anisotropy corrections whose ratio is rho_s*s*V^2. The
    corrections are routed through kerr_coefficient so that both
    calibration modes stay mutually consistent; in `formula` mode the
    result is literally the printed closed form. For every scenario in
    this package the corrections are negligible next to gamma*B0.
    """
    _check(calibration, radius, b0=b0)
    kerr = kerr_coefficient(radius, calibration)
    correction_ratio = SPIN_DENSITY * SPIN_QUANTUM_NUMBER * _volume(radius) ** 2
    return ELECTRON_GYROMAGNETIC * b0 + kerr * (1.0 - correction_ratio)


@dataclass(frozen=True)
class DeviceSummary:
    """Bundle of derived device quantities for reports."""

    radius: float
    distance: float
    b0: float
    calibration: str
    kerr: float  # rad/s
    coupling: float  # rad/s
    omega_m: float  # rad/s


def summarize_device(radius, distance, b0, calibration: str = "anchored") -> DeviceSummary:
    """Evaluate all three device quantities at one design point."""
    return DeviceSummary(
        radius=radius,
        distance=distance,
        b0=b0,
        calibration=calibration,
        kerr=kerr_coefficient(radius, calibration),
        coupling=bare_coupling(radius, distance, calibration),
        omega_m=magnon_frequency(b0, radius, calibration),
    )
