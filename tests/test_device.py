"""Unit tests for device-level parameter estimates.

Reference anchors used here (ordinary frequency): coupling 0.86 kHz at
R = 50 nm, d = 6 nm; coupling approximately 1.5 kHz at R = 30 nm, d = 6 nm;
self-interaction 128 Hz at R = 50 nm falling to about 0.05 nHz for a
0.5 mm sphere. Oracle for the 30 nm point, computed from the pinned
geometric law g ~ R^{3/2}/(d+R)^3 before freezing:

    860 * (30e-9**1.5 / 36e-9**3) / (50e-9**1.5 / 56e-9**3)
      = 1504.4643653850387 Hz
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerrspin import device
from kerrspin.config import resolve
from kerrspin.device import (
    bare_coupling,
    kerr_coefficient,
    magnon_frequency,
    summarize_device,
)

TWO_PI = 2.0 * math.pi


def coupling_hz(radius, distance, calibration="anchored"):
    return bare_coupling(radius, distance, calibration) / TWO_PI


def kerr_hz(radius, calibration="anchored"):
    return kerr_coefficient(radius, calibration) / TWO_PI


class TestCouplingAnchored:
    def test_reference_point_exact(self):
        assert coupling_hz(50e-9, 6e-9) == pytest.approx(860.0, rel=1e-12)

    def test_thirty_nm_point(self):
        assert coupling_hz(30e-9, 6e-9) == pytest.approx(1504.4643653850387, rel=1e-12)
        # Within 20 percent of the published 1.5 kHz figure.
        assert abs(coupling_hz(30e-9, 6e-9) / 1.5e3 - 1.0) < 0.20

    def test_far_field_cubic_decay(self):
        # For (d2 + R) = 10 (d1 + R) at fixed R the coupling drops 1000x.
        r = 40e-9
        d1 = 60e-9
        d2 = 10.0 * (d1 + r) - r
        assert coupling_hz(r, d1) / coupling_hz(r, d2) == pytest.approx(1000.0, rel=1e-12)

    @given(
        st.floats(min_value=5e-9, max_value=5e-7),
        st.floats(min_value=1e-9, max_value=1e-6),
        st.floats(min_value=1.01, max_value=5.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_decay_in_distance(self, radius, distance, factor):
        assert coupling_hz(radius, distance * factor) < coupling_hz(radius, distance)

    def test_interior_maximum_at_radius_equals_distance(self):
        # d/dR [R^{3/2}/(d+R)^3] = 0 at R = d.
        d = 25e-9
        radii = np.geomspace(1e-9, 1e-6, 4001)
        vals = np.array([coupling_hz(r, d) for r in radii])
        r_star = radii[np.argmax(vals)]
        assert abs(r_star / d - 1.0) < 0.01
        assert coupling_hz(d, d) >= max(coupling_hz(0.5 * d, d), coupling_hz(2.0 * d, d))


class TestCouplingFormula:
    def test_scale_sits_above_anchored(self):
        # The literal closed form lands roughly 3.6e3 above the anchored
        # scale at the reference geometry; pin the ratio loosely so a
        # constants regression is caught without freezing digits.
        ratio = coupling_hz(50e-9, 6e-9, "formula") / coupling_hz(50e-9, 6e-9, "anchored")
        assert 3.0e3 < ratio < 4.5e3

    def test_same_geometric_shape_as_anchored(self):
        pairs = [(30e-9, 6e-9), (50e-9, 6e-9), (1e-7, 1e-6)]
        ratios = [
            coupling_hz(r, d, "formula") / coupling_hz(r, d, "anchored") for r, d in pairs
        ]
        assert max(ratios) / min(ratios) == pytest.approx(1.0, rel=1e-12)

    def test_micrometer_enhancement_magnitude(self):
        # g/2 at d = 1 um times e^10 should land near 4 MHz (order of
        # magnitude check, formula calibration).
        enhanced = 0.5 * coupling_hz(1e-7, 1e-6, "formula") * math.exp(10.0)
        assert 4e5 < enhanced < 4e7


class TestKerr:
    def test_reference_point_exact(self):
        assert kerr_hz(50e-9) == pytest.approx(128.0, rel=1e-12)

    @given(st.floats(min_value=1e-9, max_value=1e-3), st.floats(min_value=1.1, max_value=100.0))
    @settings(max_examples=60, deadline=None)
    def test_inverse_volume_law(self, radius, factor):
        # K(R) / K(f R) = f^3 exactly in anchored mode.
        ratio = kerr_hz(radius) / kerr_hz(radius * factor)
        assert abs(ratio / factor**3 - 1.0) < 1e-12

    def test_bulk_extrapolation(self):
        # 0.5 mm sphere: (50e-9 / 5e-4)^3 * 128 Hz = 1.28e-10 Hz, within a
        # factor of 10 of the quoted 0.05 nHz.
        k_bulk = kerr_hz(5e-4)
        assert k_bulk == pytest.approx(1.28e-10, rel=1e-12)
        assert 0.1 < k_bulk / 0.05e-9 < 10.0

    def test_formula_mode_regression(self):
        # Literal closed form 2 mu0 K_an gamma^2 / (M^2 V^2) at R = 50 nm.
        volume = 4.0 * math.pi * (50e-9) ** 3 / 3.0
        expected = (
            2.0
            * device.VACUUM_PERMEABILITY
            * device.ANISOTROPY_CONSTANT
            * device.ELECTRON_GYROMAGNETIC**2
            / (device.SATURATION_MAGNETIZATION**2 * volume**2)
        )
        assert kerr_coefficient(50e-9, "formula") == pytest.approx(expected, rel=1e-15)


class TestMagnonFrequency:
    def test_zeeman_term_dominates(self):
        # gamma * B0 / 2pi at B0 = 0.17842 T is about 5.0000 GHz; the
        # anisotropy corrections shift it at the 1e-8 relative level.
        freq = magnon_frequency(0.17842, 3e-8) / TWO_PI
        zeeman = 1.76085963023e11 * 0.17842 / TWO_PI
        assert freq == pytest.approx(zeeman, rel=1e-6)
        # Correction is ~K ~ 593 Hz at 30 nm against 5 GHz.
        assert abs(freq / zeeman - 1.0) < 2e-7
        assert freq == pytest.approx(5.0e9, rel=1e-4)

    def test_correction_sign_and_scale(self):
        # Corrections enter as K * (1 - rho_s s V^2); for a 30 nm sphere
        # the V^2 term is tiny so the shift is approximately +K.
        freq = magnon_frequency(0.17842, 3e-8)
        zeeman = 1.76085963023e11 * 0.17842
        kerr = kerr_coefficient(3e-8)
        assert freq - zeeman == pytest.approx(kerr, rel=1e-3)


class TestValidationAndSummary:
    def test_bad_inputs_rejected(self):
        calls = [
            lambda: kerr_coefficient(0.0),
            lambda: kerr_coefficient(-1e-9, "formula"),
            lambda: kerr_coefficient(math.nan),
            lambda: bare_coupling(3e-8, -1e-9),
            lambda: bare_coupling(0.0, 6e-9, "formula"),
            lambda: bare_coupling(3e-8, math.nan),
            lambda: magnon_frequency(-0.1, 3e-8),
            lambda: magnon_frequency(0.17842, -3e-8),
            lambda: magnon_frequency(math.nan, 3e-8),
            lambda: summarize_device(3e-8, -1e-9, 0.17842),
            # One bad element rejects the whole array.
            lambda: kerr_coefficient(np.array([1e-8, 0.0, 3e-8])),
            lambda: bare_coupling(np.array([1e-8, 2e-8]), np.array([6e-9, -6e-9])),
            lambda: bare_coupling(np.array([1e-8, math.nan]), 6e-9, "formula"),
            lambda: magnon_frequency(np.array([0.1, -0.1]), 3e-8),
        ]
        for call in calls:
            with pytest.raises(ValueError):
                call()

    def test_unknown_calibration_rejected(self):
        with pytest.raises(ValueError):
            kerr_coefficient(5e-8, "other")

    def test_summary_bundles_consistently(self):
        s = summarize_device(3e-8, 6e-9, 0.17842)
        assert s.coupling == bare_coupling(3e-8, 6e-9)
        assert s.kerr == kerr_coefficient(3e-8)
        assert s.omega_m == magnon_frequency(0.17842, 3e-8)
        assert s.calibration == "anchored"


class TestArraysAndAnchors:
    @pytest.mark.parametrize("calibration", ["anchored", "formula"])
    def test_arrays_match_scalar_calls(self, calibration):
        # Each formula on the default sweep grids, element by element
        # against float calls; NumPy's vector pow may differ from libm's
        # by an ulp.
        cfg = resolve("coupling-sweep")
        radii = np.geomspace(
            cfg["sweep.radius_min_m"], cfg["sweep.radius_max_m"], cfg["sweep.radius_points"]
        )
        gaps = np.geomspace(
            cfg["sweep.distance_min_m"], cfg["sweep.distance_max_m"], cfg["sweep.distance_points"]
        )
        d, r, b0 = cfg["sweep.distance_m"], cfg["sweep.radius_m"], 0.17842
        pairs = [
            (kerr_coefficient(radii, calibration),
             [kerr_coefficient(float(x), calibration) for x in radii]),
            (bare_coupling(radii, d, calibration),
             [bare_coupling(float(x), d, calibration) for x in radii]),
            (bare_coupling(r, gaps, calibration),
             [bare_coupling(r, float(x), calibration) for x in gaps]),
            (magnon_frequency(b0, radii, calibration),
             [magnon_frequency(b0, float(x), calibration) for x in radii]),
            (magnon_frequency(np.linspace(0.0, 1.0, 11), r, calibration),
             [magnon_frequency(float(x), r, calibration) for x in np.linspace(0.0, 1.0, 11)]),
        ]
        for array, scalars in pairs:
            assert np.all(np.abs(array / np.array(scalars) - 1.0) <= 1e-15)

    def test_arrays_broadcast(self):
        radii = np.array([[1e-8], [3e-8]])
        gaps = np.array([6e-9, 1e-7, 1e-6])
        assert bare_coupling(radii, gaps).shape == (2, 3)
        assert summarize_device(radii, gaps, 0.17842).coupling.shape == (2, 3)

    def test_anchor_scalars_bitwise(self):
        # Float inputs keep float arithmetic, so these stay bit for bit.
        assert bare_coupling(30e-9, 6e-9) / TWO_PI == 1504.4643653850387
        assert bare_coupling(50e-9, 6e-9) / TWO_PI == 860.0
        assert kerr_coefficient(50e-9) / TWO_PI == 128.0
