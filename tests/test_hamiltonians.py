"""Unit tests for steady-state linearization, the squeezed frame, and
model Hamiltonian builders.

Oracles frozen before wiring the implementations in:

- Bistable response, delta = 1, K = 0.05, kappa = 0.1, amplitude = 1
  (units arbitrary). Cubic K^2 N^3 - 2 delta K N^2 + (delta^2 +
  kappa^2/4) N - amplitude^2 = 0 solved independently with numpy.roots;
  slope stability classified by the sign of d(amplitude^2)/dN:
      roots     = (1.118893008134034, 14.919611228004504, 23.961495763861482)
      stable    = (True, False, True)
      selected  = 0 (lowest stable)
      amplitude = -1.0562969299514724 - 0.055944650406701685j
- Squeezed frame at (delta_m, kerr2) = (5, 3):
      r = 0.25 ln 4 = 0.34657359027997264, delta_s = 4, G(g=2) = sqrt(2).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerrspin.fock import HilbertSpec, Subsystem, annihilation, basis_ket, embed, qubit_ops
from kerrspin.hamiltonians import (
    DriveConfig,
    InstabilityError,
    LinearizedParams,
    SqueezedFrame,
    dispersive_advisory,
    effective_coupling,
    effective_spin_spin_hamiltonian,
    linearize,
    linearized_hamiltonian,
    nonlinear_hamiltonian,
    rabi_hamiltonian,
    rwa_advisory,
    squeeze_frame,
    squeezed_exact_hamiltonian,
    steady_amplitude,
    tavis_cummings_hamiltonian,
)


def mode_only_spec(cutoff: int) -> HilbertSpec:
    return HilbertSpec((Subsystem("mode", cutoff),))


class TestSteadyAmplitude:
    def test_bistable_oracle(self):
        st8 = steady_amplitude(1.0, 0.05, 0.1, DriveConfig(0.0, 1.0))
        expected_roots = (1.118893008134034, 14.919611228004504, 23.961495763861482)
        assert len(st8.occupations) == 3
        for got, want in zip(st8.occupations, expected_roots):
            assert got == pytest.approx(want, rel=1e-12)
        assert st8.stable == (True, False, True)
        assert st8.selected == 0
        assert st8.mean_amplitude == pytest.approx(
            -1.0562969299514724 - 0.055944650406701685j, rel=1e-12
        )
        assert st8.n_mean == pytest.approx(st8.occupations[0], rel=1e-9)

    def test_zero_drive(self):
        st8 = steady_amplitude(1.0, 0.05, 0.1, DriveConfig(0.0, 0.0))
        assert st8.mean_amplitude == 0j
        assert st8.occupations == (0.0,)
        assert st8.stable == (True,)

    def test_linear_limit(self):
        # K = 0: single Lorentzian root, closed form.
        delta, kappa, amp = 0.7, 0.3, 1.3
        st8 = steady_amplitude(delta, 0.0, kappa, DriveConfig(0.0, amp))
        assert len(st8.occupations) == 1
        assert st8.occupations[0] == pytest.approx(
            amp**2 / (delta**2 + kappa**2 / 4.0), rel=1e-15
        )
        assert abs(st8.mean_amplitude) ** 2 == pytest.approx(st8.occupations[0], rel=1e-14)

    def test_negative_kappa_rejected(self):
        with pytest.raises(ValueError):
            steady_amplitude(1.0, 0.05, -0.1, DriveConfig(0.0, 1.0))
        with pytest.raises(ValueError):
            DriveConfig(0.0, -1.0)

    @given(
        st.floats(min_value=-2.0, max_value=2.0),
        st.floats(min_value=1e-3, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.01, max_value=3.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_roots_satisfy_cubic(self, delta, kerr, kappa, amp):
        st8 = steady_amplitude(delta, kerr, kappa, DriveConfig(0.0, amp))
        omega2 = amp**2
        for n in st8.occupations:
            residual = n * ((delta - kerr * n) ** 2 + kappa**2 / 4.0) - omega2
            assert abs(residual) <= 1e-6 * omega2
        assert any(st8.stable)
        n_sel = st8.occupations[st8.selected]
        assert abs(st8.mean_amplitude) ** 2 == pytest.approx(n_sel, rel=1e-6)


class TestLinearize:
    def test_mean_field_shift_sign(self):
        # paper convention adds 2KN to the mode detuning, rederived
        # subtracts it; everything else is identical.
        amp = 0.5 + 0.3j
        n_mean = abs(amp) ** 2
        drive = DriveConfig(3.0, 1.0)
        lin_p = linearize(5.0, 4.0, 2.0, amp, drive, convention="paper")
        lin_r = linearize(5.0, 4.0, 2.0, amp, drive, convention="rederived")
        assert lin_p.delta_m - lin_r.delta_m == pytest.approx(4.0 * 2.0 * n_mean, rel=1e-12)
        assert lin_p.delta_m == pytest.approx(5.0 + 2.0 * 2.0 * n_mean - 3.0, rel=1e-12)
        assert lin_p.delta_q == lin_r.delta_q == pytest.approx(1.0)
        assert lin_p.kerr2 == lin_r.kerr2 == pytest.approx(2.0 * n_mean, rel=1e-12)

    def test_amplitude_rotated_real_positive(self):
        lin = linearize(5.0, 4.0, 2.0, 0.5 + 0.3j, DriveConfig(3.0, 1.0))
        assert lin.mean_amplitude.imag == 0.0
        assert lin.mean_amplitude.real == pytest.approx(abs(0.5 + 0.3j), rel=1e-15)
        assert lin.n_mean == pytest.approx(abs(0.5 + 0.3j) ** 2, rel=1e-12)

    def test_unknown_convention_rejected(self):
        with pytest.raises(ValueError):
            linearize(5.0, 4.0, 2.0, 0.1j, DriveConfig(3.0, 1.0), convention="x")

    def test_stability_properties(self):
        lin = LinearizedParams(delta_m=2.0, delta_q=0.0, mean_amplitude=0j, kerr2=1.0)
        assert lin.is_stable
        assert lin.stability_margin == pytest.approx(0.5)
        lin_bad = LinearizedParams(delta_m=1.0, delta_q=0.0, mean_amplitude=0j, kerr2=1.5)
        assert not lin_bad.is_stable


class TestSqueezeFrame:
    def test_oracle_point(self):
        lin = LinearizedParams(delta_m=5.0, delta_q=0.0, mean_amplitude=0j, kerr2=3.0)
        fr = squeeze_frame(lin, 2.0)
        assert fr.squeezing == pytest.approx(0.34657359027997264, rel=1e-15)
        assert fr.mode_detuning == 4.0
        assert fr.coupling == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_zero_kerr2_is_exact_identity(self):
        lin = LinearizedParams(delta_m=3.7, delta_q=0.0, mean_amplitude=0j, kerr2=0.0)
        fr = squeeze_frame(lin, 1.9)
        assert fr.squeezing == 0.0
        assert fr.mode_detuning == 3.7
        assert fr.coupling == 0.5 * 1.9

    def test_instability_raises_with_margin(self):
        lin = LinearizedParams(delta_m=1.0, delta_q=0.0, mean_amplitude=0j, kerr2=1.5)
        with pytest.raises(InstabilityError) as exc:
            squeeze_frame(lin, 1.0)
        assert exc.value.margin == pytest.approx(-0.5)
        assert "unstable" in str(exc.value)
        # A negative mode detuning is unstable too: the margin divides by
        # |delta_m|, so it stays negative.
        lin = LinearizedParams(delta_m=-2.0, delta_q=0.0, mean_amplitude=0j, kerr2=1.0)
        with pytest.raises(InstabilityError) as exc:
            squeeze_frame(lin, 1.0)
        assert exc.value.margin == lin.stability_margin == -1.5

    def test_boundary_is_unstable(self):
        lin = LinearizedParams(delta_m=1.0, delta_q=0.0, mean_amplitude=0j, kerr2=1.0)
        with pytest.raises(InstabilityError):
            squeeze_frame(lin, 1.0)

    @given(st.floats(min_value=0.01, max_value=2.0))
    @settings(max_examples=40, deadline=None)
    def test_ratio_roundtrip(self, r):
        # The frame's squeezing inverts tanh(2r) = kerr2/delta_m.
        ratio = math.tanh(2.0 * r)
        lin = LinearizedParams(delta_m=1.0, delta_q=0.0, mean_amplitude=0j, kerr2=ratio)
        squeezing = squeeze_frame(lin, 1.0).squeezing
        assert squeezing == pytest.approx(r, rel=1e-12)
        assert math.tanh(2.0 * squeezing) == pytest.approx(ratio, rel=1e-12)

    def test_ratio_domain(self):
        # tanh(2r) = kerr2/delta_m has no solution at |ratio| >= 1.
        for bad in (1.0, -1.0, 1.5):
            lin = LinearizedParams(delta_m=1.0, delta_q=0.0, mean_amplitude=0j, kerr2=bad)
            with pytest.raises(InstabilityError):
                squeeze_frame(lin, 1.0)


class TestQuadraticSpectrum:
    def test_spectrum_matches_squeezed_detuning(self):
        # (delta_m, kerr2) = (5, 3): delta_s = 4. Low-lying spacings of the
        # quadratic Hamiltonian at cutoff 60 match delta_s far below the
        # truncation edge.
        lin = LinearizedParams(delta_m=5.0, delta_q=0.0, mean_amplitude=0j, kerr2=3.0)
        eigs = np.linalg.eigvalsh(linearized_hamiltonian(mode_only_spec(60), lin))
        spacings = np.diff(np.sort(eigs))[:10]
        assert np.max(np.abs(spacings / 4.0 - 1.0)) < 1e-9

    def test_spectrum_milder_squeezing_small_cutoff(self):
        # (delta_m, kerr2) = (5, 2): delta_s = sqrt(21); cutoff 40 already
        # reproduces the first ten spacings to 1e-6.
        lin = LinearizedParams(delta_m=5.0, delta_q=0.0, mean_amplitude=0j, kerr2=2.0)
        eigs = np.linalg.eigvalsh(linearized_hamiltonian(mode_only_spec(40), lin))
        spacings = np.diff(np.sort(eigs))[:10]
        assert np.max(np.abs(spacings / math.sqrt(21.0) - 1.0)) < 1e-6

    def test_mode_only_spec_rejects_coupling(self):
        lin = LinearizedParams(delta_m=5.0, delta_q=1.0, mean_amplitude=0j, kerr2=2.0)
        with pytest.raises(ValueError):
            linearized_hamiltonian(mode_only_spec(10), lin, g=0.5)


class TestExactVersusRabi:
    @pytest.mark.parametrize("r", [0.0, 1.0, 2.0, 5.0])
    def test_residual_coefficient(self, r):
        # H_exact - H_rabi = (g/2) e^{-r} (co - counter). Read the
        # coefficient off the |1,g> <-> |0,e> element, which the
        # counter-rotating sector cannot reach.
        g = 2.0
        lin = LinearizedParams(
            delta_m=1.0, delta_q=0.8, mean_amplitude=0j, kerr2=math.tanh(2.0 * r)
        )
        fr = squeeze_frame(lin, g)
        spec = HilbertSpec.mode_and_spins(12)
        diff = squeezed_exact_hamiltonian(spec, lin, g) - rabi_hamiltonian(
            spec, fr, lin.delta_q
        )
        bra = basis_ket((0, 1), spec)
        ket10 = basis_ket((1, 0), spec)
        coeff = (bra.conj() @ diff @ ket10).real
        expected = 0.5 * g * math.exp(-fr.squeezing)
        assert abs(coeff - expected) <= 1e-10 * expected

    def test_regrouping_identity(self):
        # (g/2)e^{r}(co+counter) + (g/2)e^{-r}(co-counter)
        #   = g cosh(r) co + g sinh(r) counter.
        g = 1.4
        r = 1.3
        lin = LinearizedParams(
            delta_m=1.0, delta_q=0.6, mean_amplitude=0j, kerr2=math.tanh(2.0 * r)
        )
        spec = HilbertSpec.mode_and_spins(10)
        h = squeezed_exact_hamiltonian(spec, lin, g)
        fr = squeeze_frame(lin, g)
        a = embed(annihilation(10), 0, spec)
        ops = qubit_ops()
        sp = embed(ops["sp"], 1, spec)
        sm = sp.conj().T
        sz = embed(ops["sz"], 1, spec)
        co = sp @ a + a.conj().T @ sm
        counter = sp @ a.conj().T + a @ sm
        n = a.conj().T @ a
        rebuilt = (
            fr.mode_detuning * n
            + 0.5 * lin.delta_q * sz
            + g * math.cosh(fr.squeezing) * co
            + g * math.sinh(fr.squeezing) * counter
        )
        scale = np.max(np.abs(h))
        assert np.max(np.abs(h - rebuilt)) <= 1e-12 * scale


class TestBuilders:
    def test_nonlinear_diagonal_and_coupling(self):
        spec = HilbertSpec.mode_and_spins(5)
        h = nonlinear_hamiltonian(spec, omega_q=3.0, omega_m=7.0, kerr=0.4, g=0.6)
        assert np.max(np.abs(h - h.conj().T)) < 1e-12
        for n in range(5):
            for s, sz_val in ((0, -1.0), (1, 1.0)):
                v = basis_ket((n, s), spec)
                expected = 1.5 * sz_val + 7.0 * n - 0.2 * n * (n - 1)
                assert (v.conj() @ h @ v).real == pytest.approx(expected, rel=1e-12)
        # <n-1, e| H |n, g> = g sqrt(n).
        for n in range(1, 5):
            bra = basis_ket((n - 1, 1), spec)
            ket_ng = basis_ket((n, 0), spec)
            assert (bra.conj() @ h @ ket_ng).real == pytest.approx(
                0.6 * math.sqrt(n), rel=1e-12
            )

    def test_rabi_parity_symmetry(self):
        # (-1)^n sz commutes with the two-sector model.
        spec = HilbertSpec.mode_and_spins(8)
        fr = SqueezedFrame(squeezing=0.4, mode_detuning=2.0, coupling=0.7)
        h = rabi_hamiltonian(spec, fr, delta_q=1.1)
        mode_parity = np.diag([(-1.0) ** n for n in range(8)]).astype(complex)
        parity = embed(mode_parity, 0, spec) @ embed(qubit_ops()["sz"], 1, spec)
        comm = h @ parity - parity @ h
        assert np.max(np.abs(comm)) < 1e-12

    def test_excitation_conservation(self):
        # The exchange-only model conserves n + sum_i (sz_i + 1)/2, even
        # in the truncated space.
        spec = HilbertSpec.mode_and_spins(5, n_spins=2)
        fr = SqueezedFrame(squeezing=0.0, mode_detuning=2.0, coupling=0.4)
        h = tavis_cummings_hamiltonian(spec, fr, delta_q=1.7)
        a = embed(annihilation(5), 0, spec)
        n_exc = a.conj().T @ a
        for slot in (1, 2):
            sz = embed(qubit_ops()["sz"], slot, spec)
            n_exc = n_exc + 0.5 * (sz + np.eye(sz.shape[0]))
        comm = h @ n_exc - n_exc @ h
        assert np.max(np.abs(comm)) < 1e-12

    def test_rabi_breaks_excitation_conservation(self):
        spec = HilbertSpec.mode_and_spins(5)
        fr = SqueezedFrame(squeezing=0.0, mode_detuning=2.0, coupling=0.4)
        h = rabi_hamiltonian(spec, fr, delta_q=1.7)
        a = embed(annihilation(5), 0, spec)
        sz = embed(qubit_ops()["sz"], 1, spec)
        n_exc = a.conj().T @ a + 0.5 * (sz + np.eye(10))
        comm = h @ n_exc - n_exc @ h
        assert np.max(np.abs(comm)) > 0.1


class TestEffectiveSpinSpin:
    def test_explicit_matrix(self):
        # Basis (spin1, spin2) -> index 2*s1 + s2: gg, ge, eg, ee.
        delta_q, delta_minus, coupling = 3.0, 10.0, 1.0
        g_eff = coupling**2 / delta_minus
        omega_eff = delta_q**2 / delta_minus
        h = effective_spin_spin_hamiltonian(delta_q, delta_minus, coupling)
        expected = np.diag([-omega_eff, 0.0, 0.0, omega_eff]).astype(complex)
        expected[1, 2] = expected[2, 1] = g_eff
        assert np.allclose(h, expected, atol=1e-15)

    def test_effective_coupling_guard(self):
        assert effective_coupling(2.0, 8.0) == pytest.approx(0.5)
        with pytest.raises(ZeroDivisionError):
            effective_coupling(2.0, 0.0)


class TestAdvisories:
    def test_rwa_advisory_boundary(self):
        assert rwa_advisory(0.5, 10.0, 10.0) is None
        msg = rwa_advisory(2.0, 10.0, 10.0)
        assert msg is not None and "counter-rotating" in msg

    def test_dispersive_advisory_boundary(self):
        assert dispersive_advisory(0.5, 10.0) is None
        msg = dispersive_advisory(1.0, 10.0)
        assert msg is not None and "dispersive" in msg
