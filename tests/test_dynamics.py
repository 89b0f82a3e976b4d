"""Unit tests for time evolution and gate metrics.

Analytic oracles used here, all closed-form:

- Driven two-level system, H = (Omega/2) sx from the ground state:
  excited population sin^2(Omega t / 2).
- Resonant single-excitation exchange at coupling G starting from one
  mode quantum: spin population sin^2(G t), full transfer at pi/(2G).
- Amplitude damping at rate gamma from the excited state: e^{-gamma t}.
- Mode decay at rate kappa from Fock level 3: occupation 3 e^{-kappa t}.
- Identity channel scored against the excitation-swap gate:
  F_pro = |tr U|^2 / 16 = 0.25, so F_avg = 0.4; local z-phases cannot
  raise it above 0.25.
"""

from __future__ import annotations

import numpy as np
import pytest

from kerrspin.config import resolve
from kerrspin.dynamics import (
    DEFAULT_STEP_SCALE,
    STEP_BUDGET,
    DiagnosticsError,
    LindbladModel,
    StepSizeError,
    _interval_propagator,
    average_gate_fidelity,
    choi_from_outputs,
    evolve_lindblad,
    evolve_lindblad_batch,
    evolve_unitary,
    iswap_ideal_map,
    iswap_unitary,
    liouvillian,
    populations,
    process_basis_kets,
    process_fidelity,
    spectral_scale,
    state_fidelity,
    strip_local_phases,
)
from kerrspin.fock import (
    HilbertSpec,
    Subsystem,
    annihilation,
    basis_ket,
    dm,
    embed,
    partial_trace,
    qubit_ops,
)
from kerrspin.hamiltonians import SqueezedFrame, effective_coupling, tavis_cummings_hamiltonian
from kerrspin.scenarios import _resolve_frame, _transfer_models


def mode_only_spec(cutoff: int) -> HilbertSpec:
    return HilbertSpec((Subsystem("mode", cutoff),))


class TestUnitary:
    def test_driven_qubit_oscillation(self):
        spec = HilbertSpec.spins_only(1)
        omega = 2.0
        h = 0.5 * omega * qubit_ops()["sx"]
        times = np.linspace(0.0, 4.0 * np.pi / omega, 161)
        traj = evolve_unitary(h, basis_ket((0,), spec), times, spec=spec)
        expected = np.sin(0.5 * omega * times) ** 2
        assert np.max(np.abs(populations(traj, "spin") - expected)) < 1e-12

    def test_resonant_exchange_full_transfer(self):
        g = 1.0
        delta = 10.0
        spec = HilbertSpec.mode_and_spins(3)
        fr = SqueezedFrame(squeezing=0.0, mode_detuning=delta, coupling=g)
        h = tavis_cummings_hamiltonian(spec, fr, delta_q=delta)
        times = np.linspace(0.0, np.pi / (2.0 * g), 101)
        traj = evolve_unitary(h, basis_ket((1, 0), spec), times, spec=spec)
        spin = populations(traj, "spin")
        assert spin[-1] >= 1.0 - 1e-10
        assert np.max(np.abs(spin - np.sin(g * times) ** 2)) < 1e-10
        # Single excitation shared between mode and spin.
        total = spin + populations(traj, "mode")
        assert np.max(np.abs(total - 1.0)) < 1e-10

    def test_keep_states_and_final_state(self):
        spec = HilbertSpec.spins_only(1)
        h = qubit_ops()["sx"]
        times = np.linspace(0.0, 1.0, 11)
        traj = evolve_unitary(h, basis_ket((0,), spec), times, spec=spec, keep_states=True)
        assert traj.states is not None
        assert traj.states.shape == (11, 2)
        assert np.allclose(traj.states[-1], traj.final_state)
        traj2 = evolve_unitary(h, basis_ket((0,), spec), times, spec=spec)
        assert traj2.states is None
        assert traj2.diagnostics["step_error"] == 0.0

    def test_input_validation(self):
        spec = HilbertSpec.spins_only(1)
        good_h = qubit_ops()["sx"]
        good_psi = basis_ket((0,), spec)
        times = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            evolve_unitary(np.array([[0.0, 1.0], [0.0, 0.0]]), good_psi, times)
        with pytest.raises(ValueError):
            evolve_unitary(good_h, 2.0 * good_psi, times)
        with pytest.raises(ValueError):
            evolve_unitary(good_h, good_psi, np.array([0.0, 1.0, 0.5]))
        with pytest.raises(ValueError):
            evolve_unitary(good_h, good_psi, np.array([0.0]))
        with pytest.raises(ValueError):
            populations(
                evolve_unitary(good_h, good_psi, times, spec=spec), "nonexistent"
            )


class TestLindblad:
    def test_amplitude_damping(self):
        gamma = 0.8
        spec = HilbertSpec.spins_only(1)
        model = LindbladModel(
            hamiltonian=np.zeros((2, 2), dtype=complex),
            collapse=[(qubit_ops()["sm"], gamma)],
            spec=spec,
        )
        times = np.linspace(0.0, 3.0 / gamma, 61)
        traj = evolve_lindblad(model, dm(basis_ket((1,), spec)), times)
        expected = np.exp(-gamma * times)
        assert np.max(np.abs(populations(traj, "spin") - expected)) < 1e-9
        assert traj.diagnostics["trace_deviation"] < 1e-10

    def test_mode_decay(self):
        kappa = 0.7
        spec = mode_only_spec(6)
        model = LindbladModel(
            hamiltonian=np.zeros((6, 6), dtype=complex),
            collapse=[(annihilation(6), kappa)],
            spec=spec,
        )
        times = np.linspace(0.0, 2.0 / kappa, 41)
        rho0 = dm(basis_ket((3,), spec))
        traj = evolve_lindblad(model, rho0, times)
        expected = 3.0 * np.exp(-kappa * times)
        assert np.max(np.abs(populations(traj, "mode") - expected)) < 1e-9

    def test_zero_rates_match_unitary(self):
        g = 1.0
        spec = HilbertSpec.mode_and_spins(3)
        fr = SqueezedFrame(squeezing=0.0, mode_detuning=5.0, coupling=g)
        h = tavis_cummings_hamiltonian(spec, fr, delta_q=5.0)
        times = np.linspace(0.0, np.pi / (2.0 * g), 41)
        psi0 = basis_ket((1, 0), spec)
        a_full = embed(annihilation(3), 0, spec)
        model = LindbladModel(hamiltonian=h, collapse=[(a_full, 0.0)], spec=spec)
        open_traj = evolve_lindblad(model, dm(psi0), times)
        closed_traj = evolve_unitary(h, psi0, times, spec=spec)
        for label in ("mode", "spin"):
            diff = populations(open_traj, label) - populations(closed_traj, label)
            assert np.max(np.abs(diff)) < 1e-10

    def test_batch_matches_single(self):
        gamma = 0.5
        spec = HilbertSpec.spins_only(1)
        model = LindbladModel(
            hamiltonian=0.3 * qubit_ops()["sz"],
            collapse=[(qubit_ops()["sm"], gamma)],
            spec=spec,
        )
        times = np.linspace(0.0, 2.0, 21)
        rho_a = dm(basis_ket((1,), spec))
        rho_b = dm(np.array([1.0, 1.0]) / np.sqrt(2.0))
        batched = evolve_lindblad_batch(model, [rho_a, rho_b], times)
        singles = [evolve_lindblad(model, r, times) for r in (rho_a, rho_b)]
        for got, want in zip(batched, singles):
            assert np.max(np.abs(got.final_state - want.final_state)) < 1e-12

    def test_nonuniform_grid(self):
        gamma = 0.8
        spec = HilbertSpec.spins_only(1)
        model = LindbladModel(
            hamiltonian=np.zeros((2, 2), dtype=complex),
            collapse=[(qubit_ops()["sm"], gamma)],
            spec=spec,
        )
        times = np.array([0.0, 0.1, 0.3, 0.35, 0.5, 1.0, 1.7])
        traj = evolve_lindblad(model, dm(basis_ket((1,), spec)), times)
        expected = np.exp(-gamma * times)
        assert np.max(np.abs(populations(traj, "spin") - expected)) < 1e-8

    def test_step_validation(self):
        spec = HilbertSpec.spins_only(1)
        model = LindbladModel(
            hamiltonian=10.0 * qubit_ops()["sz"],
            collapse=[(qubit_ops()["sm"], 1.0)],
            spec=spec,
        )
        times = np.linspace(0.0, 1.0, 5)
        rho0 = dm(basis_ket((1,), spec))
        # Ceiling is 0.1 / (10 + 1); a step of 0.1 violates it.
        with pytest.raises(StepSizeError):
            evolve_lindblad(model, rho0, times, step=0.1)
        with pytest.raises(StepSizeError):
            evolve_lindblad(model, rho0, times, step=-1.0)
        with pytest.raises(StepSizeError):
            evolve_lindblad(model, rho0, times, step_scale=0.0)
        with pytest.raises(StepSizeError):
            evolve_lindblad(model, rho0, times, step_scale=1.5)
        # An in-budget explicit step works.
        evolve_lindblad(model, rho0, times, step=0.1 / 11.0 / 2.0)

    def test_model_validation(self):
        spec = HilbertSpec.spins_only(1)
        with pytest.raises(ValueError):
            LindbladModel(
                hamiltonian=np.zeros((3, 3), dtype=complex), collapse=[], spec=spec
            )
        with pytest.raises(ValueError):
            LindbladModel(
                hamiltonian=np.array([[0.0, 1.0], [0.0, 0.0]]), collapse=[], spec=spec
            )
        with pytest.raises(ValueError):
            LindbladModel(
                hamiltonian=np.zeros((2, 2), dtype=complex),
                collapse=[(qubit_ops()["sm"], -1.0)],
                spec=spec,
            )

    def test_keep_states_shape(self):
        spec = HilbertSpec.spins_only(1)
        model = LindbladModel(
            hamiltonian=np.zeros((2, 2), dtype=complex),
            collapse=[(qubit_ops()["sm"], 1.0)],
            spec=spec,
        )
        times = np.linspace(0.0, 1.0, 6)
        traj = evolve_lindblad(model, dm(basis_ket((1,), spec)), times, keep_states=True)
        assert traj.states is not None
        assert traj.states.shape == (6, 2, 2)
        assert np.allclose(traj.states[-1], traj.final_state)


def full_space_reference(model: LindbladModel, rho0s: list[np.ndarray], times: np.ndarray):
    """Evolve on the whole truncated space with the solver's own step rule.

    Returns states (inputs, times, d, d), spectral scale, substep and
    substeps per interval, for a uniform time grid.
    """
    scale = spectral_scale(model)
    dt = float(times[1] - times[0])
    gen = liouvillian(model.hamiltonian, model.collapse)
    prop, k = _interval_propagator(gen, dt, DEFAULT_STEP_SCALE * STEP_BUDGET / scale)
    vecs = np.stack([r.reshape(-1) for r in rho0s], axis=1)
    series = [vecs]
    for _ in range(times.size - 1):
        vecs = prop @ vecs
        series.append(vecs)
    d = model.spec.dim
    states = np.stack(series).transpose(2, 0, 1).reshape(len(rho0s), times.size, d, d)
    return states, scale, dt / k, k


def transfer_case(cutoff: int):
    """The state-transfer / iswap-fidelity three-body model at default config."""
    cfg = resolve("state-transfer")
    fs = _resolve_frame(cfg, 0.7e6, 2.0, delta_minus_factor=10.0)
    spec, model, _, _ = _transfer_models(
        fs, cutoff, cfg["dissipation.kappa_m"], cfg["dissipation.gamma_q"]
    )
    t_star = np.pi / (2.0 * abs(effective_coupling(fs.coupling, fs.delta_minus)))
    return spec, model, np.linspace(0.0, 1.4 * t_star, 281)


class TestReachableSubspace:
    """The solver evolves only the basis states the inputs can reach; it
    must reproduce the full-space evolution at the same step."""

    def assert_matches_full_space(self, model, rho0s, times, reduced_dim):
        trajs = evolve_lindblad_batch(model, rho0s, times, keep_states=True)
        ref, scale, substep, k = full_space_reference(model, rho0s, times)
        for traj, want in zip(trajs, ref):
            assert traj.states.shape == want.shape
            assert np.max(np.abs(traj.states - want)) <= 1e-9
            assert np.array_equal(traj.final_state, traj.states[-1])
            diag = traj.diagnostics
            assert diag["spectral_scale"] == scale
            assert diag["substep"] == substep
            assert diag["max_substeps_per_interval"] == k
            assert diag["hilbert_dim"] == model.spec.dim
            assert diag["reduced_dim"] == reduced_dim
            assert diag["liouville_dim"] == reduced_dim**2

    @pytest.mark.parametrize("cutoff", [6, 11])
    def test_state_transfer_model(self, cutoff):
        spec, model, times = transfer_case(cutoff)
        # |0, e, g> reaches |1, g, g>, |0, g, e> and, by decay, |0, g, g>.
        self.assert_matches_full_space(model, [dm(basis_ket((0, 1, 0), spec))], times, 4)

    def test_iswap_full_channel(self):
        spec, model, times = transfer_case(6)
        vac = dm(basis_ket((0,), mode_only_spec(6)))
        rho0s = [np.kron(vac, dm(k)) for k in process_basis_kets()]
        # Four spin states with the mode empty, plus one and two quanta moved
        # into the mode.
        self.assert_matches_full_space(model, rho0s, times, 8)

    def test_closure_includes_anticommutator_term(self):
        # C|0> = |0> keeps {|0>} closed under C alone, but C'C|0> has a
        # |1> component that -1/2 {C'C, rho} feeds into rho.
        spec = mode_only_spec(3)
        c = np.zeros((3, 3), dtype=complex)
        c[0, 0] = c[0, 1] = 1.0
        model = LindbladModel(np.diag([0.0, 0.4, 1.0]).astype(complex), [(c, 0.5)], spec)
        times = np.linspace(0.0, 2.0, 21)
        self.assert_matches_full_space(model, [dm(basis_ket((0,), spec))], times, 2)

    def test_zero_rate_collapse_does_not_enlarge_subspace(self):
        kappa = 0.7
        spec = mode_only_spec(5)
        a = annihilation(5)
        model = LindbladModel(
            hamiltonian=np.zeros((5, 5), dtype=complex),
            collapse=[(a, kappa), (a.conj().T, 0.0)],
            spec=spec,
        )
        times = np.linspace(0.0, 2.0 / kappa, 41)
        traj = evolve_lindblad(model, dm(basis_ket((1,), spec)), times)
        assert traj.diagnostics["reduced_dim"] == 2
        assert np.max(np.abs(populations(traj, "mode") - np.exp(-kappa * times))) < 1e-9

    def test_single_reachable_state(self):
        spec = HilbertSpec.spins_only(1)
        model = LindbladModel(
            hamiltonian=0.3 * qubit_ops()["sz"],
            collapse=[(qubit_ops()["sm"], 0.5)],
            spec=spec,
        )
        rho0 = dm(basis_ket((0,), spec))
        traj = evolve_lindblad(model, rho0, np.linspace(0.0, 2.0, 11))
        assert traj.diagnostics["reduced_dim"] == 1
        assert traj.diagnostics["liouville_dim"] == 1
        assert traj.diagnostics["min_eigenvalue"] == 0.0
        assert traj.final_state.shape == (2, 2)
        assert np.max(np.abs(traj.final_state - rho0)) < 1e-12
        assert np.max(np.abs(populations(traj, "spin"))) < 1e-12


def reconstruct_choi(apply_channel) -> np.ndarray:
    outputs = np.array([apply_channel(dm(k)) for k in process_basis_kets()])
    return choi_from_outputs(outputs)


class TestGateMetrics:
    def test_iswap_unitary_entries(self):
        u = iswap_unitary()
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = expected[3, 3] = 1.0
        expected[1, 2] = expected[2, 1] = -1j
        assert np.allclose(u, expected)
        assert np.allclose(u @ u.conj().T, np.eye(4))

    def test_ideal_channel_scores_one(self):
        choi = reconstruct_choi(iswap_ideal_map)
        assert process_fidelity(choi, iswap_unitary()) == pytest.approx(1.0, abs=1e-12)
        assert average_gate_fidelity(choi, iswap_unitary()) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_choi_is_a_state(self):
        choi = reconstruct_choi(iswap_ideal_map)
        assert np.max(np.abs(choi - choi.conj().T)) < 1e-12
        assert np.trace(choi).real == pytest.approx(1.0, abs=1e-12)
        assert float(np.min(np.linalg.eigvalsh(choi))) > -1e-12

    def test_identity_channel_baseline(self):
        choi = reconstruct_choi(lambda rho: rho)
        assert process_fidelity(choi, iswap_unitary()) == pytest.approx(0.25, abs=1e-12)
        assert average_gate_fidelity(choi, iswap_unitary()) == pytest.approx(
            0.4, abs=1e-12
        )

    def test_trace_preservation_defect_raises(self):
        outputs = np.array([0.9 * iswap_ideal_map(dm(k)) for k in process_basis_kets()])
        with pytest.raises(DiagnosticsError):
            choi_from_outputs(outputs)

    def test_output_shape_validated(self):
        with pytest.raises(ValueError):
            choi_from_outputs(np.zeros((15, 4, 4), dtype=complex))


def local_z(phi1: float, phi2: float) -> np.ndarray:
    rz1 = np.array([np.exp(-0.5j * phi1), np.exp(0.5j * phi1)])
    rz2 = np.array([np.exp(-0.5j * phi2), np.exp(0.5j * phi2)])
    return np.diag(np.kron(rz1, rz2))


class TestPhaseStripping:
    def test_recovers_z_rotated_gate(self):
        # Channel = (local z rotations) after the ideal gate; stripping
        # must win the phases back and score 1.
        w = local_z(0.7, -1.3)
        choi = reconstruct_choi(lambda rho: w @ iswap_ideal_map(rho) @ w.conj().T)
        raw = process_fidelity(choi, iswap_unitary())
        assert raw < 0.999
        best, phases = strip_local_phases(choi, iswap_unitary())
        assert best == pytest.approx(1.0, rel=1e-12)
        assert len(phases) == 2

    def test_identity_gains_nothing(self):
        # max_phi |tr(U' S)|^2/16 = max 4 cos^2((p1+p2)/2)/16 = 0.25.
        choi = reconstruct_choi(lambda rho: rho)
        best, _ = strip_local_phases(choi, iswap_unitary())
        assert best == pytest.approx(0.25, abs=1e-10)

    def test_deterministic(self):
        w = local_z(2.1, 0.4)
        choi = reconstruct_choi(lambda rho: w @ iswap_ideal_map(rho) @ w.conj().T)
        first = strip_local_phases(choi, iswap_unitary())
        second = strip_local_phases(choi, iswap_unitary())
        assert first[0] == second[0]
        assert first[1] == second[1]


# Per-time-point reference forms of choi_from_outputs and
# strip_local_phases: a np.kron sum per Choi matrix, Fourier coefficients
# from a 3x3 sample grid, and a scalar Newton loop with np.linalg.solve.
# The batched forms must reproduce them.


def reference_choi(outputs: np.ndarray) -> np.ndarray:
    comp = outputs[:4]
    choi = np.zeros((16, 16), dtype=complex)
    basis = np.eye(4, dtype=complex)
    for j in range(4):
        choi += np.kron(comp[j], np.outer(basis[:, j], basis[:, j]))
    pairs = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    for p, (j, k) in enumerate(pairs):
        e_jk = outputs[4 + p] + 1j * outputs[10 + p] - (1.0 + 1j) / 2.0 * (comp[j] + comp[k])
        choi += np.kron(e_jk, np.outer(basis[:, j], basis[:, k]))
        choi += np.kron(e_jk.conj().T, np.outer(basis[:, k], basis[:, j]))
    return choi / 4


def reference_overlap(choi: np.ndarray, vec: np.ndarray, phi1: float, phi2: float) -> float:
    """Re <w|J|w> for w = S'|U>>, S the local z-phases after the channel."""
    s = np.kron(local_z(phi1, phi2), np.eye(4, dtype=complex))
    w = s.conj().T @ vec
    return float(np.real(w.conj() @ choi @ w))


def reference_strip(choi: np.ndarray, u: np.ndarray) -> tuple[float, tuple[float, float]]:
    vec = np.kron(u, np.eye(4, dtype=complex)) @ (np.eye(4).reshape(-1) / 2.0)
    nodes = [0.0, 2.0 * np.pi / 3.0, 4.0 * np.pi / 3.0]
    samples = np.array([[reference_overlap(choi, vec, p1, p2) for p2 in nodes] for p1 in nodes])
    coeff = {}
    for a in (-1, 0, 1):
        for b in (-1, 0, 1):
            acc = 0.0 + 0j
            for p, phi_p in enumerate(nodes):
                for q, phi_q in enumerate(nodes):
                    acc += samples[p, q] * np.exp(-1j * (a * phi_p + b * phi_q))
            coeff[(a, b)] = acc / 9.0

    def poly(phi1, phi2):
        val = coeff[(0, 0)].real
        val += 2.0 * np.real(coeff[(1, 0)] * np.exp(1j * phi1))
        val += 2.0 * np.real(coeff[(0, 1)] * np.exp(1j * phi2))
        val += 2.0 * np.real(coeff[(1, 1)] * np.exp(1j * (phi1 + phi2)))
        val += 2.0 * np.real(coeff[(1, -1)] * np.exp(1j * (phi1 - phi2)))
        return val

    def grad_hess(phi1, phi2):
        e1 = coeff[(1, 0)] * np.exp(1j * phi1)
        e2 = coeff[(0, 1)] * np.exp(1j * phi2)
        ep = coeff[(1, 1)] * np.exp(1j * (phi1 + phi2))
        em = coeff[(1, -1)] * np.exp(1j * (phi1 - phi2))
        g1 = 2.0 * np.real(1j * (e1 + ep + em))
        g2 = 2.0 * np.real(1j * (e2 + ep - em))
        h11 = -2.0 * np.real(e1 + ep + em)
        h22 = -2.0 * np.real(e2 + ep + em)
        h12 = -2.0 * np.real(ep - em)
        return np.array([g1, g2]), np.array([[h11, h12], [h12, h22]])

    grid = np.linspace(0.0, 2.0 * np.pi, 48, endpoint=False)
    p1g, p2g = np.meshgrid(grid, grid, indexing="ij")
    vals = poly(p1g, p2g)
    flat = int(np.argmax(vals))
    best_val, best = float(vals.flat[flat]), (float(p1g.flat[flat]), float(p2g.flat[flat]))
    phi = np.array(best)
    for _ in range(40):
        grad, hess = grad_hess(phi[0], phi[1])
        try:
            delta = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(delta)):
            break
        phi_new = phi + delta
        if poly(phi_new[0], phi_new[1]) < poly(phi[0], phi[1]) - 1e-15:
            break
        phi = phi_new
        if np.max(np.abs(delta)) < 1e-13:
            break
    if poly(phi[0], phi[1]) >= best_val:
        best = (float(phi[0]), float(phi[1]))
    return reference_overlap(choi, vec, *best), best


def hessian_det(choi: np.ndarray, u: np.ndarray, phi: tuple[float, float]) -> float:
    """Central-difference Hessian determinant of the stripped overlap at phi."""
    vec = np.kron(u, np.eye(4, dtype=complex)) @ (np.eye(4).reshape(-1) / 2.0)
    h = 1e-4

    def f(d1, d2):
        return reference_overlap(choi, vec, phi[0] + d1, phi[1] + d2)

    f0 = f(0.0, 0.0)
    h11 = (f(h, 0.0) - 2.0 * f0 + f(-h, 0.0)) / h**2
    h22 = (f(0.0, h) - 2.0 * f0 + f(0.0, -h)) / h**2
    h12 = (f(h, h) - f(h, -h) - f(-h, h) + f(-h, -h)) / (4.0 * h**2)
    return h11 * h22 - h12**2


@pytest.fixture(scope="module")
def channel_output_series() -> dict[str, np.ndarray]:
    """(281, 16, 4, 4) output series of the iswap-fidelity written channel
    and full channel (cutoff 6, mode traced out) at default config."""
    cfg = resolve("iswap-fidelity")
    fs = _resolve_frame(cfg, 0.7e6, 2.0, delta_minus_factor=10.0)
    spec3, model3, _, model2 = _transfer_models(
        fs, 6, cfg["dissipation.kappa_m"], cfg["dissipation.gamma_q"]
    )
    t_star = np.pi / (2.0 * abs(effective_coupling(fs.coupling, fs.delta_minus)))
    times = np.linspace(0.0, 1.4 * t_star, 281)
    kets = process_basis_kets()
    written = evolve_lindblad_batch(model2, [dm(k) for k in kets], times, keep_states=True)
    vac = dm(basis_ket((0,), mode_only_spec(6)))
    full = evolve_lindblad_batch(
        model3, [np.kron(vac, dm(k)) for k in kets], times, keep_states=True
    )
    return {
        "written": np.stack([tr.states for tr in written], axis=1),
        "full": np.stack([partial_trace(tr.states, (1, 2), spec3) for tr in full], axis=1),
    }


class TestBatchedGateMetrics:
    """The time-batched gate metrics against the per-time-point oracle."""

    @pytest.mark.parametrize("channel", ["written", "full"])
    def test_matches_per_time_point_oracle(self, channel_output_series, channel):
        outputs = channel_output_series[channel]
        u = iswap_unitary()
        choi = choi_from_outputs(outputs)
        raw = average_gate_fidelity(choi, u)
        stripped, phases = strip_local_phases(choi, u)
        assert choi.shape == (281, 16, 16)
        assert raw.shape == stripped.shape == (281,)
        assert phases.shape == (281, 2)
        flat_maxima = []
        for t, out in enumerate(outputs):
            ref = reference_choi(out)
            assert np.max(np.abs(choi[t] - ref)) <= 1e-13
            vec = np.kron(u, np.eye(4, dtype=complex)) @ (np.eye(4).reshape(-1) / 2.0)
            ref_raw = (4.0 * float(np.real(vec.conj() @ ref @ vec)) + 1.0) / 5.0
            assert abs(raw[t] - ref_raw) <= 1e-12
            ref_best, ref_phases = reference_strip(ref, u)
            assert abs(stripped[t] - ref_best) <= 1e-12
            # Where the maximum is a ridge (zero Hessian determinant) both
            # searches land on it with the same F but may pick different
            # points, so phases are compared only at isolated maxima.
            if abs(hessian_det(ref, u, ref_phases)) < 1e-6:
                flat_maxima.append(t)
                continue
            wrapped = np.angle(np.exp(1j * (phases[t] - np.array(ref_phases))))
            assert np.max(np.abs(wrapped)) <= 1e-9
        # Only t = 0 is flat: the identity channel scores 0.25 along the
        # whole ridge phi1 + phi2 = const.
        assert flat_maxima == [0]

    def test_unbatched_inputs_keep_scalar_types(self, channel_output_series):
        u = iswap_unitary()
        choi = choi_from_outputs(channel_output_series["written"][200])
        assert choi.shape == (16, 16)
        assert type(process_fidelity(choi, u)) is float
        assert type(average_gate_fidelity(choi, u)) is float
        best, phases = strip_local_phases(choi, u)
        assert type(best) is float
        assert isinstance(phases, tuple) and all(type(p) is float for p in phases)

    def test_flat_slice_stops_alone(self):
        # The depolarizing channel scores F = 1/16 at every phase (zero
        # Hessian); its slice must stop at the scan point without holding
        # back the Newton polish of the z-rotated gate batched beside it.
        w = local_z(0.7, -1.3)
        rotated = reconstruct_choi(lambda rho: w @ iswap_ideal_map(rho) @ w.conj().T)
        depolarized = reconstruct_choi(lambda rho: np.trace(rho) * np.eye(4) / 4.0)
        u = iswap_unitary()
        best, phases = strip_local_phases(np.stack([depolarized, rotated]), u)
        assert best[0] == pytest.approx(1.0 / 16.0, abs=1e-15)
        assert phases[0].tolist() == [0.0, 0.0]
        assert best[1] == pytest.approx(1.0, rel=1e-12)
        assert best[1] == strip_local_phases(rotated, u)[0]

    def test_one_defective_slice_raises(self, channel_output_series):
        outputs = channel_output_series["written"].copy()
        outputs[137] *= 0.9
        with pytest.raises(DiagnosticsError, match=r"at index \(137,\)"):
            choi_from_outputs(outputs)

    def test_batched_output_shape_validated(self):
        with pytest.raises(ValueError):
            choi_from_outputs(np.zeros((281, 15, 4, 4), dtype=complex))


class TestStateFidelity:
    def test_pure_states(self):
        spec = HilbertSpec.spins_only(1)
        zero = basis_ket((0,), spec)
        one = basis_ket((1,), spec)
        assert state_fidelity(zero, zero) == pytest.approx(1.0)
        assert state_fidelity(one, zero) == pytest.approx(0.0, abs=1e-15)

    def test_mixed_state(self):
        spec = HilbertSpec.spins_only(1)
        zero = basis_ket((0,), spec)
        assert state_fidelity(np.eye(2) / 2.0, zero) == pytest.approx(0.5)

    def test_embedded_operator_expectation(self):
        # Sanity check that the metric is basis aware: a Bell-like state
        # against one of its components scores 1/2.
        spec = HilbertSpec.spins_only(2)
        bell = (basis_ket((0, 1), spec) + basis_ket((1, 0), spec)) / np.sqrt(2.0)
        target = basis_ket((0, 1), spec)
        assert state_fidelity(bell, target) == pytest.approx(0.5)
        sx = embed(qubit_ops()["sx"], 0, spec)
        assert sx.shape == (4, 4)
