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

import tracemalloc

import numpy as np
import pytest

from kerrspin import dynamics
from kerrspin.config import resolve
from kerrspin.dynamics import (
    DEFAULT_STEP_SCALE,
    STEP_BUDGET,
    DiagnosticsError,
    LindbladModel,
    StepSizeError,
    _interval_propagator,
    _PAULIS,
    average_gate_fidelity,
    choi_from_outputs,
    default_population_observables,
    evolve_lindblad,
    evolve_lindblad_batch,
    evolve_unitary,
    evolve_unitary_batch,
    fidelities_from_outputs,
    iswap_unitary,
    liouvillian,
    pauli_observables,
    pauli_outputs,
    process_basis_kets,
    process_fidelity,
    spectral_scale,
    state_fidelity,
    strip_local_phases,
)
from kerrspin.fock import (
    POSITIVITY_FLOOR,
    HilbertSpec,
    Subsystem,
    annihilation,
    basis_ket,
    dm,
    embed,
    number_operator,
    partial_trace,
    qubit_ops,
)
from kerrspin.hamiltonians import (
    SqueezedFrame,
    effective_coupling,
    rabi_hamiltonian,
    tavis_cummings_hamiltonian,
)
from kerrspin.scenarios import (
    _dissipationless_fidelity,
    _full_model,
    _resolve_frame,
    _written_model,
    run_scenario,
)


def mode_only_spec(cutoff: int) -> HilbertSpec:
    return HilbertSpec((Subsystem("mode", cutoff),))


def spied_calls(monkeypatch, owner, name: str) -> list:
    """The positional arguments of every call to owner.<name> from now."""
    calls = []
    original = getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


def near_uniform_grid(t_end: float, points: int) -> np.ndarray:
    """np.linspace(0, t_end, points) with every other point moved by 1e-12
    relative, so its steps differ in the last bits but stay uniform to 1e-9."""
    times = np.linspace(0.0, t_end, points) * (1.0 + 1e-12 * (-1.0) ** np.arange(points))
    steps = np.diff(times)
    assert np.ptp(steps) > 0.0
    assert np.all(np.abs(steps - steps[0]) <= 1e-9 * steps[0])
    return times


class TestUnitary:
    def test_driven_qubit_oscillation(self):
        spec = HilbertSpec.spins_only(1)
        omega = 2.0
        h = 0.5 * omega * qubit_ops()["sx"]
        times = np.linspace(0.0, 4.0 * np.pi / omega, 161)
        traj = evolve_unitary(h, basis_ket((0,), spec), times, spec=spec)
        expected = np.sin(0.5 * omega * times) ** 2
        assert np.max(np.abs(traj.observables["pop_spin"] - expected)) < 1e-12

    def test_resonant_exchange_full_transfer(self):
        g = 1.0
        delta = 10.0
        spec = HilbertSpec.mode_and_spins(3)
        fr = SqueezedFrame(squeezing=0.0, mode_detuning=delta, coupling=g)
        h = tavis_cummings_hamiltonian(spec, fr, delta_q=delta)
        times = np.linspace(0.0, np.pi / (2.0 * g), 101)
        traj = evolve_unitary(h, basis_ket((1, 0), spec), times, spec=spec)
        spin = traj.observables["pop_spin"]
        assert spin[-1] >= 1.0 - 1e-10
        assert np.max(np.abs(spin - np.sin(g * times) ** 2)) < 1e-10
        # Single excitation shared between mode and spin.
        total = spin + traj.observables["pop_mode"]
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
        for shape in [(3, 3), (1, 1)]:
            with pytest.raises(ValueError, match="observable 'bad' shape"):
                evolve_unitary(good_h, good_psi, times, observables={"bad": np.eye(*shape)})


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
        assert np.max(np.abs(traj.observables["pop_spin"] - expected)) < 1e-9
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
        assert np.max(np.abs(traj.observables["pop_mode"] - expected)) < 1e-9

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
            key = f"pop_{label}"
            diff = open_traj.observables[key] - closed_traj.observables[key]
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

    def test_non_uniform_grid_refused(self, monkeypatch):
        gamma = 0.8
        spec = HilbertSpec.spins_only(1)
        model = LindbladModel(
            hamiltonian=np.zeros((2, 2), dtype=complex),
            collapse=[(qubit_ops()["sm"], gamma)],
            spec=spec,
        )
        rho0 = dm(basis_ket((1,), spec))
        calls = spied_calls(monkeypatch, dynamics, "liouvillian")
        with pytest.raises(ValueError, match="uniform grid"):
            evolve_lindblad(model, rho0, np.linspace(0.0, 1.7, 7) ** 2)
        assert calls == []
        # Steps equal to 1e-9 relative are one grid: a linspace off by
        # 1e-12 relative is stepped at its first interval.
        times = near_uniform_grid(3.0 / gamma, 61)
        traj = evolve_lindblad(model, rho0, times)
        assert len(calls) == 1
        expected = np.exp(-gamma * times)
        assert np.max(np.abs(traj.observables["pop_spin"] - expected)) < 1e-9

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

    def test_unbounded_substep_count_raises(self):
        # Spectral scale 1e300 over a 5e9 s interval: dt / substep is inf,
        # so no power of two reaches it; refused before the doubling loop.
        spec = HilbertSpec.spins_only(1)
        model = LindbladModel(1e300 * qubit_ops()["sz"], [], spec)
        rho0 = dm(basis_ket((1,), spec))
        with pytest.raises(StepSizeError, match="no finite count"):
            evolve_lindblad(model, rho0, np.linspace(0.0, 1e10, 3))
        gen = liouvillian(model.hamiltonian, [])
        with pytest.raises(StepSizeError, match="no finite count"):
            _interval_propagator(gen, 1e300, 1e-300)

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

    def test_observable_shape_validated(self):
        spec = HilbertSpec.spins_only(1)
        model = LindbladModel(0.3 * qubit_ops()["sx"], [(qubit_ops()["sm"], 0.5)], spec)
        rho0 = dm(basis_ket((0,), spec))
        for shape in [(3, 3), (1, 1)]:
            with pytest.raises(ValueError, match="observable 'bad' shape"):
                evolve_lindblad(
                    model, rho0, np.linspace(0.0, 1.0, 5), observables={"bad": np.eye(*shape)}
                )

    def test_initial_state_validation(self):
        spec = HilbertSpec.spins_only(2)
        q = qubit_ops()
        model = LindbladModel(0.3 * embed(q["sx"], 0, spec), [(embed(q["sm"], 1, spec), 0.5)], spec)
        times = np.linspace(0.0, 1.0, 5)
        good = dm(basis_ket((0, 0), spec))
        skew = good.copy()
        skew[0, 1] = 1e-6
        # Eigenvalues 1.1 and -0.1 on the block of basis states 1 and 2.
        negative = np.zeros((4, 4), dtype=complex)
        negative[1:3, 1:3] = [[0.5, 0.6], [0.6, 0.5]]
        cases = {
            "dimension mismatch": np.eye(2) / 2.0,
            "trace deviates from 1": 2.0 * good,
            "not hermitian": skew,
            "not positive semidefinite": negative,
        }
        for message, bad in cases.items():
            with pytest.raises(ValueError, match=f"^initial state .*{message}$"):
                evolve_lindblad_batch(model, [good, bad], times)

    @pytest.mark.parametrize("eigenvalue, passes", [(-1e-9, True), (-1e-7, False)])
    def test_positivity_floor_on_common_support(self, eigenvalue, passes):
        # One input mixes basis states 1 and 2 with eigenvalues
        # (1 - eigenvalue, eigenvalue); the batch's common support is
        # {0, 1, 2} of 4, and the floor (-1e-8) must still decide.
        spec = HilbertSpec.spins_only(2)
        model = LindbladModel(np.zeros((4, 4), dtype=complex), [], spec)
        mixed = np.zeros((4, 4), dtype=complex)
        mixed[1:3, 1:3] = [[0.5, 0.5 - eigenvalue], [0.5 - eigenvalue, 0.5]]
        inputs = [dm(basis_ket((0, 0), spec)), mixed]
        times = np.linspace(0.0, 1.0, 3)
        if passes:
            evolve_lindblad_batch(model, inputs, times)
        else:
            with pytest.raises(ValueError, match="not positive semidefinite"):
                evolve_lindblad_batch(model, inputs, times)

    def test_inputs_diagonalised_once_on_their_support(self, monkeypatch):
        model, rho0s, _times = tomography_case(6)
        shapes = recorded_eigvalsh_shapes(monkeypatch)
        stack = dynamics._validate_inputs(rho0s, model.spec.dim)
        # The 16 inputs live on the mode vacuum times the 4 spin states.
        assert shapes == [(16, 4, 4)]
        assert stack.tobytes() == np.stack(rho0s).tobytes()

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
    model = _full_model(fs, cutoff, cfg["dissipation.kappa_m"], cfg["dissipation.gamma_q"])
    t_star = np.pi / (2.0 * abs(effective_coupling(fs.coupling, fs.delta_minus)))
    return model.spec, model, np.linspace(0.0, 1.4 * t_star, 281)


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
        assert np.max(np.abs(traj.observables["pop_mode"] - np.exp(-kappa * times))) < 1e-9

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
        assert np.max(np.abs(traj.observables["pop_spin"])) < 1e-12


def iswap_ideal_map(rho: np.ndarray) -> np.ndarray:
    """The ideal gate applied to a density matrix, U rho U'."""
    u = iswap_unitary()
    return u @ rho @ u.conj().T


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

    def test_dual_rebuilds_matrix_units(self):
        # Row j*4 + k of the dual matrix combines the 16 input states into
        # |j><k|, which is row j*4 + k of the 16 x 16 identity.
        inputs = np.array([dm(k) for k in process_basis_kets()]).reshape(16, 16)
        assert np.max(np.abs(dynamics._dual() @ inputs - np.eye(16))) <= 1e-15

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


def unitary_reference(h: np.ndarray, psi0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """(T, d) states from an eigendecomposition of the whole Hamiltonian."""
    evals, vecs = np.linalg.eigh(h)
    coeff = vecs.conj().T @ psi0
    return (vecs @ (np.exp(-1j * np.outer(evals, times)) * coeff[:, None])).T


def rabi_case(cutoff: int):
    """The rabi scenario's model, initial state and time grid at default config."""
    cfg = resolve("rabi")
    fs = _resolve_frame(cfg, 4.0e6, 10.0, delta_s_factor=10.0)
    spec = HilbertSpec.mode_and_spins(cutoff, 1)
    h = rabi_hamiltonian(spec, SqueezedFrame(fs.squeezing, fs.delta_s, fs.coupling), fs.delta_q)
    times = np.linspace(0.0, 3.0 * np.pi / (2.0 * fs.coupling), 1201)
    return spec, h, basis_ket((1, 0), spec), times


def battery_case(m: int):
    """The battery scenario's model for Fock level m (default cutoff m + 10)."""
    cfg = resolve("battery")
    fs = _resolve_frame(cfg, 4.0e6, 10.0, delta_s_factor=10.0)
    spec = HilbertSpec.mode_and_spins(m + 10, 1)
    h = tavis_cummings_hamiltonian(
        spec, SqueezedFrame(fs.squeezing, fs.delta_s, fs.coupling), fs.delta_q
    )
    times = np.linspace(0.0, np.pi / fs.coupling, 1601)
    return spec, h, basis_ket((m, 0), spec), times


class TestReachableUnitary:
    """evolve_unitary diagonalises only the block of H the initial state
    reaches; it must reproduce the whole-space evolution."""

    def assert_matches_full_space(self, spec, h, psi0, times, reduced_dim):
        traj = evolve_unitary(h, psi0, times, spec=spec, keep_states=True)
        want = unitary_reference(h, psi0, times)
        d = spec.dim
        assert traj.states.shape == (times.size, d)
        assert np.max(np.abs(traj.states - want)) <= 1e-9
        assert np.array_equal(traj.final_state, traj.states[-1])
        for name, op in default_population_observables(spec).items():
            expected = np.einsum("ti,ij,tj->t", want.conj(), op, want).real
            assert np.max(np.abs(traj.observables[name] - expected)) <= 1e-9
        assert traj.diagnostics["hilbert_dim"] == d
        assert traj.diagnostics["reduced_dim"] == reduced_dim
        assert traj.diagnostics["norm_drift"] <= 1e-10

    @pytest.mark.parametrize("cutoff", [15, 20])
    def test_rabi_model(self, cutoff):
        # The counter-rotating terms conserve excitation-number parity:
        # half of the basis is reached.
        self.assert_matches_full_space(*rabi_case(cutoff), cutoff)

    @pytest.mark.parametrize("m", [1, 5])
    def test_battery_model(self, m):
        # |m, g> and |m - 1, e> only.
        self.assert_matches_full_space(*battery_case(m), 2)

    @pytest.mark.parametrize("cutoff", [6, 11])
    def test_transfer_model(self, cutoff):
        spec, model, times = transfer_case(cutoff)
        # |0, e, g>, |1, g, g> and |0, g, e>.
        psi0 = basis_ket((0, 1, 0), spec)
        self.assert_matches_full_space(spec, model.hamiltonian, psi0, times, 3)

    def test_full_support_state(self):
        spec, h, _, times = rabi_case(6)
        rng = np.random.default_rng(7)
        psi0 = rng.normal(size=spec.dim) + 1j * rng.normal(size=spec.dim)
        psi0 /= np.linalg.norm(psi0)
        self.assert_matches_full_space(spec, h, psi0, times, spec.dim)

    def test_observables_are_projected(self):
        spec, h, psi0, times = rabi_case(15)
        manifold = dm(basis_ket((1, 0), spec)) + dm(basis_ket((0, 1), spec))
        # Couples a reached state to an unreached one: no contribution.
        reached, unreached = np.flatnonzero(psi0)[0], np.flatnonzero(basis_ket((0, 0), spec))[0]
        leak = np.zeros_like(manifold)
        leak[reached, unreached] = leak[unreached, reached] = 1.0
        # A hermitian operator with imaginary entries: the exchange current.
        partner = np.flatnonzero(basis_ket((0, 1), spec))[0]
        current = np.zeros_like(manifold)
        current[reached, partner] = 1j
        current[partner, reached] = -1j
        observables = {"manifold": manifold, "leak": leak, "current": current}
        traj = evolve_unitary(h, psi0, times, observables=observables)
        want = unitary_reference(h, psi0, times)
        assert np.max(np.abs(traj.observables["current"])) > 0.5
        for name, op in observables.items():
            expected = np.einsum("ti,ij,tj->t", want.conj(), op, want).real
            assert np.max(np.abs(traj.observables[name] - expected)) <= 1e-9
        assert traj.states is None


def embedded_population_observables(spec: HilbertSpec) -> dict[str, np.ndarray]:
    """Number operator per boson and excited projector per qubit, each
    embedded factor by factor."""
    excited = qubit_ops()["sp"] @ qubit_ops()["sm"]
    out = {}
    for slot, sub in enumerate(spec.subsystems):
        local = excited if sub.dim == 2 and sub.label != "mode" else number_operator(sub.dim)
        out[f"pop_{sub.label}"] = embed(local, slot, spec)
    return out


class TestPopulationObservables:
    @pytest.mark.parametrize(
        "spec",
        [
            rabi_case(15)[0],
            rabi_case(20)[0],
            battery_case(1)[0],
            battery_case(5)[0],
            transfer_case(6)[0],
            transfer_case(11)[0],
            HilbertSpec.spins_only(2),
        ],
        ids=["rabi-15", "rabi-20", "battery-1", "battery-5", "transfer-6", "transfer-11", "spins"],
    )
    def test_bit_identical_to_embedding(self, spec):
        got = default_population_observables(spec)
        want = embedded_population_observables(spec)
        assert list(got) == list(want)
        for name, op in want.items():
            assert got[name].dtype == op.dtype and got[name].shape == op.shape
            assert got[name].tobytes() == op.tobytes()


def tomography_case(cutoff: int | None):
    """The iswap-fidelity model, its 16 tomography inputs and time grid at
    default config: the written channel (cutoff None) or the full channel
    with the mode in its ground state."""
    cfg = resolve("iswap-fidelity")
    fs = _resolve_frame(cfg, 0.7e6, 2.0, delta_minus_factor=10.0)
    t_star = np.pi / (2.0 * abs(effective_coupling(fs.coupling, fs.delta_minus)))
    times = np.linspace(0.0, 1.4 * t_star, 281)
    kets = process_basis_kets()
    gamma = cfg["dissipation.gamma_q"]
    if cutoff is None:
        return _written_model(fs, gamma), [dm(k) for k in kets], times
    model = _full_model(fs, cutoff, cfg["dissipation.kappa_m"], gamma)
    vac = dm(basis_ket((0,), mode_only_spec(cutoff)))
    return model, [np.kron(vac, dm(k)) for k in kets], times


def kept_state_outputs(model: LindbladModel, rho0s: list[np.ndarray], times: np.ndarray):
    """(T, 16, 4, 4) channel outputs from the kept full-size state series,
    with the mode (if any) traced out."""
    trajs = evolve_lindblad_batch(model, rho0s, times, keep_states=True)
    if model.spec.dim == 4:
        return np.stack([tr.states for tr in trajs], axis=1)
    return np.stack([partial_trace(tr.states, (1, 2), model.spec) for tr in trajs], axis=1)


@pytest.fixture(scope="module")
def channel_output_series() -> dict[str, np.ndarray]:
    """(281, 16, 4, 4) output series of the iswap-fidelity written channel
    and full channel (cutoff 6, mode traced out) at default config."""
    return {
        "written": kept_state_outputs(*tomography_case(None)),
        "full": kept_state_outputs(*tomography_case(6)),
    }


class TestPauliChannelOutputs:
    """iswap-fidelity rebuilds each channel output from 16 two-qubit Pauli
    expectation values; the partial trace of the kept states is the oracle."""

    @pytest.mark.parametrize("cutoff", [None, 6, 11], ids=["written", "full-6", "full-11"])
    def test_matches_kept_state_partial_trace(self, cutoff):
        model, rho0s, times = tomography_case(cutoff)
        observables = pauli_observables(model.spec.dim)
        trajs = evolve_lindblad_batch(model, rho0s, times, observables=observables)
        outputs = pauli_outputs(trajs)
        want = kept_state_outputs(model, rho0s, times)
        assert outputs.shape == want.shape == (281, 16, 4, 4)
        assert np.all(np.max(np.abs(outputs - want), axis=(1, 2, 3)) <= 1e-12)
        assert all(tr.states is None for tr in trajs)

    @pytest.mark.parametrize("d", [4, 24, 44])
    def test_lift_bitwise_equals_kron(self, d):
        observables = pauli_observables(d)
        assert list(observables) == [f"pauli{m}" for m in range(16)]
        lifts = np.stack(list(observables.values()))
        assert lifts.shape == (16, d, d)
        for lift, pauli in zip(lifts, _PAULIS):
            assert lift.tobytes() == np.kron(np.eye(d // 4, dtype=complex), pauli).tobytes()


def full_space_stripped_at(h: np.ndarray, reduce_spec: HilbertSpec | None, t: float) -> float:
    """The former iswap-fidelity dissipationless reference: the full-space
    propagator from `eigh`, the 16 input density matrices pushed through
    it, the mode (if any) removed by a partial trace."""
    kets = process_basis_kets()
    evals, vecs = np.linalg.eigh(h)
    u_t = (vecs * np.exp(-1j * evals * t)) @ vecs.conj().T
    if reduce_spec is None:
        rho0s = np.stack([dm(k) for k in kets])
    else:
        cut = reduce_spec.dims[0]
        vac = np.zeros((cut, cut), dtype=complex)
        vac[0, 0] = 1.0
        rho0s = np.stack([np.kron(vac, dm(k)) for k in kets])
    outs = u_t @ rho0s @ u_t.conj().T
    if reduce_spec is not None:
        outs = partial_trace(outs, (1, 2), reduce_spec)
    f_pro, _ = strip_local_phases(choi_from_outputs(outs), iswap_unitary())
    return (4.0 * f_pro + 1.0) / 5.0


def former_process_kets() -> list[np.ndarray]:
    """The 16 two-qubit input kets as first written, one at a time:
    computational states, then the real and the imaginary superpositions
    over the pairs (0,1), (0,2), (0,3), (1,2), (1,3), (2,3)."""
    eye = np.eye(4, dtype=complex)
    pairs = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    kets = [eye[:, j].copy() for j in range(4)]
    kets += [(eye[:, j] + eye[:, k]) / np.sqrt(2.0) for j, k in pairs]
    kets += [(eye[:, j] + 1j * eye[:, k]) / np.sqrt(2.0) for j, k in pairs]
    return kets


class TestDissipationlessFidelity:
    """The closed-system gate reference evolves the 16 input kets and
    rebuilds each output from its Pauli expectations; the former
    full-space propagator with a partial trace is the oracle."""

    @pytest.mark.parametrize("cutoff", [None, 6, 11], ids=["written", "full-6", "full-11"])
    @pytest.mark.parametrize("fraction", [1.0, 0.6])
    def test_matches_full_space_reference(self, cutoff, fraction):
        model, _rho0s, times = tomography_case(cutoff)
        t = fraction * times[-1] / 1.4
        reduce_spec = None if cutoff is None else model.spec
        got = _dissipationless_fidelity(model.hamiltonian, t)
        want = full_space_stripped_at(model.hamiltonian, reduce_spec, t)
        assert abs(got - want) <= 1e-12
        if fraction == 1.0:
            assert got > 0.999

    def test_inputs_on_two_spins_are_the_process_kets(self):
        assert process_basis_kets(4).tobytes() == np.array(former_process_kets()).tobytes()
        assert process_basis_kets().tobytes() == process_basis_kets(4).tobytes()

    @pytest.mark.parametrize("d", [4, 24, 44])
    def test_inputs_are_mode_vacuum_times_process_kets(self, d):
        inputs = process_basis_kets(d)
        assert inputs.shape == (16, d)
        vac = np.zeros((d // 4, d // 4), dtype=complex)
        vac[0, 0] = 1.0
        for psi, k in zip(inputs, former_process_kets()):
            assert np.array_equal(dm(psi), np.kron(vac, dm(k)))


def reached_indices(model: LindbladModel, rho0s: list[np.ndarray]) -> np.ndarray:
    """The solver's reached block: the search from the inputs' support
    through H, every collapse operator with a nonzero rate and its C'C."""
    rates = [(op, rate) for op, rate in model.collapse if rate != 0.0]
    seed = np.any(np.stack(rho0s) != 0, axis=(0, 2))
    return dynamics._reachable(seed, [model.hamiltonian], [op for op, _ in rates])


def former_reachable(seed: np.ndarray, ops: list[np.ndarray]) -> np.ndarray:
    """The former search: one d x d adjacency from the nonzero patterns of
    all `ops`, with each C'C formed in full by the caller."""
    adjacent = np.zeros((seed.size, seed.size), dtype=bool)
    for op in ops:
        adjacent |= op != 0
    reached = seed.copy()
    frontier = seed
    while frontier.any():
        frontier = adjacent[:, frontier].any(axis=1) & ~reached
        reached |= frontier
    return np.flatnonzero(reached)


class TestFrontierSearch:
    """The search applies C'C at its frontier only; it must reach exactly
    the indices of the former search over the full C'C products."""

    @staticmethod
    def full_product_search(model: LindbladModel, rho0s: list[np.ndarray]) -> np.ndarray:
        cs = [op for op, rate in model.collapse if rate != 0.0]
        seed = np.any(np.stack(rho0s) != 0, axis=(0, 2))
        return former_reachable(seed, [model.hamiltonian] + cs + [c.conj().T @ c for c in cs])

    @pytest.mark.parametrize("cutoff", [6, 11])
    def test_state_transfer_model(self, cutoff):
        spec, model, _ = transfer_case(cutoff)
        rho0s = [dm(basis_ket((0, 1, 0), spec))]
        got = reached_indices(model, rho0s)
        assert np.array_equal(got, self.full_product_search(model, rho0s))
        assert got.size == 4

    @pytest.mark.parametrize("cutoff", [6, 11])
    def test_iswap_model(self, cutoff):
        model, rho0s, _ = tomography_case(cutoff)
        got = reached_indices(model, rho0s)
        assert np.array_equal(got, self.full_product_search(model, rho0s))
        assert got.size == 8

    def test_exactly_cancelling_c_dagger_c_entry(self):
        # Columns 0 and 1 of C are (1, 1, 0) and column 2 is (1, -1, 0), so
        # C'C[2, 0] = C'C[2, 1] = 1 - 1 = 0 exactly: {0, 1} is closed under
        # H, C and C'C, though the sign-blind pattern |C|'|C| links it to 2.
        c = np.array([[1, 1, 1], [1, 1, -1], [0, 0, 0]], dtype=complex)
        h = np.diag([0.0, 0.4, 1.0]).astype(complex)
        seed = np.array([True, False, False])
        got = dynamics._reachable(seed, [h], [c])
        assert got.tolist() == [0, 1]
        assert np.array_equal(got, former_reachable(seed, [h, c, c.conj().T @ c]))
        assert former_reachable(seed, [h, c, np.abs(c).T @ np.abs(c)]).tolist() == [0, 1, 2]


def one_pass_diagnostics(states: np.ndarray, d: int) -> dict[str, np.ndarray]:
    """The former all-at-once diagnostics over the whole (inputs, T, n, n)
    stack of block states, one value per input."""
    adjoint = states.conj().swapaxes(-1, -2)
    min_eig = np.min(np.linalg.eigvalsh(0.5 * (states + adjoint)), axis=(1, 2))
    if states.shape[-1] < d:
        min_eig = np.minimum(min_eig, 0.0)
    return {
        "trace_deviation": np.max(np.abs(np.einsum("itjj->it", states) - 1.0), axis=1),
        "hermiticity_deviation": np.max(np.abs(states - adjoint), axis=(1, 2, 3)),
        "min_eigenvalue": min_eig,
    }


def leaky_propagator(gen, dt, h_req):
    """A faulty one-qubit propagator that amplifies the excited population
    by 1 + 1e-6 per interval."""
    prop = np.eye(4, dtype=complex)
    prop[3, 3] = 1.0 + 1e-6  # the |e><e| entry of the row-major vector
    return prop, 1


class TestBatchedDiagnostics:
    """Diagnostics and observables are taken one input at a time over the
    (inputs, T, n, n) stack; each input must get its own values."""

    @pytest.mark.parametrize("cutoff", [None, 6], ids=["written", "full-6"])
    def test_diagnostics_match_per_input_recomputation(self, cutoff):
        model, rho0s, times = tomography_case(cutoff)
        trajs = evolve_lindblad_batch(model, rho0s, times, keep_states=True)
        assert len(trajs) == 16
        for tr in trajs:
            rho_t = tr.states
            adjoint = rho_t.conj().transpose(0, 2, 1)
            want = {
                "trace_deviation": np.max(np.abs(np.einsum("tii->t", rho_t) - 1.0)),
                "hermiticity_deviation": np.max(np.abs(rho_t - adjoint)),
                # The kept states are zero-padded when the block is smaller,
                # so their spectrum already holds the padding's 0.
                "min_eigenvalue": np.min(np.linalg.eigvalsh(0.5 * (rho_t + adjoint))),
            }
            for key, value in want.items():
                assert type(tr.diagnostics[key]) is float
                if cutoff is not None and key == "min_eigenvalue":
                    # eigvalsh of the padded 24 x 24 matrix, not of the
                    # 8 x 8 block the solver diagonalises: roundoff only.
                    assert tr.diagnostics[key] == pytest.approx(value, rel=0, abs=1e-15)
                else:
                    assert tr.diagnostics[key] == value
        # The inputs differ, so a reduction across inputs would show.
        for key in ("trace_deviation", "min_eigenvalue"):
            assert len({tr.diagnostics[key] for tr in trajs}) > 8

    @pytest.mark.parametrize("cutoff", [None, 6], ids=["written", "full-6"])
    def test_streamed_diagnostics_equal_one_pass_oracle(self, cutoff):
        model, rho0s, times = tomography_case(cutoff)
        trajs = evolve_lindblad_batch(model, rho0s, times, keep_states=True)
        idx = reached_indices(model, rho0s)
        block = np.stack([tr.states[:, idx[:, None], idx] for tr in trajs])
        want = one_pass_diagnostics(block, model.spec.dim)
        for i, tr in enumerate(trajs):
            for key, values in want.items():
                assert tr.diagnostics[key] == values[i]

    def test_observables_match_per_input_einsum(self):
        model, rho0s, times = tomography_case(6)
        spec = model.spec
        q = qubit_ops()
        observables = {
            "sy_sx": embed(q["sy"], 1, spec) @ embed(q["sx"], 2, spec),
            "sz_1": embed(q["sz"], 1, spec),
            # Not hermitian: the mode coherence.
            "a": embed(annihilation(6), 0, spec),
        }
        trajs = evolve_lindblad_batch(
            model, rho0s, times, observables=observables, keep_states=True
        )
        ops = {**default_population_observables(spec), **observables}
        for tr in trajs:
            assert list(tr.observables) == [*observables, "pop_mode", "pop_spin1", "pop_spin2"]
            for name, op in ops.items():
                want = np.einsum("ij,tji->t", op, tr.states).real
                assert tr.observables[name].shape == times.shape
                assert np.max(np.abs(tr.observables[name] - want)) <= 1e-14
        assert np.max(np.abs(trajs[5].observables["a"])) > 1e-3

    def test_observable_shape_checked_before_integrating(self, monkeypatch):
        def unreachable(gen, dt, h_req):
            raise AssertionError("the propagator was built before the observables were checked")

        monkeypatch.setattr(dynamics, "_interval_propagator", unreachable)
        spec = HilbertSpec.spins_only(1)
        model = LindbladModel(qubit_ops()["sz"], [], spec)
        rho0s = [dm(basis_ket((1,), spec))]
        with pytest.raises(ValueError, match=r"observable 'bad' shape \(3, 3\) does not match dim 2"):
            evolve_lindblad_batch(
                model, rho0s, np.linspace(0.0, 1.0, 3), observables={"bad": np.eye(3)}
            )

    def test_worst_input_named_in_error(self, monkeypatch):
        # After two leaky intervals |e><e| has gained 2.000001e-6 in trace
        # and |+><+| half of that.
        monkeypatch.setattr(dynamics, "_interval_propagator", leaky_propagator)
        spec = HilbertSpec.spins_only(1)
        model = LindbladModel(np.zeros((2, 2), dtype=complex), [], spec)
        ground, excited = dm(basis_ket((0,), spec)), dm(basis_ket((1,), spec))
        plus = 0.5 * np.ones((2, 2), dtype=complex)
        with pytest.raises(DiagnosticsError, match=r"^trace deviation 2\.000e-06 exceeds 1e-08$"):
            evolve_lindblad_batch(model, [ground, plus, excited], np.linspace(0.0, 1.0, 3))

    @pytest.mark.parametrize("record", [True, False])
    def test_failed_inputs_skip_positivity(self, monkeypatch, record):
        # The leaky propagator fails the excited input's trace test, and a
        # NaN input, let past the input checks, fails trace and
        # hermiticity. Neither may reach a positivity test; the ground
        # input passes and gets its own. The batch then raises the trace
        # error at the batch maximum, which np.max makes NaN.
        validate = dynamics._validate_inputs

        def with_nan_input(rho0_list, d):
            return np.concatenate([validate(rho0_list, d), np.full((1, d, d), np.nan)])

        monkeypatch.setattr(dynamics, "_interval_propagator", leaky_propagator)
        monkeypatch.setattr(dynamics, "_validate_inputs", with_nan_input)
        seen = {
            name: spied_calls(monkeypatch, np.linalg, name) for name in ("eigvalsh", "cholesky")
        }
        spec = HilbertSpec.spins_only(1)
        model = LindbladModel(np.zeros((2, 2), dtype=complex), [], spec)
        ground, excited = dm(basis_ket((0,), spec)), dm(basis_ket((1,), spec))
        with pytest.raises(DiagnosticsError, match=r"^trace deviation nan exceeds 1e-08$"):
            evolve_lindblad_batch(
                model, [ground, excited], np.linspace(0.0, 1.0, 3), record_min_eigenvalue=record
            )
        arrays = {name: [args[0] for args in calls] for name, calls in seen.items()}
        assert all(np.all(np.isfinite(a)) for found in arrays.values() for a in found)
        # Only the ground input's (T, n, n) series is tested for positivity.
        series = [a for found in arrays.values() for a in found if a.shape == (3, 2, 2)]
        assert len(series) == 1
        assert len(arrays["cholesky"]) == (0 if record else 1)
        # eigvalsh sees the ground state itself, cholesky it shifted by -floor/2.
        assert np.max(np.abs(series[0] - ground)) <= abs(POSITIVITY_FLOOR)


def traced_peak(fn, *args, **kwargs) -> int:
    """Peak bytes tracemalloc sees allocated during fn(*args, **kwargs),
    on a second call so that one-time setup is not counted."""
    fn(*args, **kwargs)
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBoundedMemory:
    """The gate-tomography layers make no temporary the size of what they
    are given. Each bound is a small multiple of the data the layer must
    hold; the former one-pass diagnostics peaked at 3.5x the state stack,
    the 48 x 48 phase scan at 5.8x the Choi series and the block scatter
    of choi_from_outputs at 3.4x its output series."""

    def test_lindblad_batch_peak(self):
        model, rho0s, times = tomography_case(6)
        observables = pauli_observables(model.spec.dim)
        peak = traced_peak(evolve_lindblad_batch, model, rho0s, times, observables=observables)
        n = 8  # reached block: the mode vacuum and one quantum times two spins
        assert reached_indices(model, rho0s).size == n
        stack = times.size * len(rho0s) * n * n * np.dtype(complex).itemsize
        assert peak <= 2.0 * stack

    def test_choi_from_outputs_peak(self, channel_output_series):
        outputs = channel_output_series["full"]
        assert traced_peak(choi_from_outputs, outputs) <= 2.75 * outputs.nbytes

    def test_strip_local_phases_peak(self, channel_output_series):
        choi = choi_from_outputs(channel_output_series["full"])
        assert choi.shape == (281, 16, 16)
        assert traced_peak(strip_local_phases, choi, iswap_unitary()) <= 2.0 * choi.nbytes


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

    @pytest.mark.parametrize("channel", ["written", "full"])
    def test_choi_matches_block_scatter(self, channel_output_series, channel):
        # The former construction: E(|j><k|) from a hand-derived formula,
        # scattered into a (..., 4, 4, 4, 4) block array, then transposed
        # and reshaped into J. It took E(|k><j|) as E(|j><k|)', which holds
        # for hermitian outputs; linear inversion reads E(|k><j|) from the
        # outputs themselves.
        def block_scatter(outputs):
            comp = outputs[:, :4]
            j, k = np.array([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]).T
            e_jk = outputs[:, 4:10] + 1j * outputs[:, 10:16] - (1.0 + 1j) / 2.0 * (
                comp[:, j] + comp[:, k]
            )
            diag = np.arange(4)
            blocks = np.empty((len(outputs), 4, 4, 4, 4), dtype=complex)
            blocks[:, np.concatenate([diag, j, k]), np.concatenate([diag, k, j])] = (
                np.concatenate([comp, e_jk, e_jk.conj().swapaxes(-1, -2)], axis=1)
            )
            return blocks.transpose(0, 3, 1, 4, 2).reshape(-1, 16, 16) / 4

        # pauli_outputs gives exactly hermitian outputs; on those the two
        # constructions differ by roundoff only.
        raw = channel_output_series[channel]
        outputs = 0.5 * (raw + raw.conj().swapaxes(-1, -2))
        want = block_scatter(outputs)
        assert np.max(np.abs(choi_from_outputs(outputs) - want)) <= 1e-15
        assert np.max(np.abs(choi_from_outputs(outputs[200]) - want[200])) <= 1e-15
        # These outputs are partial traces of the solver's states, whose
        # anti-hermitian roundoff the former construction dropped; the two
        # differ by no more than its size.
        skew = np.max(np.abs(raw - raw.conj().swapaxes(-1, -2)))
        assert 0.0 < skew <= 1e-13
        assert np.max(np.abs(choi_from_outputs(raw) - block_scatter(raw))) <= skew

    @pytest.mark.parametrize("channel", ["written", "full"])
    def test_fidelities_bitwise_equal_former_series(self, channel_output_series, channel):
        # The former scenario-side fidelity series: Choi, raw F_avg, then
        # the stripped maxima mapped to (4 F + 1)/5.
        outputs = channel_output_series[channel]
        u = iswap_unitary()
        choi = choi_from_outputs(outputs)
        f_pro, want_phases = strip_local_phases(choi, u)
        want = (average_gate_fidelity(choi, u), (4.0 * f_pro + 1.0) / 5.0, want_phases)
        got = fidelities_from_outputs(outputs, u)
        for value, ref in zip(got, want):
            assert value.shape == ref.shape and value.tobytes() == ref.tobytes()
        # One time point gives floats and a phase tuple, as before.
        choi = choi_from_outputs(outputs[200])
        f_pro, want_phases = strip_local_phases(choi, u)
        want = (average_gate_fidelity(choi, u), (4.0 * f_pro + 1.0) / 5.0, want_phases)
        assert fidelities_from_outputs(outputs[200], u) == want
        assert type(fidelities_from_outputs(outputs[200], u)[1]) is float

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


def sequential_block_reference(model: LindbladModel, rho0s: list[np.ndarray], dts: np.ndarray):
    """Step the solver's block generator one interval at a time.

    Same reached block, generator and substep rule as the solver, but one
    `prop @ vecs` product per interval of length `dts[j]`. Returns the
    states (inputs, len(dts) + 1, d, d), zero-padded to the full space.
    """
    d = model.spec.dim
    rates = [(op, rate) for op, rate in model.collapse if rate != 0.0]
    idx = reached_indices(model, rho0s)
    block = np.ix_(idx, idx)
    gen = liouvillian(model.hamiltonian[block], [(op[block], rate) for op, rate in rates])
    h_req = DEFAULT_STEP_SCALE * STEP_BUDGET / spectral_scale(model)
    vecs = np.stack([rho[block].reshape(-1) for rho in rho0s], axis=1)
    series = [vecs]
    for dt in dts:
        prop, _ = _interval_propagator(gen, float(dt), h_req)
        vecs = prop @ vecs
        series.append(vecs)
    n = idx.size
    states = np.zeros((len(rho0s), len(series), d, d), dtype=complex)
    states[..., idx[:, None], idx] = np.stack(series).transpose(2, 0, 1).reshape(
        len(rho0s), len(series), n, n
    )
    return states


def stepping_case(name: str):
    """Model and inputs of one solver batch the scenarios run, plus the
    end of its time window."""
    if name == "transfer-6":
        spec, model, times = transfer_case(6)
        return model, [dm(basis_ket((0, 1, 0), spec))], float(times[-1])
    model, rho0s, times = tomography_case(None if name == "written" else 6)
    return model, rho0s, float(times[-1])


class TestDoubledStepping:
    """A uniform grid is filled by doubling: times [m, 2m) are times [0, m)
    advanced by P^m, with P^m squared between blocks. It must match
    stepping one interval at a time. A non-uniform grid is refused."""

    @pytest.mark.parametrize("points", [2, 3, 17, 64, 65, 281])
    @pytest.mark.parametrize("case", ["transfer-6", "written", "full-6"])
    def test_uniform_grid_matches_sequential_steps(self, case, points):
        model, rho0s, t_end = stepping_case(case)
        times = np.linspace(0.0, t_end, points)
        trajs = evolve_lindblad_batch(model, rho0s, times, keep_states=True)
        # The solver uses the first interval for the whole uniform grid.
        want = sequential_block_reference(model, rho0s, np.full(points - 1, times[1] - times[0]))
        assert len(trajs) == len(rho0s)
        for traj, ref, rho0 in zip(trajs, want, rho0s):
            assert traj.states.shape == ref.shape
            assert np.all(np.max(np.abs(traj.states - ref), axis=(1, 2)) <= 1e-12)
            assert np.array_equal(traj.states[0], rho0)
            assert np.array_equal(traj.final_state, traj.states[-1])

    @pytest.mark.parametrize("case", ["transfer-6", "full-6"])
    def test_non_uniform_grid_refused(self, monkeypatch, case):
        model, rho0s, t_end = stepping_case(case)
        built = spied_calls(monkeypatch, dynamics, "liouvillian")
        propagators = spied_calls(monkeypatch, dynamics, "_interval_propagator")
        with pytest.raises(ValueError, match="uniform grid"):
            evolve_lindblad_batch(model, rho0s, t_end * np.linspace(0.0, 1.0, 40) ** 2)
        assert built == [] and propagators == []
        # A grid uniform to 1e-9 relative is stepped at its first interval.
        times = near_uniform_grid(t_end, 40)
        trajs = evolve_lindblad_batch(model, rho0s, times, keep_states=True)
        assert len(built) == 1 and propagators[0][1] == times[1] - times[0]
        want = sequential_block_reference(model, rho0s, np.full(39, times[1] - times[0]))
        for traj, ref in zip(trajs, want):
            assert np.all(np.max(np.abs(traj.states - ref), axis=(1, 2)) <= 1e-12)
            assert np.array_equal(traj.final_state, traj.states[-1])


class TestTrigPoly:
    """The phase-strip polynomial against its former three-operand einsum
    form, bit for bit."""

    def test_matches_einsum_form_bitwise(self):
        harmonics = np.array([[1, 0], [0, 1], [1, 1], [1, -1]])
        rng = np.random.default_rng(7)
        coeff = rng.normal(size=(300, 5)) + 1j * rng.normal(size=(300, 5))
        phi = rng.uniform(-7.0, 7.0, size=(300, 2))
        phi[:20] = 0.0
        phi[20:40, 1] = -phi[20:40, 0]
        terms = coeff[..., 1:] * np.exp(1j * phi @ harmonics.T)
        want_value = coeff[..., 0].real + 2.0 * terms.real.sum(axis=-1)
        want_grad = -2.0 * terms.imag @ harmonics
        want_hess = -2.0 * np.einsum("...m,mi,mj->...ij", terms.real, harmonics, harmonics)
        value, grad, hess = dynamics._trig_poly(coeff, phi)
        assert hess.shape == (300, 2, 2)
        assert value.tobytes() == want_value.tobytes()
        assert grad.tobytes() == want_grad.tobytes()
        assert hess.tobytes() == want_hess.tobytes()
        assert dynamics._trig_poly(coeff, phi, value_only=True).tobytes() == want_value.tobytes()


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


class TestNonFiniteDiagnostics:
    """Every physicality check fails on NaN: each is written `not x <= tol`."""

    def test_overflowing_lindblad_run_fails_trace_check(self):
        # Spectral scale 1e100: the squared-up propagator overflows and the
        # states turn NaN, which must trip the trace check before eigvalsh.
        spec = HilbertSpec.spins_only(1)
        model = LindbladModel(1e100 * qubit_ops()["sx"], [(qubit_ops()["sm"], 1.0)], spec)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DiagnosticsError, match="trace deviation nan"):
                evolve_lindblad(model, dm(basis_ket((0,), spec)), np.linspace(0.0, 1.0, 3))

    def test_nan_hamiltonian_rejected(self):
        spec = HilbertSpec.spins_only(1)
        h = qubit_ops()["sx"].copy()
        h[0, 0] = np.nan
        with pytest.raises(ValueError, match="not hermitian"):
            evolve_unitary(h, basis_ket((0,), spec), [0.0, 1.0])
        with pytest.raises(ValueError, match="not hermitian"):
            LindbladModel(h, [], spec)

    def test_nan_initial_states_rejected(self):
        spec = HilbertSpec.spins_only(1)
        model = LindbladModel(qubit_ops()["sx"], [(qubit_ops()["sm"], 1.0)], spec)
        times = np.linspace(0.0, 1.0, 3)
        with pytest.raises(ValueError, match="initial state trace deviates from 1"):
            evolve_lindblad(model, np.diag([1.0, np.nan]), times)
        for bad in (np.nan, np.inf):
            with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="not hermitian"):
                evolve_lindblad(model, np.array([[1.0, bad], [bad, 0.0]]), times)
        with pytest.raises(ValueError, match="initial state norm nan deviates from 1"):
            evolve_unitary(qubit_ops()["sx"], np.array([np.nan, 0.0]), times)

    def test_overflowing_unitary_phase_fails_norm_check(self):
        # A finite hermitian H whose phases E t overflow: exp(-i inf) is NaN.
        spec = HilbertSpec.spins_only(1)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DiagnosticsError, match="norm drift nan"):
                evolve_unitary(1e308 * qubit_ops()["sx"], basis_ket((0,), spec), [0.0, 10.0])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_unitary_phase_warnings_as_errors(self):
        # The overflow is expected, so it must not surface as a warning: the
        # run ends on the norm diagnostic even where warnings are errors.
        spec = HilbertSpec.spins_only(1)
        with np.errstate(all="warn"):
            with pytest.raises(DiagnosticsError, match="norm drift nan"):
                evolve_unitary(1e308 * qubit_ops()["sx"], basis_ket((0,), spec), [0.0, 10.0])


def rotated_qubit_state(lam: float) -> np.ndarray:
    """A one-qubit density matrix with eigenvalues (1 - lam, lam), its
    eigenbasis turned off the computational one."""
    c, s = np.cos(0.3), np.sin(0.3) * np.exp(0.7j)
    u = np.array([[c, -np.conj(s)], [s, c]])
    return u @ np.diag([1.0 - lam, lam]) @ u.conj().T


def recorded_eigvalsh_shapes(monkeypatch) -> list[tuple]:
    """The shape of every array np.linalg.eigvalsh is called on from now."""
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    return shapes


class TestPositivityCertificate:
    """A Lindblad run whose min_eigenvalue is not reported proves each
    input's positivity by a Cholesky factorisation and diagonalises only
    where that fails; the pass or fail must stay that of min eigvalsh >=
    POSITIVITY_FLOOR, and nothing else the run returns may change."""

    def run_to(self, monkeypatch, lam: float, record: bool):
        # A patched propagator P vec(rho) = tr(rho) vec(target) maps the
        # ground state in one interval to a state with eigenvalue lam.
        target = rotated_qubit_state(lam).reshape(-1)
        prop = np.outer(target, np.eye(2).reshape(-1))
        monkeypatch.setattr(dynamics, "_interval_propagator", lambda gen, dt, h_req: (prop, 1))
        spec = HilbertSpec.spins_only(1)
        # sx only makes both states reachable, so the block is the qubit.
        model = LindbladModel(qubit_ops()["sx"], [], spec)
        ground = dm(basis_ket((0,), spec))
        return evolve_lindblad(model, ground, [0.0, 1.0], record_min_eigenvalue=record)

    @pytest.mark.parametrize("fraction", [0.75, 1.25])
    def test_same_verdict_and_message_as_eigvalsh(self, monkeypatch, fraction):
        # 0.75 floor passes only through the eigvalsh fallback: the
        # factorisation of rho - floor/2 I fails at eigenvalue -floor/4.
        lam = fraction * POSITIVITY_FLOOR
        assert np.min(np.linalg.eigvalsh(rotated_qubit_state(lam))) == pytest.approx(lam, rel=1e-6)
        outcomes = []
        for record in (True, False):
            try:
                outcomes.append(self.run_to(monkeypatch, lam, record).diagnostics)
            except DiagnosticsError as err:
                outcomes.append(str(err))
        if fraction < 1.0:
            reported, certified = outcomes
            assert type(reported) is dict and type(certified) is dict
            assert reported["min_eigenvalue"] == pytest.approx(lam, rel=1e-6)
            assert "min_eigenvalue" not in certified
        else:
            assert outcomes == [f"state eigenvalue {lam:.3e} below floor {POSITIVITY_FLOOR}"] * 2

    @pytest.mark.parametrize(
        "lam, record, series_diagonalised",
        [(0.1, False, 0), (0.75 * POSITIVITY_FLOOR, False, 1), (0.1, True, 1)],
    )
    def test_eigvalsh_only_where_reported_or_uncertified(
        self, monkeypatch, lam, record, series_diagonalised
    ):
        shapes = recorded_eigvalsh_shapes(monkeypatch)
        self.run_to(monkeypatch, lam, record)
        # The (T, n, n) state series; the rest check the input and the scale.
        assert shapes.count((2, 2, 2)) == series_diagonalised

    @pytest.mark.parametrize(
        "cutoff, step_scale",
        [
            (None, DEFAULT_STEP_SCALE),
            (6, DEFAULT_STEP_SCALE),
            (6, DEFAULT_STEP_SCALE / 2),
            (11, DEFAULT_STEP_SCALE),
        ],
        ids=["written", "full-6", "full-6-halved", "full-11"],
    )
    def test_tomography_batches_bitwise_equal(self, cutoff, step_scale):
        model, rho0s, times = tomography_case(cutoff)
        kwargs = {"observables": pauli_observables(model.spec.dim), "step_scale": step_scale}
        reported = evolve_lindblad_batch(model, rho0s, times, **kwargs)
        certified = evolve_lindblad_batch(
            model, rho0s, times, record_min_eigenvalue=False, **kwargs
        )
        for a, b in zip(reported, certified, strict=True):
            assert list(a.observables) == list(b.observables)
            for name, series in a.observables.items():
                assert series.tobytes() == b.observables[name].tobytes()
            assert a.final_state.tobytes() == b.final_state.tobytes()
            want = {key: value for key, value in a.diagnostics.items() if key != "min_eigenvalue"}
            assert b.diagnostics == want
            assert "trace_deviation" in want and "hermiticity_deviation" in want

    def test_iswap_fidelity_diagonalises_only_its_reported_batches(self, tmp_path, monkeypatch):
        shapes = recorded_eigvalsh_shapes(monkeypatch)
        run_scenario("iswap-fidelity", resolve("iswap-fidelity"), tmp_path)
        n_t, n_in, batches = 281, 16, 8
        # Only the 2 main batches (written and full) report min_eigenvalue,
        # so only their per-input state series are diagonalised. Each of
        # the 8 batches also checks its inputs in one call and takes its
        # spectral scale from the full H.
        assert sum(1 for shape in shapes if shape[0] == n_t) == 2 * n_in
        matrices = sum(int(np.prod(shape[:-2])) for shape in shapes)
        assert matrices == 2 * n_in * n_t + batches * (n_in + 1)


def former_evolve_unitary(h: np.ndarray, psi0: np.ndarray, times: np.ndarray, observables: dict):
    """The former one-ket evolution: the ket's own reached block, its
    eigh, the observable series and the zero-padded final state."""
    idx = dynamics._reachable(psi0 != 0, [h])
    block = np.ix_(idx, idx)
    evals, vecs = np.linalg.eigh(h[block])
    coeff = vecs.conj().T @ psi0[idx]
    states = (vecs @ (np.exp(-1j * np.outer(evals, times)) * coeff[:, None])).T
    series = {
        name: np.einsum("ti,ti->t", states.conj(), states @ op[block].T).real
        for name, op in observables.items()
    }
    final = np.zeros(h.shape[0], dtype=complex)
    final[idx] = states[-1]
    return series, final


class TestUnitaryBatch:
    """evolve_unitary_batch evolves several kets on the block reached from
    the union of their supports, with one search and one eigh."""

    @staticmethod
    def bitwise_cases():
        """Default grids, the bumped cutoff, rabi's refined grid, a grid one
        point longer than a multiple of the block length, and a block whose
        n^2 exceeds the product budget (the 64-row floor)."""
        spec, h, psi0, times = rabi_case(15)
        rows = dynamics.BLOCK_MULADDS // 15**2
        yield spec, h, psi0, times
        yield battery_case(5)
        yield rabi_case(20)
        yield spec, h, psi0, np.linspace(0.0, times[-1], 2401)
        yield spec, h, psi0, np.linspace(0.0, times[-1], 4 * rows + 1)
        spec, h, psi0, times = rabi_case(400)
        yield spec, h, psi0, times[:129]

    def test_one_ket_bitwise_equals_former_path(self):
        for spec, h, psi0, times in self.bitwise_cases():
            observables = default_population_observables(spec)
            (traj,) = evolve_unitary_batch(h, [psi0], times, spec=spec)
            series, final = former_evolve_unitary(h, psi0, times, observables)
            assert list(traj.observables) == list(series)
            for name, values in series.items():
                assert traj.observables[name].tobytes() == values.tobytes()
            assert traj.final_state.tobytes() == final.tobytes()
            single = evolve_unitary(h, psi0, times, spec=spec)
            assert single.final_state.tobytes() == final.tobytes()

    @pytest.mark.parametrize("n", [2, 15, 182, 400])
    @pytest.mark.parametrize("n_t", [2, 63, 64, 65, 129, 581, 1201, 2401])
    def test_time_blocks(self, n, n_t):
        edges = dynamics._time_block_edges(n_t, n)
        sizes = np.diff(edges)
        assert edges[0] == 0 and edges[-1] == n_t
        assert sizes.max() - sizes.min() <= 1
        # No 1-row block: at least MIN_BLOCK_ROWS rows, or one block.
        assert sizes.min() >= min(n_t, dynamics.MIN_BLOCK_ROWS)
        # Within the product budget unless the floor sets the length.
        if sizes.max() * n * n > dynamics.BLOCK_MULADDS:
            assert len(sizes) == max(1, n_t // dynamics.MIN_BLOCK_ROWS)

    @pytest.mark.parametrize("cutoff", [None, 6])
    def test_tomography_kets_match_one_ket_runs(self, monkeypatch, cutoff):
        model, _rho0s, times = tomography_case(cutoff)
        h, d = model.hamiltonian, model.spec.dim
        kets, observables = process_basis_kets(d), pauli_observables(d)
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
        trajs = evolve_unitary_batch(h, kets, times, observables=observables, keep_states=True)
        # |0gg>, |0ge>, |0eg>, |0ee> and, with a mode, |1gg>, |1ge>, |1eg>, |2gg>.
        union = 4 if cutoff is None else 8
        assert calls == [(union, union)]
        monkeypatch.setattr(np.linalg, "eigh", eigh)
        assert len(trajs) == 16
        for psi, traj in zip(kets, trajs):
            one = evolve_unitary(h, psi, times, observables=observables, keep_states=True)
            assert traj.diagnostics["reduced_dim"] == union
            assert np.max(np.abs(traj.states - one.states)) <= 1e-12
            for name, values in one.observables.items():
                assert np.max(np.abs(traj.observables[name] - values)) <= 1e-12

    def test_dissipationless_fidelity_is_one_batch(self, monkeypatch):
        model, _rho0s, times = tomography_case(6)
        calls = []
        batch = dynamics.evolve_unitary_batch
        monkeypatch.setattr(
            dynamics, "evolve_unitary_batch", lambda *a, **k: calls.append(1) or batch(*a, **k)
        )
        monkeypatch.setattr(dynamics, "evolve_unitary", None)
        assert _dissipationless_fidelity(model.hamiltonian, times[200]) > 0.999
        assert calls == [1]

    def test_kets_validated_one_by_one(self):
        h = qubit_ops()["sx"]
        good = np.array([1.0, 0.0])
        with pytest.raises(ValueError, match="state dimension does not match"):
            evolve_unitary_batch(h, [good, np.ones(3) / np.sqrt(3.0)], [0.0, 1.0])
        with pytest.raises(ValueError, match="initial state norm 2.0 deviates from 1"):
            evolve_unitary_batch(h, [good, 2.0 * good], [0.0, 1.0])
