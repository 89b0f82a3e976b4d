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

import ast
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerrspin import dynamics
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
    default_population_observables,
    evolve_channel,
    evolve_lindblad,
    evolve_lindblad_batch,
    evolve_unitary,
    gate_fidelities,
    iswap_unitary,
    liouvillian,
    process_fidelity,
    spectral_scale,
    strip_local_phases,
)
from kerrspin.fock import (
    POSITIVITY_FLOOR,
    HilbertSpec,
    Subsystem,
    _kron,
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


# The 16-input tomography protocol, the oracle of the matrix-unit channel
# path (`evolve_channel`): 16 physical inputs, each output rebuilt from its
# 16 two-qubit Pauli expectation values, and a linear inversion that maps
# the outputs to the images E(|j><k|) of the matrix units.


def process_basis_kets(d: int = 4) -> np.ndarray:
    """(16, d) tomography inputs: the leading d/4 levels (the mode, if any)
    in their ground state times each two-qubit ket, the spins last.

    Kets: computational |0..3>, then (|j>+|k>)/sqrt2 over the pair list
    ((0,1),(0,2),(0,3),(1,2),(1,3),(2,3)), then (|j>+i|k>)/sqrt2 over the
    same pairs.
    """
    eye = np.eye(4, dtype=complex)
    j, k = np.triu_indices(4, 1)
    kets = np.zeros((16, d), dtype=complex)
    kets[:, :4] = np.concatenate(
        [eye, (eye[j] + eye[k]) / np.sqrt(2.0), (eye[j] + 1j * eye[k]) / np.sqrt(2.0)]
    )
    return kets


def dual() -> np.ndarray:
    """D = inv(V): row m of V is the row-major vec(|psi_m><psi_m|) of the 16
    inputs, so row j*4 + k of D holds the coefficients of |j><k| over the
    input states, and D @ (stacked outputs) is E(|j><k|)."""
    rhos = [np.outer(psi, psi.conj()).ravel() for psi in process_basis_kets()]
    return np.linalg.inv(np.stack(rhos))


def unit_images(outputs: np.ndarray) -> np.ndarray:
    """(..., 16, 4, 4) images of the matrix units from the 16 inputs'
    outputs (..., 16, 4, 4), by linear inversion."""
    outputs = np.asarray(outputs, dtype=complex)
    return (dual() @ outputs.reshape(outputs.shape[:-2] + (16,))).reshape(outputs.shape)


# The 16 two-qubit Paulis s_a (x) s_b over s = (I, sx, sy, sz), a-major.
SINGLE_PAULIS = [qubit_ops()[name] for name in ("id", "sx", "sy", "sz")]
PAULIS = np.stack([_kron(a, b) for a in SINGLE_PAULIS for b in SINGLE_PAULIS])
PAULI_PARTS = np.stack([PAULIS.real, PAULIS.imag], axis=-1).reshape(16, 32) / 4.0


def pauli_observables(d: int) -> dict[str, np.ndarray]:
    """The two-qubit Paulis P lifted to I_{d/4} (x) P, the spins last, as
    named observables; one broadcast of the products np.kron forms."""
    lifts = _kron(np.eye(d // 4, dtype=complex), PAULIS)
    return {f"pauli{m}": lift for m, lift in enumerate(lifts)}


def pauli_outputs(trajs) -> np.ndarray:
    """(T, inputs, 4, 4) two-spin outputs 1/4 sum_P <P> P from trajectories
    that recorded the `pauli_observables`. <I_rest (x) P> is tr(P Tr_rest
    rho) and tr(P P') = 4 delta, so the rebuild is exact."""
    values = np.array([[tr.observables[f"pauli{m}"] for tr in trajs] for m in range(16)]).T
    # One real product against the interleaved parts of P / 4, read as complex.
    outputs = (values.reshape(-1, 16) @ PAULI_PARTS).view(complex)
    return outputs.reshape(-1, len(trajs), 4, 4)


def sixteen_input_choi(model: LindbladModel, times: np.ndarray):
    """The (T, 16, 16) Choi series by the 16-input protocol, and the batch."""
    d = model.spec.dim
    rho0s = [dm(k) for k in process_basis_kets(d)]
    trajs = evolve_lindblad_batch(model, rho0s, times, observables=pauli_observables(d))
    return choi_from_outputs(unit_images(pauli_outputs(trajs))), trajs


def spied_calls(monkeypatch, owner, name: str) -> list:
    """The positional arguments of every call to owner.<name> from now."""
    calls = []
    original = getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


def spied_sectors(monkeypatch) -> list:
    """(sector, rows, series) of every sector that dynamics._step_sectors
    steps from now."""
    stepped = []
    original = dynamics._step_sectors

    def spy(*args):
        for sector, rows, flat, k in original(*args):
            stepped.append((sector, rows, flat))
            yield sector, rows, flat, k

    monkeypatch.setattr(dynamics, "_step_sectors", spy)
    return stepped


def near_uniform_grid(t_end: float, points: int) -> np.ndarray:
    """np.linspace(0, t_end, points) with every other point moved by 1e-12
    relative, so its steps differ in the last bits but stay uniform to 1e-9."""
    times = np.linspace(0.0, t_end, points) * (1.0 + 1e-12 * (-1.0) ** np.arange(points))
    steps = np.diff(times)
    assert np.ptp(steps) > 0.0
    assert np.all(np.abs(steps - steps[0]) <= 1e-9 * steps[0])
    return times


def evolve_with_states(evolve, first, inputs, times, observables=None, **kwargs):
    """Run the solver `evolve` on `inputs` with observables that read
    every entry of the reached block added, and rebuild each input's
    state series from them. A Lindblad batch solver takes the inputs in
    one call, `evolve(model, inputs, times, ...)`; the unitary solver
    takes one ket per call, `evolve(h, ket, times, ...)`.

    O[j, i] = 1 reads Re rho[i, j] and O[j, i] = 1j reads -Im rho[i, j];
    for a unitary run rho is psi psi'. The block comes from
    `reached_indices` for a Lindblad model and from `dynamics._reachable`
    for a Hamiltonian. The entry series are taken out of the trajectories
    again, so these hold `observables` and the population observables only.
    Returns the trajectories and the (inputs, T, d, d) series, exactly 0
    outside the block.
    """
    if isinstance(first, LindbladModel):
        d, idx = first.spec.dim, reached_indices(first, inputs)
    else:
        d = first.shape[0]
        idx = dynamics._reachable(np.any(np.stack(inputs) != 0, axis=0), [first])
    pairs = [(i, j) for i in idx for j in idx]
    entries = {}
    for i, j in pairs:
        for part, value in (("re", 1.0), ("im", 1j)):
            op = np.zeros((d, d), dtype=complex)
            op[j, i] = value
            entries[f"{part}[{i},{j}]"] = op
    observables = {**(observables or {}), **entries}
    if isinstance(first, LindbladModel):
        trajs = evolve(first, inputs, times, observables=observables, **kwargs)
    else:
        trajs = [evolve(first, psi, times, observables=observables, **kwargs) for psi in inputs]
    states = np.zeros((len(trajs), times.size, d, d), dtype=complex)
    for traj, rho in zip(trajs, states):
        for i, j in pairs:
            rho[:, i, j].real = traj.observables.pop(f"re[{i},{j}]")
            rho[:, i, j].imag = -traj.observables.pop(f"im[{i},{j}]")
    return trajs, states


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

    def test_final_state(self):
        spec = HilbertSpec.spins_only(1)
        h = qubit_ops()["sx"]
        times = np.linspace(0.0, 1.0, 11)
        traj = evolve_unitary(h, basis_ket((0,), spec), times, spec=spec)
        # exp(-i sx t)|0> = cos t |0> - i sin t |1>, with its phase.
        assert traj.final_state.shape == (2,)
        assert np.allclose(traj.final_state, [np.cos(1.0), -1j * np.sin(1.0)])

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
        # Each state of a batch is solved on its own, bit for bit as alone.
        for got, want in zip(batched, singles, strict=True):
            assert list(got.observables) == list(want.observables)
            for name, series in got.observables.items():
                assert series.tobytes() == want.observables[name].tobytes()
            assert got.final_state.tobytes() == want.final_state.tobytes()
            assert got.diagnostics == want.diagnostics

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
    def test_positivity_floor_on_the_support(self, eigenvalue, passes):
        # One input mixes basis states 1 and 2 with eigenvalues
        # (1 - eigenvalue, eigenvalue); its support is {1, 2} of 4, and
        # the floor (-1e-8) must still decide.
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
        model, rho0s, times = tomography_case(6)
        d = model.spec.dim
        shapes = recorded_eigvalsh_shapes(monkeypatch)
        evolve_lindblad_batch(model, rho0s, times[:2], record_min_eigenvalue=False)
        # Each input is diagonalised once, on its own support: one of the
        # 4 spin states with the mode empty, or a pair of them. The rest
        # are the spectral scale's full H and the state series.
        checks = [shape for shape in shapes if len(shape) == 2 and shape != (d, d)]
        assert checks == [(1, 1)] * 4 + [(2, 2)] * 12

    def test_final_state(self):
        spec = HilbertSpec.spins_only(1)
        model = LindbladModel(
            hamiltonian=np.zeros((2, 2), dtype=complex),
            collapse=[(qubit_ops()["sm"], 1.0)],
            spec=spec,
        )
        times = np.linspace(0.0, 1.0, 6)
        traj = evolve_lindblad(model, dm(basis_ket((1,), spec)), times)
        # Amplitude damping at rate 1 for unit time from the excited state.
        assert traj.final_state.shape == (2, 2)
        assert np.allclose(traj.final_state, np.diag([1.0 - np.exp(-1.0), np.exp(-1.0)]))


class TestLindbladDelegation:
    """The benchmark's span recorder wraps the module global
    `dynamics.evolve_lindblad_batch` and counts the inputs of each call, so
    `evolve_lindblad` must reach the solver through that name, and the
    state-transfer scenario's calls must keep their count and size."""

    def test_single_state_form_calls_the_module_global(self, monkeypatch):
        calls = spied_calls(monkeypatch, dynamics, "evolve_lindblad_batch")
        spec = HilbertSpec.spins_only(1)
        model = LindbladModel(np.zeros((2, 2), dtype=complex), [(qubit_ops()["sm"], 1.0)], spec)
        rho0 = dm(basis_ket((1,), spec))
        times = np.linspace(0.0, 1.0, 3)
        evolve_lindblad(model, rho0, times)
        assert len(calls) == 1
        called_model, inputs, called_times = calls[0]
        assert called_model is model and called_times is times
        assert len(inputs) == 1 and inputs[0] is rho0

    def test_state_transfer_makes_five_one_input_calls(self, tmp_path, monkeypatch):
        calls = spied_calls(monkeypatch, dynamics, "evolve_lindblad_batch")
        run_scenario("state-transfer", resolve("state-transfer"), tmp_path)
        # Main, refined and bumped runs of the full model; main and refined
        # runs of the written one.
        assert [len(inputs) for _model, inputs, _times in calls] == [1] * 5


def full_space_reference(model: LindbladModel, rho0s: list[np.ndarray], times: np.ndarray):
    """Evolve on the whole truncated space with the solver's own step rule,
    one interval at a time.

    No reach search: each input steps through every sector of the
    full-space generator that it populates (`dynamics._populated_sectors`),
    which holds all of its evolution, since the generator is block diagonal
    over its sectors. Returns states (inputs, times, d, d), spectral scale,
    substep and substeps per interval, for a uniform time grid.
    """
    scale = spectral_scale(model)
    dt = float(times[1] - times[0])
    h_req = DEFAULT_STEP_SCALE * STEP_BUDGET / scale
    gen = liouvillian(model.hamiltonian, model.collapse)
    d = model.spec.dim
    states = np.zeros((len(rho0s), times.size, d * d), dtype=complex)
    for rho, series in zip(rho0s, states):
        for sector in dynamics._populated_sectors(gen, rho.reshape(-1) != 0):
            prop, k = _interval_propagator(gen[np.ix_(sector, sector)], dt, h_req)
            vec = series[0, sector] = rho.reshape(-1)[sector]
            for row in series[1:]:
                vec = row[sector] = prop @ vec
    return states.reshape(len(rho0s), times.size, d, d), scale, dt / k, k


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

    def assert_matches_full_space(self, model, rho0s, times, reduced_dims):
        trajs, states = evolve_with_states(evolve_lindblad_batch, model, rho0s, times)
        ref, scale, substep, k = full_space_reference(model, rho0s, times)
        for traj, got, want, reduced_dim in zip(trajs, states, ref, reduced_dims, strict=True):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-9
            assert np.array_equal(traj.final_state, got[-1])
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
        self.assert_matches_full_space(model, [dm(basis_ket((0, 1, 0), spec))], times, [4])

    @pytest.mark.parametrize("superposed", [False, True], ids=["transfer", "superposed"])
    def test_state_steps_each_populated_sector_once(self, monkeypatch, superposed):
        spec, model, times = transfer_case(6)
        ket = basis_ket((0, 1, 0), spec)
        if superposed:
            # Coherences with |0, g, g> populate the sectors of excitation
            # difference +1 and -1 besides that of 0.
            ket = (ket + basis_ket((0, 0, 0), spec)) / np.sqrt(2.0)
        stepped = spied_sectors(monkeypatch)
        traj = evolve_lindblad(model, dm(ket), times)
        sizes = traj.diagnostics["liouville_sectors"]
        assert len(sizes) == (3 if superposed else 1)
        assert [(sector.size, rows.tolist(), flat.shape) for sector, rows, flat in stepped] == [
            (size, [0], (281, size)) for size in sizes
        ]
        sectors = np.concatenate([sector for sector, _, _ in stepped])
        assert np.unique(sectors).size == sectors.size

    def test_iswap_full_channel(self):
        spec, model, times = transfer_case(6)
        vac = dm(basis_ket((0,), mode_only_spec(6)))
        rho0s = [np.kron(vac, dm(k)) for k in process_basis_kets()]
        # Each input reaches its own block, with the mode empty at the
        # start: |gg> stays alone; one spin excitation reaches the other
        # spin, one quantum moved into the mode and, by decay, |gg> (4
        # states); |ee> reaches all 8 states of at most two excitations.
        # Pairs: (gg, ge), (gg, eg), (gg, ee), (ge, eg), (ge, ee), (eg, ee).
        pairs = [4, 4, 8, 4, 8, 8]
        self.assert_matches_full_space(model, rho0s, times, [1, 4, 4, 8] + pairs + pairs)

    def test_closure_includes_anticommutator_term(self):
        # C|0> = |0> keeps {|0>} closed under C alone, but C'C|0> has a
        # |1> component that -1/2 {C'C, rho} feeds into rho.
        spec = mode_only_spec(3)
        c = np.zeros((3, 3), dtype=complex)
        c[0, 0] = c[0, 1] = 1.0
        model = LindbladModel(np.diag([0.0, 0.4, 1.0]).astype(complex), [(c, 0.5)], spec)
        times = np.linspace(0.0, 2.0, 21)
        self.assert_matches_full_space(model, [dm(basis_ket((0,), spec))], times, [2])

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


# The 16 matrix units |j><k|, in order j*4 + k.
UNITS = np.eye(16, dtype=complex).reshape(16, 4, 4)


def reconstruct_choi(apply_channel) -> np.ndarray:
    """The Choi matrix of a linear map from its images of the matrix units."""
    return choi_from_outputs(np.array([apply_channel(unit) for unit in UNITS]))


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
        assert np.max(np.abs(dual() @ inputs - np.eye(16))) <= 1e-15
        # So the images rebuilt from a map's outputs on the inputs are its
        # images of the units.
        outputs = np.array([iswap_ideal_map(dm(k)) for k in process_basis_kets()])
        want = np.array([iswap_ideal_map(unit) for unit in UNITS])
        assert np.max(np.abs(unit_images(outputs) - want)) <= 1e-15

    def test_trace_preservation_defect_raises(self):
        outputs = np.array([0.9 * iswap_ideal_map(unit) for unit in UNITS])
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


def former_strip(choi: np.ndarray, u: np.ndarray):
    """The earlier batched strip_local_phases, for (N, 16, 16) Choi
    matrices: target constants built per call, and a Newton polish on the
    subset of elements still active, F taken once in full and once more
    (the value) per step. Also returns which elements stopped at their
    first step because it lowered F."""
    flat = np.asarray(choi, dtype=complex).reshape(-1, 16, 16)
    vec = dynamics._ideal_choi_vector(np.asarray(u, dtype=complex))
    kernel = dynamics._fourier_kernel(vec).reshape(-1, 256)
    used = np.flatnonzero(np.any(kernel != 0, axis=0))
    row, col = np.divmod(used, 16)
    entries = flat.reshape(-1, 256)
    herm = 0.5 * (entries[:, used] + entries[:, col * 16 + row].conj())
    coeff = dynamics._matmul(herm, kernel[:, used].T)

    c0, c1, c2, c3, c4 = (coeff[:, m : m + 1] for m in range(5))
    scan_phase = dynamics._SCAN_PHASE
    b = c2 + c3 * scan_phase + c4.conj() * scan_phase.conj()
    scan = c0.real + 2.0 * (c1 * scan_phase).real + 2.0 * np.abs(b)
    pick = np.argmax(scan, axis=1)
    best = np.stack([dynamics._SCAN[pick], -np.angle(b[np.arange(len(pick)), pick])], axis=-1)
    best_val = dynamics._trig_poly(coeff, best)[0]

    phi = best.copy()
    active = np.ones(len(phi), dtype=bool)
    refused_first = None
    for _ in range(40):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        c = coeff[idx]
        value, g, h = dynamics._trig_poly(c, phi[idx])
        h11, h12, h22 = h[:, 0, 0], h[:, 0, 1], h[:, 1, 1]
        det = h11 * h22 - h12 * h12
        with np.errstate(divide="ignore", invalid="ignore"):
            delta = np.stack([h12 * g[:, 1] - h22 * g[:, 0], h12 * g[:, 0] - h11 * g[:, 1]], -1)
            delta /= det[:, None]
        step = (det != 0.0) & np.all(np.isfinite(delta), axis=-1)
        phi_new = phi[idx] + np.where(step[:, None], delta, 0.0)
        lowered = step & (dynamics._trig_poly(c, phi_new)[0] < value - 1e-15)
        if refused_first is None:
            refused_first = lowered
        step &= ~lowered
        phi[idx[step]] = phi_new[step]
        active[idx] = step & (np.max(np.abs(delta), axis=-1) >= 1e-13)

    refined = dynamics._trig_poly(coeff, phi)[0]
    keep = refined >= best_val
    best = np.where(keep[:, None], phi, best)
    return np.where(keep, refined, best_val), best, refused_first


# The nonzero entries of the excitation swap's |U>>, and for each harmonic
# h_1..h_4 the (a, b) of the entry J[ISWAP_ROWS[a], ISWAP_ROWS[b]] that
# carries its coefficient (levels n(a) - n(b) = h).
ISWAP_ROWS = [0, 6, 9, 15]
HARMONIC_ENTRIES = [(2, 0), (1, 0), (3, 0), (2, 1)]


def coefficient_choi(coeff: np.ndarray) -> np.ndarray:
    """(N, 16, 16) hermitian matrices whose phase-strip coefficients for
    the excitation swap are the rows of `coeff` (N, 5), c_0 real; exact,
    since |U>>'s entries are 1/2 and -i/2."""
    vec = dynamics._ideal_choi_vector(iswap_unitary())[ISWAP_ROWS]
    choi = np.zeros((len(coeff), 16, 16), dtype=complex)
    choi[:, 0, 0] = coeff[:, 0].real / abs(vec[0]) ** 2
    for m, (a, b) in enumerate(HARMONIC_ENTRIES, 1):
        entry = coeff[:, m] / (vec[a].conj() * vec[b])
        choi[:, ISWAP_ROWS[a], ISWAP_ROWS[b]] = entry
        choi[:, ISWAP_ROWS[b], ISWAP_ROWS[a]] = entry.conj()
    return choi


def polish_rows(kinds: list[str], seed: int) -> np.ndarray:
    """One row of phase-strip coefficients per kind: "random"; "zero", all
    0, so the Hessian is singular; "saddle", whose scan start is a node
    next to which B (c2 + c3 e^{i phi1} + conj(c4) e^{-i phi1}) nearly
    vanishes, so the Hessian there is indefinite and the first Newton step
    mostly lowers F."""
    rng = np.random.default_rng(seed)
    coeff = np.zeros((len(kinds), 5), dtype=complex)
    for row, kind in zip(coeff, kinds):
        if kind == "random":
            row[:] = rng.normal(size=5) + 1j * rng.normal(size=5)
        elif kind == "saddle":
            node = dynamics._SCAN_PHASE[rng.integers(48)]
            row[1] = rng.uniform(20.0, 200.0) * node.conj()
            row[3] = rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
            row[2] = -row[3] * node + 1e-3 * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        row[0] = rng.normal() if kind != "zero" else 0.0
    return coeff


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
        (traj,), (got,) = evolve_with_states(evolve_unitary, h, [psi0], times, spec=spec)
        want = unitary_reference(h, psi0, times)
        d = spec.dim
        assert got.shape == (times.size, d, d)
        assert np.max(np.abs(got - np.einsum("ti,tj->tij", want, want.conj()))) <= 1e-9
        # psi psi' drops the phase; the final state keeps it.
        final = traj.final_state
        assert np.max(np.abs(final - want[-1])) <= 1e-9
        assert np.array_equal(got[-1], np.einsum("i,j->ij", final, final.conj()))
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


def rebuilt_state_outputs(model: LindbladModel, rho0s: list[np.ndarray], times: np.ndarray):
    """(T, 16, 4, 4) channel outputs from the full-size state series rebuilt
    entry by entry (`evolve_with_states`), with the mode (if any) traced out."""
    _, states = evolve_with_states(evolve_lindblad_batch, model, rho0s, times)
    if model.spec.dim > 4:
        states = [partial_trace(rho_t, (1, 2), model.spec) for rho_t in states]
    return np.stack(states, axis=1)


@pytest.fixture(scope="module")
def channel_output_series() -> dict[str, np.ndarray]:
    """(281, 16, 4, 4) output series of the iswap-fidelity written channel
    and full channel (cutoff 6, mode traced out) at default config."""
    return {
        "written": rebuilt_state_outputs(*tomography_case(None)),
        "full": rebuilt_state_outputs(*tomography_case(6)),
    }


class TestPauliChannelOutputs:
    """iswap-fidelity rebuilds each channel output from 16 two-qubit Pauli
    expectation values; the partial trace of the rebuilt states is the oracle."""

    @pytest.mark.parametrize("cutoff", [None, 6, 11], ids=["written", "full-6", "full-11"])
    def test_matches_kept_state_partial_trace(self, cutoff):
        model, rho0s, times = tomography_case(cutoff)
        observables = pauli_observables(model.spec.dim)
        trajs = evolve_lindblad_batch(model, rho0s, times, observables=observables)
        outputs = pauli_outputs(trajs)
        want = rebuilt_state_outputs(model, rho0s, times)
        assert outputs.shape == want.shape == (281, 16, 4, 4)
        assert np.all(np.max(np.abs(outputs - want), axis=(1, 2, 3)) <= 1e-12)

    @pytest.mark.parametrize("d", [4, 24, 44])
    def test_lift_bitwise_equals_kron(self, d):
        observables = pauli_observables(d)
        assert list(observables) == [f"pauli{m}" for m in range(16)]
        lifts = np.stack(list(observables.values()))
        assert lifts.shape == (16, d, d)
        for lift, pauli in zip(lifts, PAULIS):
            assert lift.tobytes() == np.kron(np.eye(d // 4, dtype=complex), pauli).tobytes()


def taylor3(gen_h: np.ndarray) -> np.ndarray:
    """`_taylor4` without its X^4 / 24 term: a third-order substep."""
    x2 = gen_h @ gen_h
    return np.eye(gen_h.shape[0], dtype=complex) + gen_h + x2 / 2.0 + (x2 @ gen_h) / 6.0


def hermitian_min_eigenvalue(choi: np.ndarray) -> float:
    """Lowest eigenvalue of the hermitian part, as the solver takes it."""
    return float(np.min(np.linalg.eigvalsh(0.5 * (choi + choi.conj().swapaxes(-1, -2)))))


class TestChannel:
    """evolve_channel steps the 16 matrix units, each through the one sector
    that holds it, and traces the mode out by the block's labels; the
    16-input protocol (physical inputs, Pauli rebuild, inversion) is its
    oracle."""

    @pytest.mark.parametrize("cutoff", [None, 6, 11], ids=["written", "full-6", "full-11"])
    def test_matches_sixteen_input_oracle(self, cutoff):
        model, rho0s, times = tomography_case(cutoff)
        choi, diagnostics = evolve_channel(model, times)
        want, trajs = sixteen_input_choi(model, times)
        assert choi.shape == want.shape == (281, 16, 16)
        assert np.max(np.abs(choi - want)) <= 1e-12
        # The channel takes its step and scale as every input does. Its
        # block is the inputs' blocks together; each input's is the search
        # from that input alone.
        checks = ("trace_deviation", "hermiticity_deviation", "min_eigenvalue")
        own = ("reduced_dim", "liouville_dim", "liouville_sectors")
        common = {key: value for key, value in diagnostics.items() if key not in checks + own}
        for traj, rho0 in zip(trajs, rho0s, strict=True):
            assert traj.diagnostics.keys() == diagnostics.keys()
            assert {key: traj.diagnostics[key] for key in common} == common
            assert traj.diagnostics["reduced_dim"] == reached_indices(model, [rho0]).size
        assert diagnostics["reduced_dim"] == reached_indices(model, rho0s).size
        # The checks are taken on the channel: its trace-preservation
        # defect and J's hermiticity and spectrum, as the oracle's J has them.
        defect = np.abs(4.0 * np.einsum("tajak->tjk", want.reshape(281, 4, 4, 4, 4)) - np.eye(4))
        assert diagnostics["trace_deviation"] == pytest.approx(np.max(defect), abs=1e-12)
        skew = np.max(np.abs(want - want.conj().swapaxes(-1, -2)))
        assert diagnostics["hermiticity_deviation"] == pytest.approx(skew, abs=1e-12)
        assert diagnostics["min_eigenvalue"] == pytest.approx(
            hermitian_min_eigenvalue(want), abs=1e-12
        )

    def test_units_step_only_their_own_sector(self, monkeypatch):
        model, _rho0s, times = tomography_case(6)
        stepped = spied_sectors(monkeypatch)
        evolve_channel(model, times)
        # 6, 4, 4, 1 and 1 of the 16 units in sectors of 26, 15, 15, 4 and 4.
        got = [(sector.size, flat.shape, rows.size) for sector, rows, flat in stepped]
        sizes, units = [26, 15, 15, 4, 4], [6, 4, 4, 1, 1]
        assert got == [(s, (281 * u, s), u) for s, u in zip(sizes, units)]
        # Each unit is stepped in one sector only.
        assert sorted(np.concatenate([rows for _, rows, _ in stepped])) == list(range(16))

    @pytest.mark.parametrize("cutoff", [None, 6], ids=["written", "full-6"])
    def test_certified_run_bitwise_equal(self, cutoff):
        model, _rho0s, times = tomography_case(cutoff)
        choi, reported = evolve_channel(model, times)
        certified_choi, certified = evolve_channel(model, times, record_min_eigenvalue=False)
        assert choi.tobytes() == certified_choi.tobytes()
        # The gate diagonalises J's pattern blocks, not J whole.
        assert reported.pop("min_eigenvalue") == pytest.approx(
            hermitian_min_eigenvalue(choi), abs=1e-15
        )
        assert certified == reported

    def test_default_channels_pass_the_choi_floor(self, tmp_path, monkeypatch):
        chois = []
        channel = dynamics.evolve_channel

        def recording(*args, **kwargs):
            choi, diagnostics = channel(*args, **kwargs)
            chois.append(choi)
            return choi, diagnostics

        monkeypatch.setattr(dynamics, "evolve_channel", recording)
        report = run_scenario("iswap-fidelity", resolve("iswap-fidelity"), tmp_path).as_dict()
        # Main, refined and bumped runs, and the three sensitivity reruns.
        assert len(chois) == 8
        lowest = [hermitian_min_eigenvalue(choi) for choi in chois]
        assert min(lowest) >= POSITIVITY_FLOOR
        # The report names the main channels' lowest Choi eigenvalues.
        integrator = report["info"]["integrator"]
        reported = [integrator[key]["min_eigenvalue"] for key in ("effective", "full")]
        assert reported == pytest.approx(lowest[:2], abs=1e-15)

    @pytest.mark.parametrize("record", [True, False])
    def test_third_order_substep_fails_the_choi_floor(self, monkeypatch, record):
        # Without its X^4 term the written channel's J reaches -2.33e-7,
        # while the same run's 16 physical-input states stay at -7.7e-15:
        # only the channel's test sees that it is not completely positive.
        monkeypatch.setattr(dynamics, "_taylor4", taylor3)
        model, rho0s, times = tomography_case(None)
        with pytest.raises(DiagnosticsError, match=r"^Choi eigenvalue -2\.3\d\de-07 below floor"):
            evolve_channel(model, times, record_min_eigenvalue=record)
        trajs = evolve_lindblad_batch(model, rho0s, times)
        assert min(traj.diagnostics["min_eigenvalue"] for traj in trajs) >= -1e-13

    def test_overflowing_channel_fails_trace_check(self):
        # The squared-up propagator overflows and the images turn NaN; the
        # trace check, on the images, names them before J is read.
        spec = HilbertSpec.spins_only(2)
        q = qubit_ops()
        decay = [(embed(q["sm"], 1, spec), 1.0)]
        model = LindbladModel(1e100 * embed(q["sx"], 0, spec), decay, spec)
        with pytest.raises(DiagnosticsError, match=r"^trace deviation nan exceeds 1e-08$"):
            evolve_channel(model, np.linspace(0.0, 1.0, 3))

    def test_iswap_fidelity_reshuffles_its_channels_unchecked(self, tmp_path, monkeypatch):
        # The channels' trace deviation is tested once, on their images;
        # choi_from_outputs and its test serve the two dissipationless
        # references only.
        calls = spied_calls(monkeypatch, dynamics, "choi_from_outputs")
        run_scenario("iswap-fidelity", resolve("iswap-fidelity"), tmp_path)
        assert len(calls) == 2

    def test_needs_two_spins_last(self):
        for spec in (HilbertSpec.spins_only(1), mode_only_spec(4)):
            model = LindbladModel(np.zeros((spec.dim,) * 2, dtype=complex), [], spec)
            with pytest.raises(ValueError, match="two spins"):
                evolve_channel(model, np.linspace(0.0, 1.0, 3))


def former_reshuffle(outputs: np.ndarray) -> np.ndarray:
    """The former `_reshuffle`: a strided einsum view, divided into a new array."""
    batch = outputs.shape[:-3]
    choi = np.einsum("...jkab->...ajbk", outputs.reshape(batch + (4,) * 4))
    return choi.reshape(batch + (16, 16)) / 4


class TestChannelTraceAndReshuffle:
    """evolve_channel traces the mode out by one gather per sector and mode
    level, each adding straight into J; the former 0/1 product per sector,
    the former einsum reshuffle of its images and their trace are its
    bitwise oracles."""

    @pytest.mark.parametrize("cutoff", [None, 6, 11], ids=["written", "full-6", "full-11"])
    def test_bitwise_equal_former_product_and_einsum(self, cutoff, monkeypatch):
        model, rho0s, times = tomography_case(cutoff)
        stepped = spied_sectors(monkeypatch)
        choi, diagnostics = evolve_channel(model, times)
        idx = reached_indices(model, rho0s)
        mode, spin = np.divmod(idx, 4)
        want = np.empty((281, 16, 4, 4), dtype=complex)
        for sector, units, flat in stepped:
            ket, bra = np.divmod(sector, idx.size)
            same = np.flatnonzero(mode[ket] == mode[bra])
            trace = np.zeros((sector.size, 16), dtype=complex)
            trace[same, spin[ket[same]] * 4 + spin[bra[same]]] = 1.0
            want[:, units] = dynamics._matmul(flat, trace).reshape(281, units.size, 4, 4)
        assert choi.tobytes() == former_reshuffle(want).tobytes()
        traces = np.einsum("tuaa->tu", want)
        trace_dev = float(np.max(np.abs(traces - np.eye(4).reshape(-1))))
        assert diagnostics["trace_deviation"] == trace_dev
        # choi_from_outputs keeps the reshuffle: no batch axis, one and two.
        for outputs in (want[140], want, want[:280].reshape(2, 140, 16, 4, 4)):
            assert dynamics._reshuffle(outputs).tobytes() == former_reshuffle(outputs).tobytes()


# The components of a Choi pattern with every index populated: one block
# of 6, one of 4 and six of 1. In iswap-fidelity's channels the last five
# (ZERO_INDICES) are 0 at every time, since decay never raises the
# excitation number, and are not gated.
PLANTED_BLOCKS = [[0, 5, 6, 9, 10, 15], [1, 2, 7, 11], [3], [4], [8], [12], [13], [14]]
ZERO_INDICES = [4, 8, 12, 13, 14]


def planted_series(n_t: int = 5, parts: list = PLANTED_BLOCKS) -> np.ndarray:
    """(n_t, 16, 16) trace-1 series with a random positive definite block,
    slightly skew, on each of `parts`, exactly 0 off them."""
    rng = np.random.default_rng(29)
    series = np.zeros((n_t, 16, 16), dtype=complex)
    for part in parts:
        shape = (n_t, len(part), len(part))
        g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        skew = 1e-12 * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
        series[:, np.array(part)[:, None], part] = g @ g.conj().swapaxes(-1, -2) + skew
    return series / np.einsum("tjj->t", series).real[:, None, None]


def gate_outcome(blocks: list, dim: int, record: bool):
    """The physicality gate's diagnostics on these blocks of a (T, dim, dim)
    series, or its error text."""
    diagnostics = {}
    try:
        dynamics._finish(diagnostics, blocks, dim, 0.0, 1.0, 1, record, "Choi")
    except DiagnosticsError as err:
        return str(err)
    return diagnostics


class TestPatternBlockGate:
    """The gate takes a channel's J on the components of its nonzero pattern
    (`_pattern_blocks`), off which J is exactly 0: it must give the dense
    gate's hermiticity deviation bit for bit, its lowest eigenvalue to
    1e-15, and its error text."""

    def test_blocks_are_the_planted_ones(self):
        series = planted_series()
        blocks = dynamics._pattern_blocks(series)
        assert len(blocks) == len(PLANTED_BLOCKS)
        for block, part in zip(blocks, PLANTED_BLOCKS):
            assert block.tobytes() == series[:, np.array(part)[:, None], part].tobytes()

    @pytest.mark.parametrize("record", [True, False])
    def test_matches_dense_gate(self, record):
        series = planted_series()
        dense = gate_outcome([series], 16, record)
        blocked = gate_outcome(dynamics._pattern_blocks(series), 16, record)
        assert 0.0 < dense["hermiticity_deviation"] <= 1e-10
        if record:
            assert blocked.pop("min_eigenvalue") == pytest.approx(
                dense.pop("min_eigenvalue"), abs=1e-15
            )
        assert blocked == dense

    @pytest.mark.parametrize("record", [True, False])
    @pytest.mark.parametrize(
        "defect, message",
        [
            ("negative-eigenvalue", r"^Choi eigenvalue -2\.000e-07 below floor"),
            ("skew", r"^hermiticity deviation 1\.000e-06 exceeds 1e-10$"),
        ],
    )
    def test_same_failure_as_dense_gate(self, defect, message, record):
        series = planted_series()
        if defect == "skew":
            series[3, 5, 9] += 1e-6
        else:
            # Shift the 4-block at one time point to lowest eigenvalue -2e-7.
            part = np.array(PLANTED_BLOCKS[1])
            block = series[2][np.ix_(part, part)]
            lowest = np.min(np.linalg.eigvalsh(0.5 * (block + block.conj().T)))
            series[2, part, part] -= lowest + 2e-7
        dense = gate_outcome([series], 16, record)
        assert isinstance(dense, str) and re.match(message, dense)
        assert gate_outcome(dynamics._pattern_blocks(series), 16, record) == dense

    @pytest.mark.parametrize("record", [True, False])
    @pytest.mark.parametrize("link", ["hermitian", "one-sided"])
    def test_one_entry_joins_two_blocks(self, link, record):
        # At one time point only, an entry between the 4-block and the
        # singleton [3]: hermitian and large enough to make the joined
        # block indefinite, or one-sided (J[1, 3] alone) and so skew.
        series = planted_series()
        if link == "hermitian":
            coupling = 2.0 * np.sqrt(series[4, 1, 1].real * series[4, 3, 3].real)
            series[4, 1, 3] = series[4, 3, 1] = coupling
        else:
            series[4, 1, 3] = 1e-6
        blocks = dynamics._pattern_blocks(series)
        assert [block.shape[1:] for block in blocks] == [(6, 6), (5, 5)] + [(1, 1)] * 5
        dense = gate_outcome([series], 16, record)
        expected = "below floor" if link == "hermitian" else "hermiticity deviation 1.000e-06"
        assert isinstance(dense, str) and expected in dense
        assert gate_outcome(blocks, 16, record) == dense

    def populated_series(self) -> np.ndarray:
        """A planted series that is 0 on iswap-fidelity's zero indices."""
        return planted_series(parts=PLANTED_BLOCKS[:3])

    def test_zero_indices_are_not_gated(self):
        series = self.populated_series()
        assert not series[:, ZERO_INDICES].any() and not series[:, :, ZERO_INDICES].any()
        blocks = dynamics._pattern_blocks(series)
        assert len(blocks) == 3
        for block, part in zip(blocks, PLANTED_BLOCKS):
            assert block.tobytes() == series[:, np.array(part)[:, None], part].tobytes()

    @pytest.mark.parametrize("record", [True, False])
    def test_zero_indices_match_dense_gate(self, record):
        series = self.populated_series()
        dense = gate_outcome([series], 16, record)
        blocked = gate_outcome(dynamics._pattern_blocks(series), 16, record)
        assert 0.0 < dense["hermiticity_deviation"] <= 1e-10
        if record:
            assert blocked.pop("min_eigenvalue") == pytest.approx(
                dense.pop("min_eigenvalue"), abs=1e-15
            )
        assert blocked == dense

    def test_uncovered_indices_record_eigenvalue_zero(self):
        # Every populated block is positive definite, so the lowest
        # eigenvalue of the whole series is that of its zero indices.
        series = self.populated_series()
        blocks = dynamics._pattern_blocks(series)
        assert min(np.min(np.linalg.eigvalsh(block)) for block in blocks) > 1e-6
        assert gate_outcome(blocks, 16, True)["min_eigenvalue"] == 0.0
        assert gate_outcome(blocks, 11, True)["min_eigenvalue"] > 1e-6

    @pytest.mark.parametrize("record", [True, False])
    @pytest.mark.parametrize("entry", [(4, 4), (8, 13)])
    def test_nan_at_a_zero_index_fails_like_dense_gate(self, entry, record):
        series = self.populated_series()
        series[(2,) + entry] = np.nan
        blocks = dynamics._pattern_blocks(series)
        assert any(np.isnan(block).any() for block in blocks)
        dense = gate_outcome([series], 16, record)
        assert dense == "hermiticity deviation nan exceeds 1e-10"
        assert gate_outcome(blocks, 16, record) == dense


class TestEntryObservables:
    """`evolve_with_states` rebuilds a state series from the observable
    product that every scenario runs; its last row must be the final state."""

    @pytest.mark.parametrize("cutoff", [None, 6], ids=["written", "full-6"])
    def test_lindblad_series_ends_on_final_state(self, cutoff):
        trajs, states = evolve_with_states(evolve_lindblad_batch, *tomography_case(cutoff))
        for traj, rho_t in zip(trajs, states):
            # Bit for bit up to the sign of zero, which the rebuild's -Im
            # can flip: adding 0.0 turns -0.0 into 0.0.
            assert (rho_t[-1] + 0.0).tobytes() == (traj.final_state + 0.0).tobytes()

    def test_unitary_series_ends_on_final_state(self):
        spec, h, psi0, times = rabi_case(15)
        (traj,), (got,) = evolve_with_states(evolve_unitary, h, [psi0], times, spec=spec)
        final = traj.final_state
        # Formed by einsum, whose complex products round as the solver's
        # do (np.outer's multiply differs by up to 1.1e-16 at cutoff 20),
        # and bit for bit up to the sign of zero.
        outer = np.einsum("i,j->ij", final, final.conj())
        assert (got[-1] + 0.0).tobytes() == (outer + 0.0).tobytes()


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
    f_pro, _ = strip_local_phases(choi_from_outputs(unit_images(outs)), iswap_unitary())
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
    """The closed-system gate reference evolves the 4 kets |0, j> and takes
    the images Tr_mode |psi_j><psi_k| from their final states; the former
    full-space propagator on the 16 inputs, with a partial trace and the
    linear inversion, is the oracle."""

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
    """The search from the inputs' support through H, every collapse
    operator with a nonzero rate and its C'C: for one input, the block the
    solver evolves it on; for several, their blocks together."""
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


def leaky_liouvillian(h, collapse):
    """A faulty one-qubit generator that amplifies the excited population
    by 1 + 1e-6 per interval of the grid np.linspace(0, 1, 3).

    The leak sits on the |e><e| entry of the row-major vector, so the
    block must hold both qubit states (`LEAKY_MODEL`); it reaches the
    solver through its generator whichever sectors the solver propagates."""
    gen = liouvillian(h, collapse)
    gen[3, 3] += np.log1p(1e-6) / 0.5
    return gen


# A rotation slow enough that a state's excited population moves by at
# most 1e-6 over np.linspace(0, 1, 3), but that makes each input's
# reached block the whole qubit, as `leaky_liouvillian` needs.
LEAKY_MODEL = LindbladModel(1e-3 * qubit_ops()["sx"], [], HilbertSpec.spins_only(1))


class TestBatchedDiagnostics:
    """Each input of a batch gets its own diagnostics and observables, from
    its own block's state series."""

    @pytest.mark.parametrize("cutoff", [None, 6], ids=["written", "full-6"])
    def test_diagnostics_match_per_input_recomputation(self, cutoff):
        model, rho0s, times = tomography_case(cutoff)
        trajs, states = evolve_with_states(evolve_lindblad_batch, model, rho0s, times)
        assert len(trajs) == 16
        for tr, rho_t in zip(trajs, states):
            adjoint = rho_t.conj().transpose(0, 2, 1)
            want = {
                "trace_deviation": np.max(np.abs(np.einsum("tii->t", rho_t) - 1.0)),
                "hermiticity_deviation": np.max(np.abs(rho_t - adjoint)),
                # The rebuilt states are zero-padded when the block is smaller,
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
        trajs, states = evolve_with_states(evolve_lindblad_batch, model, rho0s, times)
        for tr, rho0, rho_t in zip(trajs, rho0s, states, strict=True):
            idx = reached_indices(model, [rho0])
            want = one_pass_diagnostics(rho_t[None, :, idx[:, None], idx], model.spec.dim)
            for key, values in want.items():
                assert tr.diagnostics[key] == values[0]

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
        trajs, states = evolve_with_states(
            evolve_lindblad_batch, model, rho0s, times, observables=observables
        )
        ops = {**default_population_observables(spec), **observables}
        for tr, rho_t in zip(trajs, states):
            assert list(tr.observables) == [*observables, "pop_mode", "pop_spin1", "pop_spin2"]
            for name, op in ops.items():
                want = np.einsum("ij,tji->t", op, rho_t).real
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

    def test_first_failing_input_named_in_error(self, monkeypatch):
        # After two leaky intervals |e><e| has gained 2.000001e-6 in trace
        # and |+><+| half of that; the ground state passes. The batch
        # raises at the first input that fails, not at the worst.
        monkeypatch.setattr(dynamics, "liouvillian", leaky_liouvillian)
        spec = LEAKY_MODEL.spec
        ground, excited = dm(basis_ket((0,), spec)), dm(basis_ket((1,), spec))
        plus = 0.5 * np.ones((2, 2), dtype=complex)
        times = np.linspace(0.0, 1.0, 3)
        for inputs, deviation in (([ground, plus, excited], "1"), ([excited, plus], "2")):
            message = rf"^trace deviation {deviation}\.000e-06 exceeds 1e-08$"
            with pytest.raises(DiagnosticsError, match=message):
                evolve_lindblad_batch(LEAKY_MODEL, inputs, times)

    @pytest.mark.parametrize("record", [True, False])
    def test_failed_inputs_skip_positivity(self, monkeypatch, record):
        # The leaky generator fails the excited input's trace test, and an
        # overflowing propagator turns another run's states NaN, which
        # fails trace and hermiticity. Neither may reach a positivity
        # test; the ground input before the excited one passes and gets
        # its own.
        monkeypatch.setattr(dynamics, "liouvillian", leaky_liouvillian)
        seen = {
            name: spied_calls(monkeypatch, np.linalg, name) for name in ("eigvalsh", "cholesky")
        }
        spec = LEAKY_MODEL.spec
        ground, excited = dm(basis_ket((0,), spec)), dm(basis_ket((1,), spec))
        times = np.linspace(0.0, 1.0, 3)
        with pytest.raises(DiagnosticsError, match=r"^trace deviation 2\.000e-06 exceeds 1e-08$"):
            evolve_lindblad_batch(
                LEAKY_MODEL, [ground, excited], times, record_min_eigenvalue=record
            )
        overflowing = LindbladModel(1e100 * qubit_ops()["sx"], [], spec)
        with pytest.raises(DiagnosticsError, match=r"^trace deviation nan exceeds 1e-08$"):
            evolve_lindblad_batch(overflowing, [ground], times, record_min_eigenvalue=record)
        arrays = {name: [args[0] for args in calls] for name, calls in seen.items()}
        assert all(np.all(np.isfinite(a)) for found in arrays.values() for a in found)
        # Only the ground input's (T, n, n) series is tested for positivity.
        series = [a for found in arrays.values() for a in found if a.shape == (3, 2, 2)]
        assert len(series) == 1
        assert len(arrays["cholesky"]) == (0 if record else 1)
        # eigvalsh sees the ground state itself at t = 0, cholesky it
        # shifted by -floor/2.
        assert np.max(np.abs(series[0][0] - ground)) <= abs(POSITIVITY_FLOOR)


def perturbed_sectors(monkeypatch, shifts: dict[int, float]) -> None:
    """dynamics._step_sectors from now, with shifts[i] added to every row
    of a stepped series at the block's Liouville index i."""
    original = dynamics._step_sectors

    def spy(*args):
        for sector, rows, flat, k in original(*args):
            for index, shift in shifts.items():
                flat[:, sector == index] += shift
            yield sector, rows, flat, k

    monkeypatch.setattr(dynamics, "_step_sectors", spy)


class TestPhysicalityGate:
    """Both open-system solvers end in one gate: the trace test, then the
    hermiticity test, then positivity, the first that fails raising."""

    @staticmethod
    def solve(solver: str, record: bool):
        # Both spins driven: from |gg>, and from the channel's units, the
        # block is the two spins and one sector holds all 16 of its
        # Liouville indices.
        spec = HilbertSpec.spins_only(2)
        sx = qubit_ops()["sx"]
        model = LindbladModel(embed(sx, 0, spec) + embed(sx, 1, spec), [], spec)
        times = np.linspace(0.0, 1.0, 3)
        if solver == "channel":
            return evolve_channel(model, times, record_min_eigenvalue=record)
        ground = dm(basis_ket((0, 0), spec))
        return evolve_lindblad(model, ground, times, record_min_eigenvalue=record)

    @pytest.mark.parametrize("record", [True, False])
    @pytest.mark.parametrize("solver", ["state", "channel"])
    @pytest.mark.parametrize(
        "shifts, message",
        [
            ({1: 1e-6}, r"^hermiticity deviation \d\.\d{3}e-0[67] exceeds 1e-10$"),
            ({0: 1e-6, 1: 1e-6}, r"^trace deviation 1\.000e-06 exceeds 1e-08$"),
        ],
        ids=["hermiticity", "trace-and-hermiticity"],
    )
    def test_trace_then_hermiticity(self, monkeypatch, shifts, message, solver, record):
        self.solve(solver, record)
        # Block index 1 is the off-diagonal entry (0, 1) of the state, or of
        # every unit's image; index 0 is the diagonal entry (0, 0).
        perturbed_sectors(monkeypatch, shifts)
        with pytest.raises(DiagnosticsError, match=message):
            self.solve(solver, record)


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
        # What the batch returns, plus one input's temporaries at a time:
        # its stepped rows, its (T, n, n) state series and the diagnostics'
        # copies of it. The (T, 16, n, n) stack of all inputs, which the
        # batch held before each input was solved on its own, peaked at
        # 21.5 times one input's series; now it is 7.7 times, 2.9 of them
        # the returned series and final states (numpy 2.4, Python 3.11).
        model, rho0s, times = tomography_case(6)
        d = model.spec.dim
        observables = pauli_observables(d)
        peak = traced_peak(evolve_lindblad_batch, model, rho0s, times, observables=observables)
        n = 8  # the largest input block: the 8 states of at most two excitations
        assert max(reached_indices(model, [rho0]).size for rho0 in rho0s) == n
        series = times.size * n * n * np.dtype(complex).itemsize
        # 16 observables and 3 populations per input, and its final state.
        returned = len(rho0s) * ((len(observables) + 3) * times.size * 8 + d * d * 16)
        assert peak <= returned + 8.0 * series

    def test_choi_from_outputs_peak(self, channel_output_series):
        images = unit_images(channel_output_series["full"])
        assert traced_peak(choi_from_outputs, images) <= 2.75 * images.nbytes

    def test_strip_local_phases_peak(self, channel_output_series):
        choi = choi_from_outputs(unit_images(channel_output_series["full"]))
        assert choi.shape == (281, 16, 16)
        assert traced_peak(strip_local_phases, choi, iswap_unitary()) <= 2.0 * choi.nbytes

    def test_channel_peak(self):
        # The images, J and its diagnostic temporaries; one sector's unit
        # series at a time. The 16-input batch of the same channel held a
        # (T, 16, 8, 8) state series, 4.2 times the Choi series, by itself.
        model, _rho0s, times = tomography_case(6)
        choi_bytes = times.size * 16 * 16 * np.dtype(complex).itemsize
        assert traced_peak(evolve_channel, model, times) <= 4.0 * choi_bytes

    def test_iswap_fidelity_peak(self, tmp_path):
        # One channel is the most the scenario holds. The traced peak was
        # 10.61 MiB while each 16-input batch kept its full-space input
        # stack, per-input diagnostic temporaries and 4.7 MB state series
        # past their last reader, and 6.59 MiB once they were released; the
        # matrix-unit channels take it to 4.81 MiB (numpy 2.4, Python 3.11).
        peak = traced_peak(run_scenario, "iswap-fidelity", resolve("iswap-fidelity"), tmp_path)
        assert peak <= 6 * 2**20


def direct_overlap(choi: np.ndarray, u: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """Re <w|J|w> at each phase pair of `phases` (T, 2) for the Choi series
    `choi` (T, 16, 16), with w = S'|U>> and S the local z-phases after the
    channel: the physical value, evaluated directly."""
    vec = dynamics._ideal_choi_vector(u)
    s = np.exp(1j * phases @ (dynamics._LEVELS - 0.5).T)
    w = (s.conj()[:, :, None] * vec.reshape(4, 4)).reshape(-1, 1, 16)
    return np.real(w.conj() @ choi @ w.swapaxes(-1, -2))[:, 0, 0]


class TestBatchedGateMetrics:
    """The time-batched gate metrics against the per-time-point oracle."""

    @pytest.mark.parametrize("channel", ["written", "full"])
    def test_matches_per_time_point_oracle(self, channel_output_series, channel):
        outputs = channel_output_series[channel]
        u = iswap_unitary()
        choi = choi_from_outputs(unit_images(outputs))
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
        assert np.max(np.abs(choi_from_outputs(unit_images(outputs)) - want)) <= 1e-15
        assert np.max(np.abs(choi_from_outputs(unit_images(outputs[200])) - want[200])) <= 1e-15
        # These outputs are partial traces of the solver's states, whose
        # anti-hermitian roundoff the former construction dropped; the two
        # differ by no more than its size.
        skew = np.max(np.abs(raw - raw.conj().swapaxes(-1, -2)))
        assert 0.0 < skew <= 1e-13
        assert np.max(np.abs(choi_from_outputs(unit_images(raw)) - block_scatter(raw))) <= skew

    @pytest.mark.parametrize("channel", ["written", "full"])
    def test_fidelities_bitwise_equal_former_series(self, channel_output_series, channel):
        # The former scenario-side fidelity series: raw F_avg, then the
        # stripped maxima mapped to (4 F + 1)/5.
        u = iswap_unitary()
        choi = choi_from_outputs(unit_images(channel_output_series[channel]))
        f_pro, want_phases = strip_local_phases(choi, u)
        want = (average_gate_fidelity(choi, u), (4.0 * f_pro + 1.0) / 5.0, want_phases)
        got = gate_fidelities(choi, u)
        for value, ref in zip(got, want):
            assert value.shape == ref.shape and value.tobytes() == ref.tobytes()
        # One time point gives floats and a phase tuple, as before.
        f_pro, want_phases = strip_local_phases(choi[200], u)
        want = (average_gate_fidelity(choi[200], u), (4.0 * f_pro + 1.0) / 5.0, want_phases)
        assert gate_fidelities(choi[200], u) == want
        assert type(gate_fidelities(choi[200], u)[1]) is float

    @pytest.mark.parametrize("cutoff", [None, 6], ids=["written", "full"])
    def test_maximum_equals_direct_overlap(self, cutoff):
        # The maximum is the Fourier polynomial's own value; at the phases
        # it returns, the direct evaluation must agree to roundoff.
        model, _, times = tomography_case(cutoff)
        choi, _ = evolve_channel(model, times)
        best, phases = strip_local_phases(choi, iswap_unitary())
        assert np.max(np.abs(best - direct_overlap(choi, iswap_unitary(), phases))) <= 1e-15

    def test_unbatched_inputs_keep_scalar_types(self, channel_output_series):
        u = iswap_unitary()
        choi = choi_from_outputs(unit_images(channel_output_series["written"][200]))
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
        images = unit_images(channel_output_series["written"])
        images[137] *= 0.9
        with pytest.raises(DiagnosticsError, match=r"at index \(137,\)"):
            choi_from_outputs(images)

    def test_batched_output_shape_validated(self):
        with pytest.raises(ValueError):
            choi_from_outputs(np.zeros((281, 15, 4, 4), dtype=complex))


def sequential_block_reference(model: LindbladModel, rho0s: list[np.ndarray], dts: np.ndarray):
    """Step each input's sectors one interval at a time.

    Same reached block, generator, sectors and substep rule as the solver,
    but one `prop @ vec` product per sector and interval of length
    `dts[j]`. Returns the states (inputs, len(dts) + 1, d, d), zero-padded
    to the full space.
    """
    d = model.spec.dim
    rates = [(op, rate) for op, rate in model.collapse if rate != 0.0]
    h_req = DEFAULT_STEP_SCALE * STEP_BUDGET / spectral_scale(model)
    states = np.zeros((len(rho0s), len(dts) + 1, d * d), dtype=complex)
    for rho, series in zip(rho0s, states):
        idx = reached_indices(model, [rho])
        block = np.ix_(idx, idx)
        gen = liouvillian(model.hamiltonian[block], [(op[block], rate) for op, rate in rates])
        entries = (idx[:, None] * d + idx).reshape(-1)  # block entry -> full entry
        vec0 = rho[block].reshape(-1)
        for sector in dynamics._populated_sectors(gen, vec0 != 0):
            sub = gen[np.ix_(sector, sector)]
            props = {dt: _interval_propagator(sub, float(dt), h_req)[0] for dt in set(dts)}
            vec = series[0, entries[sector]] = vec0[sector]
            for dt, row in zip(dts, series[1:]):
                vec = row[entries[sector]] = props[dt] @ vec
    return states.reshape(len(rho0s), len(dts) + 1, d, d)


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
        trajs, states = evolve_with_states(evolve_lindblad_batch, model, rho0s, times)
        # The solver uses the first interval for the whole uniform grid.
        want = sequential_block_reference(model, rho0s, np.full(points - 1, times[1] - times[0]))
        assert len(trajs) == len(rho0s)
        for traj, got, ref, rho0 in zip(trajs, states, want, rho0s):
            assert got.shape == ref.shape
            assert np.all(np.max(np.abs(got - ref), axis=(1, 2)) <= 1e-12)
            assert np.array_equal(got[0], rho0)
            assert np.array_equal(traj.final_state, got[-1])

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
        trajs, states = evolve_with_states(evolve_lindblad_batch, model, rho0s, times)
        assert len(built) == len(rho0s)
        assert {args[1] for args in propagators} == {times[1] - times[0]}
        want = sequential_block_reference(model, rho0s, np.full(39, times[1] - times[0]))
        for traj, got, ref in zip(trajs, states, want):
            assert np.all(np.max(np.abs(got - ref), axis=(1, 2)) <= 1e-12)
            assert np.array_equal(traj.final_state, got[-1])


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


class TestPolishAndTargetCache:
    """The phase strip's polish, F taken once per step, against the
    earlier subset-indexed polish, and its target constants, built once
    per target."""

    def test_coefficient_choi_is_exact(self):
        coeff = polish_rows(["random"] * 50 + ["saddle"] * 50, seed=3)
        _, used, mirror, kernel = dynamics._target_constants(iswap_unitary())
        entries = coefficient_choi(coeff).reshape(-1, 256)
        got = dynamics._matmul(0.5 * (entries[:, used] + entries[:, mirror].conj()), kernel)
        assert got.tobytes() == coeff.tobytes()

    def test_saddle_rows_refuse_their_first_step(self):
        kinds = ["zero", "random"] + ["saddle"] * 20
        choi = coefficient_choi(polish_rows(kinds, seed=0))
        refused_first = former_strip(choi, iswap_unitary())[2]
        assert not refused_first[:2].any() and refused_first[2:].sum() >= 5

    @settings(max_examples=150, deadline=None)
    @given(
        kinds=st.lists(st.sampled_from(["random", "zero", "saddle"]), min_size=1, max_size=12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_polish_matches_former_bitwise(self, kinds, seed):
        choi = coefficient_choi(polish_rows(kinds, seed))
        # Entries off the block of |U>>'s rows, which the strip must not read.
        off = np.ones((16, 16), dtype=bool)
        off[np.ix_(ISWAP_ROWS, ISWAP_ROWS)] = False
        choi[:, off] = np.random.default_rng(seed).normal(size=(len(kinds), off.sum()))
        u = iswap_unitary()
        values, phases = strip_local_phases(choi, u)
        want_values, want_phases, _ = former_strip(choi, u)
        assert values.tobytes() == want_values.tobytes()
        assert phases.tobytes() == want_phases.tobytes()
        value, phase = strip_local_phases(choi[0], u)
        assert (value, phase) == (values[0], tuple(phases[0]))

    def test_alternating_targets_match_fresh_calls(self, channel_output_series):
        choi = choi_from_outputs(unit_images(channel_output_series["full"]))
        rng = np.random.default_rng(31)
        other, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))

        def scores(u):
            values, phases = strip_local_phases(choi, u)
            return values.tobytes(), phases.tobytes(), process_fidelity(choi, u).tobytes()

        fresh = []
        for u in (iswap_unitary(), other):
            dynamics._constants_of.cache_clear()
            fresh.append(scores(u))
        for u, want in zip([iswap_unitary(), other] * 3, fresh * 3):
            assert scores(u) == want

    def test_constants_are_built_once_and_read_only(self):
        u = iswap_unitary()
        constants = dynamics._target_constants(u)
        assert all(a is b for a, b in zip(constants, dynamics._target_constants(u.copy())))
        for array in constants:
            with pytest.raises(ValueError, match="read-only"):
                array.flat[0] = 0

    @pytest.mark.parametrize("target", [np.eye(2), np.eye(3), np.eye(16)])
    def test_wrong_shaped_target_is_refused(self, target):
        choi = np.eye(16) / 16
        for score in (strip_local_phases, process_fidelity):
            with pytest.raises(ValueError, match="mismatch in its core dimension"):
                score(choi, target)
        assert process_fidelity(choi, np.eye(4)) == pytest.approx(0.0625)


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

    @pytest.mark.parametrize("rate", [np.nan, np.inf, -1.0])
    def test_non_finite_or_negative_rate_rejected(self, rate):
        spec = HilbertSpec.spins_only(1)
        with pytest.raises(ValueError, match=r"collapse rate \S+ is not finite and >= 0"):
            LindbladModel(qubit_ops()["sx"], [(qubit_ops()["sm"], rate)], spec)


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
        factorised = []
        cholesky = np.linalg.cholesky

        def recording(a, *args, **kwargs):
            factorised.append(np.shape(a))
            return cholesky(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "cholesky", recording)
        run_scenario("iswap-fidelity", resolve("iswap-fidelity"), tmp_path)
        n_t, channels = 281, 8
        # Only the 2 main channels (written and full) report min_eigenvalue,
        # so only their Choi series are diagonalised, on the populated blocks
        # of J's pattern: one of 6, one of 4 and one of 1 (its other five
        # indices are 0). The reruns are certified. Each of the 8 channels
        # also takes its spectral scale from the full H. No physical input
        # is checked.
        blocks = [(n_t, 6, 6), (n_t, 4, 4), (n_t, 1, 1)]
        assert [shape for shape in shapes if shape[0] == n_t] == blocks * 2
        matrices = sum(int(np.prod(shape[:-2])) for shape in shapes)
        assert matrices == 2 * len(blocks) * n_t + channels
        # The 6 reruns certify the same three blocks each.
        assert [shape for shape in factorised if shape[0] == n_t] == blocks * (channels - 2)


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
    """evolve_unitary takes its grid in batches of time points, the near-equal
    time blocks of `_time_block_edges`, and must give what the former
    one-pass evolution gave, bit for bit."""

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
            traj = evolve_unitary(h, psi0, times, spec=spec)
            series, final = former_evolve_unitary(h, psi0, times, observables)
            assert list(traj.observables) == list(series)
            for name, values in series.items():
                assert traj.observables[name].tobytes() == values.tobytes()
            assert traj.final_state.tobytes() == final.tobytes()

    @pytest.mark.parametrize("n", [2, 15, 182, 400])
    @pytest.mark.parametrize("n_t", [2, 63, 64, 65, 129, 581, 1201, 2401])
    def test_time_blocks(self, n, n_t):
        edges = dynamics._time_block_edges(n_t, n * n, dynamics.MIN_BLOCK_ROWS)
        sizes = np.diff(edges)
        assert edges[0] == 0 and edges[-1] == n_t
        assert sizes.max() - sizes.min() <= 1
        # No 1-row block: at least MIN_BLOCK_ROWS rows, or one block.
        assert sizes.min() >= min(n_t, dynamics.MIN_BLOCK_ROWS)
        # Within the product budget unless the floor sets the length.
        if sizes.max() * n * n > dynamics.BLOCK_MULADDS:
            assert len(sizes) == max(1, n_t // dynamics.MIN_BLOCK_ROWS)


def ordered_matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None):
    """a @ b for 2-D operands, each entry summed over the inner index in
    increasing order, every real product and sum rounded on its own.

    A BLAS kernel rounds a product differently with the operands' sizes:
    the 10 x 10 sector of an input's 16 x 16 block generator and the whole
    block, zeros included, square to results that differ in the last bit,
    and the propagator's 9 squarings and the grid's 8 more double that.
    Here a sector's product and the whole block's take the same terms in
    the same order (the block's others are exact zeros), so they agree
    bit for bit.
    """
    shape = a.shape[:1] + b.shape[1:]
    re, im = np.zeros(shape), np.zeros(shape)
    for j in range(a.shape[1]):
        x, y = a[:, j, None], b[j]
        re += x.real * y.real
        re -= x.imag * y.imag
        im += x.real * y.imag
        im += x.imag * y.real
    total = re if np.result_type(a, b).kind == "f" else re + 1j * im
    if out is None:
        return total
    out[...] = total
    return out


def former_evolve_lindblad_batch(
    model: LindbladModel, rho0s: list[np.ndarray], times: np.ndarray, observables: dict | None
):
    """The former dense-generator path, each input on its own reached
    block: one interval propagator of the whole block generator, the
    doubled stepping over the whole row-major state vector and the
    one-pass diagnostics, with every product an `ordered_matmul` (the
    propagator's through `dynamics._matmul`, which the caller replaces).
    Returns the per-input observables, final states, state series
    (zero-padded) and diagnostics."""
    d = model.spec.dim
    dt = float(times[1] - times[0])
    h_req, scale = dynamics._resolve_step(model, None, DEFAULT_STEP_SCALE)
    rates = [(op, rate) for op, rate in model.collapse if rate != 0.0]
    n_t = times.size
    out = []
    for rho0 in rho0s:
        idx = reached_indices(model, [rho0])
        block = np.ix_(idx, idx)
        n = idx.size
        obs = dynamics._project_observables(observables, model.spec, d, block)
        gen = liouvillian(model.hamiltonian[block], [(op[block], rate) for op, rate in rates])
        rows = np.empty((n_t, n * n), dtype=complex)
        rows[0] = rho0[block].reshape(-1)
        prop, k = _interval_propagator(gen, dt, h_req)
        m = 1
        while m < n_t:
            count = min(m, n_t - m)
            rows[m : m + count] = ordered_matmul(rows[:count], prop.T)
            m *= 2
            if m < n_t:
                prop = ordered_matmul(prop, prop)
        block_states = rows.reshape(1, n_t, n, n)
        diagnostics = one_pass_diagnostics(block_states, d)
        states = np.zeros((n_t, d, d), dtype=complex)
        states[:, idx[:, None], idx] = block_states[0]
        columns = np.stack([op.T.reshape(-1) for op in obs.values()], axis=1)
        values = ordered_matmul(rows, columns).real.T
        diag = {
            "spectral_scale": scale,
            "substep": dt / k,
            "max_substeps_per_interval": k,
            "hilbert_dim": d,
            "reduced_dim": n,
            "liouville_dim": n * n,
            **{key: float(value[0]) for key, value in diagnostics.items()},
        }
        out.append((dict(zip(obs, values)), states[-1], states, diag))
    return out


# The sectors each tomography input populates in its own block's generator,
# for the kets gg, ge, eg, ee and then the pairs (gg, ge), (gg, eg),
# (gg, ee), (ge, eg), (ge, ee), (eg, ee), which come twice (j + k, j + ik).
TOMOGRAPHY_SECTORS = {
    "written": [[1], [5], [5], [6]]
    + 2 * [[5, 2, 2], [5, 2, 2], [6, 1, 1], [5], [6, 4, 4], [6, 4, 4]],
    "full": [[1], [10], [10], [26]]
    + 2 * [[10, 3, 3], [10, 3, 3], [26, 4, 4], [10], [26, 15, 15], [26, 15, 15]],
}


def sector_case(name: str):
    """Model and inputs of one solver batch, the grid, and for each input
    the sizes of the sectors it populates."""
    if name.startswith("transfer"):
        spec, model, times = transfer_case(int(name.split("-")[1]))
        return model, [dm(basis_ket((0, 1, 0), spec))], times, [[10]]
    if name == "single-sector":
        # sx mixes every entry of the qubit's density matrix: one sector.
        spec = HilbertSpec.spins_only(1)
        model = LindbladModel(qubit_ops()["sx"], [(qubit_ops()["sm"], 0.3)], spec)
        return model, [dm(basis_ket((0,), spec))], np.linspace(0.0, 5.0, 41), [[4]]
    if name == "diagonal-inputs":
        # The 4 computational inputs populate only the diagonal sector.
        model, rho0s, times = tomography_case(6)
        return model, rho0s[:4], times, TOMOGRAPHY_SECTORS["full"][:4]
    model, rho0s, times = tomography_case(None if name == "written" else int(name.split("-")[1]))
    return model, rho0s, times, TOMOGRAPHY_SECTORS["written" if name == "written" else "full"]


def assert_close(got, want, rel: float = 1e-12):
    """|got - want| <= rel * max(1, |want|) elementwise: states and
    populations are O(1), and roundoff-sized diagnostics compare against
    the same unit scale."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= rel * np.maximum(1.0, np.abs(want)))


def reach_sectors(gen: np.ndarray, seed: np.ndarray) -> list[np.ndarray]:
    """The former sector finder: one reach search (`dynamics._reachable`)
    per sector on the symmetric pattern, started at the smallest seed index
    that no sector found so far holds; the sectors that meet `seed`,
    largest first, equal sizes by smallest index."""
    linked = (gen != 0) | (gen != 0).T
    left = seed.copy()
    sectors = []
    while left.any():
        sectors.append(dynamics._reachable(np.arange(left.size) == np.argmax(left), [linked]))
        left[sectors[-1]] = False
    return sorted(sectors, key=lambda sector: (-sector.size, sector[0]))


def labelled_sectors(gen: np.ndarray, seed: np.ndarray) -> list[np.ndarray]:
    """An earlier sector finder: each index is labelled by the smallest
    index of its sector, the labels spreading along the symmetric pattern's
    edges with pointer jumping until they stop changing; the sectors that
    meet `seed`, in label order, then stably sorted largest first."""
    linked = (gen != 0) | (gen != 0).T
    label = np.arange(len(gen))
    while True:
        spread = np.minimum(label, np.min(np.where(linked, label, label.size), axis=1))
        spread = spread[spread]
        if np.array_equal(spread, label):
            break
        label = spread
    populated = np.zeros(label.size, dtype=bool)
    populated[label[seed]] = True
    sectors = [np.flatnonzero(label == first) for first in np.flatnonzero(populated)]
    return sorted(sectors, key=len, reverse=True)


class TestLiouvilleSectors:
    """The solver propagates each sector of an input's block generator (a
    connected component of its nonzero pattern) that the input populates;
    it must match the former dense-generator path."""

    CASES = [
        "transfer-6",
        "transfer-11",
        "written",
        "full-6",
        "full-11",
        "single-sector",
        "diagonal-inputs",
    ]

    @pytest.mark.parametrize("case", CASES)
    def test_matches_dense_generator_path(self, case, monkeypatch):
        model, rho0s, times, sizes = sector_case(case)
        # Both paths take every product in one summation order, so that
        # they differ by the sector split alone, not by how a BLAS kernel
        # rounds a 10 x 10 product and a 16 x 16 one (`ordered_matmul`).
        monkeypatch.setattr(dynamics, "_matmul", ordered_matmul)
        # The Pauli observables read every sector of the two-spin block.
        observables = pauli_observables(model.spec.dim) if len(rho0s) > 1 else None
        trajs, states = evolve_with_states(
            evolve_lindblad_batch, model, rho0s, times, observables=observables
        )
        want = former_evolve_lindblad_batch(model, rho0s, times, observables)
        assert len(trajs) == len(want)
        for traj, rebuilt, (series, final, former_states, diag), sectors in zip(
            trajs, states, want, sizes, strict=True
        ):
            assert list(traj.observables) == list(series)
            for name, values in series.items():
                assert_close(traj.observables[name], values)
            assert_close(traj.final_state, final)
            assert_close(rebuilt, former_states)
            got = dict(traj.diagnostics)
            assert got.pop("liouville_sectors") == sectors
            assert got.keys() == diag.keys()
            for key, value in diag.items():
                if isinstance(value, int):
                    assert got[key] == value
                else:
                    assert_close(got[key], value)

    @pytest.mark.parametrize("case", ["transfer-6", "diagonal-inputs"])
    def test_unpopulated_sectors_stay_exactly_zero(self, case):
        model, rho0s, times, _sizes = sector_case(case)
        _, states = evolve_with_states(evolve_lindblad_batch, model, rho0s, times)
        rates = [(op, rate) for op, rate in model.collapse if rate]
        for rho0, rho_t in zip(rho0s, states, strict=True):
            # The input's own block and the sectors it populates there.
            idx = reached_indices(model, [rho0])
            n = idx.size
            block = np.ix_(idx, idx)
            gen = liouvillian(model.hamiltonian[block], [(op[block], rate) for op, rate in rates])
            used = np.concatenate(dynamics._populated_sectors(gen, rho0[block].reshape(-1) != 0))
            empty = np.setdiff1d(np.arange(n * n), used)
            entries = rho_t[:, idx[:, None], idx].reshape(times.size, n * n)
            assert not np.any(entries[:, empty])
            if n > 1:  # but the ground state, a one-entry block that stays put
                assert len(dynamics._populated_sectors(gen, np.ones(n * n, dtype=bool))) > 1
                assert empty.size > 0
                assert np.ptp(np.abs(entries[:, used])) > 0.1  # the populated sectors move

    def test_sectors_are_the_connected_components(self):
        # Two chains 0-1-2 and 3-4 linked one way only, and an isolated 5.
        gen = np.zeros((6, 6), dtype=complex)
        gen[1, 0] = gen[2, 1] = gen[4, 3] = 1.0
        gen[5, 5] = -1.0
        sectors = dynamics._populated_sectors(gen, np.ones(6, dtype=bool))
        assert [s.tolist() for s in sectors] == [[0, 1, 2], [3, 4], [5]]
        seed = np.zeros(6, dtype=bool)
        seed[4] = True
        assert [s.tolist() for s in dynamics._populated_sectors(gen, seed)] == [[3, 4]]

    @pytest.mark.parametrize("cutoff", [6, 11])
    @pytest.mark.parametrize("scenario", ["state-transfer", "iswap-fidelity"])
    def test_scenario_sectors_match_labelled_oracle(self, scenario, cutoff):
        # The solver's own block generator and seed: state-transfer's input,
        # and the iswap-fidelity channel's 16 matrix units.
        if scenario == "state-transfer":
            spec, model, times = transfer_case(cutoff)
            populated = dm(basis_ket((0, 1, 0), spec)) != 0
        else:
            model, _, times = tomography_case(cutoff)
            populated = np.zeros((model.spec.dim,) * 2, dtype=bool)
            populated[:4, :4] = True
        _, _, _, idx, gen, sectors, _ = dynamics._sector_setup(
            model, times, populated, None, DEFAULT_STEP_SCALE
        )
        seed = populated[np.ix_(idx, idx)].reshape(-1)
        assert [s.tolist() for s in sectors] == [s.tolist() for s in labelled_sectors(gen, seed)]
        # Every sector of the generator, equal sizes among them.
        every = np.ones(gen.shape[0], dtype=bool)
        want = labelled_sectors(gen, every)
        assert len({s.size for s in want}) < len(want)
        got = dynamics._populated_sectors(gen, every)
        assert [s.tolist() for s in got] == [s.tolist() for s in want]

    def test_random_pattern_sectors_match_labelled_oracle(self):
        # Sectors of equal size scattered over the indices by a random
        # permutation, each a random chain plus random extra links.
        rng = np.random.default_rng(11)
        sizes = [5, 3, 3, 3, 2, 2, 1, 1, 1]
        n = sum(sizes)
        perm = rng.permutation(n)
        gen = np.zeros((n, n), dtype=complex)
        # Seeded at its largest index only, a sector is met in another order
        # than that of its smallest index.
        largest = np.zeros(n, dtype=bool)
        for members in np.split(perm, np.cumsum(sizes)[:-1]):
            for a, b in zip(members[:-1], members[1:]):
                gen[a, b] = gen[b, a] = rng.normal()
            a, b = rng.choice(members, size=2)
            gen[a, b] = gen[b, a] = 1.0
            largest[members.max()] = True
        for seed in (np.ones(n, dtype=bool), rng.random(n) < 0.4, largest):
            want = labelled_sectors(gen, seed)
            got = dynamics._populated_sectors(gen, seed)
            assert [s.tolist() for s in got] == [s.tolist() for s in want]
        assert [s.size for s in dynamics._populated_sectors(gen, np.ones(n, dtype=bool))] == sizes

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 40),
        symmetric=st.booleans(),
        data=st.data(),
    )
    def test_random_patterns_match_reach_oracle(self, n, symmetric, data):
        # Random links i -> j with complex weights, one way or both; few
        # enough to leave long chains and equal-size sectors.
        links = data.draw(
            st.lists(
                st.tuples(
                    st.integers(0, n - 1),
                    st.integers(0, n - 1),
                    st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3),
                ),
                max_size=n + 5,
            )
        )
        gen = np.zeros((n, n), dtype=complex)
        for i, j, value in links:
            gen[i, j] = value
            if symmetric:
                gen[j, i] = np.conj(value)
        seed = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        for mask in (seed, np.zeros(n, dtype=bool), np.ones(n, dtype=bool)):
            got = dynamics._populated_sectors(gen, mask)
            want = reach_sectors(gen, mask)
            assert [s.tolist() for s in got] == [s.tolist() for s in want]

    def test_sector_sizes_reach_the_report(self, tmp_path):
        report = run_scenario("iswap-fidelity", resolve("iswap-fidelity"), tmp_path).as_dict()
        integrator = report["info"]["integrator"]
        assert integrator["effective"]["liouville_sectors"] == [6, 4, 4, 1, 1]
        assert integrator["full"]["liouville_sectors"] == [26, 15, 15, 4, 4]


def blas_products(node: ast.AST) -> list[ast.AST]:
    """Every `a @ b`, np.matmul(...) and np.dot(...) under `node`."""
    found = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.MatMult):
            found.append(sub)
        elif (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Attribute)
            and sub.func.attr in ("matmul", "dot")
            and isinstance(sub.func.value, ast.Name)
            and sub.func.value.id == "np"
        ):
            found.append(sub)
    return found


class _NumpySpy:
    """numpy, with every np.matmul call's operand shapes and kinds recorded."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, a, b, out=None):
        self.calls.append((a.shape, b.shape, a.dtype.kind, b.dtype.kind))
        return np.matmul(a, b, out=out)


class TestProductBudget:
    """Every product in dynamics whose size grows with its inputs goes
    through the row-block helper `_matmul`, and each BLAS call it makes
    stays within BLOCK_MULADDS, so a threaded OpenBLAS never wakes its
    worker threads for it."""

    # Products whose every BLAS call has a fixed 16 x 16 size, whatever the
    # batch: numpy loops a stacked product over its (16, 16) slices.
    FIXED_16 = {
        "_kron(u, eye) @ (eye.reshape(-1) / np.sqrt(_GATE_DIM))",
        "vec.conj() @ np.asarray(choi, dtype=complex)",
    }

    def test_products_go_through_the_helper(self):
        source = Path(dynamics.__file__).read_text()
        tree = ast.parse(source)
        inside = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "_matmul":
                inside = {id(sub) for sub in blas_products(node)}
        assert inside, "the helper makes no product"
        outside = {
            ast.get_source_segment(source, node)
            for node in blas_products(tree)
            if id(node) not in inside
        }
        assert outside == self.FIXED_16

    @pytest.mark.parametrize(
        "scenario", ["iswap-fidelity", "rabi", "battery", "dispersive-check", "state-transfer"]
    )
    def test_scenario_calls_within_budget(self, scenario, tmp_path, monkeypatch):
        spy = _NumpySpy()
        monkeypatch.setattr(dynamics, "np", spy)
        run_scenario(scenario, resolve(scenario), tmp_path)
        # The spy sees the run: iswap-fidelity makes 1437 calls, the others 24 to 191.
        assert len(spy.calls) > (1000 if scenario == "iswap-fidelity" else 20)
        over = []
        for a_shape, b_shape, a_kind, b_kind in spy.calls:
            rows, k = a_shape
            n = b_shape[1] if len(b_shape) == 2 else 1
            cost = rows * k * n * (16 if n == 1 else 1)
            if "c" not in (a_kind, b_kind):
                cost /= 4  # a real multiply-add is a quarter of a complex one
            # Past the budget only where even two of its rows would be.
            if cost > dynamics.BLOCK_MULADDS and 2 * cost / rows <= dynamics.BLOCK_MULADDS:
                over.append((a_shape, b_shape, a_kind, b_kind))
        assert over == []
