"""The model builders against frozen copies of their earlier forms.

Each builder used to embed the mode and spin operators itself and check
the slot convention on its own. The copies below are those earlier
builders, kept verbatim as the oracle for the shared-operator forms:
the squeezed-frame and effective builders must reproduce them bit for
bit, the nonlinear and linearized ones (whose number operator is now the
exact embedded diagonal instead of the product a'a) to 1e-12 relative.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from kerrspin.fock import HilbertSpec, Subsystem, annihilation, embed, number_operator, qubit_ops
from kerrspin.hamiltonians import (
    LinearizedParams,
    SqueezedFrame,
    effective_coupling,
    effective_spin_spin_hamiltonian,
    linearized_hamiltonian,
    nonlinear_hamiltonian,
    rabi_hamiltonian,
    squeeze_frame,
    squeezed_exact_hamiltonian,
    tavis_cummings_hamiltonian,
)

CUTOFFS = (2, 3, 6, 11, 40)
FRAME = SqueezedFrame(squeezing=0.4, mode_detuning=2.7, coupling=0.37)
DELTA_Q = 1.3
LIN = LinearizedParams(delta_m=5.0, delta_q=1.3, mean_amplitude=0j, kerr2=math.tanh(0.8) * 5.0)


# ---------------------------------------------------------------------------
# Frozen copies of the earlier builders
# ---------------------------------------------------------------------------


def _old_parts(spec):
    spin_slots = list(range(1, len(spec.subsystems)))
    for i in spin_slots:
        if spec.subsystems[i].dim != 2:
            raise ValueError(f"subsystem {spec.subsystems[i].label!r} must be a qubit (dim 2)")
    return 0, spin_slots


def _old_exchange(spec, spin_slot):
    a = embed(annihilation(spec.dims[0]), 0, spec)
    sp = embed(qubit_ops()["sp"], spin_slot, spec)
    sm = sp.conj().T
    return sp @ a + a.conj().T @ sm, sp @ a.conj().T + a @ sm


def old_nonlinear(spec, omega_q, omega_m, kerr, g):
    mode_slot, spin_slots = _old_parts(spec)
    a = embed(annihilation(spec.dims[mode_slot]), mode_slot, spec)
    n = a.conj().T @ a
    ops = qubit_ops()
    sz = embed(ops["sz"], spin_slots[0], spec)
    sp = embed(ops["sp"], spin_slots[0], spec)
    return (
        0.5 * omega_q * sz
        + omega_m * n
        - 0.5 * kerr * (n @ n - n)
        + g * (sp @ a + a.conj().T @ sp.conj().T)
    )


def old_linearized(spec, lin, g=0.0):
    cutoff = spec.dims[0]
    if len(spec.subsystems) == 1:
        a_local = annihilation(cutoff)
        n_local = number_operator(cutoff)
        return lin.delta_m * n_local - 0.5 * lin.kerr2 * (
            a_local @ a_local + a_local.conj().T @ a_local.conj().T
        )
    mode_slot, spin_slots = _old_parts(spec)
    a = embed(annihilation(cutoff), mode_slot, spec)
    n = a.conj().T @ a
    ops = qubit_ops()
    sz = embed(ops["sz"], spin_slots[0], spec)
    sp = embed(ops["sp"], spin_slots[0], spec)
    return (
        lin.delta_m * n
        - 0.5 * lin.kerr2 * (a @ a + a.conj().T @ a.conj().T)
        + 0.5 * lin.delta_q * sz
        + g * (sp @ a + a.conj().T @ sp.conj().T)
    )


def old_rabi(spec, frame, delta_q):
    mode_slot, spin_slots = _old_parts(spec)
    n = embed(number_operator(spec.dims[mode_slot]), mode_slot, spec)
    sz = embed(qubit_ops()["sz"], spin_slots[0], spec)
    co, counter = _old_exchange(spec, spin_slots[0])
    return 0.5 * delta_q * sz + frame.mode_detuning * n + frame.coupling * (co + counter)


def old_squeezed_exact(spec, lin, g, delta_q=None):
    if delta_q is None:
        delta_q = lin.delta_q
    frame = squeeze_frame(lin, g)
    _, spin_slots = _old_parts(spec)
    base = old_rabi(spec, frame, delta_q)
    co, counter = _old_exchange(spec, spin_slots[0])
    return base + 0.5 * g * math.exp(-frame.squeezing) * (co - counter)


def old_tavis_cummings(spec, frame, delta_q):
    mode_slot, spin_slots = _old_parts(spec)
    n = embed(number_operator(spec.dims[mode_slot]), mode_slot, spec)
    h = frame.mode_detuning * n
    for slot in spin_slots:
        sz = embed(qubit_ops()["sz"], slot, spec)
        co, _ = _old_exchange(spec, slot)
        h = h + 0.5 * delta_q * sz + frame.coupling * co
    return h


def old_effective(delta_q, delta_minus, coupling):
    g_eff = effective_coupling(coupling, delta_minus)
    omega_eff = delta_q**2 / delta_minus  # the printed (1 + 2n) factor at mode occupation n = 0
    spec = HilbertSpec.spins_only(2)
    ops = qubit_ops()
    sz1 = embed(ops["sz"], 0, spec)
    sz2 = embed(ops["sz"], 1, spec)
    sp1 = embed(ops["sp"], 0, spec)
    sp2 = embed(ops["sp"], 1, spec)
    exchange = sp1 @ sp2.conj().T + sp2 @ sp1.conj().T
    return 0.5 * omega_eff * (sz1 + sz2) + g_eff * exchange


# ---------------------------------------------------------------------------
# Oracle comparisons
# ---------------------------------------------------------------------------


def assert_close(new: np.ndarray, old: np.ndarray) -> None:
    assert new.shape == old.shape
    assert np.max(np.abs(new - old)) <= 1e-12 * np.max(np.abs(old))


@pytest.mark.parametrize("cutoff", CUTOFFS)
class TestBitIdentical:
    def test_rabi(self, cutoff):
        spec = HilbertSpec.mode_and_spins(cutoff, 1)
        new = rabi_hamiltonian(spec, FRAME, DELTA_Q)
        assert np.array_equal(new, old_rabi(spec, FRAME, DELTA_Q))

    @pytest.mark.parametrize("spins", [1, 2])
    def test_tavis_cummings(self, cutoff, spins):
        spec = HilbertSpec.mode_and_spins(cutoff, spins)
        new = tavis_cummings_hamiltonian(spec, FRAME, DELTA_Q)
        assert np.array_equal(new, old_tavis_cummings(spec, FRAME, DELTA_Q))

    @pytest.mark.parametrize("delta_q", [None, 0.9])
    def test_squeezed_exact(self, cutoff, delta_q):
        spec = HilbertSpec.mode_and_spins(cutoff, 1)
        new = squeezed_exact_hamiltonian(spec, LIN, 0.61, delta_q)
        assert np.array_equal(new, old_squeezed_exact(spec, LIN, 0.61, delta_q))

    def test_effective_spin_spin(self, cutoff):
        # No mode: the cutoff only varies the coupling fed to the builder.
        args = (DELTA_Q, 7.3, 0.037 * cutoff)
        assert np.array_equal(effective_spin_spin_hamiltonian(*args), old_effective(*args))


@pytest.mark.parametrize("cutoff", CUTOFFS)
class TestWithinRoundoff:
    def test_nonlinear(self, cutoff):
        spec = HilbertSpec.mode_and_spins(cutoff, 1)
        args = (3.1, 7.3, 0.41, 0.67)
        assert_close(nonlinear_hamiltonian(spec, *args), old_nonlinear(spec, *args))

    def test_linearized_mode_only(self, cutoff):
        spec = HilbertSpec((Subsystem("mode", cutoff),))
        assert_close(linearized_hamiltonian(spec, LIN), old_linearized(spec, LIN))

    @pytest.mark.parametrize("g", [0.0, 0.53])
    def test_linearized_one_spin(self, cutoff, g):
        spec = HilbertSpec.mode_and_spins(cutoff, 1)
        assert_close(linearized_hamiltonian(spec, LIN, g), old_linearized(spec, LIN, g))


# ---------------------------------------------------------------------------
# The slot convention and the spin count, checked for every builder
# ---------------------------------------------------------------------------

BUILDERS = {
    "nonlinear_hamiltonian": lambda spec: nonlinear_hamiltonian(spec, 3.1, 7.3, 0.41, 0.67),
    "linearized_hamiltonian": lambda spec: linearized_hamiltonian(spec, LIN, 0.53),
    "rabi_hamiltonian": lambda spec: rabi_hamiltonian(spec, FRAME, DELTA_Q),
    "squeezed_exact_hamiltonian": lambda spec: squeezed_exact_hamiltonian(spec, LIN, 0.61),
    "tavis_cummings_hamiltonian": lambda spec: tavis_cummings_hamiltonian(spec, FRAME, DELTA_Q),
}
ONE_SPIN = [name for name in BUILDERS if name != "tavis_cummings_hamiltonian"]


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_non_qubit_slot_rejected(name):
    spec = HilbertSpec((Subsystem("mode", 4), Subsystem("spin", 3)))
    with pytest.raises(ValueError, match=name):
        BUILDERS[name](spec)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_mode_only_spec_rejected(name):
    # The linearized builder takes a mode-only spec only without coupling.
    with pytest.raises(ValueError, match=name):
        BUILDERS[name](HilbertSpec((Subsystem("mode", 4),)))


@pytest.mark.parametrize("name", ONE_SPIN)
def test_two_spins_rejected_by_one_spin_builder(name):
    with pytest.raises(ValueError, match=name):
        BUILDERS[name](HilbertSpec.mode_and_spins(4, 2))
