"""Unit tests for the Hilbert-space layer: operators, states, embedding,
and partial traces."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerrspin.fock import (
    HilbertSpec,
    Subsystem,
    annihilation,
    basis_ket,
    dm,
    embed,
    expectation,
    ket,
    number_operator,
    partial_trace,
    qubit_ops,
)


class TestOperators:
    def test_annihilation_matrix_elements(self):
        a = annihilation(5)
        for n in range(1, 5):
            assert a[n - 1, n] == pytest.approx(np.sqrt(n))
        assert np.count_nonzero(a) == 4

    def test_truncated_commutator(self):
        # [a, a^dag] = 1 everywhere except the last diagonal entry, which
        # picks up the truncation artifact -(dim - 1).
        dim = 7
        a = annihilation(dim)
        comm = a @ a.conj().T - a.conj().T @ a
        expected = np.eye(dim)
        expected[-1, -1] = -(dim - 1)
        assert np.allclose(comm, expected, atol=1e-12)

    def test_number_operator_consistency(self):
        dim = 6
        a = annihilation(dim)
        assert np.allclose(a.conj().T @ a, number_operator(dim), atol=1e-12)

    def test_annihilation_rejects_tiny_dim(self):
        with pytest.raises(ValueError):
            annihilation(1)

    def test_qubit_algebra(self):
        q = qubit_ops()
        assert np.allclose(q["sz"], np.diag([-1.0, 1.0]))
        # sp raises ground (index 0) to excited (index 1).
        assert np.allclose(q["sp"] @ np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert np.allclose(q["sp"] @ q["sm"], np.diag([0.0, 1.0]))
        assert np.allclose(q["sp"] @ q["sm"] - q["sm"] @ q["sp"], q["sz"])
        # With sz = diag(-1, +1) the standard [sx, sy] = 2i diag(+1, -1)
        # picks up a sign against the package sz.
        assert np.allclose(q["sx"] @ q["sy"] - q["sy"] @ q["sx"], -2j * q["sz"])


class TestSpecs:
    def test_mode_and_spins_layout(self):
        spec = HilbertSpec.mode_and_spins(4, n_spins=2)
        assert spec.dims == (4, 2, 2)
        assert spec.dim == 16
        assert [s.label for s in spec.subsystems] == ["mode", "spin1", "spin2"]
        assert spec.index("spin2") == 2

    def test_single_spin_label(self):
        spec = HilbertSpec.mode_and_spins(3)
        assert [s.label for s in spec.subsystems] == ["mode", "spin"]

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            HilbertSpec((Subsystem("x", 2), Subsystem("x", 3)))

    def test_unknown_label_lookup(self):
        spec = HilbertSpec.spins_only(2)
        with pytest.raises(KeyError):
            spec.index("mode")


class TestStates:
    def test_basis_ket_indexing(self):
        # First subsystem varies slowest: (n, s) -> n * 2 + s.
        spec = HilbertSpec.mode_and_spins(3)
        v = basis_ket((2, 1), spec)
        assert v[2 * 2 + 1] == pytest.approx(1.0)
        assert np.count_nonzero(v) == 1

    def test_ket_normalizes(self):
        spec = HilbertSpec.spins_only(1)
        v = ket({(0,): 3.0, (1,): 4.0}, spec)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)
        assert v[0] == pytest.approx(0.6)

    def test_ket_rejects_bad_labels(self):
        spec = HilbertSpec.mode_and_spins(3)
        with pytest.raises(ValueError):
            ket({(3, 0): 1.0}, spec)
        with pytest.raises(ValueError):
            ket({(0,): 1.0}, spec)
        with pytest.raises(ValueError):
            ket({(0, 0): 0.0}, spec)

    def test_dm_shapes(self):
        v = np.array([1.0, 1.0j]) / np.sqrt(2)
        rho = dm(v)
        assert rho.shape == (2, 2)
        assert np.trace(rho) == pytest.approx(1.0)
        assert np.allclose(dm(rho), rho)
        with pytest.raises(ValueError):
            dm(np.zeros((2, 3)))

    def test_expectation_vector_and_matrix_agree(self):
        q = qubit_ops()
        v = ket({(0,): 1.0, (1,): 1.0}, HilbertSpec.spins_only(1))
        assert expectation(q["sx"], v) == pytest.approx(1.0)
        assert expectation(q["sx"], dm(v)) == pytest.approx(1.0)
        # Non-Hermitian operators come back complex.
        val = expectation(q["sp"], v)
        assert isinstance(val, complex)
        assert val == pytest.approx(0.5)


class TestEmbedding:
    def test_embed_slot_ordering(self):
        spec = HilbertSpec.mode_and_spins(3)
        n_full = embed(number_operator(3), 0, spec)
        v = basis_ket((2, 0), spec)
        assert expectation(n_full, v) == pytest.approx(2.0)
        sz_full = embed(qubit_ops()["sz"], 1, spec)
        assert expectation(sz_full, v) == pytest.approx(-1.0)

    def test_embed_matches_explicit_kron(self):
        spec = HilbertSpec.mode_and_spins(3, n_spins=2)
        q = qubit_ops()
        lifted = embed(q["sx"], 1, spec)
        direct = np.kron(np.kron(np.eye(3), q["sx"]), np.eye(2))
        assert np.allclose(lifted, direct)

    def test_embed_validates_inputs(self):
        spec = HilbertSpec.mode_and_spins(3)
        with pytest.raises(IndexError):
            embed(qubit_ops()["sx"], 2, spec)
        with pytest.raises(ValueError):
            embed(qubit_ops()["sx"], 0, spec)


class TestPartialTrace:
    def test_product_state_recovery(self):
        spec = HilbertSpec.mode_and_spins(3)
        v = basis_ket((1, 1), spec)
        rho_mode = partial_trace(dm(v), 0, spec)
        rho_spin = partial_trace(dm(v), 1, spec)
        assert np.allclose(rho_mode, np.diag([0.0, 1.0, 0.0]))
        assert np.allclose(rho_spin, np.diag([0.0, 1.0]))

    def test_bell_state_marginal_is_maximally_mixed(self):
        spec = HilbertSpec.spins_only(2)
        bell = ket({(0, 0): 1.0, (1, 1): 1.0}, spec)
        for slot in (0, 1):
            assert np.allclose(partial_trace(dm(bell), slot, spec), np.eye(2) / 2)

    def test_tuple_keep_recovers_joint_block(self):
        # Keep both spins of a mode x spin1 x spin2 product state.
        spec = HilbertSpec.mode_and_spins(3, n_spins=2)
        v = basis_ket((2, 0, 1), spec)
        rho12 = partial_trace(dm(v), (1, 2), spec)
        expected = dm(basis_ket((0, 1), HilbertSpec.spins_only(2)))
        assert np.allclose(rho12, expected)

    def test_tuple_keep_order_is_respected(self):
        spec = HilbertSpec.mode_and_spins(2, n_spins=2)
        v = basis_ket((0, 0, 1), spec)
        rho21 = partial_trace(dm(v), (2, 1), spec)
        expected = dm(basis_ket((1, 0), HilbertSpec.spins_only(2)))
        assert np.allclose(rho21, expected)

    def test_keep_validation(self):
        spec = HilbertSpec.spins_only(2)
        rho = np.eye(4) / 4
        with pytest.raises(IndexError):
            partial_trace(rho, 5, spec)
        with pytest.raises(IndexError):
            partial_trace(rho, (0, 0), spec)

    @pytest.mark.parametrize("keep", [(1, 2), (2, 1), 0, 2])
    def test_batched_matches_per_slice(self, keep):
        spec = HilbertSpec.mode_and_spins(3, n_spins=2)
        rng = np.random.default_rng(7)
        d = spec.dim
        a = rng.normal(size=(5, d, d)) + 1j * rng.normal(size=(5, d, d))
        rhos = a @ a.conj().transpose(0, 2, 1)
        rhos /= np.einsum("tii->t", rhos)[:, None, None]
        batched = partial_trace(rhos, keep, spec)
        per_slice = np.stack([partial_trace(r, keep, spec) for r in rhos])
        assert batched.shape == per_slice.shape
        assert np.max(np.abs(batched - per_slice)) <= 1e-15
        # Two batch axes reshape through unchanged.
        stacked = partial_trace(rhos.reshape(5, 1, d, d), keep, spec)
        assert np.max(np.abs(stacked[:, 0] - per_slice)) <= 1e-15

    @given(st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=1))
    @settings(max_examples=25, deadline=None)
    def test_trace_preserved(self, n, s):
        spec = HilbertSpec.mode_and_spins(3)
        rho = dm(basis_ket((n, s), spec))
        for slot in (0, 1):
            reduced = partial_trace(rho, slot, spec)
            assert np.trace(reduced).real == pytest.approx(1.0, abs=1e-12)
