"""Finite-dimensional Fock spaces, operators, and states.

Composite systems are ordered tuples of subsystems. The first subsystem
occupies the slowest-varying index of the Kronecker product, so for a
spec ``(magnon, spin)`` the joint basis index is ``i_m * dim_spin + i_s``.

Qubit basis convention: index 0 is the ground state, index 1 the excited
state. ``sigma_z`` is ``diag(-1, +1)`` in that basis, so the bare qubit
Hamiltonian ``(omega/2) * sigma_z`` puts the ground state at ``-omega/2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Numerical guard rails used across the package.
HERMITICITY_TOL = 1e-12
NORM_TOL = 1e-10
POSITIVITY_FLOOR = -1e-8


@dataclass(frozen=True)
class Subsystem:
    """One tensor factor: a label plus its Hilbert-space dimension."""

    label: str
    dim: int

    def __post_init__(self) -> None:
        if self.dim < 2:
            raise ValueError(f"subsystem {self.label!r} needs dim >= 2, got {self.dim}")
        if not self.label:
            raise ValueError("subsystem label must be non-empty")


@dataclass(frozen=True)
class HilbertSpec:
    """Ordered collection of subsystems defining a composite space."""

    subsystems: tuple[Subsystem, ...]

    def __post_init__(self) -> None:
        labels = [s.label for s in self.subsystems]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate subsystem labels: {labels}")
        if not self.subsystems:
            raise ValueError("HilbertSpec needs at least one subsystem")

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(s.dim for s in self.subsystems)

    @property
    def dim(self) -> int:
        return int(np.prod(self.dims))

    @staticmethod
    def mode_and_spins(cutoff: int, n_spins: int = 1) -> "HilbertSpec":
        """Bosonic mode (truncated at ``cutoff`` levels) plus qubits.

        Spin labels are "spin" for a single qubit and "spin1", "spin2",
        ... otherwise, matching the two-spin naming in reports.
        """
        subs = [Subsystem("mode", cutoff)]
        for k in range(n_spins):
            subs.append(Subsystem(f"spin{k + 1}" if n_spins > 1 else "spin", 2))
        return HilbertSpec(tuple(subs))

    @staticmethod
    def spins_only(n_spins: int) -> "HilbertSpec":
        """Qubit register with no bosonic mode (labels spin1, spin2, ...)."""
        if n_spins < 1:
            raise ValueError("need at least one spin")
        subs = [Subsystem(f"spin{k + 1}" if n_spins > 1 else "spin", 2) for k in range(n_spins)]
        return HilbertSpec(tuple(subs))


def annihilation(dim: int) -> np.ndarray:
    """Truncated bosonic annihilation operator: sqrt(n) on the superdiagonal."""
    if dim < 2:
        raise ValueError("annihilation needs dim >= 2")
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), 1).astype(complex)


def number_operator(dim: int) -> np.ndarray:
    return np.diag(np.arange(dim, dtype=float)).astype(complex)


def qubit_ops() -> dict[str, np.ndarray]:
    """Pauli set in the (ground, excited) = (index 0, index 1) basis.

    ``sp`` raises ground to excited; ``sm`` lowers. ``sz`` = diag(-1, +1).
    """
    sp = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    return {
        "sp": sp,
        "sm": sp.conj().T,
        "sz": np.diag([-1.0, 1.0]).astype(complex),
        "sx": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
        "sy": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
        "id": np.eye(2, dtype=complex),
    }


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron(a, b) for a matrix `a`, without np.kron's call overhead.

    The result forms the same complex products as np.kron, so it is bit
    for bit equal to it. Leading axes of `b` are batch axes.
    """
    (m, n), (p, q) = a.shape, b.shape[-2:]
    return (a[:, None, :, None] * b[..., None, :, None, :]).reshape(b.shape[:-2] + (m * p, n * q))


def embed(op: np.ndarray, slot: int, spec: HilbertSpec) -> np.ndarray:
    """Lift a single-subsystem operator into the composite space."""
    return embed_product({slot: op}, spec)


def embed_product(factors: dict[int, np.ndarray], spec: HilbertSpec) -> np.ndarray:
    """Lift a product of operators on distinct subsystems, given as
    {slot: op}, into the composite space.

    One Kronecker chain over the slots, with the identity on every slot
    that has no factor, so no two composite-space operators are ever
    multiplied. With two or more factors the result equals the matrix
    product of their one-factor embeds bit for bit: each nonzero entry is
    the same single product, and adding 0.0 turns the chain's -0.0 parts
    into the +0.0 that the product's sums give.
    """
    dims = spec.dims
    if not factors:
        raise ValueError("embed_product needs at least one factor")
    for slot, op in factors.items():
        if not 0 <= slot < len(dims):
            raise IndexError(f"slot {slot} out of range for {len(dims)} subsystems")
        if op.shape != (dims[slot], dims[slot]):
            raise ValueError(
                f"operator shape {op.shape} does not match subsystem dim {dims[slot]}"
            )
    slots = sorted(factors)
    out = np.eye(math.prod(dims[: slots[0]]), dtype=complex)
    for prev, slot in zip([slots[0] - 1] + slots, slots):
        between = math.prod(dims[prev + 1 : slot])
        if between > 1:
            out = _kron(out, np.eye(between, dtype=complex))
        out = _kron(out, factors[slot])
    out = _kron(out, np.eye(math.prod(dims[slots[-1] + 1 :]), dtype=complex))
    return out + 0.0 if len(slots) > 1 else out


def ket(amplitudes: dict[tuple[int, ...], complex], spec: HilbertSpec) -> np.ndarray:
    """Build a normalized state vector from basis-label amplitudes."""
    dims = spec.dims
    v = np.zeros(spec.dim, dtype=complex)
    for labels, amp in amplitudes.items():
        if len(labels) != len(dims):
            raise ValueError(f"label tuple {labels} does not match {len(dims)} subsystems")
        idx = 0
        for lab, d in zip(labels, dims):
            if not 0 <= lab < d:
                raise ValueError(f"basis label {lab} out of range for dim {d}")
            idx = idx * d + lab
        v[idx] = amp
    norm = np.linalg.norm(v)
    if norm == 0:
        raise ValueError("state has zero norm")
    return v / norm


def basis_ket(labels: tuple[int, ...], spec: HilbertSpec) -> np.ndarray:
    """Computational basis vector for one occupation-label tuple."""
    return ket({labels: 1.0}, spec)


def dm(state: np.ndarray) -> np.ndarray:
    """Density matrix from a state vector (or pass a density matrix through)."""
    state = np.asarray(state, dtype=complex)
    if state.ndim == 1:
        return np.outer(state, state.conj())
    if state.ndim == 2 and state.shape[0] == state.shape[1]:
        return state
    raise ValueError(f"expected vector or square matrix, got shape {state.shape}")


def partial_trace(rho: np.ndarray, keep: int | tuple[int, ...], spec: HilbertSpec) -> np.ndarray:
    """Trace out all subsystems except ``keep`` (slot index or tuple of
    slot indices, which are kept in the order given).

    Leading axes of ``rho`` (..., d, d) are batch axes.
    """
    dims = spec.dims
    n = len(dims)
    kept = (keep,) if isinstance(keep, int) else tuple(keep)
    if len(set(kept)) != len(kept):
        raise IndexError("keep slots must be distinct")
    for k in kept:
        if not 0 <= k < n:
            raise IndexError(f"keep={k} out of range")
    rho = np.asarray(rho, dtype=complex)
    batch = rho.shape[:-2]
    rho = rho.reshape(batch + dims + dims)
    # Contract each traced slot's bra index with its ket index.
    src = list(range(2 * n))
    for i in range(n):
        if i not in kept:
            src[n + i] = src[i]
    out_idx = list(kept) + [n + k for k in kept]
    out = np.einsum(rho, [..., *src], [..., *out_idx])
    d_keep = 1
    for k in kept:
        d_keep *= dims[k]
    return out.reshape(batch + (d_keep, d_keep))

