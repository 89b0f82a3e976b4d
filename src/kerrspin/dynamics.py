"""Time evolution and gate metrics.

Unitary runs use one eigendecomposition of the (time-independent)
Hamiltonian, so they carry no step error. Open-system runs vectorize the
density matrix row-major and build the generator

    L = -i(H (x) I - I (x) H^T)
        + sum_k rate_k [ C (x) conj(C) - 1/2 (C'C (x) I + I (x) (C'C)^T) ]

then advance each uniform grid interval with a 4th-order Taylor
propagator per substep, composed by repeated squaring. For a linear
generator this reproduces the classical 4th-order Runge-Kutta update
exactly while costing a handful of matrix products per run. The substep
obeys step * (max |eig(H)| + max rate) <= 0.1, with the scale taken from
the full model; the default substep is a tenth of that ceiling.

The generator is built on a coordinate subspace only: the basis states
reachable from the support of the initial states through the nonzero
pattern of H, of every collapse operator with a nonzero rate, and of
each such C'C. Each of these operators A maps the span S of the reached
states into itself (AP = PAP for the projector P onto S, so also
PA' = PA'P), hence every term of the master equation maps a density
matrix supported on S x S to another one and the states never leave
that block. Evolving the projected operators is exact, not a
truncation. C'C must be in the search: the anticommutator term can leave
a set that is closed under C alone. Excitation-conserving models shrink
most; results are zero-padded back to the full space.

Gate metrics reconstruct the two-qubit channel from 16 physical inputs
(4 computational states, 6 real and 6 imaginary two-state
superpositions), assemble the Choi matrix, and score it against the
ideal excitation-swap gate, optionally maximizing over the two local
z-phases (closed-form trigonometric polynomial, deterministic search).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from kerrspin.fock import (
    HERMITICITY_TOL,
    NORM_TOL,
    POSITIVITY_FLOOR,
    HilbertSpec,
    annihilation,
    dm,
    embed,
    number_operator,
    qubit_ops,
)

TRACE_TOL = 1e-8
STEP_BUDGET = 0.1  # max allowed step * spectral scale
DEFAULT_STEP_SCALE = 0.1  # default substep as a fraction of the ceiling
TP_DEFECT_TOL = 1e-6


class DiagnosticsError(RuntimeError):
    """A physicality check failed during or after an evolution run."""


class StepSizeError(ValueError):
    """Requested integrator step violates the stability ceiling."""


def _check_hermitian(h: np.ndarray) -> np.ndarray:
    h = np.asarray(h, dtype=complex)
    scale = max(1.0, float(np.max(np.abs(h))))
    if np.max(np.abs(h - h.conj().T)) > HERMITICITY_TOL * scale:
        raise ValueError("hamiltonian is not hermitian")
    return h


@dataclass
class LindbladModel:
    """Hamiltonian plus collapse channels on one Hilbert space."""

    hamiltonian: np.ndarray
    collapse: list[tuple[np.ndarray, float]]
    spec: HilbertSpec

    def __post_init__(self) -> None:
        h = np.asarray(self.hamiltonian, dtype=complex)
        d = self.spec.dim
        if h.shape != (d, d):
            raise ValueError(f"hamiltonian shape {h.shape} does not match spec dim {d}")
        self.hamiltonian = _check_hermitian(h)
        ops = []
        for op, rate in self.collapse:
            op = np.asarray(op, dtype=complex)
            if op.shape != (d, d):
                raise ValueError("collapse operator shape mismatch")
            if rate < 0:
                raise ValueError("collapse rates must be >= 0")
            ops.append((op, float(rate)))
        self.collapse = ops

    @property
    def max_rate(self) -> float:
        return max((rate for _, rate in self.collapse), default=0.0)


@dataclass
class Trajectory:
    """Observable series over a time grid plus run diagnostics."""

    times: np.ndarray
    observables: dict[str, np.ndarray]
    final_state: np.ndarray
    diagnostics: dict = field(default_factory=dict)
    states: np.ndarray | None = None


def default_population_observables(spec: HilbertSpec) -> dict[str, np.ndarray]:
    """Number operator per boson, excited-state projector per qubit."""
    out: dict[str, np.ndarray] = {}
    excited = qubit_ops()["sp"] @ qubit_ops()["sm"]
    for slot, sub in enumerate(spec.subsystems):
        if sub.dim == 2 and sub.label != "mode":
            local = excited
        else:
            local = number_operator(sub.dim)
        out[f"pop_{sub.label}"] = embed(local, slot, spec)
    return out


def populations(traj: Trajectory, label: str) -> np.ndarray:
    """Occupation series recorded for one subsystem label."""
    key = f"pop_{label}"
    if key not in traj.observables:
        raise ValueError(f"unknown subsystem {label!r}; have {sorted(traj.observables)}")
    return traj.observables[key]


def _validate_times(times: np.ndarray) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 2:
        raise ValueError("times must be a 1-D grid with at least two points")
    if not np.all(np.diff(times) > 0):
        raise ValueError("times must be strictly increasing")
    return times


def evolve_unitary(
    h: np.ndarray,
    psi0: np.ndarray,
    times: np.ndarray,
    spec: HilbertSpec | None = None,
    observables: dict[str, np.ndarray] | None = None,
    keep_states: bool = False,
) -> Trajectory:
    """Closed-system evolution by eigendecomposition (no step error)."""
    h = _check_hermitian(h)
    times = _validate_times(times)
    psi0 = np.asarray(psi0, dtype=complex).reshape(-1)
    if psi0.shape[0] != h.shape[0]:
        raise ValueError("state dimension does not match hamiltonian")
    norm0 = np.linalg.norm(psi0)
    if abs(norm0 - 1.0) > NORM_TOL:
        raise ValueError(f"initial state norm {norm0} deviates from 1")

    evals, vecs = np.linalg.eigh(h)
    coeff = vecs.conj().T @ psi0
    phases = np.exp(-1j * np.outer(evals, times))
    states = (vecs @ (phases * coeff[:, None])).T  # (T, d)

    norms = np.linalg.norm(states, axis=1)
    norm_drift = float(np.max(np.abs(norms - 1.0)))
    if norm_drift > NORM_TOL:
        raise DiagnosticsError(f"unitary norm drift {norm_drift:.3e} exceeds {NORM_TOL}")

    obs = dict(observables or {})
    if spec is not None:
        for name, op in default_population_observables(spec).items():
            obs.setdefault(name, op)
    series = {
        name: np.einsum("ti,ij,tj->t", states.conj(), op, states).real
        for name, op in obs.items()
    }
    diagnostics = {
        "method": "eigendecomposition",
        "norm_drift": norm_drift,
        "step_error": 0.0,
    }
    return Trajectory(
        times=times,
        observables=series,
        final_state=states[-1],
        diagnostics=diagnostics,
        states=states if keep_states else None,
    )


def liouvillian(h: np.ndarray, collapse: list[tuple[np.ndarray, float]]) -> np.ndarray:
    """Vectorized generator (row-major convention) of H and its collapse channels."""
    d = h.shape[0]
    eye = np.eye(d, dtype=complex)
    gen = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for op, rate in collapse:
        if rate == 0.0:
            continue
        opdop = op.conj().T @ op
        gen += rate * (
            np.kron(op, op.conj())
            - 0.5 * (np.kron(opdop, eye) + np.kron(eye, opdop.T))
        )
    return gen


def _reachable(seed: np.ndarray, ops: list[np.ndarray]) -> np.ndarray:
    """Sorted basis indices reachable from the boolean mask `seed`.

    Breadth-first search over the nonzero pattern of `ops`: index j
    reaches i when some op[i, j] != 0. The result spans the smallest
    coordinate subspace that contains the seed and that every op maps
    into itself.
    """
    adjacent = np.zeros((seed.size, seed.size), dtype=bool)
    for op in ops:
        adjacent |= op != 0
    reached = seed.copy()
    frontier = seed
    while frontier.any():
        frontier = adjacent[:, frontier].any(axis=1) & ~reached
        reached |= frontier
    return np.flatnonzero(reached)


def spectral_scale(model: LindbladModel) -> float:
    """max |eig(H)| plus the largest collapse rate; sets the step ceiling."""
    evals = np.linalg.eigvalsh(model.hamiltonian)
    return float(np.max(np.abs(evals))) + model.max_rate


def _taylor4(gen_h: np.ndarray) -> np.ndarray:
    """I + X + X^2/2 + X^3/6 + X^4/24 for X = generator * substep."""
    eye = np.eye(gen_h.shape[0], dtype=complex)
    x2 = gen_h @ gen_h
    x3 = x2 @ gen_h
    x4 = x3 @ gen_h
    return eye + gen_h + x2 / 2.0 + x3 / 6.0 + x4 / 24.0


def _interval_propagator(gen: np.ndarray, dt: float, h_req: float) -> tuple[np.ndarray, int]:
    """Propagator across one grid interval: Taylor-4 substeps, squared up.

    The substep count is the smallest power of two with dt/k <= h_req, so
    halving the requested step exactly doubles the substeps.
    """
    k = 1
    while dt / k > h_req:
        k *= 2
    prop = _taylor4(gen * (dt / k))
    steps = k
    while steps > 1:
        prop = prop @ prop
        steps //= 2
    return prop, k


def _resolve_step(model: LindbladModel, step: float | None, step_scale: float) -> tuple[float, float]:
    scale = spectral_scale(model)
    if scale == 0.0:
        return np.inf, scale
    ceiling = STEP_BUDGET / scale
    if step is not None:
        if step <= 0:
            raise StepSizeError("step must be > 0")
        if step > ceiling:
            raise StepSizeError(
                f"step {step:.6e} exceeds stability ceiling {ceiling:.6e} "
                f"(step * spectral scale must stay <= {STEP_BUDGET})"
            )
        return step, scale
    if not 0 < step_scale <= 1:
        raise StepSizeError("step_scale must lie in (0, 1]")
    return step_scale * ceiling, scale


def _validate_rho0(rho0: np.ndarray, d: int) -> np.ndarray:
    rho = dm(np.asarray(rho0, dtype=complex))
    if rho.shape != (d, d):
        raise ValueError("initial state dimension mismatch")
    if abs(np.trace(rho).real - 1.0) > NORM_TOL:
        raise ValueError("initial state trace deviates from 1")
    if np.max(np.abs(rho - rho.conj().T)) > NORM_TOL:
        raise ValueError("initial state is not hermitian")
    if float(np.min(np.linalg.eigvalsh(rho))) < POSITIVITY_FLOOR:
        raise ValueError("initial state is not positive semidefinite")
    return rho


def evolve_lindblad_batch(
    model: LindbladModel,
    rho0_list: list[np.ndarray],
    times: np.ndarray,
    observables: dict[str, np.ndarray] | None = None,
    step: float | None = None,
    step_scale: float = DEFAULT_STEP_SCALE,
    keep_states: bool = False,
) -> list[Trajectory]:
    """Open-system evolution of several initial states under one model.

    The generator and interval propagators are built once and shared, so
    batching the 16 tomography inputs costs little more than one run.
    They are built on the coordinate subspace the inputs can reach (see
    the module docstring); the substep still comes from the full model.
    """
    times = _validate_times(times)
    d = model.spec.dim
    rhos0 = [_validate_rho0(r, d) for r in rho0_list]
    h_req, scale = _resolve_step(model, step, step_scale)

    rates = [(op, rate) for op, rate in model.collapse if rate != 0.0]
    seed = np.zeros(d, dtype=bool)
    for rho in rhos0:
        seed |= np.any(rho != 0, axis=1)
    idx = _reachable(
        seed, [model.hamiltonian] + [op for op, _ in rates] + [op.conj().T @ op for op, _ in rates]
    )
    block = np.ix_(idx, idx)
    n = idx.size
    gen = liouvillian(model.hamiltonian[block], [(op[block], rate) for op, rate in rates])
    rhos0 = [rho[block] for rho in rhos0]

    n_in = len(rhos0)
    n_t = times.size
    states = np.empty((n_in, n_t, n, n), dtype=complex)
    for i, rho in enumerate(rhos0):
        states[i, 0] = rho

    vecs = np.stack([rho.reshape(-1) for rho in rhos0], axis=1)  # (n*n, n_in)
    diffs = np.diff(times)
    uniform = bool(np.all(np.abs(diffs - diffs[0]) <= 1e-9 * diffs[0]))
    max_substeps = 1
    if uniform:
        prop, k = _interval_propagator(gen, float(diffs[0]), h_req)
        max_substeps = k
        for j in range(1, n_t):
            vecs = prop @ vecs
            states[:, j] = vecs.T.reshape(n_in, n, n)
    else:
        cache: dict[float, tuple[np.ndarray, int]] = {}
        for j, dt in enumerate(diffs, start=1):
            key = float(dt)
            if key not in cache:
                cache[key] = _interval_propagator(gen, key, h_req)
            prop, k = cache[key]
            max_substeps = max(max_substeps, k)
            vecs = prop @ vecs
            states[:, j] = vecs.T.reshape(n_in, n, n)

    obs = dict(observables or {})
    for name, op in default_population_observables(model.spec).items():
        obs.setdefault(name, op)
    obs = {name: np.asarray(op)[block] for name, op in obs.items()}

    def lift(rho: np.ndarray) -> np.ndarray:
        full = np.zeros(rho.shape[:-2] + (d, d), dtype=complex)
        full[..., idx[:, None], idx] = rho
        return full

    out = []
    for i in range(n_in):
        rho_t = states[i]
        traces = np.einsum("tii->t", rho_t)
        trace_dev = float(np.max(np.abs(traces - 1.0)))
        herm_dev = float(np.max(np.abs(rho_t - rho_t.conj().transpose(0, 2, 1))))
        min_eig = float(np.min(np.linalg.eigvalsh(0.5 * (rho_t + rho_t.conj().transpose(0, 2, 1)))))
        if n < d:
            # The lifted state's zero block contributes eigenvalue 0.
            min_eig = min(min_eig, 0.0)
        if trace_dev > TRACE_TOL:
            raise DiagnosticsError(f"trace deviation {trace_dev:.3e} exceeds {TRACE_TOL}")
        if herm_dev > 1e-10:
            raise DiagnosticsError(f"hermiticity deviation {herm_dev:.3e} exceeds 1e-10")
        if min_eig < POSITIVITY_FLOOR:
            raise DiagnosticsError(
                f"state eigenvalue {min_eig:.3e} below floor {POSITIVITY_FLOOR}"
            )
        series = {
            name: np.einsum("ij,tji->t", op, rho_t).real for name, op in obs.items()
        }
        diagnostics = {
            "method": "taylor4-superoperator",
            "spectral_scale": scale,
            "substep": float(diffs[0]) / max_substeps if uniform else h_req,
            "max_substeps_per_interval": max_substeps,
            "hilbert_dim": d,
            "reduced_dim": n,
            "liouville_dim": n * n,
            "trace_deviation": trace_dev,
            "hermiticity_deviation": herm_dev,
            "min_eigenvalue": min_eig,
        }
        out.append(
            Trajectory(
                times=times,
                observables=series,
                final_state=lift(rho_t[-1]),
                diagnostics=diagnostics,
                states=lift(rho_t) if keep_states else None,
            )
        )
    return out


def evolve_lindblad(
    model: LindbladModel,
    rho0: np.ndarray,
    times: np.ndarray,
    observables: dict[str, np.ndarray] | None = None,
    step: float | None = None,
    step_scale: float = DEFAULT_STEP_SCALE,
    keep_states: bool = False,
) -> Trajectory:
    """Open-system evolution of one initial state (see the batch form)."""
    return evolve_lindblad_batch(
        model,
        [rho0],
        times,
        observables=observables,
        step=step,
        step_scale=step_scale,
        keep_states=keep_states,
    )[0]


# ---------------------------------------------------------------------------
# Two-qubit gate metrics
# ---------------------------------------------------------------------------

_GATE_DIM = 4


def iswap_unitary() -> np.ndarray:
    """Excitation swap with an i phase, basis (gg, ge, eg, ee)."""
    u = np.eye(_GATE_DIM, dtype=complex)
    u[1, 1] = u[2, 2] = 0.0
    u[1, 2] = u[2, 1] = -1j
    return u


def iswap_ideal_map(state: np.ndarray) -> np.ndarray:
    """Apply the ideal gate to a ket or density matrix."""
    u = iswap_unitary()
    state = np.asarray(state, dtype=complex)
    if state.ndim == 1:
        return u @ state
    return u @ state @ u.conj().T


_PAIR_ORDER = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def process_basis_kets() -> list[np.ndarray]:
    """The 16 two-qubit input states used for channel reconstruction.

    Order: computational |0..3>, then (|j>+|k>)/sqrt2 over the pair list
    ((0,1),(0,2),(0,3),(1,2),(1,3),(2,3)), then (|j>+i|k>)/sqrt2 over the
    same pairs. Downstream reconstruction relies on this exact order.
    """
    eye = np.eye(_GATE_DIM, dtype=complex)
    kets = [eye[:, j].copy() for j in range(_GATE_DIM)]
    for j, k in _PAIR_ORDER:
        kets.append((eye[:, j] + eye[:, k]) / np.sqrt(2.0))
    for j, k in _PAIR_ORDER:
        kets.append((eye[:, j] + 1j * eye[:, k]) / np.sqrt(2.0))
    return kets


def choi_from_outputs(outputs: np.ndarray) -> np.ndarray:
    """Choi matrix from the 16 channel outputs (in process_basis_kets order).

    Uses linearity: for j != k,
      E(|j><k|) = E_x + i E_y - (1+i)/2 (E(|j><j|) + E(|k><k|))
    with E_x/E_y the outputs for the real/imaginary superpositions. The
    Choi normalization is tr J = 1 for a trace-preserving channel, with
    the channel output on the first tensor factor.
    """
    outputs = np.asarray(outputs, dtype=complex)
    if outputs.shape != (16, _GATE_DIM, _GATE_DIM):
        raise ValueError("expected 16 outputs of shape (4, 4)")
    comp = outputs[:4]
    choi = np.zeros((_GATE_DIM**2, _GATE_DIM**2), dtype=complex)
    basis = np.eye(_GATE_DIM, dtype=complex)
    for j in range(_GATE_DIM):
        choi += np.kron(comp[j], np.outer(basis[:, j], basis[:, j]))
    for p, (j, k) in enumerate(_PAIR_ORDER):
        ex = outputs[4 + p]
        ey = outputs[10 + p]
        e_jk = ex + 1j * ey - (1.0 + 1j) / 2.0 * (comp[j] + comp[k])
        choi += np.kron(e_jk, np.outer(basis[:, j], basis[:, k]))
        choi += np.kron(e_jk.conj().T, np.outer(basis[:, k], basis[:, j]))
    choi /= _GATE_DIM

    reshaped = choi.reshape(_GATE_DIM, _GATE_DIM, _GATE_DIM, _GATE_DIM)
    reduced = np.einsum("aiaj->ij", reshaped)
    defect = float(np.max(np.abs(_GATE_DIM * reduced - np.eye(_GATE_DIM))))
    if defect > TP_DEFECT_TOL:
        raise DiagnosticsError(
            f"reconstructed channel trace-preservation defect {defect:.3e} "
            f"exceeds {TP_DEFECT_TOL}"
        )
    return choi


def _ideal_choi_vector(u: np.ndarray) -> np.ndarray:
    """(U (x) I)|Phi+> for the maximally entangled reference."""
    phi = np.zeros(_GATE_DIM**2, dtype=complex)
    for j in range(_GATE_DIM):
        phi[j * _GATE_DIM + j] = 1.0 / np.sqrt(_GATE_DIM)
    return np.kron(u, np.eye(_GATE_DIM, dtype=complex)) @ phi


def process_fidelity(choi: np.ndarray, target_unitary: np.ndarray) -> float:
    """Overlap of the channel's Choi state with the target unitary's."""
    vec = _ideal_choi_vector(np.asarray(target_unitary, dtype=complex))
    return float(np.real(vec.conj() @ choi @ vec))


def average_gate_fidelity(choi: np.ndarray, target_unitary: np.ndarray) -> float:
    """F_avg = (d F_pro + 1)/(d + 1) with d = 4."""
    f_pro = process_fidelity(choi, target_unitary)
    return (_GATE_DIM * f_pro + 1.0) / (_GATE_DIM + 1.0)


def _phase_strip_unitary(phi1: float, phi2: float) -> np.ndarray:
    rz1 = np.array([np.exp(-0.5j * phi1), np.exp(0.5j * phi1)])
    rz2 = np.array([np.exp(-0.5j * phi2), np.exp(0.5j * phi2)])
    return np.diag(np.kron(rz1, rz2))


def strip_local_phases(
    choi: np.ndarray, target_unitary: np.ndarray
) -> tuple[float, tuple[float, float]]:
    """Max process fidelity over local z-phases applied after the channel.

    F(phi1, phi2) is a trigonometric polynomial with harmonics in
    {-1, 0, 1} per axis, so its nine Fourier coefficients are extracted
    exactly from a 3x3 sample grid; the maximum is located by a coarse
    scan plus Newton refinement. Fully deterministic.
    """
    u = np.asarray(target_unitary, dtype=complex)
    vec = _ideal_choi_vector(u)
    eye = np.eye(_GATE_DIM, dtype=complex)

    def f_at(phi1: float, phi2: float) -> float:
        s = np.kron(_phase_strip_unitary(phi1, phi2), eye)
        w = s.conj().T @ vec
        return float(np.real(w.conj() @ choi @ w))

    nodes = [0.0, 2.0 * np.pi / 3.0, 4.0 * np.pi / 3.0]
    samples = np.array([[f_at(p1, p2) for p2 in nodes] for p1 in nodes])
    coeff = {}
    for a in (-1, 0, 1):
        for b in (-1, 0, 1):
            acc = 0.0 + 0j
            for p, phi_p in enumerate(nodes):
                for q, phi_q in enumerate(nodes):
                    acc += samples[p, q] * np.exp(-1j * (a * phi_p + b * phi_q))
            coeff[(a, b)] = acc / 9.0

    def poly(phi1: float, phi2: float) -> float:
        val = coeff[(0, 0)].real
        val += 2.0 * np.real(coeff[(1, 0)] * np.exp(1j * phi1))
        val += 2.0 * np.real(coeff[(0, 1)] * np.exp(1j * phi2))
        val += 2.0 * np.real(coeff[(1, 1)] * np.exp(1j * (phi1 + phi2)))
        val += 2.0 * np.real(coeff[(1, -1)] * np.exp(1j * (phi1 - phi2)))
        return val

    def grad_hess(phi1: float, phi2: float):
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
    vals = (
        coeff[(0, 0)].real
        + 2.0 * np.real(coeff[(1, 0)] * np.exp(1j * p1g))
        + 2.0 * np.real(coeff[(0, 1)] * np.exp(1j * p2g))
        + 2.0 * np.real(coeff[(1, 1)] * np.exp(1j * (p1g + p2g)))
        + 2.0 * np.real(coeff[(1, -1)] * np.exp(1j * (p1g - p2g)))
    )
    flat = int(np.argmax(vals))
    best_val = float(vals.flat[flat])
    best = (float(p1g.flat[flat]), float(p2g.flat[flat]))

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

    refined = poly(float(phi[0]), float(phi[1]))
    if refined >= best_val:
        best_val = refined
        best = (float(phi[0]), float(phi[1]))
    # Direct evaluation at the located maximum (the polynomial is exact,
    # but report the physically evaluated value).
    final = f_at(best[0], best[1])
    return final, best


def state_fidelity(state: np.ndarray, target: np.ndarray) -> float:
    """Fidelity of a ket/density matrix against a target ket."""
    target = np.asarray(target, dtype=complex).reshape(-1)
    state = np.asarray(state, dtype=complex)
    if state.ndim == 1:
        return float(np.abs(np.vdot(target, state)) ** 2)
    return float(np.real(target.conj() @ state @ target))
