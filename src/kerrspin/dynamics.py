"""Time evolution and gate metrics.

Unitary runs use one eigendecomposition of the (time-independent)
Hamiltonian, so they carry no step error. The states, norms and
expectation values come in one pass over near-equal time blocks: per
block, one matrix product for the states, then per observable one
product and a row-wise conjugate dot. A block's products stay at or
under 2^15 multiply-adds (rows x n x n on an n-state block), small
enough that a threaded BLAS keeps them on the calling thread: above
that, OpenBLAS wakes a worker thread that costs as much CPU as the whole
run and saves it no time. A block has at least 64 rows (or the whole
grid), so large blocks keep a few large products, and never a single
row, which NumPy would hand to a matrix-vector kernel that rounds
differently. Splitting the rows changes the order of no sum, and the
tests pin the series bit for bit to one product over the whole grid.
Open-system runs vectorize the density matrix row-major and build the
generator

    L = -i(H (x) I - I (x) H^T)
        + sum_k rate_k [ C (x) conj(C) - 1/2 (C'C (x) I + I (x) (C'C)^T) ]

then build the propagator P of one grid interval from a 4th-order
Taylor step per substep, composed by repeated squaring. For a linear
generator this reproduces the classical 4th-order Runge-Kutta update
exactly while costing a handful of matrix products per run. The substep
obeys step * (max |eig(H)| + max rate) <= 0.1, with the scale taken from
the full model; the default substep is a tenth of that ceiling. A
uniform grid is then filled by doubling: with the states of times
[0, m) known, times [m, 2m) follow from one matrix product with P^m,
and P^m is squared for the next block, so T points take ceil(log2 T)
products (the same repeated squaring, over the grid). Open-system runs
take uniform grids only: steps that differ by more than 1e-9 relative
are refused before the generator is built.

Both kinds of run work on a coordinate subspace only: the basis states
reachable from the support of the initial state(s) through the nonzero
pattern of H and, for open-system runs, of every collapse operator with
a nonzero rate and of each such C'C. Each of these operators A maps the
span S of the reached states into itself (AP = PAP for the projector P
onto S, so also PA' = PA'P). A unitary run therefore stays in S, and
diagonalising the block of H on S is exact; likewise every term of the
master equation maps a density matrix supported on S x S to another
one, so the states never leave that block. Evolving the projected
operators is exact, not a truncation. C'C must be in the search: the
anticommutator term can leave a set that is closed under C alone. The
search reads only the columns at its frontier F and applies C'C there,
as C' @ C[:, F], so it never forms a full-space product.
Excitation-conserving models shrink most, and models that conserve only
a parity halve; observables are projected onto the block. A unitary
batch searches once from the union of its kets' supports and
diagonalises that block once for all of them. An open-system batch
streams its physicality diagnostics and observable series over the
(inputs, T, n, n) stack of block states one input at a time, so no
temporary is the size of the stack; each input's series come from one
matrix product. Only the final states, and the state series when kept
on request, are zero-padded back to the full space.

Positivity (every state's eigenvalues at or above POSITIVITY_FLOOR) is
tested on the hermitian part of each input's state series. A run that
reports its lowest eigenvalue (`min_eigenvalue`, the default) takes it
from eigvalsh. A run that does not proves positivity by a Cholesky
factorisation of the hermitian part shifted by half the floor: its
backward error lies far below that margin, so it succeeds only on states
that the eigvalsh test passes. Where it fails, that input gets the
eigvalsh test, so the pass or fail and the error message are those of
the reporting run.

The two-qubit gate metrics hold the whole tomography protocol: the 16
physical inputs (4 computational states, 6 real and 6 imaginary
two-state superpositions; a mode, if any, in its ground state), the
Pauli observables each output is rebuilt from, and one fidelity path
that assembles the Choi matrix and scores it against the ideal
excitation-swap gate, raw and maximized over the two local z-phases.
All of them accept leading batch axes, so a whole time series of
channels is scored in one call. The Choi matrix comes by linear
inversion: one fixed 16 x 16 matrix, the inverse of the inputs' stacked
vec(|psi><psi|), maps the 16 outputs to the images E(|j><k|) of the
matrix units, so only `process_basis_kets` knows the input order. The
phase-stripped fidelity is a trigonometric polynomial in the two phases
whose five independent Fourier coefficients are linear in the Choi
matrix; they come from one contraction with a fixed kernel. At fixed
phi1 the maximum over phi2 is closed-form, so the maximum comes from a
48-point scan over phi1 alone plus a batched Newton polish
(deterministic).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from kerrspin.fock import (
    HERMITICITY_TOL,
    NORM_TOL,
    POSITIVITY_FLOOR,
    HilbertSpec,
    _kron,
    dm,
    qubit_ops,
)

TRACE_TOL = 1e-8
STEP_BUDGET = 0.1  # max allowed step * spectral scale
DEFAULT_STEP_SCALE = 0.1  # default substep as a fraction of the ceiling
TP_DEFECT_TOL = 1e-6
BLOCK_MULADDS = 2**15  # max multiply-adds of one product in a unitary time block
MIN_BLOCK_ROWS = 64  # floor on a unitary time block, unless the grid is shorter


class DiagnosticsError(RuntimeError):
    """A physicality check failed during or after an evolution run."""


class StepSizeError(ValueError):
    """Requested integrator step violates the stability ceiling."""


def _check_hermitian(h: np.ndarray) -> np.ndarray:
    h = np.asarray(h, dtype=complex)
    scale = max(1.0, float(np.max(np.abs(h))))
    # Written as `not <=` so that a NaN or infinite entry fails too.
    if not np.max(np.abs(h - h.conj().T)) <= HERMITICITY_TOL * scale:
        raise ValueError("hamiltonian is not hermitian (or not finite)")
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
    """Number operator per boson, excited-state projector per qubit.

    Both are diagonal in the product basis with the subsystem's occupation
    label on the diagonal (0 or 1 for a qubit), so they are read off the
    basis labels rather than embedded factor by factor.
    """
    labels = np.indices(spec.dims).reshape(len(spec.dims), -1)
    return {
        f"pop_{sub.label}": np.diag(occ.astype(complex))
        for sub, occ in zip(spec.subsystems, labels)
    }


def _validate_times(times: np.ndarray) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 2:
        raise ValueError("times must be a 1-D grid with at least two points")
    if not np.all(np.diff(times) > 0):
        raise ValueError("times must be strictly increasing")
    return times


def _project_observables(observables: dict | None, spec: HilbertSpec | None, d: int, block) -> dict:
    """Each observable's block on the reached subspace, after a shape check;
    the spec's population observables fill in the names not given."""
    obs = dict(observables or {})
    for name, op in (default_population_observables(spec) if spec else {}).items():
        obs.setdefault(name, op)
    out = {}
    for name, op in obs.items():
        op = np.asarray(op)
        if op.shape != (d, d):
            raise ValueError(f"observable {name!r} shape {op.shape} does not match dim {d}")
        out[name] = op[block]
    return out


def _time_block_edges(n_t: int, n: int) -> list[int]:
    """Edges of the near-equal time blocks that a unitary run of n_t
    points on an n-state block is evaluated in (see the module docstring).

    Each block's products take rows x n x n multiply-adds, at most
    BLOCK_MULADDS, unless that would make a block shorter than
    MIN_BLOCK_ROWS rows (or than the whole grid, if that is shorter).
    """
    rows = max(1, BLOCK_MULADDS // (n * n))
    count = min(-(-n_t // rows), max(1, n_t // MIN_BLOCK_ROWS))
    return [i * n_t // count for i in range(count + 1)]


def evolve_unitary_batch(
    h: np.ndarray,
    kets: list[np.ndarray],
    times: np.ndarray,
    spec: HilbertSpec | None = None,
    observables: dict[str, np.ndarray] | None = None,
    keep_states: bool = False,
) -> list[Trajectory]:
    """Closed-system evolution of several initial kets under one H, by
    eigendecomposition (no step error).

    One search finds the coordinate subspace reachable from the union of
    the kets' supports (see the module docstring), and only the block of
    H on it is diagonalised, once for all kets; final states and kept
    states are zero-padded back to full size. The phases exp(-i E t) are
    computed once; each ket's states, norms and observable series then
    come in one pass over the time blocks of `_time_block_edges`, whose
    products stay small enough to run on the calling thread.
    """
    h = _check_hermitian(h)
    times = _validate_times(times)
    d = h.shape[0]
    kets = [np.asarray(psi0, dtype=complex).reshape(-1) for psi0 in kets]
    for psi0 in kets:
        if psi0.shape[0] != d:
            raise ValueError("state dimension does not match hamiltonian")
        norm0 = np.linalg.norm(psi0)
        if not abs(norm0 - 1.0) <= NORM_TOL:  # `not <=`: a NaN norm fails too
            raise ValueError(f"initial state norm {norm0} deviates from 1")

    idx = _reachable(np.any(np.stack(kets) != 0, axis=0), [h])
    block = np.ix_(idx, idx)
    obs = _project_observables(observables, spec, d, block)
    evals, vecs = np.linalg.eigh(h[block])
    n, n_t = idx.size, times.size
    edges = _time_block_edges(n_t, n)
    # A finite H whose phases E t overflow gives NaN states, which the
    # norm check below reports; the warnings along the way are expected.
    with np.errstate(over="ignore", invalid="ignore"):
        phases = np.exp(-1j * np.outer(evals, times))

    out = []
    for psi0 in kets:
        coeff = vecs.conj().T @ psi0[idx]
        norms = np.empty(n_t)
        series = {name: np.empty(n_t) for name in obs}
        kept = np.zeros((n_t, d), dtype=complex) if keep_states else None
        with np.errstate(over="ignore", invalid="ignore"):
            for a, b in zip(edges[:-1], edges[1:]):
                states = (vecs @ (phases[:, a:b] * coeff[:, None])).T  # (b - a, n)
                norms[a:b] = np.linalg.norm(states, axis=1)
                # <psi|O|psi> per time point: one GEMM, then a row-wise conjugate dot.
                conj = states.conj()
                for name, op in obs.items():
                    series[name][a:b] = np.einsum("ti,ti->t", conj, states @ op.T).real
                if keep_states:
                    kept[a:b, idx] = states
        norm_drift = float(np.max(np.abs(norms - 1.0)))
        if not norm_drift <= NORM_TOL:
            raise DiagnosticsError(f"unitary norm drift {norm_drift:.3e} exceeds {NORM_TOL}")
        diagnostics = {
            "norm_drift": norm_drift,
            "hilbert_dim": d,
            "reduced_dim": n,
        }
        final_state = np.zeros(d, dtype=complex)
        final_state[idx] = states[-1]
        out.append(
            Trajectory(
                times=times,
                observables=series,
                final_state=final_state,
                diagnostics=diagnostics,
                states=kept,
            )
        )
    return out


def evolve_unitary(
    h: np.ndarray,
    psi0: np.ndarray,
    times: np.ndarray,
    spec: HilbertSpec | None = None,
    observables: dict[str, np.ndarray] | None = None,
    keep_states: bool = False,
) -> Trajectory:
    """Closed-system evolution of one initial ket (see the batch form)."""
    return evolve_unitary_batch(
        h, [psi0], times, spec=spec, observables=observables, keep_states=keep_states
    )[0]


def liouvillian(h: np.ndarray, collapse: list[tuple[np.ndarray, float]]) -> np.ndarray:
    """Vectorized generator (row-major convention) of H and its collapse channels."""
    d = h.shape[0]
    eye = np.eye(d, dtype=complex)
    gen = -1j * (_kron(h, eye) - _kron(eye, h.T))
    for op, rate in collapse:
        if rate == 0.0:
            continue
        opdop = op.conj().T @ op
        gen += rate * (_kron(op, op.conj()) - 0.5 * (_kron(opdop, eye) + _kron(eye, opdop.T)))
    return gen


def _reachable(seed: np.ndarray, ops: list[np.ndarray], collapse: list[np.ndarray] = ()) -> np.ndarray:
    """Sorted basis indices reachable from the boolean mask `seed`.

    Breadth-first search over nonzero patterns: index j reaches i when
    op[i, j] != 0 for some op in `ops` or `collapse`, or (C'C)[i, j] != 0
    for some C in `collapse`. Each step reads only the frontier's columns
    F, and C'C[:, F] comes as C' @ C[:, F], so a step costs O(d^2 |F|)
    and no d x d product is ever formed. The result spans the smallest
    coordinate subspace that contains the seed and that every op, C and
    C'C maps into itself.
    """
    mats = np.stack([*ops, *collapse])
    adjoints = mats[len(ops) :].conj().swapaxes(-1, -2)
    reached = seed.copy()
    frontier = seed
    while frontier.any():
        cols = mats[:, :, frontier]
        hit = np.any(cols != 0, axis=(0, 2)) | np.any(adjoints @ cols[len(ops) :] != 0, axis=(0, 2))
        frontier = hit & ~reached
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
    if not np.isfinite(dt / h_req):
        raise StepSizeError(f"grid interval {dt:.6e} s holds no finite count of {h_req:.6e} s")
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


def _validate_inputs(rho0_list: list[np.ndarray], d: int) -> np.ndarray:
    """(inputs, d, d) stack of the initial density matrices, each checked.

    The tests are written as `not <=` (or `not >=`) so that a NaN entry
    fails them.
    """
    rhos = []
    for rho0 in rho0_list:
        rho = dm(np.asarray(rho0, dtype=complex))
        if rho.shape != (d, d):
            raise ValueError("initial state dimension mismatch")
        if not abs(np.trace(rho).real - 1.0) <= NORM_TOL:
            raise ValueError("initial state trace deviates from 1")
        if not np.max(np.abs(rho - rho.conj().T)) <= NORM_TOL:
            raise ValueError("initial state is not hermitian")
        rhos.append(rho)
    rhos = np.stack(rhos)
    # Positivity of all inputs from one eigvalsh on their common support.
    # Outside the rows and columns where some input is nonzero every
    # input is exactly 0, so each is block diagonal with a zero block,
    # whose eigenvalues 0 lie above POSITIVITY_FLOOR: the pass or fail is
    # that of the full d x d spectra.
    nonzero = rhos != 0
    support = np.flatnonzero(np.any(nonzero, axis=(0, 1)) | np.any(nonzero, axis=(0, 2)))
    if not np.min(np.linalg.eigvalsh(rhos[:, support[:, None], support])) >= POSITIVITY_FLOOR:
        raise ValueError("initial state is not positive semidefinite")
    return rhos


def _certified_above_floor(sym: np.ndarray) -> bool:
    """Whether a Cholesky factorisation proves that every matrix of the
    (..., n, n) hermitian stack `sym` has its eigenvalues at or above
    POSITIVITY_FLOOR.

    It factorises sym - (POSITIVITY_FLOOR / 2) I. A factorisation that
    succeeds is the exact one of a matrix within a backward error of at
    most about n^2 * 1.1e-16 * ||sym|| (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., ch. 10). For trace-1 states on the
    blocks a Lindblad run can hold that is 1e-12 or less, far below the
    half-floor margin of 5e-9, so the smallest eigenvalue lies above
    POSITIVITY_FLOOR / 2 up to that error, and eigvalsh, whose own error
    is of the same order, would pass it too. A failed factorisation
    proves nothing: the caller then falls back to eigvalsh.
    """
    try:
        np.linalg.cholesky(sym - 0.5 * POSITIVITY_FLOOR * np.eye(sym.shape[-1]))
    except np.linalg.LinAlgError:
        return False
    return True


def evolve_lindblad_batch(
    model: LindbladModel,
    rho0_list: list[np.ndarray],
    times: np.ndarray,
    observables: dict[str, np.ndarray] | None = None,
    step: float | None = None,
    step_scale: float = DEFAULT_STEP_SCALE,
    keep_states: bool = False,
    record_min_eigenvalue: bool = True,
) -> list[Trajectory]:
    """Open-system evolution of several initial states under one model.

    `times` must be a uniform grid: steps that differ by more than 1e-9
    relative raise ValueError before any generator is built. The
    generator and interval propagator are built once and shared, so
    batching the 16 tomography inputs costs little more than one run.
    They are built on the coordinate subspace the inputs can reach (see
    the module docstring); the substep still comes from the full model.

    With `record_min_eigenvalue` (the default) each input's diagnostics
    hold `min_eigenvalue`, the lowest eigvalsh eigenvalue of its state
    series. Without it they hold no such key: each input's positivity is
    certified by a Cholesky factorisation of its hermitian part minus
    POSITIVITY_FLOOR / 2 times the identity (see `_certified_above_floor`),
    and only an input whose factorisation fails gets the eigvalsh test.
    Either way the same inputs pass, and a failure raises the same
    DiagnosticsError naming the lowest eigenvalue.
    """
    times = _validate_times(times)
    dt = float(times[1] - times[0])
    if not np.all(np.abs(np.diff(times) - dt) <= 1e-9 * dt):
        raise ValueError("times must be a uniform grid (steps equal to 1e-9 relative)")
    d = model.spec.dim
    rhos0 = _validate_inputs(rho0_list, d)
    h_req, scale = _resolve_step(model, step, step_scale)

    rates = [(op, rate) for op, rate in model.collapse if rate != 0.0]
    seed = np.any(rhos0 != 0, axis=(0, 2))
    idx = _reachable(seed, [model.hamiltonian], [op for op, _ in rates])
    block = np.ix_(idx, idx)
    n = idx.size
    obs = _project_observables(observables, model.spec, d, block)
    gen = liouvillian(model.hamiltonian[block], [(op[block], rate) for op, rate in rates])

    n_in = len(rhos0)
    n_t = times.size
    # rows[j, i] is input i's row-major state vector at times[j]; a step
    # is rows[j + 1] = rows[j] @ P^T.
    rows = np.empty((n_t, n_in, n * n), dtype=complex)
    rows[0] = rhos0[:, idx[:, None], idx].reshape(n_in, n * n)
    flat = rows.reshape(n_t * n_in, n * n)
    # A generator too large for its squarings overflows to inf and NaN
    # here; the trace diagnostic below reports the non-finite states.
    with np.errstate(over="ignore", invalid="ignore"):
        prop, k = _interval_propagator(gen, dt, h_req)
        # Doubling: times [m, 2m) are times [0, m) advanced by P^m, one
        # GEMM per block, with P^m squared between blocks.
        m = 1
        while m < n_t:
            count = min(m, n_t - m)
            np.matmul(flat[: count * n_in], prop.T, out=flat[m * n_in : (m + count) * n_in])
            m *= 2
            if m < n_t:
                prop = prop @ prop
    states = rows.reshape(n_t, n_in, n, n).swapaxes(0, 1)  # (n_in, T, n, n) view

    # Physicality diagnostics, one pass over one input's (T, n, n) series
    # at a time, so that no temporary is the size of the whole stack.
    # Each test is written as `not <=` (or `not >=`) so that a non-finite
    # state (an overflowing propagator) fails it; an input that fails its
    # trace or hermiticity test skips positivity, since eigvalsh cannot
    # take such a state. An input whose minimum goes unreported and whose
    # Cholesky certificate holds keeps min_eig inf, as does a skipped one.
    trace_dev = np.empty(n_in)
    herm_dev = np.empty(n_in)
    min_eig = np.full(n_in, np.inf)
    for i, rho_t in enumerate(states):
        adjoint = rho_t.conj().swapaxes(-1, -2)
        trace_dev[i] = np.max(np.abs(np.einsum("tjj->t", rho_t) - 1.0))
        herm_dev[i] = np.max(np.abs(rho_t - adjoint))
        if not (trace_dev[i] <= TRACE_TOL and herm_dev[i] <= 1e-10):
            continue
        sym = 0.5 * (rho_t + adjoint)
        if record_min_eigenvalue or not _certified_above_floor(sym):
            min_eig[i] = np.min(np.linalg.eigvalsh(sym))
    if not np.max(trace_dev) <= TRACE_TOL:
        raise DiagnosticsError(f"trace deviation {np.max(trace_dev):.3e} exceeds {TRACE_TOL}")
    if not np.max(herm_dev) <= 1e-10:
        raise DiagnosticsError(f"hermiticity deviation {np.max(herm_dev):.3e} exceeds 1e-10")
    if n < d:
        # The lifted state's zero block contributes eigenvalue 0.
        min_eig = np.minimum(min_eig, 0.0)
    if not np.min(min_eig) >= POSITIVITY_FLOOR:
        raise DiagnosticsError(
            f"state eigenvalue {np.min(min_eig):.3e} below floor {POSITIVITY_FLOOR}"
        )

    # tr(O rho) = sum_ij rho[i, j] O[j, i]: every observable's series from
    # one GEMM per input of its row-major states against the stacked O^T.
    names = list(obs)
    columns = np.stack([obs[name].T.reshape(-1) for name in names], axis=1)  # (n*n, n_obs)

    def lift(rho: np.ndarray) -> np.ndarray:
        full = np.zeros(rho.shape[:-2] + (d, d), dtype=complex)
        full[..., idx[:, None], idx] = rho
        return full

    finals = lift(states[:, -1])
    out = []
    for i in range(n_in):
        values = np.ascontiguousarray((rows[:, i] @ columns).real.T)  # (n_obs, T)
        diagnostics = {
            "spectral_scale": scale,
            "substep": dt / k,
            "max_substeps_per_interval": k,
            "hilbert_dim": d,
            "reduced_dim": n,
            "liouville_dim": n * n,
            "trace_deviation": float(trace_dev[i]),
            "hermiticity_deviation": float(herm_dev[i]),
        }
        if record_min_eigenvalue:
            diagnostics["min_eigenvalue"] = float(min_eig[i])
        out.append(
            Trajectory(
                times=times,
                observables=dict(zip(names, values)),
                final_state=finals[i],
                diagnostics=diagnostics,
                states=lift(states[i]) if keep_states else None,
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
    record_min_eigenvalue: bool = True,
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
        record_min_eigenvalue=record_min_eigenvalue,
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


def process_basis_kets(d: int = _GATE_DIM) -> np.ndarray:
    """(16, d) tomography inputs: the leading d/4 levels (the mode, if any)
    in their ground state times each two-qubit ket, the spins last.

    Kets: computational |0..3>, then (|j>+|k>)/sqrt2 over the pair list
    ((0,1),(0,2),(0,3),(1,2),(1,3),(2,3)), then (|j>+i|k>)/sqrt2 over the
    same pairs.
    """
    eye = np.eye(_GATE_DIM, dtype=complex)
    j, k = np.triu_indices(_GATE_DIM, 1)
    kets = np.zeros((16, d), dtype=complex)
    kets[:, :_GATE_DIM] = np.concatenate(
        [eye, (eye[j] + eye[k]) / np.sqrt(2.0), (eye[j] + 1j * eye[k]) / np.sqrt(2.0)]
    )
    return kets


@functools.cache
def _dual() -> np.ndarray:
    """D = inv(V) for linear-inversion tomography. Row m of V is the
    row-major vec(|psi_m><psi_m|) of the 16 inputs, so row j*4 + k of D
    holds the coefficients of |j><k| over the input states, and
    D @ (stacked outputs) is E(|j><k|). Formed on first use, so runs that
    do no tomography never page in the LAPACK inverse."""
    rhos = [np.outer(psi, psi.conj()).ravel() for psi in process_basis_kets()]
    return np.linalg.inv(np.stack(rhos))


# The 16 two-qubit Paulis s_a (x) s_b over s = (I, sx, sy, sz), a-major.
_SINGLE_PAULIS = [qubit_ops()[name] for name in ("id", "sx", "sy", "sz")]
_PAULIS = np.stack([_kron(a, b) for a in _SINGLE_PAULIS for b in _SINGLE_PAULIS])


def pauli_observables(d: int) -> dict[str, np.ndarray]:
    """The two-qubit Paulis P lifted to I_{d/4} (x) P, the spins last, as
    named observables; one broadcast of the products np.kron forms."""
    lifts = _kron(np.eye(d // _GATE_DIM, dtype=complex), _PAULIS)
    return {f"pauli{m}": lift for m, lift in enumerate(lifts)}


def pauli_outputs(trajs: list[Trajectory]) -> np.ndarray:
    """(T, inputs, 4, 4) two-spin outputs 1/4 sum_P <P> P from trajectories
    that recorded the `pauli_observables`. <I_rest (x) P> is tr(P Tr_rest
    rho) and tr(P P') = 4 delta, so the rebuild is exact without a state
    series or a partial trace."""
    values = np.array([[tr.observables[f"pauli{m}"] for tr in trajs] for m in range(16)]).T
    # One GEMM: (T * inputs, 16) expectation values against the stacked P / 4.
    outputs = values.reshape(-1, 16) @ (_PAULIS.reshape(16, 16) / 4.0)
    return outputs.reshape(-1, len(trajs), _GATE_DIM, _GATE_DIM)


def choi_from_outputs(outputs: np.ndarray) -> np.ndarray:
    """Choi matrices from the 16 channel outputs (in process_basis_kets order).

    `outputs` has shape (..., 16, 4, 4) and the result (..., 16, 16): one
    Choi matrix per leading index. By linear inversion, E(|j><k|) is row
    j*4 + k of D @ outputs, with D the inverse of the matrix whose rows
    are the inputs' vec(|psi><psi|), and J[a*4 + j, b*4 + k] =
    E(|j><k|)[a, b] / 4. The Choi normalization is tr J = 1 for a
    trace-preserving channel, with the channel output on the first tensor
    factor. Every slice must pass the trace-preservation check.
    """
    outputs = np.asarray(outputs, dtype=complex)
    if outputs.shape[-3:] != (16, _GATE_DIM, _GATE_DIM):
        raise ValueError("expected 16 outputs of shape (4, 4)")
    batch = outputs.shape[:-3]
    images = _dual() @ outputs.reshape(batch + (16, _GATE_DIM**2))
    choi = np.einsum("...jkab->...ajbk", images.reshape(batch + (_GATE_DIM,) * 4))
    choi = choi.reshape(batch + (_GATE_DIM**2, _GATE_DIM**2))
    choi /= _GATE_DIM

    reduced = np.einsum("...aiaj->...ij", choi.reshape(batch + (_GATE_DIM,) * 4))
    defect = np.max(np.abs(_GATE_DIM * reduced - np.eye(_GATE_DIM)), axis=(-2, -1))
    worst = int(np.argmax(defect))  # a NaN defect is the worst
    if not defect.flat[worst] <= TP_DEFECT_TOL:
        where = f" at index {tuple(map(int, np.unravel_index(worst, batch)))}" if batch else ""
        raise DiagnosticsError(
            f"reconstructed channel trace-preservation defect {defect.flat[worst]:.3e}"
            f"{where} exceeds {TP_DEFECT_TOL}"
        )
    return choi


def _ideal_choi_vector(u: np.ndarray) -> np.ndarray:
    """(U (x) I)|Phi+> for the maximally entangled reference."""
    eye = np.eye(_GATE_DIM, dtype=complex)
    return _kron(u, eye) @ (eye.reshape(-1) / np.sqrt(_GATE_DIM))


def process_fidelity(choi: np.ndarray, target_unitary: np.ndarray) -> float | np.ndarray:
    """Overlap of the channel's Choi state with the target unitary's.

    Batched over the leading axes of `choi` (..., 16, 16); a float for a
    single Choi matrix.
    """
    vec = _ideal_choi_vector(np.asarray(target_unitary, dtype=complex))
    overlap = np.real(vec.conj() @ np.asarray(choi, dtype=complex) @ vec)
    return float(overlap) if overlap.ndim == 0 else overlap


def _average_from_process(f_pro: float | np.ndarray) -> float | np.ndarray:
    """F_avg = (d F_pro + 1)/(d + 1) with d = 4."""
    return (_GATE_DIM * f_pro + 1.0) / (_GATE_DIM + 1.0)


def average_gate_fidelity(choi: np.ndarray, target_unitary: np.ndarray) -> float | np.ndarray:
    """Average gate fidelity of the channel, batched like process_fidelity."""
    return _average_from_process(process_fidelity(choi, target_unitary))


# Local z-phases applied after the channel: S = diag(s) (x) I with
# s_a = exp(i[(n1 - 1/2) phi1 + (n2 - 1/2) phi2]) for qubit levels
# (n1, n2) of a = 2 n1 + n2. F(phi) = Re <w|J|w> with w = S'|U>> is then
# c_0 + 2 Re sum_m c_m exp(i h_m . phi) over the harmonics h_m below,
# where c_h sums the blocks (a, b) with n(a) - n(b) = h.
_LEVELS = np.array([[0, 0], [0, 1], [1, 0], [1, 1]])
_HARMONICS = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0]])
# Row m holds h_m h_m^T flattened, so the Hessian is one product against it.
_HARMONIC_OUTER = (_HARMONICS[:, :, None] * _HARMONICS[:, None, :]).reshape(4, 4)
_SCAN = np.linspace(0.0, 2.0 * np.pi, 48, endpoint=False)
_SCAN_PHASE = np.exp(1j * _SCAN)


def _fourier_kernel(vec: np.ndarray) -> np.ndarray:
    """(5, 16, 16) kernel K with c_m = sum K[m] * J for harmonics (0,0), h_1..h_4."""
    harmonics = np.vstack([[0, 0], _HARMONICS])
    diff = _LEVELS[:, None, :] - _LEVELS[None, :, :]
    mask = np.all(diff[None] == harmonics[:, None, None, :], axis=-1)  # (5, a, b)
    v = vec.reshape(_GATE_DIM, _GATE_DIM)
    kernel = np.einsum("mab,aj,bk->majbk", mask, v.conj(), v)
    return kernel.reshape(len(harmonics), _GATE_DIM**2, _GATE_DIM**2)


def _trig_poly(coeff: np.ndarray, phi: np.ndarray, value_only: bool = False):
    """Value, gradient and Hessian of F at phi (..., 2) from coefficients
    (..., 5), or the value alone when `value_only`."""
    terms = coeff[..., 1:] * np.exp(1j * (phi @ _HARMONICS.T))
    value = coeff[..., 0].real + 2.0 * terms.real.sum(axis=-1)
    if value_only:
        return value
    grad = -2.0 * terms.imag @ _HARMONICS
    hess = -2.0 * (terms.real @ _HARMONIC_OUTER).reshape(terms.shape[:-1] + (2, 2))
    return value, grad, hess


def strip_local_phases(
    choi: np.ndarray, target_unitary: np.ndarray
) -> tuple[float, tuple[float, float]] | tuple[np.ndarray, np.ndarray]:
    """Max process fidelity over local z-phases applied after the channel.

    F(phi1, phi2) is a trigonometric polynomial with harmonics in
    {-1, 0, 1} per axis; its five independent Fourier coefficients are
    linear in the Choi matrix J, read off with one fixed kernel. The
    maximum is located by a 48-point scan over phi1, each point at its
    exact maximum over phi2, plus Newton refinement; then F is evaluated
    directly there. Batched over the leading axes of
    `choi` (..., 16, 16), returning the maxima (...) and phases (..., 2);
    a single Choi matrix gives (float, (phi1, phi2)). Deterministic.
    """
    choi = np.asarray(choi, dtype=complex)
    batch = choi.shape[:-2]
    flat = choi.reshape(-1, _GATE_DIM**2, _GATE_DIM**2)
    vec = _ideal_choi_vector(np.asarray(target_unitary, dtype=complex))
    # F = Re <w|J|w> only sees the hermitian part of J, formed in one buffer.
    herm = np.conjugate(flat.swapaxes(-1, -2), out=np.empty_like(flat))
    herm += flat
    herm *= 0.5
    coeff = herm.reshape(-1, _GATE_DIM**4) @ _fourier_kernel(vec).reshape(-1, _GATE_DIM**4).T

    # At fixed phi1, F = A + 2 Re(B e^{i phi2}) with A = c0 + 2 Re(c1 e^{i phi1})
    # and B = c2 + c3 e^{i phi1} + conj(c4) e^{-i phi1}, so its maximum over
    # phi2 is A + 2|B|, at phi2 = -arg B.
    c0, c1, c2, c3, c4 = (coeff[:, m : m + 1] for m in range(5))
    b = c2 + c3 * _SCAN_PHASE + c4.conj() * _SCAN_PHASE.conj()  # (N, 48)
    scan = c0.real + 2.0 * (c1 * _SCAN_PHASE).real + 2.0 * np.abs(b)
    pick = np.argmax(scan, axis=1)
    best = np.stack([_SCAN[pick], -np.angle(b[np.arange(len(pick)), pick])], axis=-1)
    # The start value as the polish evaluates F, so the two compare alike.
    best_val = _trig_poly(coeff, best, value_only=True)

    # Newton polish; each element stops on a singular Hessian, a
    # non-finite step, a decrease of F, or a step below 1e-13.
    phi = best.copy()
    active = np.ones(len(phi), dtype=bool)
    for _ in range(40):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        c = coeff[idx]
        value, g, h = _trig_poly(c, phi[idx])
        # delta = -H^-1 g for the symmetric 2 x 2 Hessian, by Cramer's rule.
        h11, h12, h22 = h[:, 0, 0], h[:, 0, 1], h[:, 1, 1]
        det = h11 * h22 - h12 * h12
        with np.errstate(divide="ignore", invalid="ignore"):
            delta = np.stack([h12 * g[:, 1] - h22 * g[:, 0], h12 * g[:, 0] - h11 * g[:, 1]], -1)
            delta /= det[:, None]
        step = (det != 0.0) & np.all(np.isfinite(delta), axis=-1)
        phi_new = phi[idx] + np.where(step[:, None], delta, 0.0)
        step &= ~(_trig_poly(c, phi_new, value_only=True) < value - 1e-15)
        phi[idx[step]] = phi_new[step]
        active[idx] = step & (np.max(np.abs(delta), axis=-1) >= 1e-13)

    refined = _trig_poly(coeff, phi, value_only=True)
    best = np.where((refined >= best_val)[:, None], phi, best)
    # Direct evaluation at the located maximum (the polynomial is exact,
    # but report the physically evaluated value).
    s = np.exp(1j * (best @ (_LEVELS - 0.5).T))
    w = (s.conj()[:, :, None] * vec.reshape(_GATE_DIM, _GATE_DIM)).reshape(-1, 1, _GATE_DIM**2)
    final = np.real(w.conj() @ flat @ w.swapaxes(-1, -2))[:, 0, 0]
    if not batch:
        return float(final[0]), (float(best[0, 0]), float(best[0, 1]))
    return final.reshape(batch), best.reshape(batch + (2,))


def fidelities_from_outputs(outputs: np.ndarray, target_unitary: np.ndarray):
    """Raw and phase-stripped average gate fidelity, and the strip phases,
    of the channel(s) with these 16 outputs (..., 16, 4, 4); a single
    channel gives floats and a (phi1, phi2) tuple."""
    choi = choi_from_outputs(outputs)
    f_pro, phases = strip_local_phases(choi, target_unitary)
    return average_gate_fidelity(choi, target_unitary), _average_from_process(f_pro), phases


def state_fidelity(state: np.ndarray, target: np.ndarray) -> float:
    """Fidelity of a ket/density matrix against a target ket."""
    target = np.asarray(target, dtype=complex).reshape(-1)
    state = np.asarray(state, dtype=complex)
    if state.ndim == 1:
        return float(np.abs(np.vdot(target, state)) ** 2)
    return float(np.real(target.conj() @ state @ target))
