"""Time evolution and gate metrics.

Every product whose size grows with the inputs goes through one row-block
rule (`_matmul`): it is taken in near-equal blocks of rows whose products
stay at or under BLOCK_MULADDS = 2^15 complex multiply-adds (rows x k x n;
a real multiply-add counts a quarter, a matrix-vector product sixteen
times its size). That is small enough that a threaded OpenBLAS keeps
each call on the calling thread: above it, OpenBLAS wakes a worker
thread that spins for as much CPU as the whole run and saves it no
time. A block has at least 2 rows, so none turns into a matrix-vector
product, whose kernel rounds differently; a product too large for that
is taken in one call that the threads share. Splitting the rows of a
row-major operand changes the order of no sum. Only products of a fixed
16 x 16 size per call, in the gate metrics, are written out directly.

Unitary runs use one eigendecomposition of the (time-independent)
Hamiltonian, so they carry no step error. One ket is evolved per call.
Its states, norms and expectation values come in one pass over
near-equal time blocks: a block of m time points takes one matrix
product for the m states, then per observable one product and a
row-wise conjugate dot. The blocks are sized by the same rule (m x n x n
on an n-state block), with a floor of 64 time points (or the whole
grid), so that large blocks keep a few large products.

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

The generator splits into sectors, the connected components of its
nonzero pattern: L is block diagonal over them, so each sector's span is
invariant under L and under every polynomial in it, P included. The
propagator, its squarings and the doubling products are built for each
sector that the initial state (or a channel's matrix units) populates,
on that sector alone; the others stay exactly 0. This is exact, not an
approximation. An excitation-conserving model splits by the difference
of the excitation numbers of the ket and the bra: the iswap-fidelity
full model's 64 Liouville indices fall into sectors of 26, 15, 15, 4
and 4, so its squarings cost a tenth of the whole generator's. All
sectors are labelled in one pass (`_populated_sectors`): each index
takes the smallest label among itself and its neighbours on the
symmetric pattern, then its label's label, until no label changes. Both
open-system solvers step through `_step_sectors`: given seed rows over
the block's Liouville indices, it steps in each populated sector the
rows that are nonzero there, in one (T x rows, sector) buffer.

Both kinds of run work on a coordinate subspace only: the basis states
reachable from the initial support (one ket's or density matrix's, or
a gate channel's spin states) through the nonzero pattern of H and, for
open-system runs, of every collapse operator with a nonzero rate and of
each such C'C. Each of these operators A maps the span S of the reached
states into itself (AP = PAP for the projector P onto S, so also PA' =
PA'P). A unitary run therefore stays in S, and diagonalising the block
of H on S is exact; likewise every term of the master equation maps a
density matrix supported on S x S to another one, so the states never
leave that block. Evolving the projected operators is exact, not a
truncation. C'C must be in the search: the anticommutator term can
leave a set that is closed under C alone. The search reads only the
columns at its frontier F and applies C'C there, as C' @ C[:, F], so it
never forms a full-space product. Excitation-conserving models shrink
most, and models that conserve only a parity halve; observables are
projected onto the block.

An open-system batch solves its states one at a time, each on its own
block and sectors, so it holds one state's series at a time. The state's
block vector is the one seed row; each populated sector's series is
scattered into the (T, n, n) series, which the diagnostics read and from
which each observable's series tr(O rho(t)) comes by one contraction. No
run returns a state series.

A two-qubit gate channel E_t (a mode, if any, starting empty) comes as
its Choi series from the 16 matrix units (`evolve_channel`): by
linearity the unit |0><0| (x) |j><k| evolves into an operator whose
partial trace over the mode is E_t(|j><k|), and J[a*4 + j, b*4 + k] =
E_t(|j><k|)[a, b] / 4 (Choi-Jamiolkowski; Nielsen and Chuang, sec. 8.2).
The units are the 16 seed rows. Each is one entry of the state vector,
so it lies in one sector, stepped for its own units only: 6, 4, 4, 1
and 1 units in the full model's sectors. The mode is traced out by
gathers, not products: per sector and mode level, the columns whose ket
and bra share that level are added straight into J, unit (j, k)'s spin
entry (a, b) at J[a*4 + j, b*4 + k], and J is divided by 4 in place
once every sector is in. No image of a unit is formed.

Both open-system solvers end in one physicality gate (`_finish`) on the
diagonal blocks of a (T, n, n) series: a state's on its block, whole,
or a channel's Choi series on the components of its nonzero pattern
that hold a nonzero entry (`_pattern_blocks`; for iswap-fidelity's
channels one block of 6, one of 4 and one of 1), off which J is exactly
0. Its five other indices, 4, 8, 12, 13 and 14, are 0 at every time,
since decay never raises the excitation number, and are not gated: an
index no block covers adds eigenvalue 0. It tests the trace
deviation that the caller measured (a state's from its series, a
channel's from 4 J, whose sums over a of 4 J[a*4 + j, a*4 + k] are the
traces of the images), then the blocks' hermiticity, then their
positivity (eigenvalues at or above POSITIVITY_FLOOR) on the hermitian
part. J is a trace-1 state, and its positivity is complete positivity,
which no set of inputs can test. A run that does not report its lowest
eigenvalue (`min_eigenvalue`) certifies it by a Cholesky factorisation
instead (`_certified_above_floor`), with the same pass or fail.

The gate metrics score Choi matrices against the ideal excitation-swap
gate, raw and maximized over the two local z-phases, over leading batch
axes, so a whole time series of channels is scored in one call. The
phase-stripped fidelity is a trigonometric polynomial in the two phases
whose five independent Fourier coefficients are linear in the Choi
matrix; they come from one contraction with a fixed kernel. At fixed
phi1 the maximum over phi2 is closed-form, so the maximum comes from a
48-point scan over phi1 alone plus a batched Newton polish
(deterministic) that evaluates the polynomial once per step. What the
metrics derive from the target alone (|U>>, the kernel's used entries)
is built once per target (`_target_constants`).
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
)

TRACE_TOL = 1e-8
STEP_BUDGET = 0.1  # max allowed step * spectral scale
DEFAULT_STEP_SCALE = 0.1  # default substep as a fraction of the ceiling
TP_DEFECT_TOL = 1e-6
BLOCK_MULADDS = 2**15  # max multiply-adds of one matrix product (see `_matmul`)
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
            if not 0.0 <= rate < np.inf:  # a NaN rate fails too
                raise ValueError(f"collapse rate {rate} is not finite and >= 0")
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


def _time_block_edges(n_rows: int, row_cost: float, min_rows: int) -> list[int]:
    """Edges of the near-equal blocks of rows (of time points, in a
    closed-system series) that a product is taken in.

    A block of r rows costs r * row_cost complex multiply-adds, at most
    BLOCK_MULADDS, unless that would make a block shorter than `min_rows`
    rows (or than all of them, if there are fewer).
    """
    rows = max(1, int(BLOCK_MULADDS // row_cost))
    count = min(-(-n_rows // rows), max(1, n_rows // min_rows))
    return [i * n_rows // count for i in range(count + 1)]


def _matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None):
    """a @ b for a 2-D `a`, taken in row blocks of `a` (`_time_block_edges`)
    so that a threaded BLAS keeps every call on the calling thread.

    A block's product costs at most BLOCK_MULADDS complex multiply-adds,
    but no block has fewer than 2 rows, so no block of a matrix product
    turns into a matrix-vector product, whose kernel rounds differently.
    A product whose blocks of 2 rows would already exceed the budget
    wakes the worker threads however it is split, so it is taken in one
    call that they share. Every product in this module whose size grows
    with its inputs goes through here.

    A matrix-vector product (`b` 1-D or one column) counts 16 times its
    size, and a real product a quarter of it: OpenBLAS keeps a real
    product on the calling thread up to 16 times the complex size (a
    240 x 64 x 64 real product stays there, a 256 x 64 x 64 one does not).
    """
    k = a.shape[1]
    n = b.shape[1] if b.ndim == 2 else 1
    row_cost = float(k * n) if n > 1 else 16.0 * k
    if "c" not in (a.dtype.kind, b.dtype.kind):
        row_cost /= 4.0
    if a.shape[0] * row_cost <= BLOCK_MULADDS or 2 * row_cost > BLOCK_MULADDS:
        return np.matmul(a, b, out=out)
    if out is None:
        out = np.empty(a.shape[:1] + b.shape[1:], dtype=np.result_type(a, b))
    edges = _time_block_edges(a.shape[0], row_cost, 2)
    for lo, hi in zip(edges[:-1], edges[1:]):
        np.matmul(a[lo:hi], b, out=out[lo:hi])
    return out


def evolve_unitary(
    h: np.ndarray,
    psi0: np.ndarray,
    times: np.ndarray,
    spec: HilbertSpec | None = None,
    observables: dict[str, np.ndarray] | None = None,
) -> Trajectory:
    """Closed-system evolution of one initial ket under H, by
    eigendecomposition (no step error).

    A search finds the coordinate subspace reachable from the ket's
    support (see the module docstring), and only the block of H on it is
    diagonalised; the final state is zero-padded back to full size. The
    phases exp(-i E t) are computed once; the states, norms and
    observable series then come in one pass over the time blocks of
    `_time_block_edges`, each block's products small enough to run on
    the calling thread. No state series is returned.
    """
    h = _check_hermitian(h)
    times = _validate_times(times)
    d = h.shape[0]
    psi0 = np.asarray(psi0, dtype=complex).reshape(-1)
    if psi0.shape[0] != d:
        raise ValueError("state dimension does not match hamiltonian")
    norm0 = np.linalg.norm(psi0)
    if not abs(norm0 - 1.0) <= NORM_TOL:  # `not <=`: a NaN norm fails too
        raise ValueError(f"initial state norm {norm0} deviates from 1")

    idx = _reachable(psi0 != 0, [h])
    block = np.ix_(idx, idx)
    obs = _project_observables(observables, spec, d, block)
    evals, vecs = np.linalg.eigh(h[block])
    n, n_t = idx.size, times.size
    edges = _time_block_edges(n_t, n * n, MIN_BLOCK_ROWS)
    # A finite H whose phases E t overflow gives NaN states, which the
    # norm check below reports; the warnings along the way are expected.
    with np.errstate(over="ignore", invalid="ignore"):
        phases = np.exp(-1j * np.outer(evals, times))

    # An (n, 1) product: a 1-D vector takes another BLAS kernel, which
    # rounds differently.
    coeff = _matmul(vecs.conj().T, psi0[idx, None])
    norms = np.empty(n_t)
    series = np.empty((len(obs), n_t))
    with np.errstate(over="ignore", invalid="ignore"):
        for a, b in zip(edges[:-1], edges[1:]):
            states = _matmul(vecs, phases[:, a:b] * coeff).T  # (b - a, n)
            norms[a:b] = np.linalg.norm(states, axis=1)
            # <psi|O|psi> per row: one GEMM, then a row-wise conjugate dot.
            conj = states.conj()
            for values, op in zip(series, obs.values()):
                product = _matmul(states, op.T)
                values[a:b] = np.einsum("ti,ti->t", conj, product).real
    drift = float(np.max(np.abs(norms - 1.0)))
    if not drift <= NORM_TOL:  # a NaN drift fails too
        raise DiagnosticsError(f"unitary norm drift {drift:.3e} exceeds {NORM_TOL}")
    final_state = np.zeros(d, dtype=complex)
    final_state[idx] = states[-1]
    return Trajectory(
        times=times,
        observables=dict(zip(obs, series)),
        final_state=final_state,
        diagnostics={"norm_drift": drift, "hilbert_dim": d, "reduced_dim": n},
    )


def liouvillian(h: np.ndarray, collapse: list[tuple[np.ndarray, float]]) -> np.ndarray:
    """Vectorized generator (row-major convention) of H and its collapse channels."""
    d = h.shape[0]
    eye = np.eye(d, dtype=complex)
    gen = -1j * (_kron(h, eye) - _kron(eye, h.T))
    for op, rate in collapse:
        if rate == 0.0:
            continue
        opdop = _matmul(op.conj().T, op)
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
    adjoints = [op.conj().T for op in collapse]
    reached = seed.copy()
    frontier = seed
    while frontier.any():
        cols = mats[:, :, frontier]
        hit = np.any(cols != 0, axis=(0, 2))
        for adjoint, col in zip(adjoints, cols[len(ops) :]):
            hit |= np.any(_matmul(adjoint, col) != 0, axis=1)
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
    x2 = _matmul(gen_h, gen_h)
    x3 = _matmul(x2, gen_h)
    x4 = _matmul(x3, gen_h)
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
        prop = _matmul(prop, prop)
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


def _populated_sectors(gen: np.ndarray, seed: np.ndarray) -> list[np.ndarray]:
    """The sectors of the generator that meet the boolean mask `seed`, as
    sorted index arrays, largest first (equal sizes by smallest index).

    A sector is a connected component of gen's nonzero pattern read as an
    undirected graph, so gen is block diagonal over its sectors: the span
    of each is invariant under gen and every polynomial in it, and a
    state that starts at 0 on a sector stays exactly 0 there. All sectors
    are labelled in one pass: each index starts as its own label, and per
    round takes the smallest label among itself and its neighbours on the
    symmetric pattern, then the label of that label (pointer jumping),
    until no label changes. Labels only fall and stay inside a sector, so
    each ends at its sector's smallest index. A round's one n x n
    temporary is an integer array. The physicality gate splits a Choi
    series by the same rule (`_pattern_blocks`).
    """
    linked = (gen != 0) | (gen != 0).T
    label = np.arange(len(gen))
    while True:
        spread = np.minimum(label, np.min(np.where(linked, label, label.size), axis=1))
        spread = spread[spread]
        if np.array_equal(spread, label):
            break
        label = spread
    # The sectors in the order the seed meets them, then by size.
    sectors = [np.flatnonzero(label == root) for root in dict.fromkeys(label[seed].tolist())]
    return sorted(sectors, key=lambda sector: (-sector.size, sector[0]))


def _sector_setup(model: LindbladModel, times, populated: np.ndarray, step, step_scale):
    """What an open-system run builds before it steps, from the (d, d) mask
    `populated` of its initial nonzero entries: the checked uniform grid,
    its interval, the substep ceiling, the reached block's indices, its
    generator, the populated sectors and their diagnostics but the substep.
    """
    times = _validate_times(times)
    dt = float(times[1] - times[0])
    if not np.all(np.abs(np.diff(times) - dt) <= 1e-9 * dt):
        raise ValueError("times must be a uniform grid (steps equal to 1e-9 relative)")
    h_req, scale = _resolve_step(model, step, step_scale)
    rates = [(op, rate) for op, rate in model.collapse if rate != 0.0]
    idx = _reachable(np.any(populated, axis=1), [model.hamiltonian], [op for op, _ in rates])
    block = np.ix_(idx, idx)
    # A finite rate too large for the generator overflows to inf and NaN
    # here; the trace diagnostic after the stepping reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        gen = liouvillian(model.hamiltonian[block], [(op[block], rate) for op, rate in rates])
    sectors = _populated_sectors(gen, populated[block].reshape(-1))
    diagnostics = {
        "spectral_scale": scale,
        "hilbert_dim": model.spec.dim,
        "reduced_dim": idx.size,
        "liouville_dim": idx.size**2,
        "liouville_sectors": [sector.size for sector in sectors],
    }
    return times, dt, h_req, idx, gen, sectors, diagnostics


def _step_sectors(gen: np.ndarray, seeds: np.ndarray, sectors: list, n_t: int, dt: float, h_req):
    """Step the rows of `seeds` (vectors over gen's indices) across a
    uniform grid of n_t points, one sector of `sectors` at a time.

    Per sector it yields the sector, the rows nonzero on it, their series
    and the substeps per interval. The series is one (n_t * rows, sector)
    buffer, a time point's rows together, filled by doubling (see the
    module docstring); a row that is 0 on a sector stays 0 there.
    """
    for sector in sectors:
        start = seeds[:, sector]
        rows = np.flatnonzero(np.any(start != 0, axis=1))
        prop, k = _interval_propagator(gen[np.ix_(sector, sector)], dt, h_req)
        width = rows.size
        flat = np.empty((n_t * width, sector.size), dtype=complex)
        flat[:width] = start[rows]
        m = 1
        while m < n_t:
            count = min(m, n_t - m)
            _matmul(flat[: count * width], prop.T, out=flat[m * width : (m + count) * width])
            m *= 2
            if m < n_t:
                prop = _matmul(prop, prop)
        yield sector, rows, flat, k


def _pattern_blocks(series: np.ndarray) -> list[np.ndarray]:
    """The (T, b, b) diagonal blocks of a (T, n, n) series over the
    components of its nonzero pattern at any time that hold a nonzero
    entry, labelled in one pass by `_populated_sectors` (which
    symmetrises it), largest first and equal sizes by smallest index: the
    series is exactly 0 off them. An index whose row and column are 0 at
    every time is in no block (a NaN entry is nonzero); the gate counts
    its eigenvalue 0 (`_finish`).
    """
    pattern = np.any(series != 0, axis=0)
    parts = _populated_sectors(pattern, np.any(pattern, axis=0) | np.any(pattern, axis=1))
    return [series[:, part[:, None], part] for part in parts]


def _finish(
    diagnostics: dict, blocks: list, dim: int, trace_dev: float, dt: float, k: int, record, what
):
    """End a solve: the physicality gate on the (T, b, b) diagonal `blocks`
    of its (T, dim, dim) series (a state's on its reached block, whole, or
    a channel's Choi series, on the blocks of its nonzero pattern) and the
    trace deviation the caller measured, then the record of the substep
    and the checks, the lowest eigenvalue only if `record`.

    The entries off the blocks must be exactly 0: the series' hermiticity
    deviation is then the blocks' largest, and its spectrum the blocks'
    spectra together, plus eigenvalue 0 for every index that no block
    covers, so with fewer than `dim` indices covered the recorded
    eigenvalue is at most 0. That 0 passes the floor, so it cannot change
    the verdict. The first test that fails raises, in the order
    trace, hermiticity (of every block), positivity; each is written
    `not <=` (or `not >=`) so that a NaN fails it. The trace is tested
    before the series is read, so a non-finite series (an overflowing
    propagator) goes no further. Positivity is tested on each block's
    hermitian part, by eigvalsh if `record`, else by the Cholesky
    certificate with eigvalsh where that fails.
    """
    if not trace_dev <= TRACE_TOL:
        raise DiagnosticsError(f"trace deviation {trace_dev:.3e} exceeds {TRACE_TOL}")
    devs, syms = [], []
    for block in blocks:
        adjoint = block.conj().swapaxes(-1, -2)
        devs.append(np.max(np.abs(block - adjoint)))
        syms.append(0.5 * (block + adjoint))
    del adjoint
    herm_dev = float(np.max(devs))  # np.max, not max: a NaN must win
    if not herm_dev <= 1e-10:
        raise DiagnosticsError(f"hermiticity deviation {herm_dev:.3e} exceeds 1e-10")
    diagonalised = [sym for sym in syms if record or not _certified_above_floor(sym)]
    # Certified blocks lie above the floor; with none left, nothing fails.
    min_eig = float(np.min([np.min(np.linalg.eigvalsh(sym)) for sym in diagonalised], initial=np.inf))
    if not min_eig >= POSITIVITY_FLOOR:
        raise DiagnosticsError(f"{what} eigenvalue {min_eig:.3e} below floor {POSITIVITY_FLOOR}")
    diagnostics.update(
        substep=dt / k,
        max_substeps_per_interval=k,
        trace_deviation=trace_dev,
        hermiticity_deviation=herm_dev,
    )
    if record:
        covered = sum(block.shape[-1] for block in blocks)
        diagnostics["min_eigenvalue"] = min(0.0, min_eig) if covered < dim else min_eig


def evolve_lindblad_batch(
    model: LindbladModel,
    rho0_list: list[np.ndarray],
    times: np.ndarray,
    observables: dict[str, np.ndarray] | None = None,
    step: float | None = None,
    step_scale: float = DEFAULT_STEP_SCALE,
    record_min_eigenvalue: bool = True,
) -> list[Trajectory]:
    """Open-system evolution of several initial states under one model,
    each solved on its own.

    `times` must be a uniform grid. Each state is checked in turn (its
    dimension, trace and hermiticity, then its positivity on its support)
    and solved before the next is checked, so the first state that fails
    raises. Each gets its own reached block, generator and interval
    propagators, one per sector it populates (see the module docstring;
    its diagnostics' `reduced_dim` and `liouville_sectors` are its own).

    With `record_min_eigenvalue` (the default) each state's diagnostics
    hold `min_eigenvalue`, the lowest eigenvalue of its state series;
    without it, positivity is certified (`_certified_above_floor`) and the
    key is absent. Either way the same states pass, and a failure raises
    the same DiagnosticsError naming the lowest eigenvalue.

    Each trajectory holds the observable series, the final state
    (zero-padded to the full space) and the diagnostics, but no state
    series.
    """
    d = model.spec.dim
    out = []
    for rho0 in rho0_list:
        # Each test is written `not <=` (or `not >=`) so that a NaN fails it.
        rho0 = dm(np.asarray(rho0, dtype=complex))
        if rho0.shape != (d, d):
            raise ValueError("initial state dimension mismatch")
        if not abs(np.trace(rho0).real - 1.0) <= NORM_TOL:
            raise ValueError("initial state trace deviates from 1")
        if not np.max(np.abs(rho0 - rho0.conj().T)) <= NORM_TOL:
            raise ValueError("initial state is not hermitian")
        # Off its support the state is 0, whose eigenvalues 0 pass the floor.
        populated = rho0 != 0
        support = np.flatnonzero(np.any(populated, axis=0) | np.any(populated, axis=1))
        if not np.min(np.linalg.eigvalsh(rho0[np.ix_(support, support)])) >= POSITIVITY_FLOOR:
            raise ValueError("initial state is not positive semidefinite")

        times, dt, h_req, idx, gen, sectors, diagnostics = _sector_setup(
            model, times, populated, step, step_scale
        )
        n, n_t = idx.size, times.size
        block = np.ix_(idx, idx)
        obs = _project_observables(observables, model.spec, d, block)
        # Each populated sector's series is scattered into the state's;
        # the sectors the state does not populate stay 0.
        seed = rho0[block].reshape(1, -1)
        series = np.zeros((n_t, n * n), dtype=complex)
        # A generator too large for its squarings overflows to inf and NaN
        # here; the trace diagnostic below reports the non-finite states.
        with np.errstate(over="ignore", invalid="ignore"):
            for sector, _, flat, k in _step_sectors(gen, seed, sectors, n_t, dt, h_req):
                series[:, sector] = flat
        series = series.reshape(n_t, n, n)
        trace_dev = float(np.max(np.abs(np.einsum("tjj->t", series) - 1.0)))
        # Off its block the full-space state is 0, with eigenvalue 0.
        _finish(diagnostics, [series], d, trace_dev, dt, k, record_min_eigenvalue, "state")

        values = {name: np.einsum("tij,ji->t", series, op).real for name, op in obs.items()}
        final = np.zeros((d, d), dtype=complex)
        final[block] = series[-1]
        del flat, series  # before the next state's arrays are made
        out.append(Trajectory(times, values, final, diagnostics))
    return out


def evolve_lindblad(
    model: LindbladModel,
    rho0: np.ndarray,
    times: np.ndarray,
    observables: dict[str, np.ndarray] | None = None,
    step: float | None = None,
    step_scale: float = DEFAULT_STEP_SCALE,
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


def _reshuffle(outputs: np.ndarray) -> np.ndarray:
    """J[a*4 + j, b*4 + k] = E(|j><k|)[a, b] / 4 from the (..., 16, 4, 4)
    images, unchecked; for choi_from_outputs (evolve_channel gathers into
    J directly)."""
    batch = outputs.shape[:-3]
    # The einsum is a transposed view; the reshape copies it once, and the
    # division runs on that contiguous copy, not on the strided view.
    choi = np.einsum("...jkab->...ajbk", outputs.reshape(batch + (_GATE_DIM,) * 4))
    choi = choi.reshape(batch + (_GATE_DIM**2, _GATE_DIM**2))
    choi /= _GATE_DIM
    return choi


def choi_from_outputs(outputs: np.ndarray) -> np.ndarray:
    """Choi matrices from the images E(|j><k|) of the 16 matrix units.

    `outputs` has shape (..., 16, 4, 4), the image of |j><k| at index
    j*4 + k, and the result (..., 16, 16): one Choi matrix per leading
    index, J[a*4 + j, b*4 + k] = E(|j><k|)[a, b] / 4. The Choi
    normalization is tr J = 1 for a trace-preserving channel, with the
    channel output on the first tensor factor. Every slice must pass the
    trace-preservation check.
    """
    outputs = np.asarray(outputs, dtype=complex)
    if outputs.shape[-3:] != (16, _GATE_DIM, _GATE_DIM):
        raise ValueError("expected 16 outputs of shape (4, 4)")
    batch = outputs.shape[:-3]
    choi = _reshuffle(outputs)
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


def evolve_channel(
    model: LindbladModel,
    times: np.ndarray,
    step: float | None = None,
    step_scale: float = DEFAULT_STEP_SCALE,
    record_min_eigenvalue: bool = True,
) -> tuple[np.ndarray, dict]:
    """The (T, 16, 16) Choi series of the two-spin channel
    E_t(rho) = Tr_mode e^{Lt}(|0><0| (x) rho), from the 16 matrix units
    (see the module docstring), and its diagnostics.

    The spins are the model's last two subsystems, so the full index of
    mode level m and spin state a is m*4 + a; the mode is traced out per
    sector by one gather per mode level, which adds each entry whose ket
    and bra are both at that level straight into its entry of J. The
    levels are added in ascending order into a buffer of zeros, and the
    buffer is divided by 4 once, so every entry is the sum a product with
    a 0/1 matrix would give. The tests, with the step, grid and
    certificate rules of evolve_lindblad_batch: the trace deviation
    max |tr E_t(|j><k|) - delta_jk|, taken on 4 J before the division,
    J's hermiticity and J's lowest eigenvalue (`min_eigenvalue`), both on
    J's pattern blocks. J does not go through choi_from_outputs, whose
    own test, of 4 tr_out J - I, would measure the trace deviation a
    second time.
    """
    d = model.spec.dim
    if model.spec.dims[-2:] != (2, 2):
        raise ValueError("a gate channel needs two spins as the last subsystems")
    populated = np.zeros((d, d), dtype=bool)
    populated[:_GATE_DIM, :_GATE_DIM] = True
    times, dt, h_req, idx, gen, sectors, diagnostics = _sector_setup(
        model, times, populated, step, step_scale
    )
    n, n_t = idx.size, times.size
    mode, spin = np.divmod(idx, _GATE_DIM)
    # The seed puts the full indices 0..3 first in the block, so unit
    # j*4 + k is the block's entry (j, k).
    seeds = np.zeros((_GATE_DIM**2, n * n), dtype=complex)
    for unit in range(_GATE_DIM**2):
        seeds[unit].reshape(n, n)[divmod(unit, _GATE_DIM)] = 1.0
    # 4 J until the division below; unit (j, k)'s spin entry (a, b) is its
    # flat entry (a*4 + j)*16 + b*4 + k.
    choi = np.zeros((n_t, _GATE_DIM**2, _GATE_DIM**2), dtype=complex)
    entries = choi.reshape(n_t, _GATE_DIM**4)
    # A generator too large for its squarings overflows to inf and NaN
    # here; the trace deviation below reports the non-finite channel.
    with np.errstate(over="ignore", invalid="ignore"):
        for sector, units, flat, k in _step_sectors(gen, seeds, sectors, n_t, dt, h_req):
            ket, bra = np.divmod(sector, n)
            same = np.flatnonzero(mode[ket] == mode[bra])
            level, a, b = mode[ket[same]], spin[ket[same]], spin[bra[same]]
            uj, uk = np.divmod(units[:, None], _GATE_DIM)  # unit |j><k|'s j and k
            target = (a * _GATE_DIM + uj) * _GATE_DIM**2 + b * _GATE_DIM + uk
            source = np.arange(units.size)[:, None] * sector.size + same
            row = flat.reshape(n_t, units.size * sector.size)  # a time point's units
            # Within a level the targets differ; the levels are added in
            # the order of the sector's columns, as a product would.
            for m in np.unique(level):
                at = level == m
                entries[:, target[:, at]] += row[:, source[:, at]]
        traces = np.einsum("tajak->tjk", choi.reshape((n_t,) + (_GATE_DIM,) * 4))
        trace_dev = float(np.max(np.abs(traces - np.eye(_GATE_DIM))))
    del seeds
    # Scaled as reals, several times faster than a complex division and to
    # the same bits on every finite entry: x * 0.25 is x / 4 exactly, and
    # 4 J holds no -0 (the gathers added into +0) for the division to keep.
    parts = choi.view(float)
    parts *= 1 / _GATE_DIM
    blocks = _pattern_blocks(choi)
    _finish(diagnostics, blocks, _GATE_DIM**2, trace_dev, dt, k, record_min_eigenvalue, "Choi")
    return choi, diagnostics


def _ideal_choi_vector(u: np.ndarray) -> np.ndarray:
    """(U (x) I)|Phi+> for the maximally entangled reference."""
    eye = np.eye(_GATE_DIM, dtype=complex)
    return _kron(u, eye) @ (eye.reshape(-1) / np.sqrt(_GATE_DIM))


def process_fidelity(choi: np.ndarray, target_unitary: np.ndarray) -> float | np.ndarray:
    """Overlap of the channel's Choi state with the target unitary's.

    Batched over the leading axes of `choi` (..., 16, 16); a float for a
    single Choi matrix.
    """
    vec = _target_constants(target_unitary)[0]
    row = vec.conj() @ np.asarray(choi, dtype=complex)  # (..., 16)
    overlap = np.real(_matmul(row.reshape(-1, _GATE_DIM**2), vec)).reshape(row.shape[:-1])
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


def _target_constants(target_unitary: np.ndarray):
    """What the gate metrics derive from the target alone: |U>>, and for
    the phase strip the flat indices of the entries of J its Fourier
    kernel reads, their mirror indices (r, c) -> (c, r), and the kernel's
    (used entries, 5) columns. Built once per target and read-only."""
    u = np.asarray(target_unitary, dtype=complex)
    return _constants_of(u.shape, u.tobytes())


@functools.lru_cache(maxsize=8)
def _constants_of(shape: tuple, data: bytes):
    vec = _ideal_choi_vector(np.frombuffer(data, dtype=complex).reshape(shape))
    kernel = _fourier_kernel(vec).reshape(-1, _GATE_DIM**4)
    # 16 of 256 entries for the excitation swap, whose |U>> has 4 nonzero
    # entries.
    used = np.flatnonzero(np.any(kernel != 0, axis=0))
    row, col = np.divmod(used, _GATE_DIM**2)
    constants = (vec, used, col * _GATE_DIM**2 + row, kernel[:, used].T)
    for array in constants:
        array.flags.writeable = False
    return constants


def _trig_poly(coeff: np.ndarray, phi: np.ndarray):
    """Value, gradient and Hessian of F at phi (N, 2) from coefficients
    (N, 5)."""
    terms = coeff[..., 1:] * np.exp(1j * _matmul(phi, _HARMONICS.T))
    value = coeff[..., 0].real + 2.0 * terms.real.sum(axis=-1)
    grad = -2.0 * _matmul(terms.imag, _HARMONICS)
    hess = -2.0 * _matmul(terms.real, _HARMONIC_OUTER).reshape(terms.shape[:-1] + (2, 2))
    return value, grad, hess


def strip_local_phases(
    choi: np.ndarray, target_unitary: np.ndarray
) -> tuple[float, tuple[float, float]] | tuple[np.ndarray, np.ndarray]:
    """Max process fidelity over local z-phases applied after the channel.

    F(phi1, phi2) is a trigonometric polynomial with harmonics in
    {-1, 0, 1} per axis; its five independent Fourier coefficients are
    linear in the Choi matrix J, read off with one fixed kernel. The
    maximum is located by a 48-point scan over phi1, each point at its
    exact maximum over phi2, plus Newton refinement, and reported as the
    polynomial's value there. The kernel comes from the target's cache
    (`_target_constants`), and each Newton step evaluates the polynomial
    once, at every element's trial point. Batched over the leading axes of
    `choi` (..., 16, 16), returning the maxima (...) and phases (..., 2);
    a single Choi matrix gives (float, (phi1, phi2)). Deterministic.
    """
    choi = np.asarray(choi, dtype=complex)
    batch = choi.shape[:-2]
    flat = choi.reshape(-1, _GATE_DIM**2, _GATE_DIM**2)
    _, used, mirror, kernel = _target_constants(target_unitary)
    # Only the entries of J that the kernel reads. F = Re <w|J|w> only
    # sees the hermitian part of J, (J[r, c] + conj(J[c, r])) / 2.
    entries = flat.reshape(-1, _GATE_DIM**4)
    herm = 0.5 * (entries[:, used] + entries[:, mirror].conj())
    coeff = _matmul(herm, kernel)

    # At fixed phi1, F = A + 2 Re(B e^{i phi2}) with A = c0 + 2 Re(c1 e^{i phi1})
    # and B = c2 + c3 e^{i phi1} + conj(c4) e^{-i phi1}, so its maximum over
    # phi2 is A + 2|B|, at phi2 = -arg B.
    c0, c1, c2, c3, c4 = (coeff[:, m : m + 1] for m in range(5))
    b = c2 + c3 * _SCAN_PHASE + c4.conj() * _SCAN_PHASE.conj()  # (N, 48)
    scan = c0.real + 2.0 * (c1 * _SCAN_PHASE).real + 2.0 * np.abs(b)
    pick = np.argmax(scan, axis=1)
    best = np.stack([_SCAN[pick], -np.angle(b[np.arange(len(pick)), pick])], axis=-1)

    # Newton polish, F taken once per step on every element: an element
    # keeps its point and its evaluation there until a step is accepted,
    # and stops on a singular Hessian, a non-finite step, a decrease of F,
    # or a step below 1e-13. The start value is F as the polish evaluates
    # it, so the two compare alike.
    at = _trig_poly(coeff, best)
    best_val = at[0].copy()
    phi = best.copy()
    active = np.ones(len(phi), dtype=bool)
    for _ in range(40):
        if not active.any():
            break
        _, g, h = at
        # delta = -H^-1 g for the symmetric 2 x 2 Hessian, by Cramer's rule.
        h11, h12, h22 = h[:, 0, 0], h[:, 0, 1], h[:, 1, 1]
        det = h11 * h22 - h12 * h12
        with np.errstate(divide="ignore", invalid="ignore"):
            delta = np.stack([h12 * g[:, 1] - h22 * g[:, 0], h12 * g[:, 0] - h11 * g[:, 1]], -1)
            delta /= det[:, None]
        step = active & (det != 0.0) & np.all(np.isfinite(delta), axis=-1)
        phi_new = phi + np.where(step[:, None], delta, 0.0)
        trial = _trig_poly(coeff, phi_new)
        step &= ~(trial[0] < at[0] - 1e-15)
        for old, new in zip((phi, *at), (phi_new, *trial)):
            np.copyto(old, new, where=step.reshape(step.shape + (1,) * (old.ndim - 1)))
        active = step & (np.max(np.abs(delta), axis=-1) >= 1e-13)

    refined = at[0]
    keep = refined >= best_val
    best = np.where(keep[:, None], phi, best)
    final = np.where(keep, refined, best_val)
    if not batch:
        return float(final[0]), (float(best[0, 0]), float(best[0, 1]))
    return final.reshape(batch), best.reshape(batch + (2,))


def gate_fidelities(choi: np.ndarray, target_unitary: np.ndarray):
    """Raw and phase-stripped average gate fidelity, and the strip phases,
    of the channel(s) with these Choi matrices (..., 16, 16); a single
    channel gives floats and a (phi1, phi2) tuple."""
    f_pro, phases = strip_local_phases(choi, target_unitary)
    return average_gate_fidelity(choi, target_unitary), _average_from_process(f_pro), phases
