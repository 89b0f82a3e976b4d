"""Model Hamiltonians, drive linearization, and the squeezed frame.

The chain implemented here:

1. A driven self-interacting (Kerr) bosonic mode settles to a steady
   amplitude <m> obeying a mean-field cubic (``steady_amplitude``).
2. Expanding around <m> gives a quadratic mode Hamiltonian with a
   two-boson term of strength kerr2 = K*|<m>|^2 (``linearize``).
3. A Bogoliubov rotation diagonalizes the quadratic part, producing a
   squeezed mode with frequency delta_s = sqrt(delta_m^2 - kerr2^2) and an
   exponentially enhanced spin coupling G = (g/2)*exp(r) (``squeeze_frame``).

Builders return dense Hermitian matrices on a ``HilbertSpec``; each
mode-plus-spin builder is a formula over ``_model_operators``, where the
slot convention is stated and checked. Every term is built from its
small per-slot factors: a product on one slot (n n, a a) is formed at
the slot's own size and then embedded, and a product across slots
(sp a, a' sm, sp1 sm2) is one Kronecker chain (``embed_product``), so no
two composite-space operators are ever multiplied. Two-magnon strength:
the mean amplitude is rotated real-positive first, so kerr2 is real.

All rates and frequencies are angular (rad/s) unless a name says "_hz".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from kerrspin.fock import (
    HilbertSpec,
    annihilation,
    embed,
    embed_product,
    number_operator,
    qubit_ops,
)

SIGN_CONVENTIONS = ("paper", "rederived")


def stability_margin(delta_m: float, kerr2: float) -> float:
    """(delta_m - |kerr2|)/|delta_m|; the usable region is margin > 0
    (equivalently delta_m > |kerr2|), and delta_m = 0 gives -inf."""
    return (delta_m - abs(kerr2)) / abs(delta_m) if delta_m != 0 else float("-inf")


class InstabilityError(ValueError):
    """Raised when the quadratic mode Hamiltonian has no stable vacuum;
    carries its ``stability_margin`` as ``margin``."""

    def __init__(self, delta_m: float, kerr2: float):
        self.delta_m = delta_m
        self.kerr2 = kerr2
        self.margin = stability_margin(delta_m, kerr2)
        super().__init__(
            "squeezed frame unstable: need delta_m > |kerr2|, got "
            f"delta_m={delta_m:.6g}, kerr2={kerr2:.6g} (margin={self.margin:.6g})"
        )


@dataclass(frozen=True)
class DriveConfig:
    """Monochromatic drive tone on the mode."""

    frequency: float  # rad/s
    amplitude: float  # rad/s, >= 0

    def __post_init__(self) -> None:
        if self.amplitude < 0:
            raise ValueError("drive amplitude must be >= 0")


@dataclass(frozen=True)
class SteadyState:
    """Mean-field steady state of the driven Kerr mode.

    ``occupations`` lists every non-negative real root N of the response
    cubic together with its slope-stability flag; ``selected`` indexes the
    root used for ``mean_amplitude`` (lowest stable by default).
    """

    mean_amplitude: complex
    occupations: tuple[float, ...]
    stable: tuple[bool, ...]
    selected: int

    @property
    def n_mean(self) -> float:
        return abs(self.mean_amplitude) ** 2


@dataclass(frozen=True)
class LinearizedParams:
    """Quadratic expansion of the driven Kerr mode around <m>.

    Fields: mode detuning delta_m and spin detuning delta_q in the drive
    frame, the mean amplitude, and the two-boson coefficient
    kerr2 = K*|<m>|^2 (real by the phase-rotation convention).
    """

    delta_m: float
    delta_q: float
    mean_amplitude: complex
    kerr2: float

    @property
    def n_mean(self) -> float:
        return abs(self.mean_amplitude) ** 2

    @property
    def is_stable(self) -> bool:
        return self.delta_m > abs(self.kerr2)

    @property
    def stability_margin(self) -> float:
        return stability_margin(self.delta_m, self.kerr2)


@dataclass(frozen=True)
class SqueezedFrame:
    """Bogoliubov frame of the quadratic mode Hamiltonian.

    ``squeezing`` is the rotation parameter r, ``mode_detuning`` the
    squeezed-mode frequency delta_s, ``coupling`` the enhanced spin
    coupling G = (g/2)*exp(r). Frames may also be built directly from
    quoted (G, delta_s) values, in which case ``squeezing`` is whatever
    the caller injected (use 0.0 when unknown; builders only consume
    ``mode_detuning`` and ``coupling``).
    """

    squeezing: float
    mode_detuning: float
    coupling: float


def steady_amplitude(
    omega_m: float,
    kerr: float,
    kappa_m: float,
    drive: DriveConfig,
) -> SteadyState:
    """Solve the mean-field response of the driven Kerr mode.

    Roots N of N*[(delta - K*N)^2 + kappa^2/4] = amplitude^2 with
    delta = omega_m - drive.frequency. A root is stable when the response
    function has non-negative slope there (the middle branch of a bistable
    fold has negative slope). Selection: lowest stable root.
    """
    if kappa_m < 0:
        raise ValueError("kappa_m must be >= 0")
    delta = omega_m - drive.frequency
    omega2 = drive.amplitude**2

    if drive.amplitude == 0.0:
        return SteadyState(0j, (0.0,), (True,), 0)

    if kerr == 0.0:
        n_root = omega2 / (delta**2 + kappa_m**2 / 4.0)
        amp = -drive.amplitude / (delta - 0.5j * kappa_m)
        return SteadyState(amp, (n_root,), (True,), 0)

    # K^2 N^3 - 2 delta K N^2 + (delta^2 + kappa^2/4) N - amplitude^2 = 0
    coeffs = [
        kerr**2,
        -2.0 * delta * kerr,
        delta**2 + kappa_m**2 / 4.0,
        -omega2,
    ]
    roots = np.roots(coeffs)
    scale = max(abs(r) for r in roots)
    real_roots = sorted(
        float(r.real)
        for r in roots
        if abs(r.imag) <= 1e-9 * max(scale, 1.0) and r.real > -1e-12 * max(scale, 1.0)
    )
    if not real_roots:
        raise ArithmeticError("driven Kerr cubic produced no physical root")
    occupations = tuple(max(n, 0.0) for n in real_roots)

    def slope(n: float) -> float:
        return (delta - kerr * n) ** 2 + kappa_m**2 / 4.0 - 2.0 * kerr * n * (delta - kerr * n)

    stable = tuple(slope(n) >= 0.0 for n in occupations)
    selected = next((i for i, s in enumerate(stable) if s), 0)
    n_sel = occupations[selected]
    amp = -drive.amplitude / ((delta - kerr * n_sel) - 0.5j * kappa_m)
    return SteadyState(amp, occupations, stable, selected)


def linearize(
    omega_m: float,
    omega_q: float,
    kerr: float,
    mean_amplitude: complex,
    drive: DriveConfig,
    convention: str = "paper",
) -> LinearizedParams:
    """Expand the driven Kerr mode to quadratic order around <m>.

    The mode detuning acquires a mean-field shift of 2*K*N. The default
    `paper` convention adds the shift (delta_m = omega_m + 2KN - omega_d);
    `rederived` subtracts it, matching an independent expansion of the
    -(K/2) m'm'mm term. The two-boson coefficient is kerr2 = K*N after
    rotating <m> real-positive.
    """
    if convention not in SIGN_CONVENTIONS:
        raise ValueError(f"convention must be one of {SIGN_CONVENTIONS}")
    n_mean = abs(mean_amplitude) ** 2
    shift = 2.0 * kerr * n_mean
    if convention == "rederived":
        shift = -shift
    delta_m = omega_m + shift - drive.frequency
    delta_q = omega_q - drive.frequency
    # Rotate the mean amplitude to the positive real axis; kerr2 = K <m>^2
    # is then real. The residual phase is absorbed into the mode operator.
    amp = abs(mean_amplitude) + 0j if mean_amplitude != 0 else 0j
    kerr2 = kerr * n_mean
    return LinearizedParams(
        delta_m=delta_m,
        delta_q=delta_q,
        mean_amplitude=amp,
        kerr2=kerr2,
    )


def squeeze_frame(lin: LinearizedParams, g: float) -> SqueezedFrame:
    """Bogoliubov-diagonalize the quadratic mode and rescale the coupling.

    r = (1/4) ln[(delta_m + kerr2)/(delta_m - kerr2)],
    delta_s = sqrt(delta_m^2 - kerr2^2), G = (g/2) exp(r).
    The kerr2 = 0 limit returns (0, delta_m, g/2) exactly.
    """
    if lin.kerr2 == 0.0:
        return SqueezedFrame(0.0, lin.delta_m, 0.5 * g)
    if not lin.is_stable:
        raise InstabilityError(lin.delta_m, lin.kerr2)
    r = 0.25 * math.log((lin.delta_m + lin.kerr2) / (lin.delta_m - lin.kerr2))
    delta_s = math.sqrt((lin.delta_m - lin.kerr2) * (lin.delta_m + lin.kerr2))
    return SqueezedFrame(r, delta_s, 0.5 * g * math.exp(r))


def _model_operators(spec: HilbertSpec, builder: str, spins: tuple[int, int | None] = (1, 1)):
    """The single-slot operators every mode-plus-spin builder is a formula over.

    Slot convention: slot 0 is the bosonic mode and every later slot is a
    qubit; `spins` = (fewest, most) qubits the builder takes, most None
    for no limit. A spec that breaks either raises ValueError naming the
    builder. Returns the mode's embedded n (the exact number diagonal)
    and each spin's (slot, embedded sz), in slot order; couplings come
    from `_exchange`.
    """
    qubits = spec.subsystems[1:]
    for sub in qubits:
        if sub.dim != 2:
            raise ValueError(f"{builder}: subsystem {sub.label!r} must be a qubit (dim 2)")
    fewest, most = spins
    if not fewest <= len(qubits) <= (len(qubits) if most is None else most):
        takes = f"{fewest}" if fewest == most else f"{fewest} to {most or 'any number of'}"
        raise ValueError(f"{builder} takes {takes} spin(s) after the mode, got {len(qubits)}")
    n = embed(number_operator(spec.dims[0]), 0, spec)
    sz = qubit_ops()["sz"]
    return n, [(s, embed(sz, s, spec)) for s in range(1, len(spec.dims))]


def _exchange(spec: HilbertSpec, slot: int, counter: bool = False) -> np.ndarray:
    """sp a + a' sm, the excitation-exchange coupling of the spin in
    `slot`; with `counter`, sp a' + a sm, the sector the rotating-wave
    approximation drops. Each product is embedded from its mode and spin
    factors."""
    a = annihilation(spec.dims[0])
    with_sp, with_sm = (a.conj().T, a) if counter else (a, a.conj().T)
    ops = qubit_ops()
    return embed_product({0: with_sp, slot: ops["sp"]}, spec) + embed_product(
        {0: with_sm, slot: ops["sm"]}, spec
    )


def nonlinear_hamiltonian(
    spec: HilbertSpec,
    omega_q: float,
    omega_m: float,
    kerr: float,
    g: float,
) -> np.ndarray:
    """Lab-frame model: Kerr mode + spin + excitation-exchange coupling.

    H = (omega_q/2) sz + omega_m n - (K/2) n(n-1) + g (sp a + a' sm).
    """
    n, [(slot, sz)] = _model_operators(spec, "nonlinear_hamiltonian")
    n1 = number_operator(spec.dims[0])
    kerr_term = embed(n1 @ n1 - n1, 0, spec)
    return 0.5 * omega_q * sz + omega_m * n - 0.5 * kerr * kerr_term + g * _exchange(spec, slot)


def linearized_hamiltonian(
    spec: HilbertSpec,
    lin: LinearizedParams,
    g: float = 0.0,
) -> np.ndarray:
    """Drive-frame quadratic model before the Bogoliubov rotation.

    H = delta_m n - (kerr2/2)(a^2 + a'^2) [+ (delta_q/2) sz + g(sp a + h.c.)].
    Accepts a mode-only spec when g = 0 (pure quadratic-mode spectrum).
    """
    n, spins = _model_operators(spec, "linearized_hamiltonian", (0 if g == 0.0 else 1, 1))
    a = annihilation(spec.dims[0])
    h = lin.delta_m * n - 0.5 * lin.kerr2 * embed(a @ a + a.conj().T @ a.conj().T, 0, spec)
    for slot, sz in spins:
        h = h + 0.5 * lin.delta_q * sz + g * _exchange(spec, slot)
    return h


def rabi_hamiltonian(
    spec: HilbertSpec,
    frame: SqueezedFrame,
    delta_q: float,
) -> np.ndarray:
    """Squeezed-frame model with both coupling sectors retained.

    H = (delta_q/2) sz + delta_s n + G (a + a')(sp + sm).
    """
    n, [(slot, sz)] = _model_operators(spec, "rabi_hamiltonian")
    coupling = _exchange(spec, slot) + _exchange(spec, slot, counter=True)
    return 0.5 * delta_q * sz + frame.mode_detuning * n + frame.coupling * coupling


def squeezed_exact_hamiltonian(
    spec: HilbertSpec,
    lin: LinearizedParams,
    g: float,
    delta_q: float | None = None,
) -> np.ndarray:
    """Full Bogoliubov-transformed coupling, nothing dropped.

    Equals ``rabi_hamiltonian`` with G = (g/2) e^r plus a residual coupling
    of magnitude (g/2) e^{-r} on the difference of the two sectors:

    H = delta_s n + (delta_q/2) sz
        + (g/2)e^{+r} (co + counter) + (g/2)e^{-r} (co - counter)

    which regroups to g cosh(r) co + g sinh(r) counter. Built from the
    e^{+r}/e^{-r} split so the residual against ``rabi_hamiltonian`` is
    exact in floating point even at large r.
    """
    if delta_q is None:
        delta_q = lin.delta_q
    frame = squeeze_frame(lin, g)
    n, [(slot, sz)] = _model_operators(spec, "squeezed_exact_hamiltonian")
    co, counter = _exchange(spec, slot), _exchange(spec, slot, counter=True)
    base = 0.5 * delta_q * sz + frame.mode_detuning * n + frame.coupling * (co + counter)
    return base + 0.5 * g * math.exp(-frame.squeezing) * (co - counter)


def tavis_cummings_hamiltonian(
    spec: HilbertSpec,
    frame: SqueezedFrame,
    delta_q: float,
) -> np.ndarray:
    """Excitation-conserving model for one mode and one or more spins.

    H = delta_s n + sum_i [ (delta_q/2) sz_i + G (sp_i a + a' sm_i) ].
    With a single spin this is the usual exchange (beam-splitter) model.
    """
    n, spins = _model_operators(spec, "tavis_cummings_hamiltonian", (1, None))
    h = frame.mode_detuning * n
    for slot, sz in spins:
        h = h + 0.5 * delta_q * sz + frame.coupling * _exchange(spec, slot)
    return h


def effective_coupling(coupling: float, delta_minus: float) -> float:
    """Dispersive spin-spin exchange rate G_eff = G^2 / delta_minus."""
    if delta_minus == 0:
        raise ZeroDivisionError("delta_minus must be nonzero in the dispersive frame")
    return coupling**2 / delta_minus


def effective_spin_spin_hamiltonian(
    delta_q: float,
    delta_minus: float,
    coupling: float,
) -> np.ndarray:
    """Two-spin model after adiabatic elimination of the mode.

    H = (omega_eff/2)(sz1 + sz2) + G_eff (sp1 sm2 + sm1 sp2) with
    G_eff = G^2/delta_minus and omega_eff = delta_q^2/delta_minus (the
    printed spin frequency (1 + 2 n_mode) delta_q^2/delta_minus with the
    mode empty, n_mode = 0, as in every scenario).
    Basis order: (spin1, spin2), indices g=0, e=1.
    """
    g_eff = effective_coupling(coupling, delta_minus)
    omega_eff = delta_q**2 / delta_minus
    spec = HilbertSpec.spins_only(2)
    ops = qubit_ops()
    sz1 = embed(ops["sz"], 0, spec)
    sz2 = embed(ops["sz"], 1, spec)
    exchange = embed_product({0: ops["sp"], 1: ops["sm"]}, spec) + embed_product(
        {0: ops["sm"], 1: ops["sp"]}, spec
    )
    return 0.5 * omega_eff * (sz1 + sz2) + g_eff * exchange


def rwa_advisory(coupling: float, delta_s: float, delta_q: float) -> str | None:
    """Advisory when dropping the counter-rotating sector is questionable."""
    delta_plus = delta_s + delta_q
    if coupling >= abs(delta_plus) / 10.0:
        return (
            f"coupling G={coupling:.6g} is not small against delta_plus="
            f"{delta_plus:.6g}; counter-rotating corrections may be visible"
        )
    return None


def dispersive_advisory(coupling: float, delta_minus: float) -> str | None:
    """Advisory when adiabatic elimination of the mode is questionable."""
    if coupling >= abs(delta_minus) / 10.0:
        return (
            f"coupling G={coupling:.6g} is not small against delta_minus="
            f"{delta_minus:.6g}; dispersive-frame corrections may be visible"
        )
    return None
