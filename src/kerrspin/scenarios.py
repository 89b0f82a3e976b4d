"""Scenario runners: six reproducible experiments built on the core models.

`run_scenario` opens a ScenarioReport under the registry's scenario id
and hands it to the runner with the resolved RunConfig and the output
directory. The runner writes its CSV artifacts and adds its checks, each
with a provenance tag (PAPER / DERIVED / TRIVIAL, see reporting module).
A dynamical runner ends in one call to `_close`, which appends the
integration gates after the runner's own checks and records the frame
(`info["frame"]`), the main run's integrator record (`info["integrator"]`)
and the runner's own info.

The gates are all formed in one place, `_gate_checks`, from three `_Run`
records (main, refined and cutoff-bumped run: reported columns,
conservation drift, integrator info):
- "gate:step-refinement": rerun at doubled resolution (halved dissipative
  substep on the same grid, or a 2N+1-point sample grid against the main
  N+1 for closed-system runs, compared at the main grid's points);
  reported observables must agree to 1e-6.
- "gate:cutoff-bump": rerun with the mode truncation raised by the
  constant CUTOFF_BUMP (5); same 1e-6 agreement.
- "gate:trace-preservation" / "gate:norm-preservation": worst
  conservation-law drift across the three runs, bounded by 1e-8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import device
from . import dynamics as dyn
from . import hamiltonians as ham
from .config import ConfigError, RunConfig, echo
from .fock import HilbertSpec, annihilation, basis_ket, dm, embed, qubit_ops
from .reporting import (
    CheckResult,
    ScenarioReport,
    check_ge,
    check_le,
    check_order_of_magnitude,
    check_within,
    write_params,
    write_report,
    write_sweep_csv,
    write_trajectory_csv,
)

TWO_PI = 2.0 * math.pi
GATE_TOL = 1.0e-6
CONSERVATION_GATE_TOL = 1.0e-8
CUTOFF_BUMP = 5  # levels added to the mode truncation by the cutoff-bump gate


# ---------------------------------------------------------------------------
# Frame resolution (shared by the dynamical scenarios)
# ---------------------------------------------------------------------------


@dataclass
class FrameSpec:
    """Interaction-frame rates, all angular (rad/s), and the configuration
    keys behind the coupling, the spin detuning and the mode-spin gap
    (`keys`), which an error about a rate derived from them names."""

    coupling: float
    delta_q: float
    delta_s: float
    squeezing: float
    info: dict
    keys: dict[str, str]

    @property
    def delta_minus(self) -> float:
        return self.delta_s - self.delta_q

    @property
    def squeezed(self) -> ham.SqueezedFrame:
        """The squeezed frame the model builders take."""
        return ham.SqueezedFrame(self.squeezing, self.delta_s, self.coupling)

    def summary(self) -> dict:
        return {
            "coupling_hz": self.coupling / TWO_PI,
            "delta_q_hz": self.delta_q / TWO_PI,
            "delta_s_hz": self.delta_s / TWO_PI,
            "delta_minus_hz": self.delta_minus / TWO_PI,
            "squeezing": self.squeezing,
            **self.info,
        }


def _device_frame(cfg: RunConfig) -> FrameSpec:
    """Derive the frame from geometry, bias, and drive via the full chain:
    device rates -> driven steady state -> quadratic expansion -> frame."""
    radius, distance, b0 = cfg["device.radius_m"], cfg["device.distance_m"], cfg["device.bias_t"]
    cal = cfg["device.calibration"]
    kerr = _finite("device.radius_m", device.kerr_coefficient, radius, cal)
    g = _finite("device.radius_m or device.distance_m", device.bare_coupling, radius, distance, cal)
    omega_m = _finite("device.bias_t or device.radius_m", device.magnon_frequency, b0, radius, cal)
    omega_q = cfg.angular("device.omega_q_hz")
    omega_d = omega_m - cfg.angular("drive.detuning_hz")
    amplitude = cfg.angular("drive.amplitude_hz")
    kappa = cfg["dissipation.kappa_m"]
    # The steady state solves a cubic whose coefficients hold the squares of
    # these rates (omega_m - omega_d is the drive detuning).
    for key, rate in [("device.radius_m", kerr), ("drive.detuning_hz", omega_m - omega_d),
                      ("dissipation.kappa_m", kappa), ("drive.amplitude_hz", amplitude)]:
        if not math.isfinite(rate * rate):
            raise ConfigError(f"{key} out of range: the driven steady state squares {rate:g} rad/s")
    drive = ham.DriveConfig(frequency=omega_d, amplitude=amplitude)
    steady = ham.steady_amplitude(omega_m, kerr, kappa, drive)
    lin = ham.linearize(
        omega_m, omega_q, kerr, steady.mean_amplitude, drive, convention=cfg["convention.sign"]
    )
    frame = ham.squeeze_frame(lin, g)
    return FrameSpec(
        coupling=frame.coupling,
        delta_q=lin.delta_q,
        delta_s=frame.mode_detuning,
        squeezing=frame.squeezing,
        keys={
            "coupling": "device.radius_m or device.distance_m",
            "delta_q": "device.omega_q_hz or drive.detuning_hz",
            "gap": "device.omega_q_hz, device.bias_t or drive.detuning_hz",
        },
        info={
            "origin": "device",
            "device": {
                "kerr_hz": kerr / TWO_PI,
                "bare_coupling_hz": g / TWO_PI,
                "mode_frequency_hz": omega_m / TWO_PI,
                "drive_frequency_hz": omega_d / TWO_PI,
                "steady_occupation": steady.n_mean,
                "steady_branch_occupations": list(steady.occupations),
                "stability_margin": lin.stability_margin,
                "enhancement_factor": math.exp(frame.squeezing),
            },
        },
    )


def _finite(keys: str, rate: Callable, *args):
    """rate(*args), a float or an array, or a ConfigError naming `keys` if an
    element is not finite or is 0, which a device rate is only when a factor
    underflowed. Float `**` raises OverflowError or underflows to a 0 divisor;
    array `**` gives inf or 0."""
    try:
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            value = rate(*args)
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not np.all(np.isfinite(value) & (value != 0.0)):
        raise ConfigError(f"{keys} out of range: the derived {rate.__name__} is 0 or not finite")
    return value


def _resolve_frame(
    cfg: RunConfig,
    default_coupling_hz: float,
    delta_q_factor: float,
    delta_s_factor: float | None = None,
    delta_minus_factor: float | None = None,
) -> FrameSpec:
    """The frame derived from the device with run.from_device, else from the
    frame.* keys, each unset one from its scenario default (a multiple of
    the coupling G). A caller passes exactly one of `delta_s_factor` and
    `delta_minus_factor`."""
    if cfg["run.from_device"]:
        return _device_frame(cfg)
    coupling = cfg.angular_or_none("frame.coupling_hz")
    if coupling is None:
        coupling = TWO_PI * default_coupling_hz
    dq_cfg = cfg.angular_or_none("frame.delta_q_hz")
    delta_q = delta_q_factor * coupling if dq_cfg is None else dq_cfg
    ds_cfg = cfg.angular_or_none("frame.delta_s_hz")
    dm_cfg = cfg.angular_or_none("frame.delta_minus_hz")
    if ds_cfg is not None and dm_cfg is not None:
        raise ConfigError("set either frame.delta_s_hz or frame.delta_minus_hz, not both")
    if dm_cfg is not None:
        delta_s = delta_q + dm_cfg
    elif ds_cfg is not None:
        delta_s = ds_cfg
    elif delta_minus_factor is not None:
        delta_s = delta_q + delta_minus_factor * coupling
    else:
        delta_s = delta_s_factor * coupling
    gap = "frame.delta_minus_hz" if ds_cfg is None else "frame.delta_s_hz"
    return FrameSpec(
        coupling=coupling,
        delta_q=delta_q,
        delta_s=delta_s,
        squeezing=0.0,
        info={"origin": "configured"},
        keys={
            "coupling": "frame.coupling_hz",
            # An unset delta_q is a multiple of the coupling.
            "delta_q": "frame.coupling_hz" if dq_cfg is None else "frame.delta_q_hz",
            # The gap is delta_s - delta_q, so a configured delta_q is behind it
            # too: delta_q + gap can round to delta_q.
            "gap": gap if dq_cfg is None else f"frame.delta_q_hz or {gap}",
        },
    )


def _time_scale(coupling: float, keys: dict[str, str], delta_minus: float | None = None) -> float:
    """pi/(2 G) or, given the mode-spin gap, pi/(2 |G_eff|) with G_eff =
    G^2/delta_minus. A ConfigError names keys["gap"] for a zero gap or one
    whose periods the time scale holds more of than a float can count, and
    keys["coupling"] for a time scale that is not finite and positive."""
    rate = coupling
    if delta_minus == 0.0:
        raise ConfigError(
            f"{keys['gap']}: the gap delta_s - delta_q is 0; this scenario divides by it"
        )
    if delta_minus is not None:
        # effective_coupling's G**2 raises OverflowError where G * G is inf.
        big = not math.isfinite(coupling * coupling)
        rate = math.inf if big else abs(ham.effective_coupling(coupling, delta_minus))
    t = math.pi / (2.0 * rate) if rate != 0.0 else math.inf
    if not 0.0 < t < math.inf:
        raise ConfigError(f"{keys['coupling']}: G = {coupling:g} rad/s sets the time scale {t:g} s")
    if delta_minus is not None and not math.isfinite(t * delta_minus):
        raise ConfigError(
            f"{keys['gap']}: the time scale {t:g} s is too long at gap {delta_minus:g}"
        )
    return t


# ---------------------------------------------------------------------------
# Gate helpers
# ---------------------------------------------------------------------------


@dataclass
class _Run:
    """One run of a scenario's models: the reported columns, the worst
    conservation drift (norm or trace) and what the integrator decided."""

    cols: dict[str, np.ndarray]
    drift: float
    info: dict


def _merge(runs: dict[str, _Run]) -> _Run:
    """Runs of separate models (levels, ratios, written and full) as one:
    their columns in order, the worst drift, the infos under their keys."""
    cols = {key: col for run in runs.values() for key, col in run.cols.items()}
    drift = max(run.drift for run in runs.values())
    return _Run(cols, drift, {key: run.info for key, run in runs.items()})


def _gate_checks(main: _Run, fine: _Run, bumped: _Run, conservation: str) -> list[CheckResult]:
    """The three integration gates: step refinement against `fine`, cutoff
    bump against `bumped`, and the worst drift of all three runs.

    A rerun column as long as the main one is compared point by point; one
    of 2N+1 points against N+1 sits on the refined grid and is compared at
    the main grid's points (stride 2). Any other length does not refine the
    main grid and raises ValueError.
    """

    def worst(rerun: _Run) -> float:
        delta = 0.0
        for key, col in main.cols.items():
            other = rerun.cols[key]
            if len(other) == 2 * len(col) - 1:
                other = other[::2]
            elif len(other) != len(col):
                raise ValueError(f"{key!r}: {len(other)} rerun points do not refine {len(col)}")
            delta = max(delta, float(np.max(np.abs(col - other))))
        return delta

    drift = max(main.drift, fine.drift, bumped.drift)
    return [
        check_le("gate:step-refinement", worst(fine), GATE_TOL, "TRIVIAL"),
        check_le("gate:cutoff-bump", worst(bumped), GATE_TOL, "TRIVIAL"),
        check_le(f"gate:{conservation}", drift, CONSERVATION_GATE_TOL, "TRIVIAL"),
    ]


def _close(report: ScenarioReport, fs: FrameSpec, main: _Run, fine: _Run, bumped: _Run,
           conservation: str, **info) -> None:
    """End a dynamical scenario's report: the three gates after the runner's
    own checks, then the frame, the main run's integrator record and `info`."""
    report.checks.extend(_gate_checks(main, fine, bumped, conservation))
    report.info.update(frame=fs.summary(), integrator=main.info, **info)


_INTEGRATOR_KEYS = (
    "spectral_scale",
    "substep",
    "max_substeps_per_interval",
    "hilbert_dim",
    "reduced_dim",
    "liouville_dim",
    "liouville_sectors",
    "min_eigenvalue",
)


def _integrator_info(diagnostics: dict) -> dict:
    """What the integrator decided for one run: a unitary run has only the
    full and reduced dimensions, a Lindblad run adds its step and, where
    it reports one, the lowest eigenvalue of its states (of its Choi
    matrices, for a gate channel)."""
    return {key: diagnostics[key] for key in _INTEGRATOR_KEYS if key in diagnostics}


def _refine_peak(times: np.ndarray, series: np.ndarray) -> tuple[float, float]:
    """Interior parabolic refinement of the global maximum of a sampled
    series; falls back to the grid point at the edges."""
    i = int(np.argmax(series))
    if 0 < i < len(series) - 1:
        y0, y1, y2 = series[i - 1], series[i], series[i + 1]
        denom = y0 - 2.0 * y1 + y2
        if denom < 0:
            offset = 0.5 * (y0 - y2) / denom
            h = times[i + 1] - times[i]
            return float(times[i] + offset * h), float(y1 - 0.25 * (y0 - y2) * offset)
    return float(times[i]), float(series[i])


def _ratio(num: float, den: float) -> float:
    """num / den, or NaN when den is 0."""
    return num / den if den != 0.0 else math.nan


def _resolve_cutoff(cfg: RunConfig, default: int) -> int:
    cut = cfg["run.cutoff"]
    return int(cut) if cut is not None else default


def _step_args(cfg: RunConfig, halved: bool = False) -> dict:
    step = cfg["run.step"]
    scale = cfg["run.step_scale"]
    if step is not None:
        return {"step": step / 2.0 if halved else step}
    return {"step_scale": scale / 2.0 if halved else scale}


# ---------------------------------------------------------------------------
# coupling-sweep
# ---------------------------------------------------------------------------


def run_coupling_sweep(cfg: RunConfig, out_dir: Path, report: ScenarioReport) -> None:
    """Geometry scan of the spin-mode coupling and the mode
    self-interaction rate, in both calibrations, plus the frame-enhanced
    coupling at squeezing 0 and 10."""
    if cfg["run.from_device"]:
        raise ConfigError("run.from_device does not apply to coupling-sweep")

    for lo, hi in (("sweep.radius_min_m", "sweep.radius_max_m"),
                   ("sweep.distance_min_m", "sweep.distance_max_m")):
        if not cfg[lo] < cfg[hi]:
            raise ConfigError(f"{lo} must be below {hi}, got {cfg[lo]:g} and {cfg[hi]:g}")
    radii = np.geomspace(cfg["sweep.radius_min_m"], cfg["sweep.radius_max_m"], cfg["sweep.radius_points"])
    gaps = np.geomspace(
        cfg["sweep.distance_min_m"], cfg["sweep.distance_max_m"], cfg["sweep.distance_points"]
    )
    d_fixed = cfg["sweep.distance_m"]
    r_fixed = cfg["sweep.radius_m"]
    # A scan edge past the float range makes a column inf, NaN or 0 (underflow).
    r_keys = "sweep.radius_min_m, sweep.radius_max_m or sweep.distance_m"
    d_keys = "sweep.distance_min_m, sweep.distance_max_m or sweep.radius_m"
    g, k = device.bare_coupling, device.kerr_coefficient

    radius_cols = {
        "coupling_anchored_hz": _finite(r_keys, g, radii, d_fixed, "anchored") / TWO_PI,
        "coupling_formula_hz": _finite(r_keys, g, radii, d_fixed, "formula") / TWO_PI,
        "kerr_anchored_hz": _finite(r_keys, k, radii, "anchored") / TWO_PI,
        "kerr_formula_hz": _finite(r_keys, k, radii, "formula") / TWO_PI,
    }
    g_formula_gap = _finite(d_keys, g, r_fixed, gaps, "formula") / TWO_PI
    # A mode with no two-boson term (kerr2 = 0) is not squeezed: r = 0.
    unsqueezed = ham.LinearizedParams(1.0, 0.0, 0j, 0.0)
    gap_cols = {
        "coupling_anchored_hz": _finite(d_keys, g, r_fixed, gaps, "anchored") / TWO_PI,
        "coupling_formula_hz": g_formula_gap,
        "enhanced_r0_hz": ham.squeeze_frame(unsqueezed, g_formula_gap).coupling,
        "enhanced_r10_hz": 0.5 * g_formula_gap * math.exp(10.0),
    }
    # Gaps below float64's resolution next to the radius leave d + R = R,
    # so the scan would no longer move the spin.
    if not np.all(np.diff(r_fixed + gaps) > 0):
        raise ConfigError(
            f"sweep.distance_min_m={cfg['sweep.distance_min_m']:g} is too fine for "
            f"sweep.radius_m={r_fixed:g}: radius + gap must strictly increase in float64"
        )
    report.outputs["sweep_radius"] = write_sweep_csv(
        out_dir / "sweep_radius.csv", "radius_m", radii, radius_cols
    )
    report.outputs["sweep_distance"] = write_sweep_csv(
        out_dir / "sweep_distance.csv", "distance_m", gaps, gap_cols
    )

    # Reference anchors evaluated at their exact geometries.
    g30 = g(30e-9, 6e-9) / TWO_PI
    g50 = g(50e-9, 6e-9) / TWO_PI
    k50 = k(50e-9) / TWO_PI
    k_bulk = k(0.5e-3) / TWO_PI
    g_far_formula = g(30e-9, 1e-6, "formula") / TWO_PI
    enhanced_far = 0.5 * g_far_formula * math.exp(10.0)

    report.add(check_within("anchor-coupling-30nm", g30, 1.5e3, 0.20, "PAPER"))
    report.add(check_within("anchor-coupling-50nm", g50, 860.0, 1e-12, "PAPER"))
    report.add(check_within("anchor-kerr-50nm", k50, 128.0, 1e-12, "PAPER"))

    kerr_col = radius_cols["kerr_anchored_hz"]
    cube = kerr_col * radii**3
    cube_dev = float(np.max(np.abs(cube / cube[0] - 1.0)))
    report.add(check_le("kerr-cube-law", cube_dev, 1e-12, "TRIVIAL"))
    report.add(check_order_of_magnitude("kerr-bulk-extrapolation", k_bulk, 5e-11, 10.0, "PAPER"))
    report.add(
        check_order_of_magnitude("enhanced-coupling-1um-r10", enhanced_far, 4.0e6, 10.0, "PAPER")
    )

    r0_dev = float(
        np.max(np.abs(gap_cols["enhanced_r0_hz"] - 0.5 * gap_cols["coupling_formula_hz"]))
    ) / float(np.max(gap_cols["enhanced_r0_hz"]))
    report.add(check_le("enhancement-identity-r0", r0_dev, 1e-15, "TRIVIAL"))

    # The near-field coupling g(R) at fixed gap peaks where the shape
    # factor R^1.5/(d+R)^3 turns over, which is exactly R = d.
    g_col = radius_cols["coupling_anchored_hz"]
    imax = int(np.argmax(g_col))
    interior = 0 < imax < len(radii) - 1
    grid_ratio = (radii[-1] / radii[0]) ** (1.0 / (len(radii) - 1))
    peak_ok = interior and abs(radii[imax] - d_fixed) <= radii[imax] * (grid_ratio - 1.0)
    report.add(
        CheckResult(
            name="radius-interior-maximum",
            expected=f"argmax of coupling at radius = gap = {d_fixed:.3g} m, interior to the scan",
            observed=float(radii[imax]),
            tolerance="within one (geometric) grid step",
            passed=bool(peak_ok),
            provenance="DERIVED",
        )
    )
    gap_mono = bool(np.all(np.diff(gap_cols["coupling_anchored_hz"]) < 0))
    report.add(
        CheckResult(
            name="distance-monotonic-decay",
            expected="coupling strictly decreasing with the spin-surface gap",
            observed="decreasing" if gap_mono else "not monotonic",
            tolerance="strict",
            passed=gap_mono,
            provenance="TRIVIAL",
        )
    )

    report.info.update(
        calibration_gap_ratio=g(50e-9, 6e-9, "formula") / g(50e-9, 6e-9),
        anchored_coupling_30nm_hz=g30,
        kerr_bulk_hz=k_bulk,
        enhanced_coupling_1um_r10_hz=enhanced_far,
        radius_at_peak_m=float(radii[imax]),
    )


# ---------------------------------------------------------------------------
# rabi
# ---------------------------------------------------------------------------


def run_rabi(cfg: RunConfig, out_dir: Path, report: ScenarioReport) -> None:
    """Single-spin exchange with the counter-rotating sector retained.

    One quantum in the mode, spin in the ground state, resonant frame
    (delta_q = delta_s = 10 G). The counter-rotating terms leak a small,
    bounded amount of population out of the single-excitation manifold;
    first-order perturbation in G/(delta_s + delta_q) bounds the leakage
    by 8 [G/(delta_s + delta_q)]^2.
    """
    fs = _resolve_frame(cfg, 4.0e6, 10.0, delta_s_factor=10.0)
    if fs.delta_s + fs.delta_q == 0.0:  # the leakage bound divides by it
        raise ConfigError(
            "the sum delta_s + delta_q is 0 and rabi divides by it; "
            "set frame.delta_s_hz and frame.delta_q_hz to a nonzero sum"
        )
    cutoff = _resolve_cutoff(cfg, 15)
    coupling = fs.coupling
    t_star = _time_scale(coupling, fs.keys)
    window = 3.0 * t_star
    base_points = 1200  # t_star lands exactly on index 400
    times = np.linspace(0.0, window, base_points + 1)

    def core(cut: int, tgrid: np.ndarray) -> _Run:
        spec = HilbertSpec.mode_and_spins(cut, 1)
        h = ham.rabi_hamiltonian(spec, fs.squeezed, fs.delta_q)
        psi0 = basis_ket((1, 0), spec)
        manifold = dm(basis_ket((1, 0), spec)) + dm(basis_ket((0, 1), spec))
        traj = dyn.evolve_unitary(
            h, psi0, tgrid, spec=spec, observables={"manifold": manifold}
        )
        cols = {key: traj.observables[key] for key in ("pop_mode", "pop_spin", "manifold")}
        return _Run(cols, traj.diagnostics["norm_drift"], _integrator_info(traj.diagnostics))

    main = core(cutoff, times)
    fine = core(cutoff, np.linspace(0.0, window, 2 * base_points + 1))
    bumped = core(cutoff + CUTOFF_BUMP, times)
    cols = main.cols

    report.outputs["trajectory"] = write_trajectory_csv(out_dir / "trajectory.csv", times, cols)

    spin = cols["pop_spin"]
    contrast = float(spin.max() - spin.min())
    report.add(check_ge("exchange-contrast", contrast, 0.95, "DERIVED"))

    # First peak: global argmax restricted to the first two thirds of the
    # window (one exchange period), compared to the exchange half-period.
    first = spin[: 2 * base_points // 3 + 1]
    t_peak = float(times[int(np.argmax(first))])
    report.add(
        check_within("first-peak-time", t_peak, t_star, 0.05, "DERIVED")
    )

    leak_bound = 8.0 * (coupling / (fs.delta_s + fs.delta_q)) ** 2
    manifold_min = float(cols["manifold"].min())
    report.add(check_ge("manifold-retention", manifold_min, 0.975, "DERIVED"))

    advisory = ham.rwa_advisory(coupling, fs.delta_s, fs.delta_q)
    _close(
        report, fs, main, fine, bumped, "norm-preservation",
        exchange_half_period_s=t_star,
        observed_peak_time_s=t_peak,
        manifold_leakage_bound=leak_bound,
        manifold_retention_oracle=1.0 - leak_bound,
        advisories=[a for a in (advisory,) if a],
    )


# ---------------------------------------------------------------------------
# battery
# ---------------------------------------------------------------------------


def run_battery(cfg: RunConfig, out_dir: Path, report: ScenarioReport) -> None:
    """Single-spin charger: an m-quantum mode state loads the spin through
    the resonant exchange coupling; the charge peak arrives at
    pi/(2 sqrt(m) G), a sqrt(m) speedup, with peak power growing with m."""
    fs = _resolve_frame(cfg, 4.0e6, 10.0, delta_s_factor=10.0)
    levels = sorted(cfg["battery.fock_levels"])
    # Each level names a CSV; the speedup and power checks compare the
    # lowest level with the highest.
    if len(set(levels)) < max(len(levels), 2):
        raise ConfigError(f"battery.fock_levels needs 2 or more distinct entries, got {echo(levels)}")
    coupling = fs.coupling
    window = 2.0 * _time_scale(coupling, fs.keys)  # pi / G
    base_points = 1600

    def level_cutoff(m: int, bump: int = 0) -> int:
        cut = cfg["run.cutoff"]
        if cut is not None:
            if cut < m + 2:
                raise ConfigError(
                    f"run.cutoff={cut} too small for battery.fock_levels entry {m}; "
                    f"need at least {m + 2}"
                )
            return int(cut) + bump
        return m + 10 + bump

    times = np.linspace(0.0, window, base_points + 1)
    # The power column divides the energy delta_q * pop by the time, so it
    # stays below |delta_q| / times[1].
    if not math.isfinite(fs.delta_q / float(times[1])):
        keys = " or ".join(dict.fromkeys([fs.keys["coupling"], fs.keys["delta_q"]]))
        raise ConfigError(
            f"{keys}: the power scale delta_q / dt = {fs.delta_q:g} rad/s / {times[1]:g} s"
            " overflows"
        )

    def level(m: int, bump: int, tgrid: np.ndarray) -> _Run:
        spec = HilbertSpec.mode_and_spins(level_cutoff(m, bump), 1)
        h = ham.tavis_cummings_hamiltonian(spec, fs.squeezed, fs.delta_q)
        traj = dyn.evolve_unitary(h, basis_ket((m, 0), spec), tgrid, spec=spec)
        cols = {f"pop_spin_m{m}": traj.observables["pop_spin"]}
        return _Run(cols, traj.diagnostics["norm_drift"], _integrator_info(traj.diagnostics))

    def core(bump: int, tgrid: np.ndarray) -> _Run:
        return _merge({str(m): level(m, bump, tgrid) for m in levels})

    main = core(0, times)
    fine = core(0, np.linspace(0.0, window, 2 * base_points + 1))
    bumped = core(CUTOFF_BUMP, times)
    cols = main.cols

    peaks: dict[int, tuple[float, float]] = {}
    power_max: dict[int, float] = {}
    early_power: dict[int, float] = {}
    for m in levels:
        pop = cols[f"pop_spin_m{m}"]
        energy = fs.delta_q * pop
        power = np.zeros_like(energy)
        np.divide(energy, times, out=power, where=times > 0)
        report.outputs[f"battery_m{m}"] = write_trajectory_csv(
            out_dir / f"battery_m{m}.csv",
            times,
            {"pop_spin": pop, "energy_rad_per_s": energy, "power_rad_per_s2": power},
        )
        peaks[m] = _refine_peak(times, pop)
        power_max[m] = float(power.max())
        early_power[m] = float(power[1])

    m_lo, m_hi = levels[0], levels[-1]
    report.add(check_ge("full-charge-first-level", peaks[m_lo][1], 0.999, "PAPER"))
    # A first level that never charges (peak at t = 0, zero power) makes
    # these ratios NaN, which fails their checks.
    speedup, ideal = _ratio(peaks[m_hi][0], peaks[m_lo][0]), math.sqrt(m_lo / m_hi)
    report.add(check_within("charge-time-speedup", speedup, ideal, 0.02, "DERIVED"))
    report.add(
        check_ge("peak-power-ratio", _ratio(power_max[m_hi], power_max[m_lo]), 2.0, "DERIVED")
    )
    early = _ratio(early_power[m_lo], power_max[m_lo])
    report.add(check_le("early-power-vanishes", early, 0.01, "TRIVIAL"))

    _close(
        report, fs, main, fine, bumped, "norm-preservation",
        peak_times_s={str(m): peaks[m][0] for m in levels},
        peak_charges={str(m): peaks[m][1] for m in levels},
        peak_powers_rad_per_s2={str(m): power_max[m] for m in levels},
        analytic_peak_times_s={
            str(m): math.pi / (2.0 * math.sqrt(m) * coupling) for m in levels
        },
    )


# ---------------------------------------------------------------------------
# state-transfer
# ---------------------------------------------------------------------------


def _channels(spec: HilbertSpec, channels: list[tuple[np.ndarray, int, float]]) -> list:
    """The collapse channels (operator, slot, rate) with a nonzero rate,
    embedded; a closed-system model (all rates 0) embeds none."""
    return [(embed(op, slot, spec), rate) for op, slot, rate in channels if rate != 0.0]


def _full_model(fs: FrameSpec, cut: int, kappa: float, gamma: float) -> dyn.LindbladModel:
    """Three-body Tavis-Cummings model: mode (cut levels) plus two spins."""
    spec = HilbertSpec.mode_and_spins(cut, 2)
    h = ham.tavis_cummings_hamiltonian(spec, fs.squeezed, fs.delta_q)
    sm = qubit_ops()["sm"]
    collapse = _channels(spec, [(annihilation(cut), 0, kappa), (sm, 1, gamma), (sm, 2, gamma)])
    return dyn.LindbladModel(h, collapse, spec)


def _written_model(fs: FrameSpec, gamma: float) -> dyn.LindbladModel:
    """Mode-eliminated two-spin model (no mode, so no kappa)."""
    spec = HilbertSpec.spins_only(2)
    h = ham.effective_spin_spin_hamiltonian(fs.delta_q, fs.delta_minus, fs.coupling)
    sm = qubit_ops()["sm"]
    return dyn.LindbladModel(h, _channels(spec, [(sm, 0, gamma), (sm, 1, gamma)]), spec)


def _closed_evolution(model: dyn.LindbladModel, label: tuple, times: np.ndarray):
    """Dissipationless evolution of one basis state under the model's Hamiltonian."""
    psi0 = basis_ket(label, model.spec)
    return dyn.evolve_unitary(model.hamiltonian, psi0, times, spec=model.spec)


def run_state_transfer(cfg: RunConfig, out_dir: Path, report: ScenarioReport) -> None:
    """Excitation transfer between two spins through the far-detuned mode,
    full three-body master equation against the written two-spin one.

    In the written (mode-eliminated) equation the mode population is
    identically zero by construction; the full model's transient mode
    occupancy is bounded by the sudden-switch estimate 6 (G/delta_minus)^2.
    """
    fs = _resolve_frame(cfg, 0.7e6, 2.0, delta_minus_factor=10.0)
    cutoff = _resolve_cutoff(cfg, 6)
    t_star = _time_scale(fs.coupling, fs.keys, fs.delta_minus)
    g_eff = ham.effective_coupling(fs.coupling, fs.delta_minus)
    times = np.linspace(0.0, 1.4 * t_star, 281)  # t_star at index 200
    kappa = cfg["dissipation.kappa_m"]
    gamma = cfg["dissipation.gamma_q"]

    def transfer(model: dyn.LindbladModel, halved: bool, record: bool = False) -> _Run:
        """The run from one spin excited (the full model's mode empty);
        only the main runs (`record`) report their lowest state eigenvalue,
        the reruns' info is never read."""
        label, suffix = ((0, 1, 0), "full") if len(model.spec.dims) == 3 else ((1, 0), "eff")
        traj = dyn.evolve_lindblad(
            model,
            dm(basis_ket(label, model.spec)),
            times,
            record_min_eigenvalue=record,
            **_step_args(cfg, halved),
        )
        # The written two-spin equation has no mode: identically zero.
        mode = traj.observables.get("pop_mode", np.zeros_like(times))
        cols = {
            f"pop_spin1_{suffix}": traj.observables["pop_spin1"],
            f"pop_spin2_{suffix}": traj.observables["pop_spin2"],
            f"pop_mode_{suffix}": mode,
        }
        return _Run(cols, traj.diagnostics["trace_deviation"], _integrator_info(traj.diagnostics))

    model3 = _full_model(fs, cutoff, kappa, gamma)
    model2 = _written_model(fs, gamma)
    eff = transfer(model2, False, record=True)
    main = _merge({"full": transfer(model3, False, record=True), "effective": eff})
    fine = _merge({"full": transfer(model3, True), "effective": transfer(model2, True)})
    # The written model has no cutoff: the bump reuses its main run.
    bumped_model3 = _full_model(fs, cutoff + CUTOFF_BUMP, kappa, gamma)
    bumped = _merge({"full": transfer(bumped_model3, False), "effective": eff})
    cols = main.cols

    report.outputs["transfer"] = write_trajectory_csv(out_dir / "transfer.csv", times, cols)

    peak_full_t, peak_full = _refine_peak(times, cols["pop_spin2_full"])
    peak_eff = float(cols["pop_spin2_eff"].max())
    report.add(check_ge("spin2-peak-full", peak_full, 0.9, "DERIVED"))
    report.add(check_ge("spin2-peak-effective", peak_eff, 0.9, "DERIVED"))
    report.add(check_within("peak-time-full", peak_full_t, t_star, 0.10, "DERIVED"))

    mode_bound = 6.0 * (fs.coupling / fs.delta_minus) ** 2
    mode_eff = check_le(
        "mode-occupancy-effective", float(cols["pop_mode_eff"].max()), 0.015, "TRIVIAL"
    )
    reason = "0 by construction: the written model has no mode, so its pop_mode column is 0"
    report.add(replace(mode_eff, expected=f"{mode_eff.expected}; {reason}"))
    report.add(
        check_le("mode-occupancy-full", float(cols["pop_mode_full"].max()), mode_bound, "DERIVED")
    )

    # Dissipationless reference: both models closed-system; their transfer
    # peaks must agree (the written model's only error is dispersive).
    traj_u = _closed_evolution(model3, (0, 1, 0), times)
    traj_u2 = _closed_evolution(model2, (1, 0), times)
    peak_u = float(traj_u.observables["pop_spin2"].max())
    peak_u2 = float(traj_u2.observables["pop_spin2"].max())
    report.add(
        check_le("dissipationless-model-agreement", abs(peak_u - peak_u2), 0.02, "DERIVED")
    )

    advisory = ham.dispersive_advisory(fs.coupling, fs.delta_minus)
    _close(
        report, fs, main, fine, bumped, "trace-preservation",
        effective_coupling_hz=g_eff / TWO_PI,
        transfer_time_s=t_star,
        observed_peak_time_s=peak_full_t,
        dissipationless_peak_full=peak_u,
        dissipationless_peak_effective=peak_u2,
        dissipation_peak_drop_full=peak_u - peak_full,
        dissipationless_mode_max=float(traj_u.observables["pop_mode"].max()),
        mode_occupancy_bound=mode_bound,
        advisories=[a for a in (advisory,) if a],
    )


# ---------------------------------------------------------------------------
# iswap-fidelity
# ---------------------------------------------------------------------------


def _dissipationless_fidelity(h: np.ndarray, t: float) -> float:
    """Phase-stripped average iSWAP fidelity of the closed-system gate
    exp(-i h t), the mode (if any) starting empty: each of the 4 kets
    |0, j> is evolved on its own reached block, and E(|j><k|) =
    Tr_mode |psi_j><psi_k| comes from their final states (the mode first,
    the spins last)."""
    d = h.shape[0]
    kets = np.eye(4, d, dtype=complex)
    finals = [dyn.evolve_unitary(h, ket, [0.0, t]).final_state for ket in kets]
    psi = np.stack(finals).reshape(4, d // 4, 4)
    images = np.einsum("jma,kmb->jkab", psi, psi.conj()).reshape(16, 4, 4)
    return dyn.gate_fidelities(dyn.choi_from_outputs(images), dyn.iswap_unitary())[1]


def run_iswap_fidelity(cfg: RunConfig, out_dir: Path, report: ScenarioReport) -> None:
    """Process tomography of the bus-mediated two-spin gate against the
    ideal excitation swap, with deterministic local-phase stripping.

    Reported fidelity series: raw and phase-stripped average gate
    fidelity for the written two-spin channel and for the full
    three-body channel (mode traced out). Every channel is a Choi series,
    from dyn.evolve_channel or, for the dissipationless references, from
    4 evolved kets, scored by dyn.gate_fidelities.

    The kappa-doubling robustness check binds to the written channel,
    where the mode has been eliminated and the mode decay rate does not
    appear: its builder takes no kappa, so the rerun at doubled mode
    decay is the same model and reads 0 by construction. The rerun is
    kept as a structural check, tagged TRIVIAL. The full model's kappa
    sensitivity is reported as information.
    """
    fs = _resolve_frame(cfg, 0.7e6, 2.0, delta_minus_factor=10.0)
    cutoff = _resolve_cutoff(cfg, 6)
    t_star = _time_scale(fs.coupling, fs.keys, fs.delta_minus)
    g_eff = ham.effective_coupling(fs.coupling, fs.delta_minus)
    times = np.linspace(0.0, 1.4 * t_star, 281)
    kappa = cfg["dissipation.kappa_m"]
    gamma = cfg["dissipation.gamma_q"]
    target = dyn.iswap_unitary()
    gate_idx = 200  # t_star lands exactly on this grid index

    def tomography(model: dyn.LindbladModel, suffix: str, halved: bool, record: bool = True):
        """The channel's run record, its strip phases and its single-input
        transfer fidelity at t_star, <g e|E(|e g><e g|)|g e> = 4 J[6, 6]
        (J[a*4 + j, b*4 + k] = E(|j><k|)[a, b] / 4; up to the gate's local
        phase); the record holds the lowest Choi eigenvalue if `record`. A
        rerun, of which only the record's columns and drift are read, passes
        record=False: its positivity is certified without computing that
        eigenvalue."""
        choi, diagnostics = dyn.evolve_channel(
            model, times, record_min_eigenvalue=record, **_step_args(cfg, halved)
        )
        raw, stripped, phases = dyn.gate_fidelities(choi, target)
        cols = {f"favg_raw_{suffix}": raw, f"favg_stripped_{suffix}": stripped}
        run = _Run(cols, diagnostics["trace_deviation"], _integrator_info(diagnostics))
        return run, phases, 4.0 * float(choi[gate_idx, 6, 6].real)

    written = _written_model(fs, gamma)
    full = _full_model(fs, cutoff, kappa, gamma)
    eff, phases_eff, transfer_fid_eff = tomography(written, "eff", False)
    full_run, _, transfer_fid_full = tomography(full, "full", False)
    main = _merge({"effective": eff, "full": full_run})
    stripped_eff = eff.cols["favg_stripped_eff"]
    peak_full = float(np.max(full_run.cols["favg_stripped_full"]))

    # Gate runs: halved substep for both channels, mode cutoff bump for
    # the full channel (the written channel has no cutoff; reused).
    fine = _merge(
        {
            "effective": tomography(written, "eff", True, record=False)[0],
            "full": tomography(full, "full", True, record=False)[0],
        }
    )
    bumped_full = _full_model(fs, cutoff + CUTOFF_BUMP, kappa, gamma)
    bumped = _merge(
        {"effective": eff, "full": tomography(bumped_full, "full", False, record=False)[0]}
    )

    report.outputs["fidelity"] = write_trajectory_csv(out_dir / "fidelity.csv", times, main.cols)

    dissipationless = _dissipationless_fidelity(written.hamiltonian, t_star)
    report.add(check_ge("dissipationless-fidelity", dissipationless, 0.999, "DERIVED"))

    peak_idx = int(np.argmax(stripped_eff))
    peak_eff = float(stripped_eff[peak_idx])
    report.add(check_ge("stripped-peak-effective", peak_eff, 0.95, "DERIVED"))
    report.add(
        check_within("stripped-peak-time", float(times[peak_idx]), t_star, 0.10, "DERIVED")
    )

    # The written channel's generator contains no mode operators, so its
    # builder takes no kappa: the run at doubled mode decay is the same
    # model, and the channel must come out unchanged (TRIVIAL: it reads 0
    # by construction).
    stripped_eff_k2 = tomography(written, "eff", False, record=False)[0].cols["favg_stripped_eff"]
    report.add(
        check_le(
            "kappa-doubling-effective",
            float(np.max(np.abs(stripped_eff_k2 - stripped_eff))),
            0.01,
            "TRIVIAL",
        )
    )

    # Sensitivity information (not pass/fail): spin decay x10 on the
    # written channel, mode decay x2 and the dissipationless reference on
    # the full channel.
    gamma_x10 = tomography(_written_model(fs, 10.0 * gamma), "eff", False, record=False)[0]
    peak_g10 = float(np.max(gamma_x10.cols["favg_stripped_eff"]))
    kappa_x2 = tomography(
        _full_model(fs, cutoff, 2.0 * kappa, gamma), "full", False, record=False
    )[0]
    peak_full_k2 = float(np.max(kappa_x2.cols["favg_stripped_full"]))
    full_dissipationless = _dissipationless_fidelity(full.hamiltonian, t_star)

    advisory = ham.dispersive_advisory(fs.coupling, fs.delta_minus)
    omega_eff = fs.delta_q**2 / fs.delta_minus
    _close(
        report, fs, main, fine, bumped, "trace-preservation",
        effective_coupling_hz=g_eff / TWO_PI,
        gate_time_s=t_star,
        peak_time_s=float(times[peak_idx]),
        stripped_peak_effective=peak_eff,
        raw_at_gate_time_effective=float(eff.cols["favg_raw_eff"][gate_idx]),
        strip_phases_at_peak=phases_eff[peak_idx].tolist(),
        effective_spin_phase_per_gate=omega_eff * t_star,
        gamma_x10_peak_effective=peak_g10,
        gamma_x10_drop_effective=peak_eff - peak_g10,
        transfer_fidelity_effective=transfer_fid_eff,
        transfer_fidelity_full=transfer_fid_full,
        stripped_peak_full=peak_full,
        kappa_x2_peak_shift_full=abs(peak_full - peak_full_k2),
        dissipationless_full=full_dissipationless,
        advisories=[a for a in (advisory,) if a],
    )


# ---------------------------------------------------------------------------
# dispersive-check
# ---------------------------------------------------------------------------


def run_dispersive_check(cfg: RunConfig, out_dir: Path, report: ScenarioReport) -> None:
    """Validity scan of the mode-eliminated two-spin model: maximum
    population deviation from the full model versus the gap-to-coupling
    ratio. The deviation shrinks roughly quadratically with the ratio and
    vanishes in the small-coupling limit."""
    if cfg["frame.delta_s_hz"] is not None or cfg["frame.delta_minus_hz"] is not None:
        raise ConfigError(
            "dispersive-check derives the mode-spin gap from dispersive.ratios; "
            "unset frame.delta_s_hz and frame.delta_minus_hz"
        )
    fs = _resolve_frame(cfg, 0.7e6, 2.0, delta_minus_factor=10.0)
    ratios = sorted(cfg["dispersive.ratios"])
    cutoff = _resolve_cutoff(cfg, 6)

    def tag(ratio: float) -> str:
        return ("%g" % ratio).replace(".", "p").replace("-", "m")

    # Labels name CSVs and columns; the shrink exponent divides by log(r_big / r_mid).
    if len({tag(ratio) for ratio in ratios}) < max(len(ratios), 2):
        raise ConfigError(f"dispersive.ratios needs 2 or more distinct entries, got {echo(ratios)}")
    if any(fs.delta_q + ratio * fs.coupling == fs.delta_q for ratio in ratios):
        keys = dict.fromkeys([fs.keys["coupling"], fs.keys["delta_q"], "dispersive.ratios"])
        raise ConfigError(f"{', '.join(keys)} {echo(ratios)}: a gap ratio * G rounds to 0 at delta_q")

    def grid(ratio: float, coupling: float, factor: int) -> np.ndarray:
        t_star = _time_scale(coupling, {**fs.keys, "gap": "dispersive.ratios"}, ratio * coupling)
        return np.linspace(0.0, t_star, factor * 400 + 1)

    def pair(ratio: float, coupling: float, cut: int, factor: int) -> _Run:
        tgrid = grid(ratio, coupling, factor)
        # Both models closed-system, at delta_minus = ratio * coupling.
        gap = replace(fs, coupling=coupling, delta_s=fs.delta_q + ratio * coupling)
        traj3 = _closed_evolution(_full_model(gap, cut, 0.0, 0.0), (0, 1, 0), tgrid)
        traj2 = _closed_evolution(_written_model(gap, 0.0), (1, 0), tgrid)

        dev = np.maximum(
            np.abs(traj3.observables["pop_spin1"] - traj2.observables["pop_spin1"]),
            np.abs(traj3.observables["pop_spin2"] - traj2.observables["pop_spin2"]),
        )
        series = {
            "pop_spin1_full": traj3.observables["pop_spin1"],
            "pop_spin1_eff": traj2.observables["pop_spin1"],
            "pop_spin2_full": traj3.observables["pop_spin2"],
            "pop_spin2_eff": traj2.observables["pop_spin2"],
            "deviation": dev,
        }
        cols = {f"{key}_r{tag(ratio)}": val for key, val in series.items()}
        norm = max(traj3.diagnostics["norm_drift"], traj2.diagnostics["norm_drift"])
        dims = {
            "full": _integrator_info(traj3.diagnostics),
            "effective": _integrator_info(traj2.diagnostics),
        }
        return _Run(cols, norm, dims)

    def core(cut: int, factor: int) -> _Run:
        return _merge({"%g" % ratio: pair(ratio, fs.coupling, cut, factor) for ratio in ratios})

    main = core(cutoff, 1)
    fine = core(cutoff, 2)
    bumped = core(cutoff + CUTOFF_BUMP, 1)
    cols = main.cols

    devs = {}
    for ratio in ratios:
        t = tag(ratio)
        devs[ratio] = float(cols[f"deviation_r{t}"].max())
        report.outputs[f"deviation_r{t}"] = write_trajectory_csv(
            out_dir / f"dispersive_r{t}.csv",
            grid(ratio, fs.coupling, 1),
            {k: cols[f"{k}_r{t}"] for k in (
                "pop_spin1_full", "pop_spin1_eff", "pop_spin2_full", "pop_spin2_eff", "deviation"
            )},
        )

    r_mid, r_big = ratios[-2], ratios[-1]
    report.add(check_le("deviation-at-mid-ratio", devs[r_mid], 0.05, "DERIVED"))
    report.add(
        check_ge("deviation-shrink-ratio", devs[r_mid] / devs[r_big], 3.0, "DERIVED")
    )
    report.add(
        check_le("deviation-at-top-ratio", devs[r_big], 0.375 * devs[r_mid], "DERIVED")
    )

    # Small-coupling limit: shrink G by 100 at a fixed physical gap
    # delta_minus = r_mid * G (so the ratio grows by 100); the written
    # model must become exact, deviation ~ (G/delta_minus)^2.
    small = pair(100.0 * r_mid, fs.coupling / 100.0, cutoff, 1)
    small_dev = float(small.cols[f"deviation_r{tag(100.0 * r_mid)}"].max())
    report.add(check_le("small-coupling-limit", small_dev, 1e-4, "TRIVIAL"))

    exponent = math.log(devs[r_mid] / devs[r_big]) / math.log(r_big / r_mid)
    _close(
        report, fs, main, fine, bumped, "norm-preservation",
        deviations={("%g" % r): devs[r] for r in ratios},
        shrink_exponent=exponent,
        small_coupling_deviation=small_dev,
    )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioInfo:
    id: str
    summary: str
    reference: str
    runner: Callable[[RunConfig, Path, ScenarioReport], None]


SCENARIOS: dict[str, ScenarioInfo] = {
    s.id: s
    for s in [
        ScenarioInfo(
            "coupling-sweep",
            "Geometry scan of spin-mode coupling and mode self-interaction, both calibrations.",
            "anchors: coupling 1.5 kHz at radius 30 nm / gap 6 nm, 860 Hz at 50 nm / 6 nm; "
            "self-interaction 128 Hz at radius 50 nm",
            run_coupling_sweep,
        ),
        ScenarioInfo(
            "rabi",
            "Single-spin exchange with counter-rotating terms kept; contrast and peak timing.",
            "reference: full single-quantum exchange at half period pi/(2 G), "
            "manifold leakage bounded by 8 [G/(delta_s + delta_q)]^2",
            run_rabi,
        ),
        ScenarioInfo(
            "battery",
            "Single-spin charger loaded by an m-quantum mode state; sqrt(m) speedup.",
            "reference: charge peak at pi/(2 sqrt(m) G) with near-unit transfer at m = 1",
            run_battery,
        ),
        ScenarioInfo(
            "state-transfer",
            "Two-spin excitation transfer through the far-detuned mode bus, full vs written model.",
            "reference: transfer peak at pi/(2 G_eff) with G_eff = G^2/delta_minus",
            run_state_transfer,
        ),
        ScenarioInfo(
            "iswap-fidelity",
            "Process tomography of the bus-mediated two-spin gate with local-phase stripping.",
            "reference: ideal excitation swap (unit-modulus i off-diagonals) at t = pi/(2 G_eff)",
            run_iswap_fidelity,
        ),
        ScenarioInfo(
            "dispersive-check",
            "Deviation of the mode-eliminated model from the full one versus gap-to-coupling ratio.",
            "reference: deviation shrinks roughly as the inverse square of delta_minus/G",
            run_dispersive_check,
        ),
    ]
}


def list_scenarios() -> list[ScenarioInfo]:
    return list(SCENARIOS.values())


def run_scenario(scenario_id: str, cfg: RunConfig, out_dir: Path | str) -> ScenarioReport:
    """Run one scenario end to end: artifacts, params, report."""
    if scenario_id not in SCENARIOS:
        raise KeyError(scenario_id)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = ScenarioReport(scenario=scenario_id)
    SCENARIOS[scenario_id].runner(cfg, out_dir, report)
    report.outputs["params"] = write_params(out_dir / "params.json", scenario_id, cfg.values)
    report.outputs["report"] = write_report(out_dir / "report.json", report)
    return report
