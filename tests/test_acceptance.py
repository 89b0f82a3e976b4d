"""Acceptance suite: one test per headline criterion, with pinned
tolerances and per-criterion runtime budgets.

Run `pytest tests/test_acceptance.py -v` for one pass/fail line per
criterion; add -s to see the observed numbers printed by each test.
Criteria 3 to 7 read the session-shared scenario runs from conftest, so
each scenario's wall time is measured once and compared to its budget.
"""

from __future__ import annotations

import hashlib
import math
import time

import numpy as np
import pytest

from kerrspin.config import resolve
from kerrspin.device import bare_coupling, kerr_coefficient
from kerrspin.fock import HilbertSpec, Subsystem, basis_ket
from kerrspin.hamiltonians import (
    LinearizedParams,
    linearized_hamiltonian,
    rabi_hamiltonian,
    squeeze_frame,
    squeezed_exact_hamiltonian,
)
from kerrspin.scenarios import run_scenario

TWO_PI = 2.0 * math.pi


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_criterion_1_device_anchors_and_kerr_scaling():
    start = time.perf_counter()
    g30 = bare_coupling(30e-9, 6e-9) / TWO_PI
    g50 = bare_coupling(50e-9, 6e-9) / TWO_PI
    k50 = kerr_coefficient(50e-9) / TWO_PI
    # Inverse mode-volume scaling, exact to 1e-12 across three decades.
    worst_scaling = 0.0
    for factor in (2.0, 10.0, 100.0):
        ratio = kerr_coefficient(50e-9) / kerr_coefficient(50e-9 * factor)
        worst_scaling = max(worst_scaling, abs(ratio / factor**3 - 1.0))
    k_bulk = kerr_coefficient(0.5e-3) / TWO_PI
    elapsed = time.perf_counter() - start

    print(f"coupling(30nm, 6nm) = {g30:.6g} Hz (1.5 kHz +- 20%)")
    print(f"coupling(50nm, 6nm) = {g50:.6g} Hz (0.86 kHz +- 20%)")
    print(f"kerr(50nm) = {k50:.6g} Hz (128 Hz), scaling defect {worst_scaling:.3e}")
    print(f"kerr(0.5mm) = {k_bulk:.6g} Hz (order of 0.05 nHz)")
    print(f"elapsed {elapsed:.3f} s (budget 1 s)")

    assert abs(g30 / 1.5e3 - 1.0) <= 0.20
    assert abs(g50 / 860.0 - 1.0) <= 0.20
    assert abs(k50 / 128.0 - 1.0) <= 1e-12
    assert worst_scaling <= 1e-12
    assert 0.1 <= k_bulk / 0.05e-9 <= 10.0
    assert elapsed < 1.0


def test_criterion_2_squeezed_frame_spectrum_and_residual():
    start = time.perf_counter()
    # Zero two-boson term: the frame is the identity transformation.
    lin0 = LinearizedParams(delta_m=3.7, delta_q=0.0, mean_amplitude=0j, kerr2=0.0)
    fr0 = squeeze_frame(lin0, 1.9)
    assert (fr0.squeezing, fr0.mode_detuning, fr0.coupling) == (0.0, 3.7, 0.95)

    # Spectrum of the quadratic mode at (delta_m, kerr2) = (5, 3): the
    # eight lowest interior spacings match delta_s = 4 to 1e-6 at
    # cutoff 40 (deeper levels feel the truncation edge).
    lin = LinearizedParams(delta_m=5.0, delta_q=0.0, mean_amplitude=0j, kerr2=3.0)
    spec40 = HilbertSpec((Subsystem("mode", 40),))
    eigs = np.sort(np.linalg.eigvalsh(linearized_hamiltonian(spec40, lin)))
    spacing_dev = float(np.max(np.abs(np.diff(eigs)[:8] / 4.0 - 1.0)))

    # Exact-versus-two-sector residual coefficient g e^{-r}/2 at several
    # squeezing strengths, read off the single-quantum matrix element.
    g = 2.0
    worst_residual = 0.0
    spec = HilbertSpec.mode_and_spins(12)
    bra = basis_ket((0, 1), spec)
    ket10 = basis_ket((1, 0), spec)
    for r in (0.0, 1.0, 2.0, 5.0):
        lin_r = LinearizedParams(
            delta_m=1.0, delta_q=0.8, mean_amplitude=0j, kerr2=math.tanh(2.0 * r)
        )
        fr = squeeze_frame(lin_r, g)
        diff = squeezed_exact_hamiltonian(spec, lin_r, g) - rabi_hamiltonian(
            spec, fr, lin_r.delta_q
        )
        coeff = (bra.conj() @ diff @ ket10).real
        expected = 0.5 * g * math.exp(-fr.squeezing)
        worst_residual = max(worst_residual, abs(coeff - expected) / expected)
    elapsed = time.perf_counter() - start

    print(f"spectrum spacing deviation {spacing_dev:.3e} (tol 1e-6)")
    print(f"residual coefficient deviation {worst_residual:.3e} (tol 1e-10)")
    print(f"elapsed {elapsed:.3f} s (budget 5 s)")

    assert spacing_dev <= 1e-6
    assert worst_residual <= 1e-10
    assert elapsed < 5.0


def test_criterion_3_resonant_exchange_contrast_and_peak_time(scenario_runs):
    run = scenario_runs["rabi"]
    contrast = run.check("exchange-contrast")
    t_star = run.report.info["exchange_half_period_s"]
    t_peak = run.report.info["observed_peak_time_s"]

    print(f"exchange contrast {contrast.observed:.9g} (>= 0.95)")
    print(f"first peak at {t_peak:.6g} s vs pi/(2G) = {t_star:.6g} s (+- 5%)")
    print(f"elapsed {run.elapsed_s:.2f} s (budget 10 s)")

    assert contrast.passed and contrast.observed >= 0.95
    assert run.check("first-peak-time").passed
    assert abs(t_peak / t_star - 1.0) <= 0.05
    assert run.elapsed_s < 10.0


def test_criterion_4_battery_charge_speedup_and_peak_power(scenario_runs):
    run = scenario_runs["battery"]
    charge = run.check("full-charge-first-level")
    speedup = run.check("charge-time-speedup")
    power = run.check("peak-power-ratio")

    print(f"single-quantum charge {charge.observed:.9g} (>= 0.999 at pi/(2G))")
    print(f"t(5)/t(1) = {speedup.observed:.9g} vs 1/sqrt(5) (+- 2%)")
    print(f"Pmax(5)/Pmax(1) = {power.observed:.9g} (>= 2)")
    print(f"elapsed {run.elapsed_s:.2f} s (budget 10 s)")

    assert charge.passed and charge.observed >= 0.999
    assert speedup.passed
    assert abs(speedup.observed * math.sqrt(5.0) - 1.0) <= 0.02
    assert power.passed and power.observed >= 2.0
    assert run.elapsed_s < 10.0


def test_criterion_5_dispersive_deviation_and_shrink(scenario_runs):
    run = scenario_runs["dispersive-check"]
    dev_mid = run.check("deviation-at-mid-ratio")
    shrink = run.check("deviation-shrink-ratio")

    print(f"population deviation at gap 10G: {dev_mid.observed:.9g} (<= 0.05)")
    print(f"shrink factor from 10G to 20G: {shrink.observed:.9g} (>= 3)")
    print(f"elapsed {run.elapsed_s:.2f} s (budget 30 s)")

    assert dev_mid.passed and dev_mid.observed <= 0.05
    assert shrink.passed and shrink.observed >= 3.0
    assert run.elapsed_s < 30.0


def test_criterion_6_state_transfer_peak_and_mode_occupancy(scenario_runs):
    run = scenario_runs["state-transfer"]
    peak = run.check("spin2-peak-full")
    peak_time = run.check("peak-time-full")
    mode_occ = run.check("mode-occupancy-effective")
    t_star = run.report.info["transfer_time_s"]

    print(f"spin-2 transfer peak {peak.observed:.9g} (>= 0.9)")
    print(f"peak at {peak_time.observed:.6g} s vs pi/(2 G_eff) = {t_star:.6g} s (+- 10%)")
    print(
        f"mode occupancy, written two-spin model: {mode_occ.observed:.3g} (<= 0.015); "
        f"full model context: {run.check('mode-occupancy-full').observed:.6g}"
    )
    print(f"elapsed {run.elapsed_s:.2f} s (budget 60 s)")

    assert peak.passed and peak.observed >= 0.9
    assert peak_time.passed
    assert abs(peak_time.observed / t_star - 1.0) <= 0.10
    assert mode_occ.passed and mode_occ.observed <= 0.015
    assert run.elapsed_s < 60.0


def test_criterion_7_iswap_fidelity_and_kappa_robustness(scenario_runs):
    run = scenario_runs["iswap-fidelity"]
    lossless = run.check("dissipationless-fidelity")
    peak = run.check("stripped-peak-effective")
    kappa2 = run.check("kappa-doubling-effective")
    info = run.report.info

    print(f"dissipationless stripped fidelity {lossless.observed:.9g} (>= 0.999)")
    print(f"dissipative stripped peak {peak.observed:.9g} (>= 0.95)")
    print(
        f"kappa-doubling shift, written channel: {kappa2.observed:.3g} (< 0.01); "
        f"full-model context: {info['kappa_x2_peak_shift_full']:.6g}"
    )
    print(f"elapsed {run.elapsed_s:.2f} s (budget 120 s)")

    assert lossless.passed and lossless.observed >= 0.999
    assert peak.passed and peak.observed >= 0.95
    assert kappa2.passed and kappa2.observed < 0.01
    assert run.elapsed_s < 120.0


def test_criterion_8_gate_checks_and_bit_identical_reruns(scenario_runs, tmp_path):
    dynamical = ("rabi", "battery", "state-transfer", "iswap-fidelity", "dispersive-check")
    for scenario_id in dynamical:
        run = scenario_runs[scenario_id]
        names = {c.name for c in run.report.checks}
        conservation = (
            "gate:trace-preservation"
            if "gate:trace-preservation" in names
            else "gate:norm-preservation"
        )
        cons = run.check(conservation)
        step = run.check("gate:step-refinement")
        bump = run.check("gate:cutoff-bump")
        print(
            f"{scenario_id}: {conservation.split(':')[1]} {cons.observed:.3g} "
            f"(<= 1e-8), step {step.observed:.3g} (<= 1e-6), "
            f"cutoff {bump.observed:.3g} (<= 1e-6)"
        )
        assert cons.passed and cons.observed <= 1e-8
        assert step.passed and step.observed <= 1e-6
        assert bump.passed and bump.observed <= 1e-6

    # Identical configuration implies bit-identical CSV artifacts.
    for scenario_id in ("coupling-sweep", "rabi"):
        cfg_a = resolve(scenario_id)
        cfg_b = resolve(scenario_id)
        dir_a = tmp_path / f"{scenario_id}-a"
        dir_b = tmp_path / f"{scenario_id}-b"
        run_scenario(scenario_id, cfg_a, dir_a)
        run_scenario(scenario_id, cfg_b, dir_b)
        csvs = sorted(p.name for p in dir_a.glob("*.csv"))
        assert csvs
        for name in csvs:
            assert sha256(dir_a / name) == sha256(dir_b / name), name
        print(f"{scenario_id}: {len(csvs)} CSV artifact(s) bit-identical across reruns")
