"""The broadcast Kronecker product behind `fock.embed`, `fock.embed_product`,
`liouvillian` and the Pauli lifts, bit for bit against np.kron on every
operand the six scenarios use.

One module fixture runs every scenario at its default config with
`embed_product` (which `embed` calls) and `liouvillian` wrapped to record
their arguments; the tests then rebuild each result with np.kron, a
product of several factors as the matrix product of their one-factor
lifts.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from kerrspin import dynamics, fock, hamiltonians
from kerrspin.config import resolve
from kerrspin.dynamics import liouvillian
from kerrspin.fock import _kron, embed_product
from kerrspin.scenarios import SCENARIOS, run_scenario


def kron_liouvillian(h: np.ndarray, collapse: list[tuple[np.ndarray, float]]) -> np.ndarray:
    """The generator as formerly written, with np.kron."""
    d = h.shape[0]
    eye = np.eye(d, dtype=complex)
    gen = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for op, rate in collapse:
        if rate == 0.0:
            continue
        opdop = op.conj().T @ op
        gen += rate * (np.kron(op, op.conj()) - 0.5 * (np.kron(opdop, eye) + np.kron(eye, opdop.T)))
    return gen


@pytest.fixture(scope="module")
def recorded_calls(tmp_path_factory) -> dict[str, dict]:
    """Distinct `embed_product` and `liouvillian` arguments of the six
    scenarios, keyed by their bytes."""
    calls: dict[str, dict] = {"embed": {}, "liouvillian": {}}

    def recording_embed_product(factors, spec):
        key = (tuple((slot, op.dtype.str, op.tobytes()) for slot, op in sorted(factors.items())), spec)
        calls["embed"].setdefault(key, ({slot: op.copy() for slot, op in factors.items()}, spec))
        return embed_product(factors, spec)

    def recording_liouvillian(h, collapse):
        key = (h.tobytes(), tuple((op.tobytes(), rate) for op, rate in collapse))
        calls["liouvillian"].setdefault(key, (h.copy(), [(op.copy(), rate) for op, rate in collapse]))
        return liouvillian(h, collapse)

    root = tmp_path_factory.mktemp("kron-scenarios")
    with pytest.MonkeyPatch.context() as mp:
        for module in (fock, hamiltonians):
            mp.setattr(module, "embed_product", recording_embed_product)
        mp.setattr(dynamics, "liouvillian", recording_liouvillian)
        for scenario_id in SCENARIOS:
            run_scenario(scenario_id, resolve(scenario_id), root / scenario_id)
    return calls


def test_embed_bitwise_equals_kron(recorded_calls):
    embeds = list(recorded_calls["embed"].values())
    # Mode operators at every cutoff the scenarios use (up to 20), spin
    # operators in every slot, and mode-spin and spin-spin products.
    assert len(embeds) >= 30
    assert {slot for factors, _spec in embeds for slot in factors} == {0, 1, 2}
    assert any(len(factors) == 2 for factors, _spec in embeds)
    for factors, spec in embeds:
        dims = spec.dims
        lifts = []
        for slot, op in sorted(factors.items()):
            left = np.eye(int(np.prod(dims[:slot])), dtype=complex)
            right = np.eye(int(np.prod(dims[slot + 1 :])), dtype=complex)
            lifts.append(np.kron(np.kron(left, op), right))
        want = functools.reduce(np.matmul, lifts)
        got = embed_product(factors, spec)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_liouvillian_bitwise_equals_kron(recorded_calls):
    models = list(recorded_calls["liouvillian"].values())
    # The reduced state-transfer and iswap-fidelity models, main and
    # reruns: 6 distinct generators today.
    assert len(models) >= 6
    assert any(any(rate > 0.0 for _op, rate in collapse) for _h, collapse in models)
    for h, collapse in models:
        want = kron_liouvillian(h, collapse)
        got = liouvillian(h, collapse)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("shapes", [((1, 1), (3, 3)), ((2, 3), (4, 5)), ((6, 6), (1, 1))])
def test_kron_shapes_and_batch_axes(shapes):
    rng = np.random.default_rng(3)
    a_shape, b_shape = shapes
    a = rng.normal(size=a_shape) + 1j * rng.normal(size=a_shape)
    b = rng.normal(size=(2,) + b_shape) + 1j * rng.normal(size=(2,) + b_shape)
    got = _kron(a, b)
    assert got.shape == (2, a_shape[0] * b_shape[0], a_shape[1] * b_shape[1])
    for g, bb in zip(got, b):
        assert g.tobytes() == np.kron(a, bb).tobytes()
