"""Outside-in span recorder for the kerrspin benchmark.

Each span wraps named public functions of the kerrspin package. A
function object is replaced at every module binding that holds it, so
calls made through names imported with ``from x import f`` (``embed``
in ``dynamics`` and ``hamiltonians``, ``partial_trace`` and the
``write_*`` writers in ``scenarios``) are timed as well as calls made
through ``module.f``.

For every (span, parent span) pair the recorder keeps the call count,
the total time and the self time, which is the total minus the time its
child spans cover. Observers attached to some spans derive work counts
from the wrapped function's public return value; the counts are
computed, not measured, and repeat exactly from run to run.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import sys
import time
from contextlib import contextmanager


def _observe_liouvillian(work: dict, result) -> None:
    dim = int(result.shape[0])
    work["last_liouville_dim"] = dim
    work["dynamics.liouville_dim_max"] = max(work.get("dynamics.liouville_dim_max", 0), dim)


def _observe_lindblad(work: dict, result) -> None:
    # D comes from the generator this call built (its liouvillian child),
    # k from the trajectories' own diagnostics.
    dim = work["last_liouville_dim"]
    n_in = len(result)
    n_t = int(result[0].times.size)
    k = max(int(tr.diagnostics["max_substeps_per_interval"]) for tr in result)
    work["dynamics.evolve_lindblad.inputs"] = work.get("dynamics.evolve_lindblad.inputs", 0) + n_in
    work["dynamics.substeps_max"] = max(work.get("dynamics.substeps_max", 0), k)
    # Taylor-4 costs 3 complex D x D products, the squaring log2(k) more;
    # stepping is one (D x D)(D x n_in) product per grid interval.
    work["dynamics.propagator.gflop"] = (
        work.get("dynamics.propagator.gflop", 0.0) + 8.0 * dim**3 * (3 + math.log2(k)) / 1e9
    )
    work["dynamics.stepping.gflop"] = (
        work.get("dynamics.stepping.gflop", 0.0) + 8.0 * dim**2 * n_in * (n_t - 1) / 1e9
    )


def _observe_write(work: dict, result) -> None:
    work["reporting.write.bytes"] = work.get("reporting.write.bytes", 0) + os.path.getsize(result)


# span name -> (home module, wrapped function names, observer or None)
SPANS: dict[str, tuple[str, tuple[str, ...], object]] = {
    "config.resolve": ("kerrspin.config", ("resolve",), None),
    "device": (
        "kerrspin.device",
        ("kerr_coefficient", "bare_coupling", "magnon_frequency", "summarize_device"),
        None,
    ),
    "hamiltonians.build": (
        "kerrspin.hamiltonians",
        (
            "nonlinear_hamiltonian",
            "linearized_hamiltonian",
            "rabi_hamiltonian",
            "squeezed_exact_hamiltonian",
            "tavis_cummings_hamiltonian",
            "effective_spin_spin_hamiltonian",
        ),
        None,
    ),
    "fock.embed": ("kerrspin.fock", ("embed",), None),
    "fock.partial_trace": ("kerrspin.fock", ("partial_trace",), None),
    "dynamics.liouvillian": ("kerrspin.dynamics", ("liouvillian",), _observe_liouvillian),
    # evolve_lindblad delegates to evolve_lindblad_batch through the
    # module global, so this one span sees both entry points.
    "dynamics.evolve_lindblad": ("kerrspin.dynamics", ("evolve_lindblad_batch",), _observe_lindblad),
    "dynamics.evolve_unitary": ("kerrspin.dynamics", ("evolve_unitary",), None),
    "dynamics.choi_from_outputs": ("kerrspin.dynamics", ("choi_from_outputs",), None),
    "dynamics.strip_local_phases": ("kerrspin.dynamics", ("strip_local_phases",), None),
    "dynamics.average_gate_fidelity": ("kerrspin.dynamics", ("average_gate_fidelity",), None),
    "reporting.write": (
        "kerrspin.reporting",
        ("write_trajectory_csv", "write_sweep_csv", "write_params", "write_report"),
        _observe_write,
    ),
}


class SpanRecorder:
    """In-memory span table plus computed work counts for one operation."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.spans: dict[tuple[str, str | None], list] = {}  # -> [calls, total_s, self_s]
        self.work: dict[str, float] = {}
        self.top_level_s = 0.0
        self._stack: list[list] = []  # [name, child_s]

    def wrap(self, name: str, fn, observe):
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else None
            frame = [name, 0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += elapsed
                else:
                    self.top_level_s += elapsed
                entry = self.spans.setdefault((name, parent), [0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[1]
            if observe is not None:
                observe(self.work, result)
            return result

        return wrapper

    def by_name(self) -> dict[str, dict[str, float]]:
        """Calls and self time per span name, summed over parents."""
        out: dict[str, dict[str, float]] = {name: {"calls": 0, "self_s": 0.0} for name in SPANS}
        for (name, _parent), (calls, _total, self_s) in self.spans.items():
            out[name]["calls"] += calls
            out[name]["self_s"] += self_s
        return out


def missing() -> list[str]:
    """Functions named in SPANS that the package does not have.

    The benchmark refuses to run while this is not empty: a span that
    silently recorded no calls would read as a gain.
    """
    return [
        f"{home}.{fname}"
        for home, functions, _observe in SPANS.values()
        for fname in functions
        if not callable(getattr(importlib.import_module(home), fname, None))
    ]


@contextmanager
def traced(recorder: SpanRecorder):
    """Install the span wrappers for the duration of the block."""
    modules = [m for n, m in list(sys.modules.items()) if n == "kerrspin" or n.startswith("kerrspin.")]
    patched = []
    try:
        for name, (home, functions, observe) in SPANS.items():
            for fname in functions:
                original = getattr(sys.modules[home], fname)
                wrapper = recorder.wrap(name, original, observe)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            patched.append((module, attr, original))
        yield recorder
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)
