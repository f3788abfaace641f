"""Reference work used to put timings at one reference speed.

The benchmark shares its CPUs with other work, and on a shared machine the
same batch of sessions can run 25% faster or slower from one minute to the
next. ``reference_kernel`` is a frozen miniature of the simulator's hot path
(validated registers in a name-keyed registry, Kronecker merges, Bell
measurements by tensor contraction, an announcement log) that never changes,
so its run time tracks how fast the CPU is right now. Timing it right before
and right after each measured interval gives ``speed``: how much slower than
the reference speed the CPU was during that interval. A rate multiplied by
``speed``, or a duration divided by it, is that figure at reference speed.

Set-up time is mostly interpreter start and the numpy import, which a CPU
kernel does not track. Its reference is ``REFERENCE_CHILD``, a fresh
interpreter that imports only numpy, started right before each set-up
interpreter.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

# Time of one reference_kernel() call at reference speed: its typical time
# on the 2-CPU machine the committed baseline was measured on.
REFERENCE_KERNEL_S = 0.0035
REFERENCE_CHILD = "import numpy\nprint('ready', flush=True)\n"
# Time until REFERENCE_CHILD prints, at reference speed (same machine).
REFERENCE_CHILD_S = 0.125

_BELL = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]]) / np.sqrt(2)


@dataclass(frozen=True)
class _Register:
    ids: tuple[str, ...]
    amps: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amps, dtype=complex).reshape(-1)
        if abs(float(np.real(np.vdot(amps, amps))) - 1.0) > 1e-9:
            raise ValueError("reference kernel lost normalisation")
        object.__setattr__(self, "amps", amps)


def reference_kernel(rounds: int = 2) -> list[str]:
    """Swap ``rounds`` x 12 pairs of Bell pairs; return the announcement log."""
    rng = np.random.default_rng(7)
    log = []
    for _ in range(rounds):
        registry = {}
        for i in range(12):
            for side in "ab":
                reg = _Register((f"{side}{i}h", f"{side}{i}t"), _BELL[(i + len(side)) % 4])
                registry.update(dict.fromkeys(reg.ids, reg))
        for i in range(12):
            a, b = registry[f"a{i}t"], registry[f"b{i}t"]
            joint = _Register(a.ids + b.ids, np.kron(a.amps, b.amps)).amps.reshape(2, 2, 2, 2)
            branches = [np.tensordot(bell.reshape(2, 2), joint, axes=([0, 1], [1, 3]))
                        for bell in _BELL]
            probs = np.array([float(np.real(np.vdot(v, v))) for v in branches])
            pick = int(np.searchsorted(np.cumsum(probs), rng.random() * probs.sum()))
            rest = _Register((a.ids[0], b.ids[0]), branches[pick] / np.sqrt(probs[pick]))
            registry.update(dict.fromkeys(rest.ids, rest))
            log.append(f"{len(log)}\t1\tcharlie\tbmo\tindex={i} outcome={pick}")
    return log


def time_kernel() -> float:
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


def speed(before_s: float, after_s: float) -> float:
    """Slowdown against reference speed from kernel times around an interval."""
    return (before_s + after_s) / 2 / REFERENCE_KERNEL_S
