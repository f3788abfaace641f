"""Channel layer: adversary strategies applied as interceptors, and
collective channel noise.

Each strategy operates on the qubits of one channel leg while they are in
transit, so the protocol layer stays attack-agnostic.  Legs are named
``stage1_alice``, ``stage1_bob`` (swap-round transmissions) and
``stage2_alice``, ``stage2_bob`` (verification/decode-round transmissions).

Interceptors are cohort functions: they take and return a leg's qubits as
arena indices, the leg of every session of a cohort at once, session after
session.  Those that act on qubits, and Eve's ancilla readout, run their
engine round as one ``quantum.run_round`` over the whole leg; a strategy
that draws (``disturb``, the ``fake_bmo`` announcements, the readout's
uniforms) draws each session's part from that session's stream.

The dishonest-measurement-node behavior (announcing outcomes without
measuring) is carried on the same spec via ``fake_stages``; it is consulted
by the session rather than applied to a leg.  Collective noise
(``NoiseSpec``) is the honest channel's unitary, which the session applies to
every transmitted qubit before any interceptor runs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .quantum import BellLabel, PauliLabel, QubitArena, run_round

LEGS = ("stage1_alice", "stage1_bob", "stage2_alice", "stage2_bob")

# Each strategy, and the legs it attacks when its spec names none.
_DEFAULT_LEGS = {
    "intercept_resend": frozenset({"stage1_bob"}),
    "entangle_measure": frozenset({"stage2_alice"}),
    "flip_all": frozenset({"stage2_alice", "stage2_bob"}),
    "disturb": frozenset({"stage2_alice"}),
    "fake_bmo": frozenset(),
}
STRATEGIES = tuple(_DEFAULT_LEGS)

DISTURB_MODES = ("reorder", "random_pauli")

# The strategy each ``AttackSpec.parse`` key belongs to; ``legs`` fits every one.
_KEY_STRATEGY = {
    "beta2": "entangle_measure",
    "mode": "disturb",
    "fraction": "disturb",
    "stages": "fake_bmo",
}

# The Paulis a ``random_pauli`` disturbance draws from, uniformly.
NON_IDENTITY = (PauliLabel.X, PauliLabel.IY, PauliLabel.Z)


def exact(x: float, spec: str) -> str:
    """``x`` in the format ``spec`` when that reads back as ``x``, else its repr."""
    short = format(x, spec)
    return short if float(short) == x else repr(x)


def parsed(parse: Callable[[str], Any], text: str, what: str, expected: str = "") -> Any:
    """``parse(text)``; a malformed ``text`` raises a ValueError ``<what> must be
    <expected>, got '<text>'``, where ``expected`` defaults to a number (an integer for int)."""
    try:
        return parse(text)
    except (KeyError, ValueError):
        expected = expected or ("an integer" if parse is int else "a number")
        raise ValueError(f"{what} must be {expected}, got {text!r}") from None


@dataclass(frozen=True)
class AttackSpec:
    """Configuration of one adversary strategy.

    ``alpha``/``beta`` parametrize the entangle-and-measure ancilla state
    alpha|0> + beta|1>; ``mode``/``fraction`` parametrize the disturbance
    attack; ``fake_stages`` selects the rounds in which the measurement node
    announces without measuring: ``{1}`` by default for ``fake_bmo``, and
    empty for every other strategy.
    """

    strategy: str
    legs: frozenset[str] = frozenset()
    alpha: complex = 1.0
    beta: complex = 0.0
    mode: str = "random_pauli"
    fraction: float = 1.0
    fake_stages: frozenset[int] | None = None

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown attack strategy {self.strategy!r}")
        bad = set(self.legs) - set(LEGS)
        if bad:
            raise ValueError(f"unknown channel legs: {sorted(bad)}")
        if not self.legs and self.strategy != "fake_bmo":
            object.__setattr__(self, "legs", _DEFAULT_LEGS[self.strategy])
        if self.strategy == "entangle_measure":
            norm = abs(self.alpha) ** 2 + abs(self.beta) ** 2
            if not abs(norm - 1.0) <= 1e-9:  # also rejects a NaN amplitude
                raise ValueError(f"ancilla amplitudes not normalized: {norm}")
        if self.strategy == "disturb":
            if self.mode not in DISTURB_MODES:
                raise ValueError(f"unknown disturb mode {self.mode!r}")
            if not 0.0 < self.fraction <= 1.0:
                raise ValueError("disturb fraction must be in (0, 1]")
        fake = self.strategy == "fake_bmo"
        if self.fake_stages is None:
            object.__setattr__(self, "fake_stages", frozenset({1} if fake else ()))
        if fake and not (self.fake_stages and self.fake_stages <= {1, 2}):
            raise ValueError("fake_bmo stages must be a nonempty subset of {1, 2}")
        if self.fake_stages and not fake:
            raise ValueError(f"fake stages are for fake_bmo, not {self.strategy}")

    @classmethod
    def parse(cls, text: str) -> "AttackSpec":
        """Parse CLI syntax ``name[:key=value,...]``.

        Keys: ``beta2`` (entangle_measure), ``mode`` and ``fraction``
        (disturb), ``stages`` (fake_bmo, "+"-separated), ``legs``
        ("+"-separated leg names, any strategy).  A key of another strategy
        or a repeated key raises, so no parameter given is silently dropped.
        """
        name, _, params = text.partition(":")
        name = name.strip()
        kwargs: dict = {"strategy": name}
        seen: set[str] = set()
        if params:
            for item in params.split(","):
                key, _, value = item.partition("=")
                key, value = key.strip(), value.strip()
                if key in seen:
                    raise ValueError(f"attack parameter {key!r} is given twice")
                seen.add(key)
                if _KEY_STRATEGY.get(key, name) != name:
                    raise ValueError(
                        f"attack parameter {key!r} is for {_KEY_STRATEGY[key]}, not {name}"
                    )
                if key == "beta2":
                    b2 = parsed(float, value, "attack parameter 'beta2'")
                    if not 0.0 <= b2 <= 1.0:
                        raise ValueError("beta2 must be in [0, 1]")
                    kwargs["alpha"], kwargs["beta"] = np.sqrt(1.0 - b2), np.sqrt(b2)
                elif key == "mode":
                    kwargs["mode"] = value
                elif key == "fraction":
                    kwargs["fraction"] = parsed(float, value, "attack parameter 'fraction'")
                elif key == "stages":
                    stages = (parsed(int, v, "attack parameter 'stages'") for v in value.split("+"))
                    kwargs["fake_stages"] = frozenset(stages)
                elif key == "legs":
                    kwargs["legs"] = frozenset(value.split("+"))
                else:
                    raise ValueError(f"unknown attack parameter {key!r}")
        return cls(**kwargs)

    def describe(self) -> str:
        parts = [self.strategy]
        if self.strategy == "entangle_measure":
            # rounded: no printed form of |beta|**2 rebuilds every alpha, beta
            parts.append(f"beta2={abs(self.beta) ** 2:.6g}")
        if self.strategy == "disturb":
            parts.append(f"mode={self.mode}")
            parts.append(f"fraction={exact(self.fraction, '.6g')}")
        if self.strategy == "fake_bmo":
            parts.append("stages=" + "+".join(str(s) for s in sorted(self.fake_stages)))
        if self.legs:
            parts.append("legs=" + "+".join(sorted(self.legs)))
        return ":".join([parts[0], ",".join(parts[1:])]) if parts[1:] else parts[0]


@dataclass(frozen=True)
class NoiseSpec:
    """Collective channel noise: the same unknown single-qubit unitary on
    every qubit traversing a leg.

    ``dephasing`` applies diag(1, e^{i*param}); ``rotation`` applies the real
    rotation by ``param`` (|0> -> cos|0> + sin|1>, |1> -> -sin|0> + cos|1>).
    """

    channel: str
    param: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.param):
            raise ValueError(f"noise parameter must be finite, got {self.param!r}")
        if self.channel == "dephasing":
            u = np.diag([1.0, np.exp(1j * self.param)])
        elif self.channel == "rotation":
            c, s = np.cos(self.param), np.sin(self.param)
            u = np.array([[c, -s], [s, c]], dtype=complex)
        else:
            raise ValueError(f"unknown noise channel {self.channel!r}")
        u.flags.writeable = False
        object.__setattr__(self, "_matrix", u)

    def matrix(self) -> np.ndarray:
        """The channel unitary, built once per spec and read-only."""
        return self._matrix

    @classmethod
    def parse(cls, text: str) -> "NoiseSpec":
        name, _, value = text.partition(":")
        if not value:
            raise ValueError("noise syntax is CHANNEL:PARAM, e.g. dephasing:0.35")
        return cls(name.strip(), parsed(float, value, "noise parameter"))

    def describe(self) -> str:
        return f"{self.channel}:{exact(self.param, '.10g')}"


@dataclass
class EveState:
    """What the adversary keeps between its interceptions.

    Eve's qubits are registered unnamed and held by ``"eve"`` in the arena;
    handles move, so Eve never holds a qubit an honest party still believes
    it has.  ``ancillas`` lists per attacked leg ``(leg, ancillas, rows)``:
    the arena indices of its entangling ancillas, the ancilla of the leg's
    qubit i at position i, and the session (cohort row) of each;
    ``measure_ancillas`` reads them out after the sessions.
    """

    ancillas: list[tuple[str, np.ndarray, np.ndarray]] = field(default_factory=list)


def intercept_resend(arena: QubitArena, qubits: np.ndarray) -> np.ndarray:
    """Steal every travel qubit on the leg; forward halves of fresh Bell pairs.

    Eve keeps the stolen qubit and the partner half of each substituted pair
    for later inspection.  The leg's pairs are registered with one call, and
    its qubits change hands with another.
    """
    pairs = arena.add_bell_pairs([BellLabel.PSI_PLUS.code] * len(qubits), "eve")
    arena.transfer_many(qubits, "eve")
    return pairs[:, 1]


def entangle_measure(
    arena: QubitArena, eve: EveState, leg: str, qubits: np.ndarray, rows: np.ndarray,
    alpha: complex, beta: complex,
) -> np.ndarray:
    """CNOT a fresh ancilla (control) onto each travel qubit (target), as one
    ``apply_cnot`` round; the leg's ancillas are registered with one call.

    Ancillas are retained and measured after the session; the travel qubits
    continue to the measurement node.
    """
    amps = np.tile([alpha, beta], (len(qubits), 1))
    ancillas = arena.add_registers(amps, "eve")[:, 0]
    eve.ancillas.append((leg, ancillas, rows))
    run_round("apply_cnot", arena, np.column_stack((ancillas, qubits)), None)
    return qubits


def flip_all(arena: QubitArena, qubits: np.ndarray) -> np.ndarray:
    """Apply X to every qubit on the leg, as one ``apply_pauli`` round."""
    run_round("apply_pauli", arena, qubits, np.full(len(qubits), PauliLabel.X.symbol))
    return qubits


def disturb(
    arena: QubitArena, qubits: np.ndarray, rows: np.ndarray, rngs: list, mode: str, fraction: float
) -> np.ndarray:
    """Denial-of-service style tampering with a uniformly chosen slot subset
    of each session's part of the leg, drawn from that session's stream.

    ``reorder`` permutes the selected slots (within this leg and session
    only); ``random_pauli`` draws an independent uniform non-identity Pauli
    for each selected qubit, then applies the leg's as one ``apply_pauli``
    round.
    """
    out, hit, codes = qubits.copy(), [], []
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    for start, end in zip(starts.tolist(), [*starts[1:].tolist(), len(rows)]):
        k = int(round(fraction * (end - start)))
        if k == 0:
            continue
        rng = rngs[rows[start]]
        chosen = start + np.sort(rng.choice(end - start, size=k, replace=False))
        if mode == "reorder":
            out[chosen] = qubits[chosen[rng.permutation(k)]]
        else:
            hit.append(chosen)
            codes.append(rng.integers(len(NON_IDENTITY), size=k))
    if hit:
        paulis = np.array([p.symbol for p in NON_IDENTITY])[np.concatenate(codes)]
        run_round("apply_pauli", arena, qubits[np.concatenate(hit)], paulis)
    return out


def fake_bmo_outcome(rngs: list, n: int) -> np.ndarray:
    """Codes (positions in ``BELL_LABELS``) of n uniformly random labels announced
    without measuring, one row per stream, each as one block draw: the values and
    stream of n scalar draws."""
    return np.reshape([rng.integers(len(BellLabel), size=n) for rng in rngs], (len(rngs), n))


def apply_leg_attack(
    spec: AttackSpec | None,
    arena: QubitArena,
    eve: EveState,
    leg: str,
    qubits: np.ndarray,
    rows: np.ndarray,
    rngs: list,
) -> np.ndarray:
    """Run the configured strategy on one leg's qubits (arena indices,
    session-major; ``rows[i]`` is the session of qubit i, whose stream is
    ``rngs[rows[i]]``); returns the arriving qubits."""
    if spec is None or leg not in spec.legs or not len(qubits):
        return qubits
    if spec.strategy == "intercept_resend":
        return intercept_resend(arena, qubits)
    if spec.strategy == "entangle_measure":
        return entangle_measure(arena, eve, leg, qubits, rows, spec.alpha, spec.beta)
    if spec.strategy == "flip_all":
        return flip_all(arena, qubits)
    if spec.strategy == "disturb":
        return disturb(arena, qubits, rows, rngs, spec.mode, spec.fraction)
    return qubits


def measure_ancillas(arena: QubitArena, eve: EveState, rngs: list) -> list[np.ndarray]:
    """Post-session computational-basis readout of Eve's ancillas, as one
    ``comp_measure`` round in which each session reads its own, leg by leg,
    with uniforms from its stream ``rngs[row]``; returns the bits of each
    entry of ``eve.ancillas``."""
    if not eve.ancillas:
        return []
    qubits = np.concatenate([ancillas for _, ancillas, _ in eve.ancillas])
    rows = np.concatenate([rows for _, _, rows in eve.ancillas])
    order = np.argsort(rows, kind="stable")
    counts = np.bincount(rows, minlength=len(rngs)).tolist()
    u = np.concatenate([rng.random(c) for rng, c in zip(rngs, counts)])
    bits = np.empty(len(qubits), dtype=np.intp)
    bits[order] = run_round("comp_measure", arena, qubits[order], u)
    return np.split(bits, np.cumsum([len(a) for _, a, _ in eve.ancillas])[:-1])
