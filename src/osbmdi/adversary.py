"""Channel layer: adversary strategies applied as interceptors, and
collective channel noise.

Each strategy operates on the qubits of one channel leg while they are in
transit, so the protocol layer stays attack-agnostic.  Legs are named
``stage1_alice``, ``stage1_bob`` (swap-round transmissions) and
``stage2_alice``, ``stage2_bob`` (verification/decode-round transmissions).

Interceptors that act on qubits, and Eve's ancilla readout, are step
generators like the session: each yields its engine round as a request
``(arena, op, items, rng)`` (``quantum.engine_round``) for the session's
lockstep driver, and returns its result.

The dishonest-measurement-node behavior (announcing outcomes without
measuring) is carried on the same spec via ``fake_stages``; it is consulted
by the session rather than applied to a leg.  Collective noise
(``NoiseSpec``) is the honest channel's unitary, which the session applies to
every transmitted qubit before any interceptor runs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .quantum import (
    BellLabel,
    PauliLabel,
    QubitArena,
    engine_round,
)

LEGS = ("stage1_alice", "stage1_bob", "stage2_alice", "stage2_bob")

STRATEGIES = (
    "intercept_resend",
    "entangle_measure",
    "flip_all",
    "disturb",
    "fake_bmo",
)

_DEFAULT_LEGS = {
    "intercept_resend": frozenset({"stage1_bob"}),
    "entangle_measure": frozenset({"stage2_alice"}),
    "flip_all": frozenset({"stage2_alice", "stage2_bob"}),
    "disturb": frozenset({"stage2_alice"}),
    "fake_bmo": frozenset(),
}

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


@dataclass(frozen=True)
class AttackSpec:
    """Configuration of one adversary strategy.

    ``alpha``/``beta`` parametrize the entangle-and-measure ancilla state
    alpha|0> + beta|1>; ``mode``/``fraction`` parametrize the disturbance
    attack; ``fake_stages`` selects the rounds in which the measurement node
    announces without measuring.
    """

    strategy: str
    legs: frozenset[str] = frozenset()
    alpha: complex = 1.0
    beta: complex = 0.0
    mode: str = "random_pauli"
    fraction: float = 1.0
    fake_stages: frozenset[int] = frozenset({1})

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
        if self.strategy == "fake_bmo":
            if not self.fake_stages or not self.fake_stages <= {1, 2}:
                raise ValueError("fake_bmo stages must be a nonempty subset of {1, 2}")

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
                    b2 = float(value)
                    if not 0.0 <= b2 <= 1.0:
                        raise ValueError("beta2 must be in [0, 1]")
                    kwargs["beta"] = np.sqrt(b2)
                    kwargs["alpha"] = np.sqrt(1.0 - b2)
                elif key == "mode":
                    kwargs["mode"] = value
                elif key == "fraction":
                    kwargs["fraction"] = float(value)
                elif key == "stages":
                    kwargs["fake_stages"] = frozenset(int(v) for v in value.split("+"))
                elif key == "legs":
                    kwargs["legs"] = frozenset(value.split("+"))
                else:
                    raise ValueError(f"unknown attack parameter {key!r}")
        return cls(**kwargs)

    def describe(self) -> str:
        parts = [self.strategy]
        if self.strategy == "entangle_measure":
            parts.append(f"beta2={abs(self.beta) ** 2:.6g}")
        if self.strategy == "disturb":
            parts.append(f"mode={self.mode}")
            parts.append(f"fraction={self.fraction:.6g}")
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
        return cls(name.strip(), float(value))

    def describe(self) -> str:
        return f"{self.channel}:{self.param:.10g}"


@dataclass
class EveState:
    """What the adversary keeps between its interceptions.

    The qubits Eve holds are those the arena lists under the holder
    ``"eve"``; handles move, so Eve never holds a qubit an honest party still
    believes it has.  ``ancillas`` lists each entangling ancilla with the leg
    and slot it coupled to; ``measure_ancillas`` reads them out after the
    session.
    """

    ancillas: list[tuple[str, str, int]] = field(default_factory=list)
    _fresh: int = 0

    def new_id(self, prefix: str) -> str:
        self._fresh += 1
        return f"ev_{prefix}{self._fresh}"


def intercept_resend(arena: QubitArena, eve: EveState, qubits: list[str]) -> list[str]:
    """Steal every travel qubit on the leg; forward halves of fresh Bell pairs.

    Eve keeps the stolen qubit and the partner half of each substituted pair
    for later inspection.  The leg's pairs are registered with one call, and
    its qubits change hands with another.
    """
    names = [eve.new_id(prefix) for _ in qubits for prefix in "ks"]
    kept, sent = names[0::2], names[1::2]
    arena.add_bell_pairs([BellLabel.PSI_PLUS.code] * len(qubits), kept, sent, "eve")
    arena.transfer_many(qubits, "eve")
    return sent


def entangle_measure(
    arena: QubitArena, eve: EveState, leg: str, qubits: list[str], alpha: complex, beta: complex
):
    """CNOT a fresh ancilla (control) onto each travel qubit (target), as one
    ``apply_cnot`` round; the leg's ancillas are registered with one call.

    Ancillas are retained and measured after the session; the travel qubits
    continue to the measurement node.
    """
    ancillas = [eve.new_id("a") for _ in qubits]
    amps = np.tile([alpha, beta], (len(ancillas), 1))
    arena.add_registers([(a,) for a in ancillas], amps, "eve")
    eve.ancillas += [(anc, leg, slot) for slot, anc in enumerate(ancillas)]
    yield from engine_round(arena, "apply_cnot", list(zip(ancillas, qubits)))
    return list(qubits)


def flip_all(arena: QubitArena, qubits: list[str]):
    """Apply X to every qubit on the leg, as one ``apply_pauli`` round."""
    yield from engine_round(arena, "apply_pauli", [(q, PauliLabel.X) for q in qubits])
    return list(qubits)


def disturb(
    arena: QubitArena, qubits: list[str], rng: np.random.Generator, mode: str, fraction: float
):
    """Denial-of-service style tampering with a uniformly chosen slot subset.

    ``reorder`` permutes the selected slots (within this leg only);
    ``random_pauli`` draws an independent uniform non-identity Pauli for each
    selected qubit, then applies them as one ``apply_pauli`` round.
    """
    n = len(qubits)
    k = int(round(fraction * n))
    if k == 0:
        return list(qubits)
    chosen = sorted(rng.choice(n, size=k, replace=False).tolist())
    out = list(qubits)
    if mode == "reorder":
        perm = rng.permutation(k)
        for dst, src in zip(chosen, perm):
            out[dst] = qubits[chosen[src]]
    else:
        hits = [(out[slot], NON_IDENTITY[rng.integers(3)]) for slot in chosen]
        yield from engine_round(arena, "apply_pauli", hits)
    return out


_BELL_LABELS = tuple(BellLabel)


def fake_bmo_outcome(rng: np.random.Generator) -> BellLabel:
    """Uniformly random label announced without measuring."""
    return _BELL_LABELS[rng.integers(4)]


def apply_leg_attack(
    spec: AttackSpec | None,
    arena: QubitArena,
    eve: EveState,
    leg: str,
    qubits: list[str],
    rng: np.random.Generator,
):
    """Run the configured strategy on one leg, as a step generator of engine
    rounds; returns the arriving qubits."""
    if spec is None or leg not in spec.legs:
        return list(qubits)
    if spec.strategy == "intercept_resend":
        return intercept_resend(arena, eve, qubits)
    if spec.strategy == "entangle_measure":
        return (yield from entangle_measure(arena, eve, leg, qubits, spec.alpha, spec.beta))
    if spec.strategy == "flip_all":
        return (yield from flip_all(arena, qubits))
    if spec.strategy == "disturb":
        return (yield from disturb(arena, qubits, rng, spec.mode, spec.fraction))
    return list(qubits)


def measure_ancillas(arena: QubitArena, eve: EveState, rng: np.random.Generator):
    """Post-session computational-basis readout of Eve's ancillas, as one
    ``comp_measure`` round; returns a ``(leg, slot, bit)`` record per ancilla."""
    bits = yield from engine_round(arena, "comp_measure", [a for a, _, _ in eve.ancillas], rng)
    return [(leg, slot, bit) for (_, leg, slot), bit in zip(eve.ancillas, bits)]
