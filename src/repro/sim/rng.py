"""Splittable deterministic random number generation.

The Unbalanced Tree Search benchmark defines tree shape through a
*splittable* RNG: every tree node owns an RNG state, and child ``i``'s
state is a pure function of the parent state and ``i``.  The reference UTS
implementation uses SHA-1 for this; :class:`SplittableRNG` does the same
(via :mod:`hashlib`), so trees are reproducible across machines and match
the statistical properties the benchmark relies on.

A faster non-cryptographic mode (``algorithm="mix"``, splitmix64-based) is
provided for large benchmark runs where hashing dominates wall time; the
tree *shape distribution* is statistically equivalent, though individual
trees differ from the SHA-1 ones.  :func:`splitmix64_array`,
:func:`child_states_array` and :func:`random_array` apply the ``"mix"``
mode to whole numpy ``uint64`` arrays of states at once; UTS builds its
trees a level at a time with them (:mod:`repro.apps.uts.tree`).
"""

from __future__ import annotations

import hashlib
import struct

__all__ = ["SplittableRNG", "child_states_array", "random_array",
           "splitmix64", "splitmix64_array"]

_MASK64 = (1 << 64) - 1
#: splitmix64's increment (the golden ratio) and its two mixing
#: multipliers, shared by the scalar and the array versions.
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
#: Scales the top 53 bits of an output to a float in [0, 1).
_UNIT = 1.0 / (1 << 53)


def splitmix64(state: int) -> tuple[int, int]:
    """One step of the splitmix64 generator.

    Returns ``(new_state, output)``.  Both are 64-bit unsigned ints.
    """
    state = (state + _GOLDEN) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    z = z ^ (z >> 31)
    return state, z


def splitmix64_array(states):
    """:func:`splitmix64` applied to each element of a numpy ``uint64``
    array; returns ``(new_states, outputs)``.  uint64 arithmetic wraps
    like the scalar ``& _MASK64``."""
    import numpy as np  # only array callers pay for numpy

    u64 = np.uint64
    states = states + u64(_GOLDEN)
    z = (states ^ (states >> u64(30))) * u64(_MIX1)
    z = (z ^ (z >> u64(27))) * u64(_MIX2)
    return states, z ^ (z >> u64(31))


def child_states_array(states, indices):
    """``SplittableRNG.child`` of ``"mix"`` RNGs, vectorized: entry
    ``[i, j]`` is the state of child ``indices[j]`` of an RNG in state
    ``states[i]``."""
    import numpy as np

    keys = np.array([((i + 1) * _GOLDEN) & _MASK64 for i in indices],
                    dtype=np.uint64)
    return splitmix64_array(states[:, None] ^ keys[None, :])[1]


def random_array(states):
    """The first ``random()`` draw of a ``"mix"`` RNG in each state."""
    import numpy as np

    _, out = splitmix64_array(states)
    return (out >> np.uint64(11)).astype(np.float64) * _UNIT


class SplittableRNG:
    """A splittable RNG with SHA-1 (reference) and splitmix64 (fast) modes.

    >>> root = SplittableRNG(seed=42)
    >>> a, b = root.child(0), root.child(1)
    >>> a.random() != b.random()
    True
    >>> SplittableRNG(seed=42).child(0).random() == a.random()  # deterministic
    False

    (The last comparison is False only because ``random()`` advances state;
    fresh children always agree — see the test suite.)
    """

    __slots__ = ("_state", "algorithm")

    def __init__(self, seed: int = 0, algorithm: str = "sha1", _state=None):
        if algorithm not in ("sha1", "mix"):
            raise ValueError(f"unknown RNG algorithm {algorithm!r}")
        self.algorithm = algorithm
        if _state is not None:
            self._state = _state
        elif algorithm == "sha1":
            self._state = hashlib.sha1(
                b"uts-root" + struct.pack("<q", seed)
            ).digest()
        else:
            # Scramble the seed once so small seeds diverge immediately.
            _, mixed = splitmix64(seed & _MASK64)
            self._state = mixed

    def child(self, index: int) -> "SplittableRNG":
        """Derive an independent child RNG (pure function of state+index)."""
        if self.algorithm == "sha1":
            digest = hashlib.sha1(self._state + struct.pack("<q", index)).digest()
            return SplittableRNG(algorithm="sha1", _state=digest)
        state = (self._state ^ ((index + 1) * _GOLDEN)) & _MASK64
        _, mixed = splitmix64(state)
        return SplittableRNG(algorithm="mix", _state=mixed)

    def _next_u64(self) -> int:
        if self.algorithm == "sha1":
            self._state = hashlib.sha1(self._state).digest()
            return struct.unpack("<Q", self._state[:8])[0]
        self._state, out = splitmix64(self._state)
        return out

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self._next_u64() >> 11) * _UNIT

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high] inclusive (modulo bias is
        negligible for the small ranges used here)."""
        if high < low:
            raise ValueError(f"empty range [{low}, {high}]")
        span = high - low + 1
        return low + self._next_u64() % span

    def choice(self, seq):
        if not seq:
            raise ValueError("cannot choose from an empty sequence")
        return seq[self.randint(0, len(seq) - 1)]

    def shuffle(self, seq: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(seq) - 1, 0, -1):
            j = self.randint(0, i)
            seq[i], seq[j] = seq[j], seq[i]

    def fingerprint(self) -> int:
        """A stable 64-bit fingerprint of the current state (in ``"mix"``
        mode, the state itself)."""
        if self.algorithm == "sha1":
            return struct.unpack("<Q", self._state[:8])[0]
        return self._state
