"""Independent reference for the UTS binomial tree, vectorised with NumPy.

The benchmark checks every UTS point's node count against this counter,
not against ``repro.apps.uts.count_tree``, so a change to the program's
own tree code cannot vouch for itself.  It re-derives the tree from the
published definition: splitmix64 splitting (``SplittableRNG`` with
``algorithm="mix"``), ``b0`` root children, and ``m`` children with
probability ``q`` below the root.  A level of the tree is one NumPy
array of 64-bit RNG states; uint64 arithmetic wraps like the ``& MASK``
of the scalar code.
"""

from __future__ import annotations

import hashlib

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_C1 = np.uint64(0xBF58476D1CE4E5B9)
_C2 = np.uint64(0x94D049BB133111EB)
_TO_UNIT = 1.0 / (1 << 53)


def _mix(states: np.ndarray) -> np.ndarray:
    """splitmix64 output for each state (the value ``child()`` keeps)."""
    z = states + _GOLDEN
    z = (z ^ (z >> np.uint64(30))) * _C1
    z = (z ^ (z >> np.uint64(27))) * _C2
    return z ^ (z >> np.uint64(31))


def count_binomial(b0: int, q: float, m: int, seed: int) -> tuple[int, int]:
    """``(nodes, max_depth)`` of the binomial UTS tree with these params."""
    with np.errstate(over="ignore"):
        root = _mix(np.array([seed & ((1 << 64) - 1)], dtype=np.uint64))
        offsets = (np.arange(1, max(b0, m) + 1, dtype=np.uint64) * _GOLDEN)
        level = _mix(root[:, None] ^ offsets[None, :b0]).ravel()
        nodes, depth = 1, 0
        while level.size:
            nodes += level.size
            depth += 1
            # child(-1).random(): one mix to split, one to draw.
            draws = (_mix(_mix(level)) >> np.uint64(11)).astype(np.float64)
            parents = level[draws * _TO_UNIT < q]
            level = _mix(parents[:, None] ^ offsets[None, :m]).ravel()
    return nodes, depth


def derive_seed(seed: int, *labels: object) -> int:
    """A 63-bit seed derived from the workload seed and some labels."""
    text = ":".join(str(part) for part in (seed, *labels))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big") >> 1


def pick_tree(seed: int, label: str, b0: int, q: float, m: int,
              target: int, candidates: int) -> tuple[int, int, int]:
    """``(tree_seed, nodes, depth)`` of the candidate nearest ``target``.

    Near-critical binomial trees vary in size by several percent from
    seed to seed, which would show as spread in every timing.  Drawing a
    fixed number of candidates from the workload seed and keeping the
    one nearest the target size keeps the work per pass steady while
    the tree itself still changes with the seed.
    """
    best = None
    for j in range(candidates):
        tree_seed = derive_seed(seed, label, j)
        nodes, depth = count_binomial(b0, q, m, tree_seed)
        key = (abs(nodes - target), j)
        if best is None or key < best[0]:
            best = (key, tree_seed, nodes, depth)
    return best[1], best[2], best[3]
