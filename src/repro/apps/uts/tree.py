"""UTS tree definition: random trees over a splittable RNG, built once.

Every node of a UTS tree owns a splittable RNG state; its child count is
a deterministic function of that state, and child *i*'s state is
``rng.child(i)``.  Two standard shapes:

* **binomial** — the root has ``b0`` children; every other node has ``m``
  children with probability ``q`` and none otherwise.  With ``q·m ≈ 1``
  the process is critical and trees are deeply unbalanced — the shape the
  thesis benchmarks (4.1 M nodes).
* **geometric** — branching factor drawn geometrically with mean ``b0``,
  cut off at ``max_depth``.

The shape is a pure function of :class:`TreeParams`, so :func:`build_tree`
materializes the whole tree once, in breadth-first order, as a
:class:`Tree`: an int32 ``offsets`` array with n+1 entries, where the
children of node ``i`` are ``offsets[i]:offsets[i+1]``.  A :data:`Node` is
an int index (the root is :data:`ROOT`), so :func:`expand` is slice
arithmetic and traversing the tree touches no RNG.

Binomial trees with ``algorithm="mix"`` (splitmix64, every experiment's
choice) are built a level at a time with splitmix64 vectorized over numpy
``uint64`` arrays.  The reference UTS splits with SHA-1
(``algorithm="sha1"``); SHA-1 and geometric trees, which no experiment
uses, are built node by node by :func:`build_tree_scalar`, which is also
the reference the vectorized builder is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.sim.rng import SplittableRNG, child_states_array, random_array

__all__ = ["TreeParams", "Tree", "Node", "ROOT", "build_tree",
           "build_tree_scalar", "expand", "count_tree", "paper_tree",
           "small_tree"]


@dataclass(frozen=True)
class TreeParams:
    """Shape parameters of one UTS tree."""

    kind: str = "binomial"
    b0: int = 2000          #: root branching factor
    q: float = 0.124875     #: binomial: P(node has children)
    m: int = 8              #: binomial: children when it has any
    max_depth: int = 10     #: geometric: depth cutoff
    seed: int = 19          #: RNG root seed
    algorithm: str = "mix"  #: "sha1" (reference) or "mix" (fast)

    def __post_init__(self) -> None:
        if self.kind not in ("binomial", "geometric"):
            raise ValueError(f"unknown tree kind {self.kind!r}")
        if not 0.0 <= self.q <= 1.0:
            raise ValueError(f"q must be in [0,1], got {self.q}")
        if self.b0 < 0 or self.m < 0:
            raise ValueError("b0 and m must be non-negative")


#: A tree node: its index in breadth-first order.
Node = int

#: The root's index.
ROOT: Node = 0

#: int32 offsets hold at most this many nodes.
_MAX_NODES = int(np.iinfo(np.int32).max)


@dataclass(frozen=True, eq=False)
class Tree:
    """One materialized tree: node ``i``'s children are the indices
    ``offsets[i]:offsets[i+1]`` (int32, breadth-first order)."""

    offsets: np.ndarray
    depth: int  #: depth of the deepest node (the root is depth 0)

    def __len__(self) -> int:
        return len(self.offsets) - 1


def expand(tree: Tree, node: Node) -> range:
    """Children of ``node``: a range of node indices."""
    offsets = tree.offsets
    return range(offsets[node], offsets[node + 1])


def _check_limit(total: int, limit: int) -> None:
    if total > limit:
        raise RuntimeError(f"tree exceeds limit of {limit} nodes")


def build_tree(params: TreeParams, limit: Optional[int] = None) -> Tree:
    """Materialize the tree ``params`` describes.

    ``limit`` aborts the build once the tree has more than that many
    nodes (guards against parameter choices with runaway supercritical
    growth); it is checked a level at a time, before the next level is
    allocated.
    """
    limit = _MAX_NODES if limit is None else min(limit, _MAX_NODES)
    if params.kind == "binomial" and params.algorithm == "mix":
        return _build_binomial_mix(params, limit)
    return build_tree_scalar(params, limit)


def _build_binomial_mix(params: TreeParams, limit: int) -> Tree:
    """Vectorized builder: one uint64 array of RNG states per level."""
    root = SplittableRNG(seed=params.seed, algorithm="mix").fingerprint()
    level = np.array([root], dtype=np.uint64)
    fertile = np.ones(1, dtype=bool)
    masks = []              # per level, which nodes have children
    width = params.b0       # children of each fertile node on this level
    total, depth = 1, 0
    while True:
        masks.append(fertile)
        born = int(np.count_nonzero(fertile)) * width
        if not born:
            break
        total += born
        _check_limit(total, limit)
        level = child_states_array(level[fertile], range(width)).ravel()
        depth += 1
        # The child-count draw uses the dedicated child(-1) stream.
        fertile = random_array(child_states_array(level, [-1]).ravel()) < params.q
        width = params.m
    offsets = np.empty(total + 1, dtype=np.int32)
    offsets[0] = 1
    np.concatenate(masks, out=offsets[1:])
    offsets[1] = params.b0
    offsets[2:] *= params.m
    np.cumsum(offsets, out=offsets)
    return Tree(offsets, depth)


def _num_children(params: TreeParams, rng: SplittableRNG, depth: int) -> int:
    if params.kind == "binomial":
        if depth == 0:
            return params.b0
        return params.m if rng.random() < params.q else 0
    # geometric: branching drawn so the mean is b0 at the root, decaying
    # with depth; standard UTS "fixed" geometric uses a depth cutoff.
    if depth >= params.max_depth:
        return 0
    u = rng.random()
    # geometric with success prob p = 1/(1+b0): mean b0
    p = 1.0 / (1.0 + params.b0)
    k = int(math.log(max(u, 1e-300)) / math.log(1.0 - p))
    return min(k, params.b0 * 4)


def build_tree_scalar(params: TreeParams, limit: Optional[int] = None) -> Tree:
    """Node-by-node builder over :class:`SplittableRNG` objects.

    Builds any tree; :func:`build_tree` uses it for SHA-1 and geometric
    trees.  ``limit`` as for :func:`build_tree`.
    """
    limit = _MAX_NODES if limit is None else min(limit, _MAX_NODES)
    level = [SplittableRNG(seed=params.seed, algorithm=params.algorithm)]
    counts = []
    total, depth = 1, 0
    while True:
        # Child-count draw uses a dedicated child stream so that expanding
        # a node never perturbs the RNG states handed to its children.
        born = [_num_children(params, rng.child(-1), depth) for rng in level]
        counts.extend(born)
        total += sum(born)
        _check_limit(total, limit)
        level = [rng.child(i) for rng, n in zip(level, born) for i in range(n)]
        if not level:
            break
        depth += 1
    offsets = 1 + np.concatenate(([0], np.cumsum(counts)))
    return Tree(offsets.astype(np.int32), depth)


def count_tree(params: TreeParams, limit: Optional[int] = None) -> Tuple[int, int]:
    """``(total_nodes, max_depth)`` of a freshly built tree.

    ``limit`` as for :func:`build_tree`.
    """
    tree = build_tree(params, limit)
    return len(tree), tree.depth


def paper_tree(algorithm: str = "mix", seed: int = 42) -> TreeParams:
    """A binomial tree in the thesis's size class (~4.1 million nodes).

    With the default fast hash and seed 42 the tree has exactly
    4,330,977 nodes (max depth 1388) — the thesis's binomial tree had
    "total 4.1 million nodes".  Counts depend on seed and hash.
    """
    return TreeParams(kind="binomial", b0=2000, q=0.124875, m=8,
                      seed=seed, algorithm=algorithm)


def small_tree(target: str = "medium", algorithm: str = "mix") -> TreeParams:
    """Scaled-down binomial trees for tests and quick benchmarks.

    ``target`` in {"tiny", "small", "medium", "large"} — roughly 2k, 20k,
    120k and 500k nodes with the default seeds.
    """
    presets = {
        "tiny": TreeParams(b0=40, q=0.120, m=8, seed=101, algorithm=algorithm),
        "small": TreeParams(b0=200, q=0.122, m=8, seed=7, algorithm=algorithm),
        "medium": TreeParams(b0=700, q=0.1243, m=8, seed=11, algorithm=algorithm),
        "large": TreeParams(b0=1500, q=0.12465, m=8, seed=3, algorithm=algorithm),
    }
    try:
        return presets[target]
    except KeyError:
        raise ValueError(f"unknown size target {target!r}") from None
