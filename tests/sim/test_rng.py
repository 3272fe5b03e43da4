"""Unit and property tests for the splittable RNG."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.rng import (
    SplittableRNG,
    child_states_array,
    random_array,
    splitmix64,
    splitmix64_array,
)

_U64 = st.integers(min_value=0, max_value=2**64 - 1)


class TestSplitmix64:
    def test_known_sequence_is_deterministic(self):
        s, out1 = splitmix64(0)
        _, out2 = splitmix64(0)
        assert out1 == out2
        assert 0 <= out1 < 2**64
        assert s != 0

    @given(_U64)
    def test_outputs_in_range(self, state):
        new_state, out = splitmix64(state)
        assert 0 <= new_state < 2**64
        assert 0 <= out < 2**64

    @given(st.lists(_U64, max_size=20).map(lambda xs: xs + [0, 2**64 - 1]))
    def test_array_version_matches_scalar(self, states):
        new_states, outs = splitmix64_array(np.array(states, dtype=np.uint64))
        expected = [splitmix64(s) for s in states]
        assert new_states.tolist() == [s for s, _ in expected]
        assert outs.tolist() == [out for _, out in expected]


class TestArraySplitting:
    """The vectorized ``"mix"`` splitting against ``SplittableRNG``."""

    @given(seeds=st.lists(_U64, min_size=1, max_size=8),
           indices=st.lists(st.integers(-1, 5000), min_size=1, max_size=8))
    def test_child_states_match_child(self, seeds, indices):
        rngs = [SplittableRNG(seed=s, algorithm="mix") for s in seeds]
        states = np.array([r.fingerprint() for r in rngs], dtype=np.uint64)
        got = child_states_array(states, indices)
        assert got.tolist() == [[r.child(i).fingerprint() for i in indices]
                                for r in rngs]

    @given(st.lists(_U64, min_size=1, max_size=8))
    def test_random_matches_first_draw(self, seeds):
        rngs = [SplittableRNG(seed=s, algorithm="mix") for s in seeds]
        states = np.array([r.fingerprint() for r in rngs], dtype=np.uint64)
        assert random_array(states).tolist() == [r.random() for r in rngs]


@pytest.mark.parametrize("algorithm", ["sha1", "mix"])
class TestSplittableRNG:
    def test_same_seed_same_stream(self, algorithm):
        a = SplittableRNG(seed=7, algorithm=algorithm)
        b = SplittableRNG(seed=7, algorithm=algorithm)
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_different_seeds_diverge(self, algorithm):
        a = SplittableRNG(seed=1, algorithm=algorithm)
        b = SplittableRNG(seed=2, algorithm=algorithm)
        assert [a.random() for _ in range(4)] != [b.random() for _ in range(4)]

    def test_children_deterministic(self, algorithm):
        root = SplittableRNG(seed=3, algorithm=algorithm)
        c1 = root.child(5)
        c2 = SplittableRNG(seed=3, algorithm=algorithm).child(5)
        assert c1.fingerprint() == c2.fingerprint()

    def test_sibling_children_differ(self, algorithm):
        root = SplittableRNG(seed=3, algorithm=algorithm)
        fps = {root.child(i).fingerprint() for i in range(100)}
        assert len(fps) == 100

    def test_child_does_not_mutate_parent(self, algorithm):
        root = SplittableRNG(seed=3, algorithm=algorithm)
        before = root.fingerprint()
        root.child(0)
        assert root.fingerprint() == before

    def test_random_in_unit_interval(self, algorithm):
        rng = SplittableRNG(seed=11, algorithm=algorithm)
        vals = [rng.random() for _ in range(1000)]
        assert all(0.0 <= v < 1.0 for v in vals)
        # crude uniformity: mean near 0.5
        assert abs(sum(vals) / len(vals) - 0.5) < 0.05

    def test_randint_bounds(self, algorithm):
        rng = SplittableRNG(seed=11, algorithm=algorithm)
        vals = [rng.randint(2, 5) for _ in range(200)]
        assert set(vals) == {2, 3, 4, 5}

    def test_randint_single_point(self, algorithm):
        rng = SplittableRNG(seed=1, algorithm=algorithm)
        assert rng.randint(7, 7) == 7

    def test_randint_empty_range_rejected(self, algorithm):
        rng = SplittableRNG(seed=1, algorithm=algorithm)
        with pytest.raises(ValueError):
            rng.randint(5, 4)

    def test_choice(self, algorithm):
        rng = SplittableRNG(seed=1, algorithm=algorithm)
        seq = ["a", "b", "c"]
        assert rng.choice(seq) in seq
        with pytest.raises(ValueError):
            rng.choice([])

    def test_shuffle_is_permutation(self, algorithm):
        rng = SplittableRNG(seed=9, algorithm=algorithm)
        seq = list(range(50))
        rng.shuffle(seq)
        assert sorted(seq) == list(range(50))
        assert seq != list(range(50))  # astronomically unlikely to be identity


class TestRNGProperties:
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        path=st.lists(st.integers(min_value=0, max_value=64), min_size=1, max_size=6),
    )
    @settings(max_examples=50, deadline=None)
    def test_tree_path_determinism(self, seed, path):
        """Following the same child path twice yields the same state."""
        a = SplittableRNG(seed=seed)
        b = SplittableRNG(seed=seed)
        for idx in path:
            a = a.child(idx)
            b = b.child(idx)
        assert a.fingerprint() == b.fingerprint()

    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30, deadline=None)
    def test_child_independent_of_parent_draws(self, seed):
        """child(i) depends only on the state at split time."""
        a = SplittableRNG(seed=seed)
        fp_before = a.child(3).fingerprint()
        a.random()  # advance parent
        fp_after = a.child(3).fingerprint()
        assert fp_before != fp_after  # state advanced -> child differs

    def test_bad_algorithm_rejected(self):
        with pytest.raises(ValueError):
            SplittableRNG(seed=0, algorithm="xkcd")
