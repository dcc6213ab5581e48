"""cesrsim.rng against numpy, its oracle: the same seeds, words and draws,
bit for bit."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cesrsim.rng import Generator, SeedSequence

ROOT = Path(__file__).resolve().parent.parent

entropies = st.one_of(st.integers(0, 2**32 - 1), st.integers(0, 2**160))
spawn_keys = st.lists(st.integers(0, 2**32 - 1), max_size=3).map(tuple)


def _numpy(entropy, spawn_key=()):
    return np.random.SeedSequence(entropy, spawn_key=spawn_key)


@settings(max_examples=200, deadline=None)
@given(entropy=entropies, spawn_key=spawn_keys, n_words=st.integers(1, 9))
def test_seed_sequence_words_equal_numpy(entropy, spawn_key, n_words):
    ours, theirs = SeedSequence(entropy, spawn_key), _numpy(entropy, spawn_key)
    assert ours.generate_state(n_words) == theirs.generate_state(n_words).tolist()
    assert ours.generate_state(n_words, 64) == theirs.generate_state(n_words, np.uint64).tolist()


@settings(max_examples=100, deadline=None)
@given(entropy=entropies, spawn_key=spawn_keys)
def test_spawned_children_equal_numpy(entropy, spawn_key):
    ours, theirs = SeedSequence(entropy, spawn_key), _numpy(entropy, spawn_key)
    # two spawn calls: the second continues the child count
    kids = ours.spawn(2) + ours.spawn(1)
    their_kids = theirs.spawn(2) + theirs.spawn(1)
    for kid, their_kid in zip(kids, their_kids):
        assert kid.spawn_key == their_kid.spawn_key
        assert kid.generate_state(4) == their_kid.generate_state(4).tolist()


@settings(max_examples=100, deadline=None)
@given(entropy=entropies, spawn_key=spawn_keys)
def test_draws_equal_numpy(entropy, spawn_key):
    ours = Generator(SeedSequence(entropy, spawn_key))
    theirs = np.random.Generator(np.random.PCG64(_numpy(entropy, spawn_key)))
    # interleaved, as the simulator's streams are consumed
    for _ in range(20):
        assert ours.random() == theirs.random()
        assert ours.standard_normal() == theirs.standard_normal()
        assert ours.next64() == int(theirs.bit_generator.random_raw())


def test_negative_entropy_is_rejected_as_numpy_does():
    with pytest.raises(ValueError):
        _numpy(-1)
    with pytest.raises(ValueError):
        SeedSequence(-1)


class _BranchCounter(Generator):
    """Counts the draws that leave the ziggurat's rectangles: those whose
    layer is 0 (the tail) and the rest (a wedge); each calls random()."""

    def __init__(self, seed_seq):
        super().__init__(seed_seq)
        self.layer = None  # the layer of the last ziggurat word, until counted
        self.in_random = False
        self.tail = self.wedge = 0

    def next64(self):
        r = super().next64()
        if not self.in_random:
            self.layer = r & 0xFF
        return r

    def random(self):
        if self.layer is not None:
            if self.layer == 0:
                self.tail += 1
            else:
                self.wedge += 1
            self.layer = None
        self.in_random = True
        u = super().random()
        self.in_random = False
        return u


def test_a_million_normals_equal_numpy_through_both_slow_branches():
    n = 10**6
    ours = _BranchCounter(SeedSequence(20240817, (7,)))
    theirs = np.random.Generator(np.random.PCG64(_numpy(20240817, (7,))))
    draws = [ours.standard_normal() for _ in range(n)]
    assert np.array_equal(np.array(draws), theirs.standard_normal(n))
    assert ours.random() == theirs.random()  # both streams at the same word
    # expected per 1e6 draws: about 255 tail and 14,800 wedge entries
    assert 150 < ours.tail < 400
    assert 13_000 < ours.wedge < 17_000


def test_tables_equal_the_installed_numpy():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "ziggurat_tables.py")],
                          capture_output=True, text=True, timeout=60)
    if "has no symbol table" in proc.stderr:
        pytest.skip(proc.stderr.strip())
    assert proc.returncode == 0, proc.stdout + proc.stderr
