"""Bit-sliced filter bank parity.

``FilterBank.probe`` must give, for every filter, exactly the bits of
``BloomFilter.contains`` — across every word width (F crossing 8, 16, 32
and 64), on banks that mix (m, hash_num) groups, singletons and
non-contiguous group members.  A categorize run over such a bank must
label, mask and score every row exactly like the per-filter probe it
replaces.
"""

import numpy as np
import pyarrow as pa
import pytest

from biobloom_ray.config import CategorizeConfig
from biobloom_ray.hashing import shingle_hashes
from biobloom_ray.sketches.bloom import BloomFilter, FilterBank
from biobloom_ray.stages.categorize import (CategorizerActor,
                                            PairedCategorizerActor)
from biobloom_ray.stages.masking import repetition_mask
from biobloom_ray.textnorm import normalize_batch

K = 4
SHAPES = [(6400, 2), (6400, 3), (12800, 2)]


def _random_bank(rng, n_filters, shapes=SHAPES):
    """Filters with random (m, hash_num) from ``shapes`` and bit densities
    from 10% to 90%, so probe words die in the first round, die over
    several rounds (the loop drops frames more than once) or survive
    every round."""
    bank = []
    for i in range(n_filters):
        m, h = shapes[rng.integers(len(shapes))]
        bits = rng.random(m) < rng.choice([0.1, 0.3, 0.5, 0.9])
        words = np.packbits(bits, bitorder="little").view(np.uint64)
        bank.append(BloomFilter(m=m, hash_num=h, kmer_size=K,
                                filter_id=f"f{i}", words=words))
    return bank


@pytest.mark.parametrize("n_filters", [1, 2, 8, 9, 16, 17, 33, 64])
def test_probe_matches_contains(n_filters):
    rng = np.random.default_rng(n_filters)
    bank = _random_bank(rng, n_filters)
    # more frames than one probe chunk, and planted members of each filter
    n = 40000
    h1 = rng.integers(0, 2**63, n, dtype=np.uint64) * np.uint64(3)
    h2 = rng.integers(0, 2**63, n, dtype=np.uint64) | np.uint64(1)
    for bf in bank:
        sel = rng.integers(0, n, 200)
        bf.insert(h1[sel], h2[sel])
    fb = FilterBank(bank)
    width = {1: 8, 2: 8, 8: 8, 9: 16, 16: 16, 17: 32, 33: 64, 64: 64}
    assert fb.dtype.itemsize * 8 == width[n_filters]
    word = fb.probe(h1, h2)
    assert word.dtype == fb.dtype and len(word) == n
    for i, (bf, got) in enumerate(zip(bank, fb.unpack(word))):
        want = bf.contains(h1, h2)
        assert (got == want).all(), f"filter {i} differs"
    if n_filters < fb.dtype.itemsize * 8:
        assert not (word >> fb.dtype.type(n_filters)).any()
    assert len(fb.probe(h1[:0], h2[:0])) == 0


@pytest.mark.parametrize("density", [0.05, 0.3, 0.6])
def test_probe_drops_dead_frames_over_rounds(density):
    """One group, many rounds: sparse filters kill most words in the
    first round, middling ones over several rounds, so the loop drops
    frames more than once per chunk."""
    rng = np.random.default_rng(int(density * 100))
    bank = []
    for i in range(3):
        bits = rng.random(6400) < density
        bank.append(BloomFilter(m=6400, hash_num=6, kmer_size=K,
                                filter_id=f"f{i}",
                                words=np.packbits(bits, bitorder="little")
                                .view(np.uint64)))
    n = 70000
    h1 = rng.integers(0, 2**63, n, dtype=np.uint64)
    h2 = rng.integers(0, 2**63, n, dtype=np.uint64) | np.uint64(1)
    for bf in bank:
        sel = rng.integers(0, n, 500)
        bf.insert(h1[sel], h2[sel])
    fb = FilterBank(bank)
    for bf, got in zip(bank, fb.unpack(fb.probe(h1, h2))):
        assert (got == bf.contains(h1, h2)).all()


def test_mixed_groups_are_sliced_once():
    """Filters sharing (m, hash_num) form one bit-sliced group, whatever
    their position in the bank, and own a contiguous run of word bits; a
    lone shape stays a plain filter."""
    rng = np.random.default_rng(0)
    bank = _random_bank(rng, 5, shapes=[(6400, 2)])
    bank.insert(2, _random_bank(rng, 1, shapes=[(12800, 3)])[0])
    fb = FilterBank(bank)
    assert fb.bit == [0, 1, 5, 2, 3, 4]
    (shift0, _, _, sliced), (shift1, _, _, lone) = fb._groups
    assert (shift0, shift1) == (0, 5)
    assert isinstance(lone, BloomFilter) and lone.m == 12800
    assert sliced.dtype == np.uint8 and len(sliced) == 6400
    for j, i in enumerate((0, 1, 3, 4, 5)):
        bits = np.unpackbits(bank[i].words.view(np.uint8), bitorder="little")
        assert (((sliced >> np.uint8(j)) & np.uint8(1)) == bits).all()


def test_bank_owns_its_bits():
    """The bank keeps no view of a caller's words: a sliced filter is
    held only as slices, a lone filter as a private copy.  Slicing runs
    block by block, so an m spanning several blocks is checked too."""
    from biobloom_ray.sketches.bloom import _SLICE_BLOCK

    rng = np.random.default_rng(3)
    m = 64 * (2 * _SLICE_BLOCK + 5)
    bank = _random_bank(rng, 3, shapes=[(m, 2)])
    bank += _random_bank(rng, 1, shapes=[(6400, 3)])
    fb = FilterBank(bank)
    (_, _, _, sliced), (_, _, _, lone) = fb._groups
    for bf in bank:
        for held in (sliced, lone.words):
            assert not np.shares_memory(held, bf.words)
    assert (lone.words == bank[3].words).all()
    for j in range(3):
        bits = np.unpackbits(bank[j].words.view(np.uint8), bitorder="little")
        assert (((sliced >> np.uint8(j)) & np.uint8(1)) == bits).all()


# ---------------------------------------------------------------------------
# categorize over a mixed bank vs the per-filter probe
# ---------------------------------------------------------------------------

class _PerFilterProbe:
    """The per-filter probe the bank replaced: one ``contains`` per
    filter, the mask applied to each filter's hits."""

    def __init__(self, bank, cfg, **kw):
        super().__init__(bank, cfg, **kw)
        self.ref_bank = bank

    def _frame_hits(self, texts):
        texts = normalize_batch(texts)
        h1, h2, nf = shingle_hashes(texts, self.k, self.seed)
        sub = (self.subtract.contains(h1, h2)
               if self.subtract is not None else None)
        per_filter = [bf.contains(h1, h2) for bf in self.ref_bank]
        if self.cfg.mask_repetition is not None:
            mask = repetition_mask(h1, nf, self.cfg.mask_repetition)
            per_filter = [fh & ~mask for fh in per_filter]
        return per_filter, sub, nf


class _RefActor(_PerFilterProbe, CategorizerActor):
    pass


class _RefPairedActor(_PerFilterProbe, PairedCategorizerActor):
    pass


VOCAB = [f"w{i}" for i in range(60)]


def _texts(rng, n):
    out = []
    for _ in range(n):
        lo = rng.integers(0, 55)
        words = rng.choice(VOCAB[lo:lo + rng.integers(3, 20)],
                           rng.integers(0, 40))
        out.append(" ".join(words))
    out[0] = ""
    out[1] = "w1 w1 w1 w1 w1 w1 w1 w1 w1 w1 w1 w1"  # repetitive
    return out


def _mixed_bank(rng, n_filters=11):
    """A categorize bank of real k-shingle filters: two shared shapes
    (interleaved) plus singletons, each built from a vocabulary slice so
    rows match zero, one or several filters."""
    shapes = [(2048, 3), (4096, 2), (2048, 3), (4096, 2), (8192, 4)]
    bank = []
    for i in range(n_filters):
        m, h = shapes[i % len(shapes)] if i < 9 else (1024 + 64 * i, 3)
        bf = BloomFilter(m=m, hash_num=h, kmer_size=K, filter_id=f"f{i}")
        lo = rng.integers(0, 50)
        ref = " ".join(rng.choice(VOCAB[lo:lo + 10], 200))
        h1, h2, _ = shingle_hashes(normalize_batch(pa.array([ref])), K)
        bf.insert(h1, h2)
        bank.append(bf)
    return bank


def _cols(t: pa.Table):
    return {c: t[c].to_pylist() for c in ("label", "hit_mask", "score")}


@pytest.mark.parametrize("mode", ["std", "ordered", "besthit"])
@pytest.mark.parametrize("subtract", [False, True])
@pytest.mark.parametrize("mask_repetition", [None, 2])
def test_categorize_matches_per_filter_probe(mode, subtract,
                                             mask_repetition):
    rng = np.random.default_rng(7)
    bank = _mixed_bank(rng)
    sub = _mixed_bank(np.random.default_rng(99), 1)[0] if subtract else None
    cfg = CategorizeConfig(mode=mode, score_threshold=0.15,
                           mask_repetition=mask_repetition)
    batch = pa.table({"text": _texts(rng, 300)})
    got = CategorizerActor(bank, cfg, subtract_ref=sub)(batch)
    want = _RefActor(bank, cfg, subtract_ref=sub)(batch)
    assert _cols(got) == _cols(want)
    labels = set(got["label"].to_pylist())
    assert "noMatch" in labels
    assert len(labels - {"noMatch", "multiMatch"}) >= 2
    assert ("multiMatch" in labels) == (mode != "ordered")


@pytest.mark.parametrize("mode", ["std", "ordered"])
@pytest.mark.parametrize("inclusive", [False, True])
def test_paired_categorize_matches_per_filter_probe(mode, inclusive):
    rng = np.random.default_rng(11)
    bank = _mixed_bank(rng)
    sub = _mixed_bank(np.random.default_rng(98), 1)[0]
    cfg = CategorizeConfig(mode=mode, inclusive=inclusive,
                           mask_repetition=2)
    batch = pa.table({"text_1": _texts(rng, 200),
                      "text_2": _texts(rng, 200)})
    got = PairedCategorizerActor(bank, cfg, subtract_ref=sub)(batch)
    want = _RefPairedActor(bank, cfg, subtract_ref=sub)(batch)
    assert _cols(got) == _cols(want)
    assert len(set(got["label"].to_pylist())) > 2


def test_worker_cache_keeps_the_latest_categorizers():
    """Each categorize() call broadcasts a new bank, so a long-lived
    worker's categorizer cache must not grow with the number of calls."""
    import biobloom_ray.stages.categorize as sc

    bank = _mixed_bank(np.random.default_rng(5), 2)
    cfg = CategorizeConfig()
    batch = pa.table({"text": ["w1 w2 w3 w4 w5 w6"]})
    sc._WORKER_CACHE.clear()
    banks = [list(bank) for _ in range(sc._WORKER_CACHE_SIZE + 3)]
    outs = [sc.make_categorizer_fn(b, cfg)(batch) for b in banks]
    assert len(sc._WORKER_CACHE) == sc._WORKER_CACHE_SIZE
    assert all(_cols(o) == _cols(outs[0]) for o in outs)
    sc._WORKER_CACHE.clear()
