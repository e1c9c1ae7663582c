import numpy as np
import pyarrow as pa
import pytest

from biobloom_ray.hashing import (
    BASE_A,
    BASE_A_INV,
    derive_hashes,
    hash_strings,
    shingle_hashes,
    splitmix64,
)

MASK = (1 << 64) - 1


def test_mod_inverse():
    assert (BASE_A * BASE_A_INV) & MASK == 1


def test_rolling_matches_brute_force():
    text = "the quick brown fox jumps over the lazy dog"
    k = 7
    h1, h2, nf = shingle_hashes([text], k)
    assert nf[0] == len(text) - k + 1
    # reconstruct: h1 = splitmix64(raw + seed); check raw determinism by
    # comparing positionally-equal shingles
    shingles = [text[i:i + k] for i in range(len(text) - k + 1)]
    solo = [shingle_hashes([s], k)[0][0] for s in shingles]
    assert np.array_equal(h1, np.array(solo, dtype=np.uint64))


def test_equal_shingles_equal_hashes_across_rows():
    k = 5
    h1a, _, _ = shingle_hashes(["abcdefgh"], k)
    h1b, _, _ = shingle_hashes(["zzz", "xabcdefghy"], k)
    # "abcde" appears at row1 pos 1
    assert h1a[0] == h1b[1]


def test_frames_per_row_and_short_rows():
    h1, h2, nf = shingle_hashes(["abc", "abcd", "", "abcde"], 4)
    assert list(nf) == [0, 1, 0, 2]
    assert len(h1) == 3
    assert len(h2) == 3


def test_seed_changes_hashes():
    a = shingle_hashes(["hello world"], 4, seed=1)[0]
    b = shingle_hashes(["hello world"], 4, seed=2)[0]
    assert not np.array_equal(a, b)


def test_determinism():
    a = shingle_hashes(["deterministic please"], 6)[0]
    b = shingle_hashes(["deterministic please"], 6)[0]
    assert np.array_equal(a, b)


def test_sliced_arrow_array():
    arr = pa.array(["aaaa", "bbbb", "cccc", "dddd"])
    full = shingle_hashes(arr, 3)[0]
    sliced = shingle_hashes(arr.slice(2, 2), 3)[0]
    assert np.array_equal(full[4:], sliced)


def test_nulls_are_empty():
    arr = pa.array(["abcd", None, "efgh"])
    h1, _, nf = shingle_hashes(arr, 3)
    assert list(nf) == [2, 0, 2]


def test_h2_is_odd():
    _, h2, _ = shingle_hashes(["some text here"], 4)
    assert np.all(h2 & np.uint64(1) == 1)


def test_derive_hashes_distinct():
    h1, h2, _ = shingle_hashes(["some text here for derivation"], 6)
    d0 = derive_hashes(h1, h2, 0)
    d1 = derive_hashes(h1, h2, 1)
    d2 = derive_hashes(h1, h2, 2)
    assert np.array_equal(d0, h1)
    assert not np.array_equal(d1, d2)


def test_hash_strings_whole():
    hs = hash_strings(["foo", "bar", "foo", ""])
    assert hs[0] == hs[2]
    assert hs[0] != hs[1]
    assert len(set(hs.tolist())) == 3


def test_hash_uniformity():
    # chi-square-ish sanity: bucket 64k hashes of distinct strings into 64
    vals = hash_strings([f"tok{i}" for i in range(65536)])
    counts = np.bincount((vals % np.uint64(64)).astype(np.int64), minlength=64)
    expected = 65536 / 64
    assert abs(counts - expected).max() < expected * 0.2


def test_splitmix_avalanche():
    x = np.arange(1000, dtype=np.uint64)
    y = splitmix64(x)
    z = splitmix64(x + np.uint64(1))
    diffbits = np.unpackbits((y[:-1] ^ y[1:]).view(np.uint8)).mean()
    assert 0.4 < diffbits < 0.6
    assert len(np.unique(y)) == 1000
    assert not np.array_equal(y, z)


def test_normalize_non_ascii_golden():
    """Pinned normalization contract: ASCII-only case mapping and
    whitespace collapse; non-ASCII code points pass through untouched
    regardless of pyarrow's Unicode tables."""
    import hashlib
    import pyarrow as pa
    from biobloom_ray.textnorm import normalize_batch

    col = pa.array(["Füße  WASCHEN\tÉTÉ", "ΣΟΦΌΣ край", "  Mixed CASE ",
                    "北京 上海\n廣州"])
    out = normalize_batch(col).to_pylist()
    # ASCII letters lower; uppercase non-ASCII (É, Σ) are NOT touched
    assert out[0] == "füße waschen ÉtÉ"
    assert out[1] == "ΣΟΦΌΣ край"
    assert out[2] == "mixed case"
    assert out[3] == "北京 上海 廣州"
    digest = hashlib.sha256("\x00".join(out).encode("utf-8")).hexdigest()
    assert digest == ("58b68ea1042f0f1e32856fde358060bb"
                      "78a0e26e41d22b18edb72b2605ee87d9")


def test_normalized_byte_len_matches_normalize_batch():
    """Property: the raw-byte sizing kernel equals len(normalize_batch)."""
    import pyarrow as pa
    from biobloom_ray.textnorm import normalize_batch, normalized_byte_len

    rng = np.random.default_rng(5)
    alphabet = list("ab  \t\nÉß北 ")
    cases = ["".join(rng.choice(alphabet, size=rng.integers(0, 40)))
             for _ in range(200)] + ["", " ", "  \t\n ", "a", None]
    col = pa.array(cases, type=pa.string())
    want = np.array([len(t.encode()) if t is not None else 0
                     for t in normalize_batch(col).to_pylist()])
    got = normalized_byte_len(col)
    assert (want == got).all()
    sl = col.slice(7, 50)
    want_s = np.array([len(t.encode()) if t is not None else 0
                       for t in normalize_batch(sl).to_pylist()])
    assert (want_s == normalized_byte_len(sl)).all()


class TestTokenNgramHashes:
    """Property checks for the combined-token n-gram hash used by the
    decontamination prefilter (stages/textstats.token_ngram_hashes)."""

    def _grams(self, docs, n):
        from biobloom_ray.stages.textstats import (_token_arrays,
                                                   ngram_strings_at,
                                                   token_ngram_hashes)
        t = pa.table({"doc_id": list(range(len(docs))), "text": docs})
        flat, lens, row_of = _token_arrays(t)
        h1, h2, grow, gstart = token_ngram_hashes(flat, row_of, n)
        s = ngram_strings_at(flat, gstart, n)
        return h1, h2, grow, s

    def test_equal_strings_equal_hashes_and_no_spurious_equalities(self):
        rng = np.random.default_rng(42)
        vocab = [f"tok{i}" for i in range(30)]
        docs = [" ".join(rng.choice(vocab, rng.integers(0, 25)))
                for _ in range(60)]
        for n in (2, 3, 5):
            h1, h2, grow, s = self._grams(docs, n)
            import pandas as pd
            df = pd.DataFrame({"s": s.to_numpy(dtype=object),
                               "h1": h1, "h2": h2})
            # same string -> same (h1, h2) everywhere
            assert (df.groupby("s")[["h1", "h2"]].nunique() == 1).all().all()
            # distinct strings -> distinct hashes (no collisions at this
            # scale; 64-bit + avalanche)
            assert df.drop_duplicates("s").h1.is_unique

    def test_ngrams_never_cross_row_boundaries(self):
        # adjacent docs ending/starting with identical tokens must not
        # produce a gram spanning the boundary
        h1, _, grow, s = self._grams(["a b", "b c"], 2)
        assert sorted(s.tolist()) == ["a b", "b c"]
        assert sorted(grow.tolist()) == [0, 1]

    def test_order_sensitivity(self):
        # "a b" and "b a" must hash differently (the chained mix is
        # position-dependent)
        h1, _, _, s = self._grams(["a b", "b a"], 2)
        assert len(set(h1.tolist())) == 2

    def test_long_ngram_position_swaps_do_not_collide(self):
        # regression (round-4 advice): the old XOR-of-5-multipliers
        # combine collided deterministically on token swaps at distance
        # 5 for n > 5 and on XOR-cancelling repeats; the chained mix
        # must distinguish all of these
        toks = [f"t{i}" for i in range(8)]
        swapped = toks.copy()
        swapped[0], swapped[5] = swapped[5], swapped[0]  # j <-> j+5
        docs = [" ".join(toks), " ".join(swapped)]
        for n in (6, 7, 8):
            h1, h2, _, s = self._grams(docs, n)
            import pandas as pd
            df = pd.DataFrame({"s": s.to_numpy(dtype=object), "h1": h1})
            assert df.groupby("s").h1.nunique().eq(1).all()
            assert df.drop_duplicates("s").h1.is_unique
        # XOR-cancelling repeat pattern: "x y x y x y" vs "y x y x y x"
        h1, _, _, _ = self._grams(["x y x y x y", "y x y x y x"], 6)
        assert len(set(h1.tolist())) == 2
