"""Reference-specific operators: progressive recruitment (T4), smart
pairs (T7/J3/M6), masking (M5 analogue), spaced seeds (M3), t-digest,
extraction invariant (BASELINE input_hint)."""

import hashlib

import numpy as np
import pyarrow as pa
import pytest

import ray.data

from biobloom_ray.config import BuildConfig
from biobloom_ray.hashing import (
    parse_seed_string,
    shingle_hashes,
    spaced_seed_hashes,
    string_column_bytes,
)
from biobloom_ray.pages import generate_pages
from biobloom_ray.pipelines.progressive import progressive_build
from biobloom_ray.scoring import eval_batch
from biobloom_ray.sketches import BloomFilter, TDigest
from biobloom_ray.stages.masking import entropy_mask, repetition_mask
from biobloom_ray.stages.pairs import add_pair_key, pair_up
from biobloom_ray.textnorm import extract_text, normalize_batch, text_sha256


class TestProgressive:
    @pytest.fixture(scope="class")
    def stream(self, ray_session):
        rng = np.random.default_rng(23)
        pool_a = [f"core{i:03d}" for i in range(60)]
        pool_b = [f"far{i:03d}" for i in range(60)]
        seed_docs = [" ".join(rng.choice(pool_a, 60)) for _ in range(5)]
        # related reads share pool_a; unrelated use pool_b
        related = [" ".join(rng.choice(pool_a, 50)) for _ in range(60)]
        unrelated = [" ".join(rng.choice(pool_b, 50)) for _ in range(60)]
        docs = related + unrelated
        order = rng.permutation(len(docs))
        tbl = pa.table({"text": pa.array([docs[i] for i in order])})
        return ray.data.from_arrow(tbl), seed_docs, len(related)

    def test_strict_order_recruits_related_only(self, stream):
        ds, seed_docs, n_related = stream
        cfg = BuildConfig(kmer_size=8, desired_fpr=0.0078125)
        bf, recruited = progressive_build(
            ds, seed_docs, cfg, threshold=0.3, expected_entries=200_000,
            strict_order=True, batch_size=32)
        assert recruited >= 0.9 * n_related
        assert recruited <= n_related * 1.1  # unrelated reads stay out
        # the grown filter now matches fresh pool_a text
        rng = np.random.default_rng(99)
        fresh = " ".join(rng.choice([f"core{i:03d}" for i in range(60)], 50))
        h1, h2, nf = shingle_hashes([fresh.lower()], 8)
        hits = bf.contains(h1, h2)
        assert eval_batch(hits, nf, 8, threshold=0.3)[0]

    def test_bulk_rounds_converge(self, stream):
        ds, seed_docs, n_related = stream
        cfg = BuildConfig(kmer_size=8, desired_fpr=0.0078125)
        bf, recruited = progressive_build(
            ds, seed_docs, cfg, threshold=0.3, expected_entries=200_000,
            strict_order=False, passes=4, batch_size=64)
        # bulk-synchronous recruitment converges to >= the related set
        assert recruited >= 0.9 * n_related
        # acceptance is monotone → recruited is the LAST round's accept
        # count, never a per-round re-count of earlier recruits
        n_total = ds.count()
        assert recruited <= n_total
        # partial-merge n_distinct inflation is corrected by the
        # popcount-based estimator: must be consistent with the bit array
        import math
        pop = bf.popcount()
        est = -(bf.m / bf.hash_num) * math.log(1 - pop / bf.m)
        assert abs(bf.n_distinct - est) <= max(2, 0.01 * est)

    def test_bait_seed_mismatch_rejected(self, stream):
        from biobloom_ray.sketches.bloom import BloomFilter

        ds, seed_docs, _ = stream
        bad = BloomFilter(m=4096, hash_num=3, kmer_size=8, seed=0xBAD5EED)
        with pytest.raises(ValueError, match="incompatible"):
            progressive_build(ds, seed_docs, BuildConfig(kmer_size=8),
                              subtract=bad, expected_entries=10_000)

    def test_stop_gate(self, ray_session):
        # each related doc contributes fresh distinct shingles, so the
        # filter grows monotonically until the entry gate stops the run
        rng = np.random.default_rng(41)
        pool = [f"core{i:03d}" for i in range(60)]
        seed_docs = [" ".join(rng.choice(pool, 60)) for _ in range(5)]
        docs = [" ".join(rng.choice(pool, 40)) + f" fresh{i:05d}payload{i:05d}"
                for i in range(200)]
        ds = ray.data.from_arrow(pa.table({"text": pa.array(docs)}))
        cfg = BuildConfig(kmer_size=8)
        bf_nogate, rec_all = progressive_build(
            ds, seed_docs, cfg, threshold=0.3, expected_entries=200_000,
            strict_order=True, batch_size=16)
        gate = bf_nogate.n_distinct // 2
        bf, rec_gated = progressive_build(
            ds, seed_docs, cfg, threshold=0.3, expected_entries=200_000,
            max_entries=gate, strict_order=True, batch_size=16)
        assert bf.n_distinct >= gate            # gate crossed then stopped
        assert rec_gated < rec_all              # ... before the stream end



    def test_bulk_tree_merge_matches_driver_merge(self, stream, monkeypatch):
        """Forcing the fold tasks must give the identical
        filter and recruit count as the driver-merge path."""
        import biobloom_ray.sketches.fold as F

        ds, seed_docs, _ = stream
        cfg = BuildConfig(kmer_size=8, desired_fpr=0.0078125)
        bf_a, rec_a = progressive_build(
            ds, seed_docs, cfg, threshold=0.3, expected_entries=200_000,
            strict_order=False, passes=2, batch_size=64)
        monkeypatch.setattr(F, "DRIVER_FOLD_MAX_BYTES", 0)
        bf_b, rec_b = progressive_build(
            ds, seed_docs, cfg, threshold=0.3, expected_entries=200_000,
            strict_order=False, passes=2, batch_size=64)
        assert rec_a == rec_b
        assert np.array_equal(bf_a.words, bf_b.words)


class TestSmartPairs:
    def test_pair_key_extraction(self, ray_session):
        tbl = pa.table({"url": ["read1/1", "read1/2", "solo/1", "nopair"],
                        "text": ["aaa", "bbb", "ccc", "ddd"]})
        keyed = add_pair_key(tbl)
        assert keyed["pair_key"].to_pylist() == ["read1", "read1", "solo", "nopair"]
        assert keyed["mate"].to_pylist() == ["1", "2", "1", None]

    def test_pair_up_groups_mates(self, ray_session):
        rows = []
        for i in range(50):
            rows.append((f"r{i:03d}/1", f"first text {i}"))
            rows.append((f"r{i:03d}/2", f"second text {i}"))
        rows.append(("orphan/1", "no mate"))
        tbl = pa.table({"url": [r[0] for r in rows],
                        "text": [r[1] for r in rows]})
        ds = ray.data.from_arrow(tbl).random_shuffle(seed=3)
        pairs = pair_up(ds).to_pandas()
        assert len(pairs) == 50
        assert (pairs.text_1.str.startswith("first")).all()
        assert (pairs.text_2.str.startswith("second")).all()
        # mates re-united by key despite shuffled input order
        k = pairs.pair_key.iloc[0]
        i = int(k[1:])
        assert pairs[pairs.pair_key == k].text_1.iloc[0] == f"first text {i}"


class TestMasking:
    def test_repetition_mask(self):
        # doc 0: shingle "abcd" appears 6x (> 4) → masked; doc 1 clean
        texts = ["abcd " * 6, "unique words here never repeat"]
        h1, _, nf = shingle_hashes(texts, 4)
        mask = repetition_mask(h1, nf, max_occurrences=4)
        d0 = mask[:nf[0]]
        d1 = mask[nf[0]:]
        assert d0.any()
        assert not d1.any()

    def test_entropy_mask(self):
        texts = pa.array(["aaaaaaaaaa", "abcdefghij"])
        data, starts, ends = string_column_bytes(texts)
        m = entropy_mask(data, starts, ends, k=5, min_distinct=3)
        assert m[:6].all()        # runs of a single char
        assert not m[6:].any()    # all-distinct windows

    def test_mask_plugs_into_scoring(self):
        texts = ["abcd " * 6]
        h1, _, nf = shingle_hashes(texts, 4)
        mask = repetition_mask(h1, nf, max_occurrences=2)
        hits = np.ones(len(h1), dtype=bool)
        unmasked = eval_batch(hits, nf, 4, threshold=0.9)
        masked = eval_batch(hits, nf, 4, threshold=0.9, mask=mask)
        assert unmasked[0] and not masked[0]


class TestSpacedSeeds:
    def test_parse(self):
        assert parse_seed_string("10101").tolist() == [0, 2, 4]
        with pytest.raises(ValueError):
            parse_seed_string("10a")

    def test_dont_care_positions_ignored(self):
        # same care positions, different don't-care content → equal hash
        seeds = ["101"]
        ha, nfa = spaced_seed_hashes(["aXb"], seeds)
        hb, nfb = spaced_seed_hashes(["aYb"], seeds)
        hc, _ = spaced_seed_hashes(["aXc"], seeds)
        assert ha[0, 0] == hb[0, 0]
        assert ha[0, 0] != hc[0, 0]

    def test_multi_seed_shapes(self):
        h, nf = spaced_seed_hashes(["abcdefgh"], ["1100", "0011"])
        assert h.shape == (5, 2)
        assert nf.tolist() == [5]
        # seed "0011" of window starting at 0 == seed "1100"-style hash of
        # the suffix care chars c,d — distinct seeds give distinct streams
        assert (h[:, 0] != h[:, 1]).any()


class TestTDigest:
    def test_quantile_accuracy(self):
        rng = np.random.default_rng(31)
        data = rng.lognormal(3, 1, 50000)
        td = TDigest(delta=200)
        for lo in range(0, len(data), 5000):
            td.update(data[lo:lo + 5000])
        s = np.sort(data)
        for q in (0.01, 0.5, 0.99):
            est = td.quantile(q)
            rank = np.searchsorted(s, est) / len(s)
            assert abs(rank - q) < 0.02, (q, rank)

    def test_merge(self):
        rng = np.random.default_rng(7)
        parts = [rng.normal(0, 1, 20000) for _ in range(4)]
        tds = [TDigest() for _ in parts]
        for td, p in zip(tds, parts):
            td.update(p)
        merged = tds[0].merge(tds[1]).merge(tds[2]).merge(tds[3])
        allv = np.sort(np.concatenate(parts))
        assert merged.n == len(allv)
        for q in (0.1, 0.5, 0.9):
            rank = np.searchsorted(allv, merged.quantile(q)) / len(allv)
            assert abs(rank - q) < 0.02

    def test_roundtrip(self):
        td = TDigest()
        td.update(np.arange(1000, dtype=float))
        td2 = TDigest.deserialize(td.serialize())
        assert td2.quantile(0.5) == td.quantile(0.5)
        assert td2.n == td.n


class TestExtractionInvariant:
    """BASELINE input_hint: byte-identical extracted text per url."""

    def test_known_inverse_on_pages_fixture(self):
        pages = generate_pages(200, seed=42)
        for html, text in zip(pages["html"].to_pylist()[:50],
                              pages["text"].to_pylist()[:50]):
            assert extract_text(html) == text

    def test_golden_sha256(self):
        # HARDCODED digests — extraction must never drift across
        # versions/runs (F6 per-url extraction hash fixture)
        cases = {
            b"<html><body>hello  world</body></html>":
                "b94d27b9934d3e08a52e52d7da7dabfac484efe37a5380ee9088f7ace2efcde9",
            b"<p>a</p><p>b</p>":
                "c8687a08aa5d6ed2044328fa6a697ab8e96dc34291e8c2034ae8c38e6fcc6d65",
            b"no tags at all":
                "da8788f6e9814dfeb727931473ed07810eea6806bdb0bc1400b0e33ee22abe82",
            "<b>café</b>".encode():
                "850f7dc43910ff890f8879c0ed26fe697c93a067ad93a7d50f466a7028a9bf4e",
        }
        for html, want in cases.items():
            assert text_sha256(extract_text(html)) == want

    def test_normalize_batch_deterministic(self):
        texts = pa.array(["  MiXeD   Case\tText ", "plain"])
        a = normalize_batch(texts).to_pylist()
        b = normalize_batch(texts).to_pylist()
        assert a == b == ["mixed case text", "plain"]


class TestDustMask:
    def test_dust_masks_low_complexity(self):
        from biobloom_ray.hashing import string_column_bytes
        from biobloom_ray.stages.masking import dust_mask
        import pyarrow as pa

        texts = pa.array(["a" * 100,
                          "the quick brown fox jumps over the lazy dog "
                          "and keeps on running straight ahead of it",
                          "xyxyxyxyxy" * 12])
        data, starts, ends = string_column_bytes(texts)
        m = dust_mask(data, starts, ends, k=8)
        nf = np.maximum((ends - starts) - 7, 0)
        cum = np.zeros(len(nf) + 1, dtype=np.int64)
        np.cumsum(nf, out=cum[1:])
        assert m[cum[0]:cum[1]].all()          # homopolymer fully masked
        assert not m[cum[1]:cum[2]].any()      # normal text untouched
        assert m[cum[2]:cum[3]].all()          # tandem repeat masked

    def test_dust_masked_categorize_labels_noMatch(self, ray_session):
        """A doc that is pure low-complexity must lose its hits under
        mask_dust (frames become misses, SeqEval.h:53 semantics)."""
        import pyarrow as pa
        import ray.data
        from biobloom_ray.config import BuildConfig, CategorizeConfig
        from biobloom_ray.pipelines import build_filters, categorize

        junk = "zq" * 200
        ref = pa.table({"doc": [junk, "informative reference words here " * 8],
                        "filter_id": ["junk", "real"]})
        built = build_filters(ray.data.from_arrow(ref), text_col="doc",
                              label_col="filter_id",
                              cfg=BuildConfig(kmer_size=8))
        bank = [built[f]["filter"] for f in sorted(built)]
        docs = pa.table({"doc_id": [0, 1],
                         "text": [junk, "informative reference words here " * 8]})
        plain = categorize(ray.data.from_arrow(docs), bank,
                           CategorizeConfig(mode="std")).to_pandas()
        dusted = categorize(ray.data.from_arrow(docs), bank,
                            CategorizeConfig(mode="std", mask_dust=2.0)
                            ).to_pandas()
        assert plain.sort_values("doc_id").label.iloc[0] == "junk"
        assert dusted.sort_values("doc_id").label.iloc[0] == "noMatch"
        assert dusted.sort_values("doc_id").label.iloc[1] == "real"


def test_dust_mask_k2_no_cross_row_window_collision():
    """k=2 makes frames outnumber triplets; the frame→window mapping
    must not collide with the NEXT row's window 0 (ADVICE r2).  Row 0 is
    plain text whose tail frames would previously alias into row 1's
    (highly repetitive, masked) window."""
    import numpy as np

    from biobloom_ray.stages.masking import dust_mask

    # row-0 length L chosen so (L-2) % window == 0 — the exact boundary
    # where the last frame's window index equals the old (triplet-sized)
    # max_win and aliases into the next row
    plain = (b"the quick brown fox jumped over sixteen lazy dogs quickly"
             b" and then wandered far away down the road toward the hill"
             b"s by the barn526")
    assert (len(plain) - 2) % 64 == 0, len(plain)
    junk = b"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa" \
        b"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"
    data = np.frombuffer(plain + junk, dtype=np.uint8)
    starts = np.array([0, len(plain)], dtype=np.int64)
    ends = np.array([len(plain), len(plain) + len(junk)], dtype=np.int64)
    k = 2
    mask = dust_mask(data, starts, ends, k=k, window=64)
    nf0 = len(plain) - k + 1
    # row 0 (plain prose) must be fully unmasked, row 1 (junk) masked
    assert not mask[:nf0].any()
    assert mask[nf0:].all()


def test_progressive_binomial_tally_counts_final_filter(ray_session):
    """FPR-dependent gates are not monotone across rounds (ADVICE r2):
    the returned recruit tally for method='binomial' must equal what
    the FINAL filter accepts, verified by an independent recount."""
    import numpy as np
    import pyarrow as pa

    import ray.data

    from biobloom_ray.config import BuildConfig
    from biobloom_ray.hashing import shingle_hashes
    from biobloom_ray.pipelines.progressive import progressive_build
    from biobloom_ray.scoring import eval_batch
    from biobloom_ray.textnorm import normalize_batch

    rng = np.random.default_rng(5)
    seed_docs = [" ".join(f"s{int(rng.integers(40)):02d}"
                          for _ in range(60)) for _ in range(3)]
    docs = seed_docs * 2 + \
        [" ".join(f"x{int(rng.integers(4000)):04d}" for _ in range(60))
         for _ in range(60)]
    ds = ray.data.from_arrow(pa.table({"text": pa.array(docs)}))
    bf, recruited = progressive_build(
        ds, seed_docs, BuildConfig(kmer_size=8), threshold=0.05,
        method="binomial", expected_entries=20000, strict_order=False,
        passes=3)
    # independent recount against the returned filter
    texts = normalize_batch(pa.array(docs))
    h1, h2, nf = shingle_hashes(texts, bf.kmer_size, bf.seed)
    acc = eval_batch(bf.contains(h1, h2), nf, bf.kmer_size,
                     method="binomial", threshold=0.05,
                     bf_fpr=bf.fpr_realized())
    assert recruited == int(acc.sum())


def test_pair_up_tiers_agree(ray_session, monkeypatch):
    """Broadcast mate-cache tier and hash-join tier must return the same
    pairs, including the duplicate-header fan-out."""
    import biobloom_ray.stages.pairs as P

    rows = []
    for i in range(60):
        rows.append((f"r{i:03d}/1", f"first {i}"))
        rows.append((f"r{i:03d}/2", f"second {i}"))
    rows.append(("dup/1", "a1")); rows.append(("dup/1", "b1"))
    rows.append(("dup/2", "a2")); rows.append(("dup/2", "b2"))
    rows.append(("orphan/1", "no mate"))
    tbl = pa.table({"url": [r[0] for r in rows],
                    "text": [r[1] for r in rows]})
    ds = ray.data.from_arrow(tbl).random_shuffle(seed=9)
    fast = (P.pair_up(ds, n_rows=len(rows)).to_pandas()
            .sort_values(["pair_key", "text_1", "text_2"])
            .reset_index(drop=True))
    monkeypatch.setattr(P, "PAIR_BROADCAST_MAX_ROWS", 0)
    slow = (P.pair_up(ds, n_rows=len(rows)).to_pandas()
            .sort_values(["pair_key", "text_1", "text_2"])
            .reset_index(drop=True))
    assert len(fast) == 60 + 4  # 60 clean pairs + 2x2 dup fan-out
    assert fast.pair_key.astype(str).tolist() == \
        slow.pair_key.astype(str).tolist()
    assert fast.text_1.tolist() == slow.text_1.tolist()
    assert fast.text_2.tolist() == slow.text_2.tolist()
