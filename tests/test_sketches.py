"""Sketch unit tests — translated from the reference's test strategy
(Tests/BloomFilterTests.cpp:44-117 for Bloom round-trip/size/membership;
FIXTURES.md F5/F7 for merge associativity and error bounds)."""

import numpy as np
import pytest

from biobloom_ray.hashing import hash_strings, shingle_hashes
from biobloom_ray.sketches import (
    HLL,
    KLL,
    BloomFilter,
    CountMinSketch,
    calc_approx_fpr,
    calc_optimal_hash_num,
    calc_optimal_size,
)


def _word_hashes(words):
    # one (h1, h2) pair per whole word
    from biobloom_ray.hashing import DEFAULT_SEED, splitmix64, U64
    h1 = hash_strings(words)
    h2 = splitmix64(h1 ^ U64(0xDEADBEEF)) | U64(1)
    return h1, h2


class TestBloom:
    def test_insert_contains(self):
        bf = BloomFilter.for_entries(1000, 0.01, kmer_size=4)
        pos = [f"present{i}" for i in range(500)]
        neg = [f"absent{i}" for i in range(500)]
        h1, h2 = _word_hashes(pos)
        bf.insert(h1, h2)
        assert bf.contains(h1, h2).all()
        n1, n2 = _word_hashes(neg)
        fp = bf.contains(n1, n2).mean()
        assert fp <= 0.05  # bound check below is the real FPR test

    def test_observed_fpr_below_configured(self):
        # BASELINE metric: observed FPR <= configured bound at chosen m/n, h
        fpr = 0.0078125
        n = 20000
        bf = BloomFilter.for_entries(n, fpr, kmer_size=4)
        h1, h2 = _word_hashes([f"ref{i}" for i in range(n)])
        bf.insert(h1, h2)
        q1, q2 = _word_hashes([f"neg{i}" for i in range(100000)])
        observed = bf.contains(q1, q2).mean()
        assert observed <= fpr * 1.15  # sampling slack; realized <= configured
        assert bf.fpr_realized() <= fpr * 1.15

    def test_size_multiple_of_64_and_roundtrip(self):
        bf = BloomFilter.for_entries(777, 0.02, kmer_size=5, filter_id="t")
        assert bf.m % 64 == 0
        assert len(bf.to_bytes()) == bf.m // 8
        h1, h2 = _word_hashes([f"x{i}" for i in range(100)])
        bf.insert(h1, h2)
        clone = BloomFilter.deserialize(bf.serialize())
        assert np.array_equal(clone.words, bf.words)
        assert clone.contains(h1, h2).all()
        assert clone.filter_id == "t"
        assert clone.n_distinct == bf.n_distinct

    def test_merge_associative_commutative(self):
        words = [f"w{i}" for i in range(3000)]
        parts = [words[:1000], words[1000:2000], words[2000:]]

        def build(stream):
            bf = BloomFilter(m=64 * 256, hash_num=4, kmer_size=4)
            h1, h2 = _word_hashes(stream)
            bf.insert(h1, h2)
            return bf

        a, b, c = (build(p) for p in parts)
        ab_c = build(parts[0]).merge(build(parts[1])).merge(build(parts[2]))
        a_bc = build(parts[0]).merge(build(parts[1]).merge(build(parts[2])))
        c_ba = build(parts[2]).merge(build(parts[1])).merge(build(parts[0]))
        assert np.array_equal(ab_c.words, a_bc.words)
        assert np.array_equal(ab_c.words, c_ba.words)
        whole = build(words)
        assert np.array_equal(ab_c.words, whole.words)

    def test_merge_incompatible_raises(self):
        a = BloomFilter(m=640, hash_num=3, kmer_size=4)
        b = BloomFilter(m=1280, hash_num=3, kmer_size=4)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_distinct_redundant_counters(self):
        bf = BloomFilter(m=64 * 4096, hash_num=4, kmer_size=4)
        h1, h2 = _word_hashes(["a", "b", "c", "a", "b"])
        d, r = bf.insert(h1, h2)
        assert (d, r) == (3, 2)
        d2, r2 = bf.insert(*_word_hashes(["a", "d"]))
        assert (d2, r2) == (1, 1)
        assert bf.n_distinct == 4
        assert bf.n_redundant == 3
        assert bf.n_inserted == 7

    def test_sizing_formulas(self):
        # h = -log(fpr)/log(2) floored (BloomFilterInfo.h:73-76)
        assert calc_optimal_hash_num(0.0078125) == 7
        assert calc_optimal_hash_num(0.02) == 5
        m = calc_optimal_size(10000, 0.01, 5)
        assert m % 64 == 0
        # realized fpr at that size should be near target
        assert calc_approx_fpr(m, 10000, 5) <= 0.012


def _reference_insert(bf, h1, h2):
    """``BloomFilter.insert`` as first written: ``np.unique`` for the
    redundancy counters, ``np.mod`` and ``np.bitwise_or.at`` for the
    bits — the reference the sort-based insert must reproduce."""
    n = len(h1)
    if n == 0:
        return (0, 0)
    uh1, first_idx = np.unique(h1, return_index=True)
    distinct = int((~bf.contains(uh1, h2[first_idx])).sum())
    with np.errstate(over="ignore"):
        for i in range(bf.hash_num):
            ix = (h1 + np.uint64(i) * h2) % np.uint64(bf.m)
            np.bitwise_or.at(bf.words, ix >> np.uint64(6),
                             np.uint64(1) << (ix & np.uint64(63)))
    bf.n_inserted += n
    bf.n_distinct += distinct
    bf.n_redundant += n - distinct
    return distinct, n - distinct


class TestBloomInsertMatchesReference:
    """Words and all three counters equal the reference insert's, on both
    scatter paths: every check runs once with the byte-per-bit scratch
    and once with ``np.bitwise_or.at``."""

    @staticmethod
    def _pairs(n, seed):
        rng = np.random.default_rng(seed)
        return (rng.integers(0, 2 ** 64, n, dtype=np.uint64),
                rng.integers(0, 2 ** 64, n, dtype=np.uint64))

    def _check(self, batches, m=4096, hash_num=5, start=None):
        import dataclasses

        import biobloom_ray.sketches.bloom as bloom

        if start is None:
            start = BloomFilter(m=m, hash_num=hash_num, kmer_size=8)
        for load in (0.0, float("inf")):  # the byte path, the or.at path
            got = dataclasses.replace(start, words=start.words.copy())
            want = dataclasses.replace(start, words=start.words.copy())
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(bloom, "_BYTE_SCATTER_MIN_LOAD", load)
                for h1, h2 in batches:
                    assert got.insert(h1, h2) == \
                        _reference_insert(want, h1, h2)
            assert np.array_equal(got.words, want.words)
            assert (got.n_inserted, got.n_distinct, got.n_redundant) == \
                (want.n_inserted, want.n_distinct, want.n_redundant)
        return got

    def test_empty(self):
        empty = np.array([], dtype=np.uint64)
        assert self._check([(empty, empty)]).n_inserted == 0

    def test_more_than_one_chunk(self):
        from biobloom_ray.sketches.bloom import _CHUNK

        self._check([self._pairs(2 * _CHUNK + 123, 1)], m=1 << 20)

    def test_planted_duplicate_frames(self):
        h1, h2 = self._pairs(5000, 2)
        dup = np.arange(0, 5000, 7)
        h1[dup], h2[dup] = h1[dup // 2], h2[dup // 2]
        assert self._check([(h1, h2)], m=1 << 16).n_redundant > 0

    def test_planted_h1_collisions_with_other_h2(self):
        """An h1 seen twice with different h2 is judged by the h2 of its
        first occurrence: present in one batch, absent in the other."""
        h1, h2 = self._pairs(2500, 3)
        other = self._pairs(2500, 33)[1]
        twice = np.concatenate([h1, h1])
        self._check([(h1, h2), (twice, np.concatenate([other, h2])),
                     (twice, np.concatenate([h2, other]))], m=1 << 16)

    def test_reinsert_into_non_empty_filter(self):
        a, b = self._pairs(3000, 4), self._pairs(3000, 5)
        mixed = (np.concatenate([a[0][:1500], b[0]]),
                 np.concatenate([a[1][:1500], b[1]]))
        assert self._check([a, mixed, a], m=1 << 15).n_redundant > 0

    def test_m_not_a_power_of_two(self):
        self._check([self._pairs(20000, 6)], m=19_300_032, hash_num=7)

    def _half_present(self, m=1 << 15, hash_num=5):
        """A filter holding ``a``, and a batch of half ``a``, half new."""
        a, b = self._pairs(3000, 7), self._pairs(3000, 8)
        bf = BloomFilter(m=m, hash_num=hash_num, kmer_size=8)
        bf.insert(*a)
        mixed = (np.concatenate([a[0][:1500], b[0]]),
                 np.concatenate([a[1][:1500], b[1]]))
        return bf, mixed

    def test_insert_into_intersect_result(self):
        """``intersect`` gives bits with ``n_inserted == 0``: the counters
        still probe them instead of counting every h1 distinct."""
        bf, mixed = self._half_present()
        both = bf.intersect(bf)
        assert both.n_inserted == 0 and both.words.any()
        assert self._check([mixed], start=both).n_redundant >= 1500

    def test_insert_into_deserialized_filter_with_no_inserts(self):
        bf, mixed = self._half_present()
        bf.n_inserted = 0
        clone = BloomFilter.deserialize(bf.serialize())
        assert clone.n_inserted == 0 and clone.words.any()
        assert self._check([mixed], start=clone).n_redundant >= 1500

    def test_default_constants_pick_the_path(self, monkeypatch):
        """At the default constants, a small batch into a big filter ORs
        its words and makes no m-byte scratch; a batch of m/16 bit writes
        takes the byte path, unless the filter is above the scratch
        cap."""
        import biobloom_ray.sketches.bloom as bloom

        calls = []
        monkeypatch.setattr(BloomFilter, "_scatter_bytes",
                            lambda self, h1, h2: calls.append("bytes"))
        monkeypatch.setattr(BloomFilter, "_scatter_words",
                            lambda self, h1, h2: calls.append("words"))
        hash_num, big = 8, bloom._BYTE_SCATTER_MAX_BITS + 64
        for m, n in ((1 << 22, 1000), (1 << 22, (1 << 22) // 16 // hash_num),
                     (big, big // 16 // hash_num)):
            BloomFilter(m=m, hash_num=hash_num, kmer_size=8).insert(
                *self._pairs(n, 9))
        assert calls == ["words", "bytes", "words"]


def test_partial_builder_matches_per_label_masks():
    """``PartialBloomBuilder`` sorts rows by label to slice each label's
    frames; its partials equal a per-label frame-mask build of the
    unsorted batch (words, the three counters, HLL registers), in label
    order, and a label missing from ``sizes`` gets no partial."""
    import pyarrow as pa

    from biobloom_ray.config import BuildConfig
    from biobloom_ray.stages.build import PartialBloomBuilder
    from biobloom_ray.textnorm import normalize_batch

    rng = np.random.default_rng(11)
    labels = np.array(["fr", "de", "zz", "en"])[rng.integers(0, 4, 300)]
    words = np.array([f"w{i:03d}" for i in range(60)])
    texts = [" ".join(words[rng.integers(0, 60, rng.integers(0, 30))])
             for _ in labels]
    texts[5] = texts[9] = texts[40]  # duplicate frames across rows
    batch = pa.table({"text": texts, "lang": labels})
    cfg = BuildConfig(kmer_size=6)
    sizes = {"de": (1 << 16, 5), "en": (1 << 15, 6), "fr": (20_032, 4)}
    got = PartialBloomBuilder(sizes, cfg, "text", "lang")(batch)

    h1, h2, nf = shingle_hashes(
        normalize_batch(pa.array(texts)), cfg.kmer_size, cfg.seed)
    frame_label = np.repeat(labels, nf)
    assert got["filter_id"].to_pylist() == sorted(sizes)
    for fid, blob, regs in zip(got["filter_id"].to_pylist(),
                               got["blob"].to_pylist(),
                               got["hll"].to_pylist()):
        sel = frame_label == fid
        m, hash_num = sizes[fid]
        want = BloomFilter(m=m, hash_num=hash_num, kmer_size=cfg.kmer_size,
                           seed=cfg.seed)
        _reference_insert(want, h1[sel], h2[sel])
        hll = HLL(p=14)
        hll.update(h1[sel])
        bf = BloomFilter.deserialize(blob)
        assert np.array_equal(bf.words, want.words)
        assert (bf.n_inserted, bf.n_distinct, bf.n_redundant) == \
            (want.n_inserted, want.n_distinct, want.n_redundant)
        assert bf.n_redundant > 0
        assert np.array_equal(HLL.deserialize(regs).registers,
                              hll.registers)


class TestHLL:
    def test_error_bound(self):
        hll = HLL(p=12)
        n = 200000
        hll.update(hash_strings([f"item{i}" for i in range(n)]))
        est = hll.estimate()
        rel = abs(est - n) / n
        assert rel < 3 * hll.relative_error  # 3 sigma of 1.04/sqrt(m)

    def test_duplicates_dont_count(self):
        hll = HLL(p=12)
        hs = hash_strings([f"x{i % 100}" for i in range(10000)])
        hll.update(hs)
        assert abs(hll.estimate() - 100) < 10

    def test_merge_bit_exact_any_order(self):
        streams = [[f"s{j}_{i}" for i in range(5000)] for j in range(3)]

        def build(st):
            h = HLL(p=12)
            h.update(hash_strings(st))
            return h

        ab_c = build(streams[0]).merge(build(streams[1])).merge(build(streams[2]))
        a_bc = build(streams[0]).merge(build(streams[1]).merge(build(streams[2])))
        c_ba = build(streams[2]).merge(build(streams[1])).merge(build(streams[0]))
        assert np.array_equal(ab_c.registers, a_bc.registers)
        assert np.array_equal(ab_c.registers, c_ba.registers)
        whole = build(streams[0] + streams[1] + streams[2])
        assert np.array_equal(ab_c.registers, whole.registers)

    def test_roundtrip(self):
        h = HLL(p=10)
        h.update(hash_strings(["a", "b", "c"]))
        h2 = HLL.deserialize(h.serialize())
        assert np.array_equal(h.registers, h2.registers)
        assert h2.estimate() == h.estimate()

    def test_small_range(self):
        h = HLL(p=12)
        h.update(hash_strings(["one", "two", "three"]))
        assert abs(h.estimate() - 3) < 0.5


class TestCMS:
    def test_overcount_bound(self):
        # CMS guarantee: est >= true, and est <= true + eps*N w.p. 1-delta
        cms = CountMinSketch.for_error(eps=0.005, delta=0.01)
        rng_items = []
        true = {}
        for i in range(200):
            cnt = 1 + (i * 7) % 50
            true[f"t{i}"] = cnt
            rng_items += [f"t{i}"] * cnt
        keys = hash_strings(rng_items)
        cms.update(keys)
        qkeys = hash_strings([f"t{i}" for i in range(200)])
        est = cms.query(qkeys)
        tv = np.array([true[f"t{i}"] for i in range(200)])
        assert (est >= tv).all()
        overshoot = (est - tv)
        assert (overshoot <= cms.eps * cms.n).mean() >= 0.99

    def test_merge_bit_exact_any_order(self):
        def build(lo, hi):
            c = CountMinSketch(depth=4, width=512)
            c.update(hash_strings([f"k{i % 37}" for i in range(lo, hi)]))
            return c

        ab_c = build(0, 100).merge(build(100, 200)).merge(build(200, 300))
        a_bc = build(0, 100).merge(build(100, 200).merge(build(200, 300)))
        c_ba = build(200, 300).merge(build(100, 200)).merge(build(0, 100))
        assert np.array_equal(ab_c.counts, a_bc.counts)
        assert np.array_equal(ab_c.counts, c_ba.counts)
        whole = build(0, 300)
        assert np.array_equal(ab_c.counts, whole.counts)

    def test_roundtrip(self):
        c = CountMinSketch(depth=3, width=128)
        c.update(hash_strings(["x", "y", "x"]))
        c2 = CountMinSketch.deserialize(c.serialize())
        assert np.array_equal(c.counts, c2.counts)
        assert c2.n == 3


class TestKLL:
    def test_rank_error_bound(self):
        rng = np.random.default_rng(42)
        data = rng.normal(0, 1, 100000)
        kll = KLL(k=200)
        kll.update(data)
        s = np.sort(data)
        for q in (0.01, 0.25, 0.5, 0.75, 0.99):
            est = kll.quantile(q)
            true_rank = np.searchsorted(s, est) / len(s)
            assert abs(true_rank - q) < 0.025, (q, est, true_rank)

    def test_merge_preserves_accuracy(self):
        rng = np.random.default_rng(7)
        parts = [rng.uniform(0, 1, 30000) for _ in range(4)]
        sk = [KLL(k=200, seed=i) for i in range(4)]
        for s, p in zip(sk, parts):
            s.update(p)
        merged = sk[0].merge(sk[1]).merge(sk[2]).merge(sk[3])
        allv = np.sort(np.concatenate(parts))
        assert merged.n == len(allv)
        for q in (0.1, 0.5, 0.9):
            est = merged.quantile(q)
            true_rank = np.searchsorted(allv, est) / len(allv)
            assert abs(true_rank - q) < 0.03

    def test_exact_for_small_n(self):
        kll = KLL(k=200)
        kll.update(np.arange(100, dtype=float))
        assert kll.quantile(0.0) == 0.0
        assert kll.quantile(1.0) == 99.0
        assert abs(kll.quantile(0.5) - 49.5) <= 1.0

    def test_roundtrip(self):
        kll = KLL(k=64)
        kll.update(np.arange(10000, dtype=float))
        k2 = KLL.deserialize(kll.serialize())
        assert k2.n == kll.n
        assert k2.quantile(0.5) == kll.quantile(0.5)

    def test_determinism(self):
        a, b = KLL(k=128), KLL(k=128)
        data = np.arange(50000, dtype=float)
        a.update(data)
        b.update(data)
        assert a.quantile(0.37) == b.quantile(0.37)


class TestMisraGries:
    def test_exact_regime_any_merge_order(self):
        import numpy as np

        from biobloom_ray.sketches.misra_gries import MisraGries

        rng = np.random.default_rng(7)
        keys = rng.integers(0, 50, size=5000).astype(np.uint64)
        true = {int(u): int(c) for u, c in
                zip(*np.unique(keys, return_counts=True))}
        parts = np.array_split(keys, 7)
        # capacity >= distinct -> exact under ANY merge order
        def build(order):
            accs = []
            for p in parts:
                m = MisraGries(capacity=64)
                m.update(p)
                accs.append(m)
            acc = accs[order[0]]
            for i in order[1:]:
                acc.merge(accs[i])
            return acc

        a = build(list(range(7)))
        b = build([3, 6, 0, 5, 1, 4, 2])
        qa = a.query(np.arange(50, dtype=np.uint64))
        qb = b.query(np.arange(50, dtype=np.uint64))
        assert (qa == qb).all()
        for u, c in true.items():
            assert qa[u] == c
        assert a.error_bound() == 5000 // 65

    def test_undercount_bound_sketchy_regime(self):
        import numpy as np

        from biobloom_ray.sketches.misra_gries import MisraGries

        rng = np.random.default_rng(11)
        # zipf-ish skew: heavy keys must survive a tiny summary
        keys = (rng.zipf(1.5, size=20000) % 1000).astype(np.uint64)
        uniq, cnt = np.unique(keys, return_counts=True)
        m = MisraGries(capacity=8)
        for chunk in np.array_split(keys, 13):
            m.update(chunk)
        est = m.query(uniq)
        assert (est <= cnt).all()  # MG never over-counts
        assert (cnt - est <= m.error_bound()).all()
        # the single heaviest key is always tracked when its true count
        # exceeds the bound
        top = np.argmax(cnt)
        if cnt[top] > m.error_bound():
            assert est[top] > 0

    def test_serialize_roundtrip(self):
        import numpy as np

        from biobloom_ray.sketches.misra_gries import MisraGries

        m = MisraGries(capacity=16)
        m.update(np.arange(40, dtype=np.uint64),
                 np.arange(1, 41, dtype=np.int64))
        m2 = MisraGries.deserialize(m.serialize())
        assert m2.capacity == m.capacity and m2.n == m.n
        assert (np.sort(m2.keys) == np.sort(m.keys)).all()
        q = np.arange(40, dtype=np.uint64)
        assert (m.query(q) == m2.query(q)).all()


class TestSketchSetOps:
    def test_setops_estimates_within_bounds(self, ray_session):
        import biobloom_ray.pipelines.analytics as A

        sf = "/root/testdata/sf0.01"
        est = A.sketch_setops_report(sf).iloc[0]
        exact = A.event_user_setops(sf).iloc[0]
        # HLL p=12 -> ~1.6% relative error; allow 5 sigma
        tol = 5 * 1.04 / (2 ** 6)
        assert abs(est.est_a - exact.n_a) <= tol * exact.n_a + 2
        assert abs(est.est_b - exact.n_b) <= tol * exact.n_b + 2
        n_union = exact.n_a + exact.n_b - exact.n_both
        assert abs(est.est_union - n_union) <= tol * n_union + 2
        # inclusion-exclusion compounds three estimates
        assert abs(est.est_inter_hll - exact.n_both) \
            <= 3 * tol * n_union + 3
        # Bloom AND has no false negatives: the occupancy estimate
        # must not UNDER-shoot the true intersection beyond estimator
        # noise, and stays near it on a sparse filter
        assert est.est_inter_bloom >= exact.n_both * 0.9
        assert est.est_inter_bloom <= exact.n_both * 1.2 + 5

    def test_bloom_intersect_no_false_negatives(self):
        import numpy as np

        from biobloom_ray.hashing import splitmix64
        from biobloom_ray.sketches.bloom import BloomFilter

        rng = np.random.default_rng(3)
        a = rng.choice(10000, 400, replace=False).astype(np.uint64)
        b = np.concatenate([a[:150],
                            (rng.choice(10000, 250, replace=False)
                             + 20000).astype(np.uint64)])
        C2 = np.uint64(0x9E3779B97F4A7C15)
        with np.errstate(over="ignore"):
            fa = BloomFilter(m=1 << 14, hash_num=4, kmer_size=0)
            fa.insert(splitmix64(a), splitmix64(a ^ C2))
            fb = BloomFilter(m=1 << 14, hash_num=4, kmer_size=0)
            fb.insert(splitmix64(b), splitmix64(b ^ C2))
            inter = fa.intersect(fb)
            common = a[:150]
            hits = inter.contains(splitmix64(common),
                                  splitmix64(common ^ C2))
        assert hits.all()  # A∩B always contained
        # Swamidass–Baldi on a fresh filter of known cardinality
        est = fa.estimate_cardinality()
        assert abs(est - 400) <= 0.05 * 400


class TestGroupedTDigest:
    def test_lang_quantiles_within_band(self, ray_session):
        import duckdb

        import biobloom_ray.pipelines.analytics as A

        sf = "/root/testdata/sf0.01"
        est = A.lang_nchars_tdigest(sf).set_index("lang")
        exact = duckdb.sql(
            f"""SELECT lang,
             PERCENTILE_DISC(0.5) WITHIN GROUP (ORDER BY n_chars) p50,
             PERCENTILE_DISC(0.9) WITHIN GROUP (ORDER BY n_chars) p90
             FROM '{sf}/documents.parquet' GROUP BY lang""").df()
        for _, r in exact.iterrows():
            e = est.loc[r.lang]
            # t-digest mid-quantile relative error band (delta=200):
            # generous 5% of the value plus a small absolute floor
            assert abs(e.p50_est - r.p50) <= 0.05 * r.p50 + 5
            assert abs(e.p90_est - r.p90) <= 0.05 * r.p90 + 5


class TestSketchQueryBounds:
    def test_kll_quantiles_within_rank_bound(self, ray_session):
        """kll_nchars_quantiles: each estimate's rank in the exact
        distribution is within 3% of the exact PERCENTILE_DISC's."""
        import duckdb

        import biobloom_ray.pipelines.analytics as A

        sf = "/root/testdata/sf0.01"
        est = A.kll_nchars_quantiles(sf)
        v = np.sort(duckdb.sql(f"SELECT n_chars FROM '{sf}/documents.parquet'")
                    .df().n_chars.to_numpy(np.float64))
        assert len(est) == 6 and len(v) > 0
        for q, e in zip(est.q, est.n_chars_est):
            exact = duckdb.sql(
                f"SELECT PERCENTILE_DISC({q}) WITHIN GROUP (ORDER BY n_chars)"
                f" FROM '{sf}/documents.parquet'").fetchone()[0]
            rank = np.searchsorted(v, [e, exact], side="right") / len(v)
            assert abs(rank[0] - rank[1]) <= 0.03, (q, e, exact)

    def test_cms_heavy_hitters_overcount_bound(self, ray_session):
        """cms_heavy_hitters: no returned token is under-counted, and
        none is over-counted by more than eps·N (N = total tokens)."""
        import pandas as pd

        import biobloom_ray.pipelines.analytics as A

        sf = "/root/testdata/sf0.01"
        eps = 0.001
        got = A.cms_heavy_hitters(sf, k=20, eps=eps)
        toks = (pd.read_parquet(f"{sf}/documents.parquet", columns=["text"])
                .text.str.findall(r"\S+").explode().dropna())
        exact = toks.value_counts()
        assert len(got) == 20
        over = got.est_cnt.to_numpy() - exact[got.token].to_numpy()
        assert (over >= 0).all()
        assert (over <= eps * len(toks)).all()
