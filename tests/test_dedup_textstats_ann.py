"""Training-data pipeline operators: dedup variants, text stats,
embedding near-dup."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray
import ray.data

from biobloom_ray.sketches.minhash import (
    exact_jaccard_from_hashes,
    minhash_signatures,
    signature_jaccard,
)
from biobloom_ray.sketches.simhash import hamming_distance, simhash_fingerprints
from biobloom_ray.hashing import shingle_hashes
from biobloom_ray.stages.ann import embedding_neardup_pairs
from biobloom_ray.stages.dedup import (
    exact_dedup,
    minhash_dedup,
    minhash_neardup_pairs,
    simhash_neardup_pairs,
)
from biobloom_ray.stages.textstats import (
    LangIdActor,
    NGramLangProfiles,
    quality_score_batch,
    token_count_batch,
)


def _mutate(text: str, rate: float, seed: int) -> str:
    rng = np.random.default_rng(seed)
    chars = list(text)
    for i in range(len(chars)):
        if rng.random() < rate:
            chars[i] = chr(ord("a") + int(rng.integers(26)))
    return "".join(chars)


@pytest.fixture(scope="module")
def dup_docs(ray_session):
    rng = np.random.default_rng(11)
    base = [" ".join(f"w{int(rng.integers(500)):03d}" for _ in range(80))
            for _ in range(40)]
    rows = []
    did = 0
    for b in base:
        rows.append((did, b)); did += 1
        rows.append((did, b)); did += 1                      # exact dup
        rows.append((did, _mutate(b, 0.02, did))); did += 1  # near dup
        rows.append((did, " ".join(f"z{int(rng.integers(500)):03d}"
                                   for _ in range(80)))); did += 1  # unrelated
    tbl = pa.table({"doc_id": pa.array([r[0] for r in rows], type=pa.int64()),
                    "text": pa.array([r[1] for r in rows], type=pa.string())})
    return ray.data.from_arrow(tbl), rows


class TestMinHashKernels:
    def test_signature_estimates_jaccard(self):
        a = "the quick brown fox jumps over the lazy dog " * 5
        b = "the quick brown fox jumped over a lazy dog " * 5
        h1a, _, nfa = shingle_hashes([a], 5)
        h1b, _, nfb = shingle_hashes([b], 5)
        true_j = exact_jaccard_from_hashes(h1a, h1b)
        sig = minhash_signatures(np.concatenate([h1a, h1b]),
                                 np.array([nfa[0], nfb[0]]), num_perm=256)
        est = signature_jaccard(sig[0], sig[1])
        assert abs(est - true_j) < 0.12

    def test_identical_sets_full_match(self):
        h1, _, nf = shingle_hashes(["identical text here"], 4)
        sig = minhash_signatures(np.concatenate([h1, h1]),
                                 np.array([nf[0], nf[0]]), num_perm=64)
        assert (sig[0] == sig[1]).all()


class TestSimHashKernels:
    def test_similar_docs_low_hamming(self):
        a = "word soup with many common tokens repeated often " * 10
        b = a.replace("common", "shared", 2)
        c = "completely different content about other matters entirely " * 10
        h1, _, nf = shingle_hashes([a, b, c], 5)
        fp = simhash_fingerprints(h1, nf)
        d_ab = hamming_distance(fp[:1], fp[1:2])[0]
        d_ac = hamming_distance(fp[:1], fp[2:3])[0]
        assert d_ab < d_ac


class TestDedupPipelines:
    def test_exact_dedup_first_wins(self, dup_docs):
        ds, rows = dup_docs
        out = exact_dedup(ds).to_pandas()
        texts = [r[1] for r in rows]
        assert len(out) == len(set(texts))
        # winner is the smallest doc_id of each text group
        expect = (pd.DataFrame(rows, columns=["doc_id", "text"])
                  .groupby("text")["doc_id"].min())
        got = out.set_index("text")["doc_id"]
        assert got.sort_index().equals(expect.sort_index())

    def test_minhash_finds_exact_and_near_dups(self, dup_docs):
        ds, rows = dup_docs
        pairs = minhash_neardup_pairs(ds, threshold=0.6)
        found = set(zip(pairs.id_a, pairs.id_b))
        # every exact-dup pair (4i, 4i+1) must be found
        for i in range(0, len(rows), 4):
            assert (i, i + 1) in found, f"exact dup pair {(i, i+1)} missed"
        # near-dups (4i, 4i+2): most should be found at 2% mutation
        near_found = sum((i, i + 2) in found or (i + 1, i + 2) in found
                         for i in range(0, len(rows), 4))
        assert near_found >= 0.8 * (len(rows) // 4)
        # unrelated docs never pair with their base
        for i in range(0, len(rows), 4):
            assert (i, i + 3) not in found

    def test_minhash_dedup_drops_dupes(self, dup_docs):
        ds, rows = dup_docs
        kept = minhash_dedup(ds, threshold=0.6).to_pandas()
        kept_ids = set(kept.doc_id)
        for i in range(0, len(rows), 4):
            assert i in kept_ids           # base kept (lowest id)
            assert i + 1 not in kept_ids   # exact dup dropped
            assert i + 3 in kept_ids       # unrelated kept

    def test_simhash_finds_exact_dups(self, dup_docs):
        ds, rows = dup_docs
        pairs = simhash_neardup_pairs(ds, max_hamming=3)
        found = set(zip(pairs.id_a, pairs.id_b))
        for i in range(0, len(rows), 4):
            assert (i, i + 1) in found


class TestTextStats:
    def test_token_and_quality(self, ray_session):
        tbl = pa.table({"doc_id": [0, 1], "text": ["a bb  ccc", "Hello, World!"]})
        out = token_count_batch(tbl)
        assert out["n_tokens"].to_pylist() == [3, 2]
        q = quality_score_batch(tbl)
        assert q["n_chars_calc"].to_pylist() == [9, 13]
        assert q["n_alpha"].to_pylist() == [6, 10]
        assert q["punct_ratio"].to_pylist()[1] == pytest.approx(2 / 13)

    def test_langid_separates_disjoint_vocab(self, ray_session):
        rng = np.random.default_rng(5)
        pools = {"aa": [f"aa{i}" for i in range(50)],
                 "bb": [f"bb{i}" for i in range(50)]}
        docs, langs = [], []
        for lang, pool in pools.items():
            for _ in range(30):
                docs.append(" ".join(rng.choice(pool, 40)))
                langs.append(lang)
        model = NGramLangProfiles(n=3).fit(docs, langs)
        actor = LangIdActor(model)
        out = actor(pa.table({"text": docs}))
        pred = out["lang_pred"].to_pylist()
        acc = np.mean([p == l for p, l in zip(pred, langs)])
        assert acc > 0.95


class TestANN:
    @pytest.fixture(scope="class")
    def emb_ds(self, ray_session):
        rng = np.random.default_rng(17)
        m = rng.standard_normal((400, 32)).astype(np.float64)
        # plant near-dup pairs: vectors 0/1 and 2/3 nearly parallel
        m[1] = m[0] + 0.01 * rng.standard_normal(32)
        m[3] = m[2] + 0.01 * rng.standard_normal(32)
        flat = pa.array(m.reshape(-1), type=pa.float64())
        tbl = pa.table({"vec_id": pa.array(np.arange(400), type=pa.int64()),
                        "embedding": pa.FixedSizeListArray.from_arrays(flat, 32)})
        return ray.data.from_arrow(tbl), m

    def test_embedding_neardup(self, emb_ds):
        ds, m = emb_ds
        pairs = embedding_neardup_pairs(ds, threshold=0.95, n_bits=8)
        found = set(zip(pairs.id_a, pairs.id_b))
        assert (0, 1) in found
        assert (2, 3) in found

    def test_embedding_neardup_empty_input(self, ray_session):
        """A 0-row table returns the typed empty frame whether the
        vector width is given or inferred from a first row."""
        tbl = pa.table({
            "vec_id": pa.array([], type=pa.int64()),
            "embedding": pa.array([], type=pa.list_(pa.float64()))})
        for dim in (None, 4):
            out = embedding_neardup_pairs(ray.data.from_arrow(tbl), dim=dim)
            assert len(out) == 0
            assert out.dtypes.astype(str).to_dict() == {
                "id_a": "int64", "id_b": "int64", "cos_sim": "float64"}


def test_sig_matrix_honors_array_offset():
    """Sliced signature arrays must return THEIR rows, not the buffer
    head (zero-copy fast path + Array.offset)."""
    from biobloom_ray.stages.dedup import MinHashSigStage, _sig_matrix

    tbl = pa.table({"doc_id": pa.array(range(6), type=pa.int64()),
                    "text": [f"document number {i} with words" * 3
                             for i in range(6)]})
    sig_tbl = MinHashSigStage(num_perm=16)(tbl)
    col = sig_tbl["sig"]
    full = _sig_matrix(col, 16)
    sl = col.combine_chunks().slice(2, 3) if isinstance(col, pa.ChunkedArray) \
        else col.slice(2, 3)
    part = _sig_matrix(sl, 16)
    assert np.array_equal(part, full[2:5])


def test_minhash_empty_docs_never_pair(ray_session):
    """Docs shorter than the shingle width must not flood the output
    with degenerate all-sentinel pairs."""
    from biobloom_ray.stages.dedup import minhash_neardup_pairs

    rows = [(i, "") for i in range(30)] + [(100, "ab"), (101, "ab")] \
        + [(200, "a real document with actual words " * 5),
           (201, "a real document with actual words " * 5)]
    tbl = pa.table({"doc_id": pa.array([r[0] for r in rows], type=pa.int64()),
                    "text": pa.array([r[1] for r in rows], type=pa.string())})
    pairs = minhash_neardup_pairs(ray.data.from_arrow(tbl), threshold=0.6)
    found = set(zip(pairs.id_a, pairs.id_b))
    assert (200, 201) in found
    assert all(a >= 200 for a, _ in found), f"empty-doc pairs leaked: {found}"


def _lsh_reference(tbl: pa.Table, method: str) -> pd.DataFrame:
    """Brute-force pairs of ``method`` over a small in-memory table:
    every two docs sharing a band key (MinHash / SimHash), scored and
    thresholded like the stages; n-gram candidates are the MinHash pairs
    at ``candidate_threshold`` 0.3, scored by exact shingle-set Jaccard
    or containment."""
    import itertools

    from biobloom_ray.sketches.minhash import _EMPTY_SENTINEL, lsh_band_keys
    from biobloom_ray.sketches.simhash import simhash_band_keys
    from biobloom_ray.stages.dedup import MinHashSigStage, _sig_matrix

    ids = tbl["doc_id"].to_numpy()
    texts = tbl["text"].combine_chunks()

    def banded(keys, ok):
        pairs = set()
        for a, b in itertools.combinations(range(len(ids)), 2):
            if ok[a] and ok[b] and set(keys[a]) & set(keys[b]):
                pairs.add((a, b))
        return sorted(pairs)

    if method == "simhash":
        h1, _, nf = shingle_hashes(texts, 5)
        fp = simhash_fingerprints(h1, nf)
        keys = simhash_band_keys(fp, 4)
        rows = [(ids[a], ids[b], int(hamming_distance(fp[a:a + 1],
                                                      fp[b:b + 1])[0]))
                for a, b in banded(keys, np.ones(len(ids), bool))]
        return pd.DataFrame([r for r in rows if r[2] <= 3],
                            columns=["id_a", "id_b", "hamming"])
    sig = _sig_matrix(MinHashSigStage()(tbl)["sig"], 128)
    keys = lsh_band_keys(sig, 16)
    cut = 0.6 if method == "minhash" else 0.3
    rows = [(ids[a], ids[b], (sig[a] == sig[b]).mean())
            for a, b in banded(keys, sig[:, 0] != _EMPTY_SENTINEL)]
    rows = [r for r in rows if r[2] >= cut]
    if method == "minhash":
        return pd.DataFrame(rows, columns=["id_a", "id_b", "est_jaccard"])
    h1, _, nf = shingle_hashes(texts, 5)
    offs = np.r_[0, np.cumsum(nf)]
    sets = {ids[r]: set(h1[offs[r]:offs[r + 1]].tolist())
            for r in range(len(ids))}
    metric, threshold = method.split("_")[1], \
        (0.5 if method == "ngram_jaccard" else 0.8)
    out = []
    for a, b, _ in rows:
        inter = len(sets[a] & sets[b])
        den = (len(sets[a] | sets[b]) if metric == "jaccard"
               else min(len(sets[a]), len(sets[b])))
        score = inter / den if den else 1.0
        if score >= threshold:
            out.append((a, b, score))
    return pd.DataFrame(out, columns=["id_a", "id_b", metric])


@pytest.mark.parametrize("method", ["minhash", "simhash", "ngram_jaccard",
                                    "ngram_containment"])
@pytest.mark.parametrize("tier", ["driver", "cluster"])
def test_lsh_pairs_tier_parity(dup_docs, tmp_path, monkeypatch, tier,
                               method):
    """Each LSH pair op at each tier equals a brute-force reference.
    ``cluster`` zeroes every dedup gate: cluster bucketing, the join
    tier of the pair verifier and the parquet signature checkpoint."""
    import tempfile

    import biobloom_ray.stages.dedup as D

    ds, rows = dup_docs
    if tier == "cluster":
        for gate in ("BAND_DRIVER_MAX_ROWS", "BROADCAST_LIMIT",
                     "SIG_CHECKPOINT_MAX_ROWS"):
            monkeypatch.setattr(D, gate, 0)
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    got = {"minhash": lambda: D.minhash_neardup_pairs(ds, threshold=0.6),
           "simhash": lambda: D.simhash_neardup_pairs(ds, max_hamming=3),
           "ngram_jaccard": lambda: D.ngram_jaccard_pairs(ds, threshold=0.5),
           "ngram_containment":
               lambda: D.ngram_containment_pairs(ds, threshold=0.8)}[method]()
    want = _lsh_reference(pa.concat_tables(ray.get(ds.to_arrow_refs())),
                          method)
    assert len(want) > 0
    got = got.sort_values(["id_a", "id_b"]).reset_index(drop=True)
    assert got.columns.tolist() == want.columns.tolist()
    assert got[["id_a", "id_b"]].equals(want[["id_a", "id_b"]])
    score = want.columns[2]
    assert np.allclose(got[score], want[score], rtol=0, atol=1e-12)


def test_sig_checkpoint_parquet_tier_removes_its_dir(dup_docs, tmp_path,
                                                    monkeypatch):
    """Above ``SIG_CHECKPOINT_MAX_ROWS`` the signatures go through a
    temporary parquet directory under the default temp dir: the pairs
    equal the in-memory tier's and the directory is gone afterwards."""
    import glob
    import os
    import tempfile

    import biobloom_ray.stages.dedup as D

    ds, rows = dup_docs
    mem = D.minhash_neardup_pairs(ds, threshold=0.6)
    made = []
    mkdtemp = tempfile.mkdtemp

    def spy(*a, **kw):
        made.append(mkdtemp(*a, **kw))
        return made[-1]

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(tempfile, "mkdtemp", spy)
    monkeypatch.setattr(D, "SIG_CHECKPOINT_MAX_ROWS", 0)
    got = D.minhash_neardup_pairs(ds, threshold=0.6)
    assert len(mem) > 0 and got.equals(mem)
    sig_dirs = [d for d in made if "minhash_sigs_" in os.path.basename(d)]
    assert len(sig_dirs) == 1
    assert os.path.dirname(sig_dirs[0]) == str(tmp_path)
    assert not glob.glob(str(tmp_path / "minhash_sigs_*"))


def test_jaccard_csr_kernels_match_naive():
    """The batched CSR intersection must equal per-pair np.intersect1d."""
    from biobloom_ray.stages.dedup import (_jaccard_from_sets,
                                           _pair_intersections)

    rng = np.random.default_rng(3)
    sets = [np.unique(rng.integers(0, 50, size=rng.integers(0, 30))
                      .astype(np.uint64)) for _ in range(40)]
    sets[0] = np.empty(0, dtype=np.uint64)  # both-empty pair below
    pairs = [(0, 0), (1, 2), (3, 4)] + \
        [(int(rng.integers(40)), int(rng.integers(40))) for _ in range(50)]
    va = np.concatenate([sets[a] for a, _ in pairs])
    vb = np.concatenate([sets[b] for _, b in pairs])
    la = np.array([len(sets[a]) for a, _ in pairs], dtype=np.int64)
    lb = np.array([len(sets[b]) for _, b in pairs], dtype=np.int64)
    inter = _pair_intersections(va, la, vb, lb)
    jac = _jaccard_from_sets(va, la, vb, lb)
    for t, (a, b) in enumerate(pairs):
        want = len(np.intersect1d(sets[a], sets[b], assume_unique=True))
        assert inter[t] == want
        u = la[t] + lb[t] - want
        assert jac[t] == (want / u if u else 1.0)


def test_exact_dedup_tiers_agree(dup_docs, monkeypatch):
    import biobloom_ray.stages.dedup as D

    ds, rows = dup_docs
    fast = (D.exact_dedup(ds).to_pandas()
            .sort_values("doc_id").reset_index(drop=True))
    monkeypatch.setattr(D, "EXACT_DEDUP_DRIVER_MAX_ROWS", 0)
    slow = (D.exact_dedup(ds).to_pandas()
            .sort_values("doc_id").reset_index(drop=True))
    assert len(fast) > 0 and len(fast) < ds.count()
    assert fast.doc_id.tolist() == slow.doc_id.tolist()


def test_jaccard_kernels_property(ray_session):
    """Hypothesis property: batched CSR intersection == per-pair
    np.intersect1d for arbitrary sorted-unique uint64 sets."""
    from hypothesis import given, settings, strategies as st

    from biobloom_ray.stages.dedup import _pair_intersections

    sets_strategy = st.lists(
        st.lists(st.integers(0, 2**64 - 1), max_size=25).map(
            lambda xs: np.unique(np.array(xs, dtype=np.uint64))),
        min_size=1, max_size=12)

    @settings(max_examples=60, deadline=None)
    @given(sets=sets_strategy, data=st.data())
    def run(sets, data):
        n = len(sets)
        pairs = [(data.draw(st.integers(0, n - 1)),
                  data.draw(st.integers(0, n - 1)))
                 for _ in range(data.draw(st.integers(1, 8)))]
        va = (np.concatenate([sets[a] for a, _ in pairs])
              if pairs else np.empty(0, np.uint64))
        vb = (np.concatenate([sets[b] for _, b in pairs])
              if pairs else np.empty(0, np.uint64))
        la = np.array([len(sets[a]) for a, _ in pairs], dtype=np.int64)
        lb = np.array([len(sets[b]) for _, b in pairs], dtype=np.int64)
        got = _pair_intersections(va, la, vb, lb)
        for t, (a, b) in enumerate(pairs):
            want = len(np.intersect1d(sets[a], sets[b],
                                      assume_unique=True))
            assert got[t] == want

    run()


def test_segment_gather_property():
    """Hypothesis property: _segment_gather concatenates exactly the
    requested CSR segments in order."""
    from hypothesis import given, settings, strategies as st

    from biobloom_ray.stages.dedup import _segment_gather

    @settings(max_examples=60, deadline=None)
    @given(segs=st.lists(st.lists(st.integers(0, 1000), max_size=10),
                         min_size=1, max_size=10), data=st.data())
    def run(segs, data):
        vals = np.array([x for s in segs for x in s], dtype=np.int64)
        offs = np.zeros(len(segs) + 1, dtype=np.int64)
        np.cumsum([len(s) for s in segs], out=offs[1:])
        idx = np.array([data.draw(st.integers(0, len(segs) - 1))
                        for _ in range(data.draw(st.integers(1, 6)))],
                       dtype=np.int64)
        got, lens = _segment_gather(vals, offs, idx)
        want = np.concatenate([np.array(segs[i], dtype=np.int64)
                               for i in idx]) if len(idx) else vals[:0]
        assert np.array_equal(got, want)
        assert lens.tolist() == [len(segs[i]) for i in idx]

    run()


# -- repetition stats + decontamination ---------------------------------------


class TestRepetitionStats:
    def test_hand_computed(self):
        from biobloom_ray.stages.textstats import repetition_stats_batch
        t = pa.table({
            "doc_id": [1, 2, 3, 4],
            "text": ["a b a b a",          # 5 tok, 2 distinct, top=3(a);
                                            # bigrams: ab ba ab ba -> 2 distinct
                     "x",                  # 1 tok, no bigrams
                     "",                   # 0 tok -> dropped
                     "w w w w"]})          # 4 tok, 1 distinct, top=4;
                                            # bigrams: ww x3 -> 1 distinct
        out = repetition_stats_batch(t).to_pandas().set_index("doc_id")
        assert list(out.index) == [1, 2, 4]
        assert out.loc[1].tolist() == [5, 2, 3, 4, 2]
        assert out.loc[2].tolist() == [1, 1, 1, 0, 0]
        assert out.loc[4].tolist() == [4, 1, 4, 3, 1]

    def test_batchsize_invariance(self, ray_session):
        """Map-only op: identical output under any batch/block layout."""
        from biobloom_ray.pipelines.analytics import repetition_stats
        a = repetition_stats("/root/testdata/sf0.001")
        ds = ray.data.read_parquet(
            "/root/testdata/sf0.001/documents.parquet").repartition(7)
        from biobloom_ray.stages.textstats import repetition_stats_batch
        b = (ds.map_batches(repetition_stats_batch, batch_format="pyarrow",
                            batch_size=13)
             .to_pandas().sort_values("doc_id").reset_index(drop=True))
        pd.testing.assert_frame_equal(a, b[a.columns])


class TestDecontaminate:
    def test_bench_docs_excluded_and_flags_exact(self, ray_session, tmp_path):
        """Hand-built corpus: doc 0 (id 0 % anything == 0) is the
        benchmark; docs 3 and 6 share trigrams with it, doc 1 does not;
        a short doc (< 3 tokens) is absent from the output."""
        import pyarrow.parquet as pq
        docs = pa.table({
            "doc_id": [0, 1, 3, 5, 6],
            "text": ["the cat sat on the mat",
                     "dogs bark loudly at night",
                     "he saw the cat sat on a hat",
                     "too short",
                     "cat sat on nothing else matters"],
            "lang": ["en"] * 5, "source": ["s"] * 5,
            "n_chars": [22, 25, 27, 9, 30]})
        d = tmp_path / "docs"
        d.mkdir()
        pq.write_table(docs, d / "documents.parquet")
        from biobloom_ray.pipelines.analytics import decontaminate
        out = decontaminate(str(d)).set_index("doc_id")
        assert list(out.index) == [1, 3, 6]   # 0 = bench, 5 too short
        assert out.loc[1, "n_contam"] == 0
        assert out.loc[1, "contaminated"] == 0
        # doc 3: "the cat sat" + "cat sat on" overlap the benchmark
        assert out.loc[3, "n_contam"] == 2
        assert out.loc[3, "contaminated"] == 1
        # doc 6: "cat sat on" overlaps
        assert out.loc[6, "n_contam"] == 1
        assert out.loc[6, "n_trigrams"] == 4

    def test_bloom_fp_cannot_false_flag(self, ray_session, tmp_path, monkeypatch):
        """Force the Bloom prefilter to 100% positives (1-bit-per-entry
        sizing is impossible, so patch FPR to ~1): the exact verify must
        still produce zero contamination for disjoint vocabulary."""
        import pyarrow.parquet as pq
        import biobloom_ray.pipelines.analytics as A
        monkeypatch.setattr(A, "DECON_BLOOM_FPR", 0.9999)
        docs = pa.table({
            "doc_id": [0, 1],
            "text": ["alpha beta gamma delta", "one two three four five"],
            "lang": ["en"] * 2, "source": ["s"] * 2, "n_chars": [22, 23]})
        d = tmp_path / "docs"
        d.mkdir()
        pq.write_table(docs, d / "documents.parquet")
        out = A.decontaminate(str(d))
        assert out.contaminated.sum() == 0
        assert out.n_contam.sum() == 0


def test_repeated_substrings_tiers_agree(ray_session, monkeypatch):
    """Driver-combine tier and native groupby+join tier are bit-identical
    (same convention as every scale gate in the repo)."""
    import biobloom_ray.pipelines.analytics as A
    a = A.repeated_substrings("/root/testdata/sf0.001")
    monkeypatch.setattr(A, "REPEAT_DRIVER_MAX_ROWS", 0)
    b = A.repeated_substrings("/root/testdata/sf0.001")
    pd.testing.assert_frame_equal(a, b[a.columns])
    assert a.n_repeated.sum() > 0  # the fixture's tiny vocab guarantees repeats
