"""End-to-end build → categorize tests on deterministic fixtures
(translated from Tests/SystemTests/systemTest.pl per SURVEY.md §5)."""

import numpy as np
import pandas as pd
import pytest

import ray.data

from biobloom_ray.config import BuildConfig, CategorizeConfig
from biobloom_ray.pages import generate_pages, generate_ref_corpora
from biobloom_ray.pipelines import build_filters, categorize, expected_entries
from biobloom_ray.stages.categorize import summary_table

K = 8
BUILD_CFG = BuildConfig(kmer_size=K, desired_fpr=0.0078125, batch_size=512)


@pytest.fixture(scope="module")
def corpora_bank(ray_session):
    ref = generate_ref_corpora()
    ds = ray.data.from_arrow(ref)
    built = build_filters(ds, text_col="doc", label_col="filter_id",
                          cfg=BUILD_CFG)
    bank = [built[fid]["filter"] for fid in sorted(built)]
    return built, bank


@pytest.fixture(scope="module")
def pages_ds(ray_session):
    return ray.data.from_arrow(generate_pages(2000, seed=42))


def test_build_per_label_filters(corpora_bank):
    built, bank = corpora_bank
    assert sorted(built) == ["de", "en", "es", "fr"]
    for fid, d in built.items():
        bf = d["filter"]
        assert bf.m % 64 == 0
        assert bf.n_distinct > 0
        # observed FPR within configured bound (BASELINE metric)
        assert bf.fpr_realized() <= 0.0078125 * 1.2
        # HLL distinct estimate close to Bloom's lower-bound counter
        if d["hll"] is not None:
            est = d["hll"].estimate()
            assert est == pytest.approx(bf.n_distinct, rel=0.1)


def test_expected_entries_matches_exact(ray_session):
    ref = generate_ref_corpora(docs_per_lang=5)
    ds = ray.data.from_arrow(ref)
    got = expected_entries(ds, "doc", K, "filter_id")
    pdf = ref.to_pandas()
    for fid, grp in pdf.groupby("filter_id"):
        # normalization is a no-op on these fixtures (already lowercase,
        # single-spaced), so raw lengths give the exact frame count
        want = int((grp["doc"].str.len() - K + 1).clip(lower=0).sum())
        assert got[fid] == want


def test_categorize_std_assigns_langs(corpora_bank, pages_ds):
    _, bank = corpora_bank
    cfg = CategorizeConfig(scoring_method="simple", score_threshold=0.15,
                           mode="std", batch_size=512, concurrency=2)
    labeled = categorize(pages_ds, bank, cfg).to_pandas()
    assert set(labeled.columns) >= {"label", "hit_mask", "score", "lang"}
    # positive pages (non-zz) should overwhelmingly match their own lang
    pos = labeled[labeled.lang != "zz"]
    own = (pos.label == pos.lang) | (pos.label == "multiMatch")
    assert own.mean() > 0.95
    # negative-control pages must essentially never match (FPR gate)
    neg = labeled[labeled.lang == "zz"]
    assert (neg.label == "noMatch").mean() > 0.99


def test_categorize_deterministic(corpora_bank, pages_ds):
    _, bank = corpora_bank
    cfg = CategorizeConfig(mode="std", batch_size=256, concurrency=2)
    a = categorize(pages_ds, bank, cfg).to_pandas().sort_values("url")
    b = categorize(pages_ds, bank, cfg).to_pandas().sort_values("url")
    assert (a.label.values == b.label.values).all()
    assert (a.hit_mask.values == b.hit_mask.values).all()


def test_ordered_mode_priority(corpora_bank, pages_ds):
    built, bank = corpora_bank
    cfg = CategorizeConfig(mode="ordered", batch_size=512, concurrency=2)
    labeled = categorize(pages_ds, bank, cfg).to_pandas()
    # ordered can never produce multiMatch (first match short-circuits,
    # BioBloomClassifier.cpp:1145-1153)
    assert (labeled.label != "multiMatch").all()
    # every row matched in std stays matched in ordered
    std = categorize(pages_ds, bank, CategorizeConfig(mode="std",
                     batch_size=512, concurrency=2)).to_pandas()
    assert ((labeled.label != "noMatch") == (std.label != "noMatch")).all()
    # ordered label = first set bit of std's hit mask
    fids = sorted(built)
    m = std.hit_mask.values.astype(np.uint64)
    has = m != 0
    first_bit = np.zeros(len(m), dtype=np.int64)
    mm = m.copy()
    for i in range(len(fids)):
        first_bit[(mm & np.uint64(1 << i)) != 0] = i
        mm[(mm & np.uint64(1 << i)) != 0] = 0  # keep only first
    want = np.where(has, np.array(fids, dtype=object)[first_bit], "noMatch")
    assert (labeled.label.values == want).all()


def test_besthit_mode(corpora_bank, pages_ds):
    _, bank = corpora_bank
    cfg = CategorizeConfig(mode="besthit", batch_size=512, concurrency=2)
    labeled = categorize(pages_ds, bank, cfg).to_pandas()
    matched = labeled[labeled.label != "noMatch"]
    assert (matched.score > 0).all()
    # besthit assigns non-zz pages to their own lang more often than std
    pos = labeled[(labeled.lang != "zz")]
    assert (pos.label == pos.lang).mean() > 0.9


def test_scores_mode_emits_vector(corpora_bank, pages_ds):
    _, bank = corpora_bank
    cfg = CategorizeConfig(mode="scores", batch_size=512, concurrency=2)
    labeled = categorize(pages_ds.limit(200), bank, cfg).to_pandas()
    assert "scores" in labeled.columns
    assert len(labeled.scores.iloc[0]) == len(bank)


def test_summary_table_shape(corpora_bank, pages_ds):
    _, bank = corpora_bank
    cfg = CategorizeConfig(mode="std", batch_size=512, concurrency=2)
    labeled = categorize(pages_ds, bank, cfg)
    fids = [bf.filter_id for bf in bank]
    summary = summary_table(labeled, fids)
    assert list(summary.columns) == ["filter_id", "hits", "misses", "shared",
                                     "rate_hit", "rate_miss", "rate_shared"]
    assert list(summary.filter_id) == fids + ["multiMatch", "noMatch"]
    total = 2000
    assert (summary.hits + summary.misses == total).all()
    # invariant: unique_i = hits_i - shared_i; sum(unique) + multi + no = total
    uniq = (summary.hits - summary.shared)[:len(fids)].sum()
    multi = summary[summary.filter_id == "multiMatch"].hits.iloc[0]
    no = summary[summary.filter_id == "noMatch"].hits.iloc[0]
    assert uniq + multi + no == total


def test_paired_combinators(corpora_bank, ray_session):
    import pyarrow as pa
    _, bank = corpora_bank
    pages = generate_pages(600, seed=7).to_pandas()
    half = len(pages) // 2
    paired = pa.table({
        "text_1": pages.text[:half].tolist(),
        "text_2": pages.text[half:2 * half].tolist(),
        "lang_1": pages.lang[:half].tolist(),
        "lang_2": pages.lang[half:2 * half].tolist(),
    })
    ds = ray.data.from_arrow(paired)
    and_cfg = CategorizeConfig(mode="std", inclusive=False, batch_size=256,
                               concurrency=2)
    or_cfg = CategorizeConfig(mode="std", inclusive=True, batch_size=256,
                              concurrency=2)
    a = categorize(ds, bank, and_cfg, text_col="text_1",
                   text_col2="text_2").to_pandas()
    o = categorize(ds, bank, or_cfg, text_col="text_1",
                   text_col2="text_2").to_pandas()
    # AND hits are a subset of OR hits, row-wise
    assert ((a.hit_mask.values & ~o.hit_mask.values) == 0).all()
    # rows whose mates are the same lang should AND-match that lang
    same = a[(a.lang_1 == a.lang_2) & (a.lang_1 != "zz")]
    assert ((same.label == same.lang_1) | (same.label == "multiMatch")).mean() > 0.9


def test_subtract_filter(corpora_bank, pages_ds, ray_session):
    built, bank = corpora_bank
    # subtracting a filter from itself: every hit shingle is score-gated →
    # nothing can reach threshold against that filter (J2 anti-join)
    en = [b for b in bank if b.filter_id == "en"][0]
    cfg = CategorizeConfig(mode="std", batch_size=512, concurrency=2)
    labeled = categorize(pages_ds, [en], cfg, subtract=en).to_pandas()
    assert (labeled.label == "noMatch").all()


def test_actor_pool_path_matches_task_path(corpora_bank, pages_ds):
    # cfg.use_actors=True runs the explicit actor pool (T1); results must
    # be identical to the default task path
    _, bank = corpora_bank
    task_cfg = CategorizeConfig(mode="std", batch_size=512)
    actor_cfg = CategorizeConfig(mode="std", batch_size=512,
                                 use_actors=True, concurrency=2)
    a = categorize(pages_ds, bank, task_cfg).to_pandas().sort_values("url")
    b = categorize(pages_ds, bank, actor_cfg).to_pandas().sort_values("url")
    assert (a.label.values == b.label.values).all()
    assert (a.hit_mask.values == b.hit_mask.values).all()


def test_length_scorer_end_to_end(corpora_bank, pages_ds):
    """M11 through the categorize pipeline: threshold = min contiguous
    matched run in chars (SeqEval.h:295-332)."""
    _, bank = corpora_bank
    strict = categorize(pages_ds, bank, CategorizeConfig(
        scoring_method="length", score_threshold=60,
        batch_size=512, concurrency=2)).to_pandas()
    loose = categorize(pages_ds, bank, CategorizeConfig(
        scoring_method="length", score_threshold=20,
        batch_size=512, concurrency=2)).to_pandas()
    # longer required runs can only shrink the matched set
    assert (strict.label != "noMatch").sum() <= (loose.label != "noMatch").sum()
    # golden label behavior for the fixed fixture/seed
    assert (loose.label != "noMatch").sum() > 0
    assert (loose[loose.lang == "zz"].label == "noMatch").mean() > 0.95
    pos = loose[(loose.label != "noMatch") & (loose.label != "multiMatch")]
    # matched single labels overwhelmingly agree with the true lang
    assert (pos.label == pos.lang).mean() > 0.9


def test_emit_matching_streams(corpora_bank, pages_ds):
    """S9 -d/-n emitter (BioBloomClassifier.h:115-142)."""
    from biobloom_ray.stages.categorize import emit_matching

    _, bank = corpora_bank
    cfg = CategorizeConfig(scoring_method="simple", score_threshold=0.15,
                           mode="std", batch_size=512, concurrency=2)
    labeled = categorize(pages_ds, bank, cfg)
    pdf = labeled.to_pandas()
    matched = emit_matching(labeled).to_pandas()
    unmatched = emit_matching(labeled, invert=True).to_pandas()
    assert len(matched) == (pdf.label != "noMatch").sum()
    assert len(unmatched) == (pdf.label == "noMatch").sum()
    assert (matched.label != "noMatch").all()
    # single-filter stream: that filter's labels plus multiMatch rows
    en = emit_matching(labeled, filter_id="en").to_pandas()
    assert set(en.label) <= {"en", "multiMatch"}
    assert len(en) == ((pdf.label == "en") | (pdf.label == "multiMatch")).sum()
    en_only = emit_matching(labeled, filter_id="en", invert=True).to_pandas()
    assert len(en_only) == len(pdf) - len(en)


@pytest.fixture(scope="module")
def pages_dir(ray_session, tmp_path_factory):
    """The 2000 test pages as 6 parquet files: at least the conftest's 4
    cpus, so ``io.read_parquet`` reads whole files, and fewer than the 8
    blocks Ray's default asks for on 4 cpus, which would split them."""
    import pyarrow.parquet as pq

    d = tmp_path_factory.mktemp("pages6")
    t = generate_pages(2000, seed=42)
    for i, s in enumerate(range(0, 2000, 334)):
        pq.write_table(t.slice(s, 334), d / f"part-{i}.parquet")
    return str(d)


def test_read_many_files_fuses_with_map(pages_dir):
    from biobloom_ray.io import read_parquet

    def f(b):
        return b

    ds = read_parquet(pages_dir).map_batches(f, batch_format="pyarrow")
    ds = ds.materialize()
    stats = ds.stats()
    assert ds.count() == 2000
    assert "ReadParquet->MapBatches(f)" in stats
    assert "SplitBlocks" not in stats


def test_read_block_count_rule(pages_dir, monkeypatch, tmp_path):
    """Whole files once the files fill the cluster; a caller's block count,
    a single file and a remote URI keep what Ray would do."""
    import copy
    from types import SimpleNamespace

    import pyarrow.parquet as pq

    import biobloom_ray.io as bio

    seen = []
    ctx = ray.data.DataContext.get_current()

    def fake_read(paths, **kw):
        seen.append(kw)
        return SimpleNamespace(context=copy.copy(ctx))

    monkeypatch.setattr(bio.ray.data, "read_parquet", fake_read)
    cpus = bio.cluster_cpus()
    assert cpus <= 6
    bio.read_parquet(pages_dir)
    bio.read_parquet(pages_dir, override_num_blocks=3)
    one = tmp_path / "one.parquet"
    pq.write_table(generate_pages(10, seed=1), one)
    bio.read_parquet(str(one))
    bio.read_parquet(["s3://bucket/a.parquet"] * 8)
    assert seen[0]["override_num_blocks"] == min(6, 2 * cpus)
    assert seen[1]["override_num_blocks"] == 3
    assert "override_num_blocks" not in seen[2]
    assert "override_num_blocks" not in seen[3]


def test_read_single_large_file_still_splits(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from biobloom_ray.io import read_parquet

    rng = np.random.default_rng(0)
    f = tmp_path / "big.parquet"
    pq.write_table(pa.table({"x": rng.random(400_000)}), f)
    assert f.stat().st_size >= 1 << 20
    assert read_parquet(str(f)).materialize().num_blocks() > 1


def test_categorize_same_for_fused_and_split_reads(corpora_bank, pages_dir):
    from biobloom_ray.io import read_parquet

    _, bank = corpora_bank
    fids = [bf.filter_id for bf in bank]
    cfg = CategorizeConfig(mode="std", batch_size=512)
    split = read_parquet(pages_dir, override_num_blocks=48)
    assert "SplitBlocks" in split.materialize().stats()
    out = []
    for ds in (read_parquet(pages_dir), split):
        labeled = categorize(ds, bank, cfg)
        pdf = labeled.to_pandas().sort_values("url")
        out.append((pdf, summary_table(labeled, fids)))
    (a, sa), (b, sb) = out
    assert len(a) == 2000
    assert (a.label.values == b.label.values).all()
    assert (a.hit_mask.values == b.hit_mask.values).all()
    pd.testing.assert_frame_equal(sa, sb)


@pytest.mark.parametrize("n_rows", [0, 1])
def test_categorize_with_summary_degenerate_inputs(corpora_bank, tmp_path,
                                                   n_rows):
    """0- and 1-row inputs give the same summary in memory and through the
    partitioned sink; 0 rows give the zero-total table."""
    from biobloom_ray.pipelines import categorize_with_summary

    _, bank = corpora_bank
    ds = ray.data.from_arrow(generate_pages(10, seed=1).slice(0, n_rows))
    labeled, mem = categorize_with_summary(ds, bank)
    none, sink = categorize_with_summary(ds, bank,
                                         out_dir=str(tmp_path / "out"))
    assert none is None
    pd.testing.assert_frame_equal(mem, sink)
    assert (mem.hits + mem.misses == n_rows).all()
    if n_rows == 0:
        assert (mem.hits == 0).all()
        assert mem.rate_hit.isna().all()


def test_categorize_rejects_bad_bank_on_driver(corpora_bank, pages_ds):
    """Each bank check raises ValueError at ``categorize()`` itself, before
    the lazy dataset runs anything."""
    from biobloom_ray.sketches.bloom import BloomFilter

    _, bank = corpora_bank
    too_many = [BloomFilter(64, 1, K, filter_id=f"f{i}") for i in range(65)]
    mixed = bank + [BloomFilter(64, 1, K + 1, filter_id="k9")]
    for bad, msg in (([], "at least one"), (too_many, "at most 64"),
                     (mixed, "share")):
        with pytest.raises(ValueError, match=msg):
            categorize(pages_ds, bad)


def test_pair_up_keep_first_on_duplicate_headers(ray_session):
    """order_col reproduces the reference mate-cache's keep-first rule
    on dirty input with repeated headers (ADVICE r2); without it the
    documented fan-out applies."""
    import pyarrow as pa

    from biobloom_ray.stages.pairs import pair_up

    tbl = pa.table({
        "url": pa.array(["p1/1", "p1/1", "p1/2", "p1/2"]),
        "text": pa.array(["first1", "second1", "first2", "second2"]),
        "rec": pa.array([0, 1, 2, 3], type=pa.int64()),
    })
    ds = ray.data.from_arrow(tbl)
    fanout = pair_up(ds).to_pandas()
    assert len(fanout) == 4  # 2 x 2 combinations, as documented
    first = pair_up(ds, order_col="rec").to_pandas()
    assert len(first) == 1
    assert first.iloc[0].text_1 == "first1"
    assert first.iloc[0].text_2 == "first2"


def test_source_quality_gate_tiers_agree(ray_session, monkeypatch):
    """Broadcast tier == hash-semi-join tier, and the kept set is
    exactly the docs of sources with Gopher pass rate >= 1/2."""
    import biobloom_ray.pipelines.analytics as A

    sf = "/root/testdata/sf0.001"
    fast = A.source_quality_gate(sf)
    monkeypatch.setattr(A, "SRCGATE_BROADCAST_MAX_ROWS", 0)
    slow = A.source_quality_gate(sf)
    pd.testing.assert_frame_equal(fast, slow)

    flags = A.gopher_quality_flags(sf)
    import pyarrow.parquet as pq
    src = pq.read_table(f"{sf}/documents.parquet",
                        columns=["doc_id", "source"]).to_pandas()
    j = flags.merge(src, on="doc_id")
    rate = j.groupby("source").agg(n=("pass_gopher", "size"),
                                   p=("pass_gopher", "sum"))
    kept_sources = set(rate[2 * rate.p >= rate.n].index)
    expect = src[src.source.isin(kept_sources)].sort_values("doc_id")
    assert fast.doc_id.tolist() == expect.doc_id.tolist()


def test_token_freq_histogram_mass_conservation(ray_session):
    """sum(freq * n_tokens) == total token occurrences and
    sum(n_tokens) == vocabulary size."""
    import biobloom_ray.pipelines.analytics as A

    sf = "/root/testdata/sf0.001"
    out = A.token_freq_histogram(sf)
    toks = A.token_counts(sf)
    assert (out.freq * out.n_tokens).sum() == toks.n_tokens.sum()
    assert (out.freq >= 1).all()
    assert out.freq.is_monotonic_increasing


def test_hash_join_sparse_right_side(ray_session):
    """Inner hash_join whose right side survives filtering with so few
    rows that some hash partitions receive NOTHING: Ray 2.49's stock
    aggregator feeds acero a zero-column table and dies; the
    _GuardedJoinAggregation in biobloom_ray.io must return the correct
    (possibly empty) result instead."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data
    from ray.data.aggregate import Count

    from biobloom_ray.io import hash_join

    L = ray.data.from_arrow(pa.table({
        "k": pa.array(["a", "b", "c", "q"], type=pa.string()),
        "v": pa.array([1, 2, 3, 4], type=pa.int64())}))
    R = (ray.data.from_arrow(pa.table({
            "k": pa.array(["q", "q", "x"], type=pa.string())}))
         .groupby("k").aggregate(Count(alias_name="n"))
         .map_batches(lambda b: b.filter(pc.equal(b["n"], 2)),
                      batch_format="pyarrow"))
    out = hash_join(L, R, on=("k",), num_partitions=4).to_pandas()
    assert out.k.tolist() == ["q"]
    assert out.v.tolist() == [4]

    # fully-empty right side: inner join is simply empty
    R0 = (ray.data.from_arrow(pa.table({
            "k": pa.array(["x"], type=pa.string())}))
          .groupby("k").aggregate(Count(alias_name="n"))
          .map_batches(lambda b: b.filter(pc.equal(b["n"], 99)),
                       batch_format="pyarrow"))
    out0 = hash_join(L, R0, on=("k",), num_partitions=4)
    assert out0.count() == 0


def test_join_guard_installed():
    """The empty-partition inner-join guard is in place: ``io`` only
    warns when it cannot install it, and the dedup cluster tiers, the
    pair verifier and the curation runner's join tiers rely on it."""
    from ray.data._internal.execution.operators import join as J

    import biobloom_ray.io as io

    assert J.JoiningShuffleAggregation is io._GuardedJoinAggregation


def test_source_mix_sample_caps_sources(ray_session):
    import biobloom_ray.pipelines.analytics as A

    docs = pd.read_parquet("/root/testdata/sf0.01/documents.parquet",
                           columns=["doc_id", "source"])
    out = A.source_mix_sample("/root/testdata/sf0.01")
    before = docs.source.value_counts()
    after = out.source.value_counts().reindex(before.index).fillna(0)
    cap = -(-len(docs) // (2 * docs.source.nunique()))
    # under-cap sources are untouched; over-cap sources shrink toward
    # the cap (binomial keep at rate cap/n: mean cap, sd < 16)
    for s in before.index:
        if before[s] <= cap:
            assert after[s] == before[s]
        else:
            assert after[s] < before[s]
            assert abs(after[s] - cap) < 6 * np.sqrt(cap)
    # kept rows are a subset of the input
    assert set(out.doc_id).issubset(set(docs.doc_id))


def test_epoch_shuffle_head_deterministic_and_seeded(ray_session):
    import biobloom_ray.pipelines.analytics as A
    from biobloom_ray.hashing import splitmix64

    out = A.epoch_shuffle_head("/root/testdata/sf0.001")
    out2 = A.epoch_shuffle_head("/root/testdata/sf0.001")
    assert out.equals(out2)
    assert out.pos.tolist() == list(range(1, len(out) + 1))
    # matches a local full-sort replay of the same hash
    docs = pd.read_parquet("/root/testdata/sf0.001/documents.parquet",
                           columns=["doc_id"])
    ids = docs.doc_id.to_numpy().astype(np.uint64)
    h = splitmix64(ids ^ np.uint64(A.EPOCH_SHUFFLE_SEED))
    want = docs.doc_id.to_numpy()[np.lexsort((docs.doc_id, h))][
        :A.EPOCH_SHUFFLE_HEAD]
    assert out.doc_id.tolist() == want.tolist()
    # a different seed gives a different permutation
    other = A.epoch_shuffle_head("/root/testdata/sf0.001", seed=99)
    assert other.doc_id.tolist() != out.doc_id.tolist()


def test_clean_corpus_composition_invariants(ray_session):
    import biobloom_ray.pipelines.analytics as A

    out = A.clean_corpus("/root/testdata/sf0.001")
    docs = pd.read_parquet("/root/testdata/sf0.001/documents.parquet")
    # no benchmark docs survive, all kept ids exist, langs match source
    assert (out.doc_id % A.DECON_BENCH_MOD != 0).all()
    m = out.merge(docs[["doc_id", "lang"]], on="doc_id",
                  suffixes=("", "_src"))
    assert len(m) == len(out)
    assert (m.lang == m.lang_src).all()
    # kept set is duplicate-free by text
    kept = docs[docs.doc_id.isin(out.doc_id)]
    assert kept.text.duplicated().sum() == 0
    # every kept doc passes the word-count leg of the Gopher gate
    ntok = kept.text.str.count(r"\S+")
    assert (ntok >= 20).all()
    # n_tokens column is the \S+ count
    chk = out.merge(docs[["doc_id", "text"]], on="doc_id")
    assert (chk.n_tokens == chk.text.str.count(r"\S+")).all()


def test_source_overlap_symmetric_brute_force(ray_session):
    import re

    import biobloom_ray.pipelines.analytics as A

    out = A.source_overlap("/root/testdata/sf0.001")
    assert (out.src_a < out.src_b).all()
    assert (out.n_shared >= 1).all()
    docs = pd.read_parquet("/root/testdata/sf0.001/documents.parquet",
                           columns=["source", "text"])
    grams = {}
    for src, txt in zip(docs.source, docs.text):
        toks = re.findall(r"\S+", txt)
        gs = {" ".join(toks[i:i + 3]) for i in range(len(toks) - 2)}
        grams.setdefault(src, set()).update(gs)
    srcs = sorted(grams)
    want = {(a, b): len(grams[a] & grams[b])
            for i, a in enumerate(srcs) for b in srcs[i + 1:]
            if grams[a] & grams[b]}
    got = {(r.src_a, r.src_b): r.n_shared for r in out.itertuples()}
    assert got == want


def test_source_overlap_boundary_stitch_block_invariance(ray_session):
    """The sort+segment pair expansion must be invariant to how the
    sorted rows split into blocks (the boundary-stitch path)."""
    import ray.data

    import biobloom_ray.pipelines.analytics as A

    base = A.source_overlap("/root/testdata/sf0.001")
    ctx = ray.data.DataContext.get_current()
    old = ctx.target_max_block_size
    try:
        ctx.target_max_block_size = 16 * 1024  # force many tiny blocks
        tiny = A.source_overlap("/root/testdata/sf0.001")
    finally:
        ctx.target_max_block_size = old
    pd.testing.assert_frame_equal(base, tiny)


def test_quality_weighted_sample_brute_force(ray_session):
    import re

    import biobloom_ray.pipelines.analytics as A
    from biobloom_ray.hashing import splitmix64

    out = A.quality_weighted_sample("/root/testdata/sf0.001")
    docs = pd.read_parquet("/root/testdata/sf0.001/documents.parquet",
                           columns=["doc_id", "text"])
    keep = []
    for did, txt in zip(docs.doc_id, docs.text):
        toks = re.findall(r"\S+", txt)
        nw, swl = len(toks), sum(len(t) for t in toks)
        if nw == 0:
            continue
        thr = min((swl << 64) // (10 * nw), (1 << 64) - 1)
        h = int(splitmix64(np.array([did], dtype=np.uint64))[0])
        if h < thr:
            keep.append(did)
    assert out.doc_id.tolist() == sorted(keep)
    # the weight has real spread on the fixture: a nontrivial fraction
    # is dropped AND a nontrivial fraction kept
    assert 0.1 < len(out) / len(docs) < 0.9


def test_token_entropy_brute_force(ray_session):
    import re
    from collections import Counter

    import biobloom_ray.pipelines.analytics as A

    out = A.token_entropy("/root/testdata/sf0.001")
    docs = pd.read_parquet("/root/testdata/sf0.001/documents.parquet",
                           columns=["doc_id", "text"])
    got = out.set_index("doc_id")
    for did, txt in list(zip(docs.doc_id, docs.text))[:100]:
        toks = re.findall(r"\S+", txt)
        if not toks:
            assert did not in got.index
            continue
        c = np.array(list(Counter(toks).values()), dtype=np.float64)
        h = np.log(len(toks)) - (c * np.log(c)).sum() / len(toks)
        r = got.loc[did]
        assert r.n_tokens == len(toks)
        assert r.n_distinct == len(set(toks))
        assert abs(r.entropy_r6 - round(h, 6)) < 2e-6
    # entropy bounds: 0 <= H <= ln(n_distinct)
    assert (out.entropy_r6 >= -1e-6).all()
    assert (out.entropy_r6 <= np.log(out.n_distinct) + 1e-6).all()


def test_u64_long_division_matches_bigint():
    """The vectorized two-step 32-bit long division inside
    quality_weighted_sample must equal exact bigint (num << 64) // den
    for every den < 2^31, num <= den."""
    from hypothesis import given, settings, strategies as st

    @given(st.integers(min_value=1, max_value=2**31 - 1),
           st.data())
    @settings(max_examples=300, deadline=None)
    def check(den, data):
        num = data.draw(st.integers(min_value=0, max_value=den))
        n = np.array([num], dtype=np.int64)
        d = np.array([den], dtype=np.int64)
        r0 = n % d
        t1 = (r0 << 32) // d
        t2 = (((r0 << 32) % d) << 32) // d
        got = int((t1.astype(np.uint64) << np.uint64(32))
                  + t2.astype(np.uint64)[0])
        want = ((num % den) << 64) // den
        assert got == want

    check()


def test_source_quality_gate_empty_kept_join_path(ray_session,
                                                  monkeypatch):
    """When NO source passes the gate, the guarded hash join yields a
    schema-less empty dataset; the caller must restore the output
    columns instead of KeyError-ing (code-review regression)."""
    import pyarrow as pa

    import biobloom_ray.pipelines.analytics as A
    import biobloom_ray.stages.webclean as W

    def _no_pass_flags(b):  # local => cloudpickled by value
        return pa.table({"pass_gopher": pa.array([0] * b.num_rows,
                                                 type=pa.int64())})

    monkeypatch.setattr(W, "gopher_flags_batch", _no_pass_flags)
    monkeypatch.setattr(A, "SRCGATE_BROADCAST_MAX_ROWS", 0)
    out = A.source_quality_gate("/root/testdata/sf0.001")
    assert len(out) == 0
    assert list(out.columns) == ["doc_id", "source"]


def test_round4_new_op_tiers_agree(ray_session, monkeypatch):
    """top_bigrams_per_lang: the driver count-table tier and the native
    Sum + two-level top-k tier return identical tables."""
    import biobloom_ray.pipelines.analytics as A

    sf = "/root/testdata/sf0.01"

    def canon(df):
        cols = list(df.columns)
        return df[cols].sort_values(cols).reset_index(drop=True)

    fast_bg = A.top_bigrams_per_lang(sf)

    monkeypatch.setattr(A, "BIGRAM_DRIVER_MAX_ROWS", 0)

    slow_bg = A.top_bigrams_per_lang(sf)[list(fast_bg.columns)]

    f, s = canon(fast_bg), canon(slow_bg)
    assert len(f) > 0 and f.equals(s), "bigrams"


def test_round4_wave2_tiers_agree(ray_session, monkeypatch):
    """segment_revenue_topk (broadcast key sets vs two hash joins +
    native rollup), nb_class_scores (broadcast vocab vs
    token hash join; integer columns exact, float at 1e-6 like
    bigram_lm_scores)."""
    import numpy as np

    import biobloom_ray.pipelines.analytics as A

    sf = "/root/testdata/sf0.01"

    fast_s = A.segment_revenue_topk(sf)
    fast_nb = A.nb_class_scores(sf)

    monkeypatch.setattr(A, "SEGMENT_BROADCAST_MAX_ROWS", 0)
    monkeypatch.setattr(A, "NB_BROADCAST_MAX_ROWS", 0)

    slow_s = A.segment_revenue_topk(sf)[list(fast_s.columns)]
    slow_nb = A.nb_class_scores(sf)[list(fast_nb.columns)]

    assert len(fast_s) > 0 and fast_s.equals(slow_s)
    assert len(fast_nb) > 0
    for c in ("doc_id", "n_tokens", "sum_ca", "sum_cb"):
        assert (fast_nb[c].to_numpy() == slow_nb[c].to_numpy()).all(), c
    assert np.allclose(fast_nb.score_r6, slow_nb.score_r6,
                       rtol=0, atol=1e-6)


def test_round4_wave3_tiers_agree(ray_session, monkeypatch):
    """token_drift_topk (driver count-table vs native Sum + block
    top-k)."""
    import biobloom_ray.pipelines.analytics as A

    sf = "/root/testdata/sf0.01"
    fast_d = A.token_drift_topk(sf)

    monkeypatch.setattr(A, "RARITY_BROADCAST_MAX_ROWS", 0)

    slow_d = A.token_drift_topk(sf)[list(fast_d.columns)]
    assert len(fast_d) > 0 and fast_d.equals(slow_d)


def test_round4_wave6_tiers_agree(ray_session, monkeypatch):
    """region_revenue (broadcast orderkey→region link vs hash joins +
    Bloom-pruned rollup)."""
    import biobloom_ray.pipelines.analytics as A

    sf = "/root/testdata/sf0.01"
    fast_r = A.region_revenue(sf)

    monkeypatch.setattr(A, "ANTI_BROADCAST_MAX_ROWS", 0)

    slow_r = A.region_revenue(sf)[list(fast_r.columns)]
    assert len(fast_r) > 0 and fast_r.equals(slow_r)


def test_round4_wave8_tiers_agree(ray_session):
    """shard_assignment_counts (map-only: all docs assigned exactly
    once)."""
    import duckdb

    import biobloom_ray.pipelines.analytics as A

    sf = "/root/testdata/sf0.01"
    sh = A.shard_assignment_counts(sf)
    n_docs = duckdb.sql(
        f"SELECT count(*) FROM '{sf}/documents.parquet'").fetchone()[0]
    assert sh.n_docs.sum() == n_docs  # every doc lands in exactly 1 shard
    assert sh.shard.between(0, 15).all()


def test_round4_wave12_tiers_agree(ray_session, monkeypatch):
    """event_user_setops (driver Max fold vs native Max groupby;
    set-op counts from flag combinations)."""
    import biobloom_ray.pipelines.analytics as A

    sf = "/root/testdata/sf0.01"
    fast_s = A.event_user_setops(sf)

    monkeypatch.setattr(A, "EVENTS_DRIVER_MAX_ROWS", 0)

    slow_s = A.event_user_setops(sf)[list(fast_s.columns)]
    assert len(fast_s) > 0 and fast_s.equals(slow_s)
    # set-op identities: n_a = n_both + n_only_a; partitions sum to n
    r = fast_s.iloc[0]
    assert r.n_a == r.n_both + r.n_only_a
    assert r.n_b == r.n_both + r.n_only_b
    assert r.n_users == r.n_both + r.n_only_a + r.n_only_b + r.n_neither


def test_round4_wave13_tiers_agree(ray_session, monkeypatch):
    """pmi_top_bigrams (driver vocab fold vs native Sum groupby +
    double hash join + block top-k)."""
    import biobloom_ray.pipelines.analytics as A

    sf = "/root/testdata/sf0.01"
    fast_p = A.pmi_top_bigrams(sf)

    monkeypatch.setattr(A, "RARITY_BROADCAST_MAX_ROWS", 0)

    slow_p = A.pmi_top_bigrams(sf)[list(fast_p.columns)]

    assert len(fast_p) > 0 and fast_p.equals(slow_p)
    # PMI rows respect the min-count floor
    assert (fast_p.c_xy >= 5).all()


def test_round4_wave14_tiers_agree(ray_session, monkeypatch):
    """cross_lang_dup_matrix (broadcast lang map vs double hash
    join)."""
    import biobloom_ray.pipelines.analytics as A

    sf = "/root/testdata/sf0.01"
    fast_x = A.cross_lang_dup_matrix(sf)

    monkeypatch.setattr(A, "COUNT_TABLE_DRIVER_MAX_ROWS", 0)

    slow_x = A.cross_lang_dup_matrix(sf)[list(fast_x.columns)]

    assert len(fast_x) > 0 and fast_x.equals(slow_x)
    # matrix is unordered (lo <= hi) and totals the pair count
    assert (fast_x.lang_lo <= fast_x.lang_hi).all()


def test_round4_wave22_tiers_agree(ray_session):
    """weighted_sample_topk (block top-k prune proven against the
    unpruned global rule; inclusion is weight-biased)."""
    import biobloom_ray.pipelines.analytics as A
    from biobloom_ray.hashing import splitmix64

    sf = "/root/testdata/sf0.01"
    fast_w = A.weighted_sample_topk(sf)

    # unpruned reference for the A-ES sample
    docs = pd.read_parquet(f"{sf}/documents.parquet",
                           columns=["doc_id", "n_chars"])
    z = splitmix64(docs.doc_id.to_numpy(np.uint64)).astype(np.float64)
    key = np.log((z + 1.0) / 2.0 ** 64) \
        / docs.n_chars.to_numpy(np.float64)
    docs = docs.assign(key=key).sort_values(
        ["key", "doc_id"], ascending=[False, True]).head(20)
    assert fast_w.doc_id.tolist() == docs.doc_id.tolist()


def test_round4_wave26_tiers_agree(ray_session, monkeypatch):
    """source_dup_report (driver fold vs native Sum groupby over the
    LSH drop flags)."""
    import biobloom_ray.pipelines.analytics as A

    sf = "/root/testdata/sf0.01"
    fast_d = A.source_dup_report(sf)

    monkeypatch.setattr(A, "COUNT_TABLE_DRIVER_MAX_ROWS", 0)
    slow_d = A.source_dup_report(sf)[list(fast_d.columns)]
    assert len(fast_d) > 0 and fast_d.equals(slow_d)
    # rates bounded; drop totals match the kept-set complement
    assert ((fast_d.dup_rate_r6 >= 0) & (fast_d.dup_rate_r6 <= 1)).all()
    docs = pd.read_parquet(f"{sf}/documents.parquet",
                           columns=["doc_id"])
    import __ray_entry__ as E

    kept = E.queries()["minhash_dedup_kept"](sf)
    assert fast_d.n_dropped.sum() == len(docs) - len(kept)


def test_round4_wave31_tiers_agree(ray_session, monkeypatch):
    """join_size_exact (driver fold vs native Sum groupby).
    join_size_cms and embedding_top_pc fold blob partials
    (associative, no gate): pinned against their exact twins here."""
    import biobloom_ray.pipelines.analytics as A

    sf = "/root/testdata/sf0.01"
    fast_j = A.join_size_exact(sf)

    monkeypatch.setattr(A, "EVENTS_DRIVER_MAX_ROWS", 0)
    slow_j = A.join_size_exact(sf)[list(fast_j.columns)]
    assert fast_j.equals(slow_j)

    # CMS join-size estimate: upper bound that respects the eps band
    cms = A.join_size_cms(sf)
    exact = int(fast_j.join_size.iloc[0])
    est = int(cms.join_size_cms.iloc[0])
    assert est >= exact > 0
    assert est - exact <= int(cms.eps_bound.iloc[0])

    # PCA power iteration matches a direct dense eigendecomposition
    pc1 = A.embedding_top_pc(sf)
    emb = pd.read_parquet(f"{sf}/embeddings.parquet")
    X = np.stack(emb.embedding.to_numpy()).astype(np.float64)
    cov = np.cov(X, rowvar=False, bias=True)
    w, v = np.linalg.eigh(cov)
    top = v[:, -1]
    got = pc1.loading_r6.to_numpy()
    align = abs(float(got @ top) / (np.linalg.norm(got) or 1.0))
    assert align > 0.999999
    assert 0.0 < pc1.explained_var_r6.iloc[0] <= 1.0

def test_round4_wave33_tiers_agree(ray_session):
    """hll_weekly_union's grid-merged estimate is pinned against the
    exact distinct users per type within 5 sigma."""
    import biobloom_ray.pipelines.analytics as A

    sf = "/root/testdata/sf0.01"

    # HLL union-across-weeks vs exact distinct users per type: 5 sigma
    est = A.hll_weekly_union(sf)
    exact = (pd.read_parquet(f"{sf}/events.parquet",
                             columns=["event_type", "user_id"])
             .groupby("event_type")["user_id"].nunique())
    sigma = 5 * 1.04 / np.sqrt(1 << 14)
    for _, r in est.iterrows():
        ex = exact[r.event_type]
        assert abs(r.est_distinct_users - ex) <= max(sigma * ex, 3.0), \
            (r.event_type, r.est_distinct_users, ex)
    # union never exceeds the sum of weekly exacts
    assert (est.n_weeks >= 1).all()

def test_round4_wave34_tiers_agree(ray_session, monkeypatch):
    """source_exclusive_tokens (driver fold vs native Sum groupby over
    (source, token) partials).  ngram_containment_pairs reuses the
    LSH->CSR verify machinery (tiers covered by the jaccard twin's
    tests) and is SQL-oracled."""
    import biobloom_ray.pipelines.analytics as A

    sf = "/root/testdata/sf0.01"
    fast_x = A.source_exclusive_tokens(sf)

    monkeypatch.setattr(A, "COUNT_TABLE_DRIVER_MAX_ROWS", 0)
    slow_x = A.source_exclusive_tokens(sf)[list(fast_x.columns)]
    assert len(fast_x) > 0 and fast_x.equals(slow_x)

    assert (fast_x.n_exclusive_occ <= fast_x.n_tokens).all()
    # containment >= jaccard on every shared pair (set identity)
    import __ray_entry__ as E

    cont = E.queries()["ngram_containment_pairs"](sf)
    jac = E.queries()["ngram_jaccard_pairs"](sf)
    m = cont.merge(jac, on=["id_a", "id_b"])
    assert len(cont) > 0
    assert (m.containment >= m.jaccard - 1e-12).all()

def test_round4_wave35_tiers_agree(ray_session):
    """langid_confusion_matrix composes the scored predictions into the
    (true, pred) table — diagonal dominance pinned."""
    import __ray_entry__ as E

    sf = "/root/testdata/sf0.01"

    cm = E.queries()["langid_confusion_matrix"](sf)
    diag = cm[cm.lang == cm.lang_pred].n.sum()
    n_langs = cm.lang.nunique()
    # the synthetic docs vocab is tiny (~31 tokens) so the n-gram
    # model is weak here — require better-than-chance, not accuracy
    # (the real accuracy pin lives in test_dedup_textstats_ann over
    # the page fixture with distinct per-lang char distributions)
    assert diag / cm.n.sum() > 1.5 / n_langs
    assert cm.n.sum() == 500


def test_round4_wave36_tiers_agree(ray_session, monkeypatch):
    """bloom_prune_join_revenue (exact broadcast key set vs
    distributed key-Bloom prune + FP-killing inner hash join)."""
    import biobloom_ray.pipelines.analytics as A

    sf = "/root/testdata/sf0.01"
    fast_bj = A.bloom_prune_join_revenue(sf)

    monkeypatch.setattr(A, "LINEITEM_DRIVER_MAX_ROWS", 0)
    slow_bj = A.bloom_prune_join_revenue(sf)[list(fast_bj.columns)]
    assert len(fast_bj) > 0 and fast_bj.equals(slow_bj)

    # Bloom prune is FP-safe end-to-end: revenue strictly positive and
    # three return flags present on the fixture
    assert set(fast_bj.l_returnflag) == {"A", "N", "R"}
    assert (fast_bj.revenue > 0).all()


def test_round4_wave38_tiers_agree(ray_session, monkeypatch):
    """kmv_distinct_userdays (driver fold vs fold tasks of the
    keep-k-smallest KMV merge)."""
    import biobloom_ray.pipelines.analytics as A
    import biobloom_ray.sketches.fold as F

    sf = "/root/testdata/sf0.01"
    fast_kmv = A.kmv_distinct_userdays(sf)

    monkeypatch.setattr(F, "DRIVER_FOLD_MAX_BYTES", 0)
    slow_kmv = A.kmv_distinct_userdays(sf)[list(fast_kmv.columns)]
    assert len(fast_kmv) > 0 and fast_kmv.equals(slow_kmv)

    # KMV is in the estimator regime on the fixture and within 5
    # sigma of the exact distinct count (rel std = 1/sqrt(k-2))
    ev = pd.read_parquet(f"{sf}/events.parquet",
                         columns=["event_type", "user_id", "ts"])
    ev["day"] = (ev.ts.astype("datetime64[us]").astype(np.int64)
                 // 86_400_000_000) * 86_400
    exact = (ev.drop_duplicates(["event_type", "user_id", "day"])
             .groupby("event_type").size())
    assert (fast_kmv.n_kept == A.KMV_K).all()
    for _, r in fast_kmv.iterrows():
        tru = exact[r.event_type]
        assert abs(r.kmv_distinct_r6 - tru) / tru < 5 / np.sqrt(
            A.KMV_K - 2)


def test_round4_wave39_tiers_agree(ray_session, monkeypatch):
    """kmv_type_jaccard (driver fold vs fold tasks of the bottom-k
    sets)."""
    import biobloom_ray.pipelines.analytics as A
    import biobloom_ray.sketches.fold as F

    sf = "/root/testdata/sf0.01"
    fast_j = A.kmv_type_jaccard(sf)

    monkeypatch.setattr(F, "DRIVER_FOLD_MAX_BYTES", 0)
    slow_j = A.kmv_type_jaccard(sf)[list(fast_j.columns)]
    assert len(fast_j) == 10 and fast_j.equals(slow_j)

    # KMV Jaccard estimate within a loose absolute band of the exact
    # Jaccard of the (user, day) sets (k=64 => std ~ sqrt(J(1-J)/64))
    ev = pd.read_parquet(f"{sf}/events.parquet",
                         columns=["event_type", "user_id", "ts"])
    ev["day"] = (ev.ts.astype("datetime64[us]").astype(np.int64)
                 // 86_400_000_000) * 86_400
    sets = {t: set(map(tuple, g[["user_id", "day"]].to_numpy()))
            for t, g in ev.groupby("event_type")}
    for _, r in fast_j.iterrows():
        a, b = sets[r.type_a], sets[r.type_b]
        true_j = len(a & b) / len(a | b)
        assert abs(r.jaccard_r6 - true_j) < 5 * np.sqrt(
            max(true_j * (1 - true_j), 0.01) / A.KMV_K)


def test_round4_wave40_tiers_agree(ray_session, monkeypatch):
    """lang_bigram_jsd (driver pivot vs native lang-column Sum groupby
    + per-block pair-term folds)."""
    import biobloom_ray.pipelines.analytics as A

    sf = "/root/testdata/sf0.01"
    fast_j = A.lang_bigram_jsd(sf)

    monkeypatch.setattr(A, "BIGRAM_DRIVER_MAX_ROWS", 0)
    slow_j = A.lang_bigram_jsd(sf)[list(fast_j.columns)]
    # integer anchors must agree exactly; the float JSD column agrees
    # to the 6-dp contract (partial-fold order differs across tiers)
    assert fast_j[["lang_a", "lang_b", "n_union", "n_common"]].equals(
        slow_j[["lang_a", "lang_b", "n_union", "n_common"]])
    assert (np.abs(fast_j.jsd_r6 - slow_j.jsd_r6) <= 1e-6).all()

    # JSD is a metric-like divergence: bounded by ln 2, and the
    # self-divergence of identical distributions would be 0 — every
    # cross-lang pair here must be strictly positive
    assert ((fast_j.jsd_r6 > 0) & (fast_j.jsd_r6 <= np.log(2) + 1e-9)
            ).all()


def test_round4_wave45_tiers_agree(ray_session, monkeypatch):
    """type_user_overlap_exact (driver pivot vs dedup + basket
    map_groups) — plus the KMV cross-check: the exact Jaccard matrix
    must sit within the sketch estimate's 5-sigma band pair by
    pair."""
    import biobloom_ray.pipelines.analytics as A

    sf = "/root/testdata/sf0.01"
    fast_ov = A.type_user_overlap_exact(sf)

    monkeypatch.setattr(A, "EVENTS_DRIVER_MAX_ROWS", 0)
    slow_ov = A.type_user_overlap_exact(sf)[list(fast_ov.columns)]
    assert len(fast_ov) == 10 and fast_ov.equals(slow_ov)

    # the exact overlap sits inside the KMV estimate's 5-sigma band
    est = A.kmv_type_jaccard(sf)
    j = fast_ov.merge(est, on=["type_a", "type_b"])
    assert len(j) == 10
    sig = np.sqrt(np.maximum(j.jaccard_r6_x * (1 - j.jaccard_r6_x),
                             0.01) / A.KMV_K)
    assert (np.abs(j.jaccard_r6_x - j.jaccard_r6_y) < 5 * sig).all()


def test_round4_wave51_tiers_agree(ray_session, monkeypatch):
    """token_len_histogram + vocab_growth_by_docs (driver combine vs
    native rollup / hash-join paths)."""
    import biobloom_ray.pipelines.analytics as A

    sf = "/root/testdata/sf0.01"
    fast_tl = A.token_len_histogram(sf)
    fast_vg = A.vocab_growth_by_docs(sf)

    monkeypatch.setattr(A, "COUNT_TABLE_DRIVER_MAX_ROWS", 0)
    slow_tl = A.token_len_histogram(sf)[list(fast_tl.columns)]
    slow_vg = A.vocab_growth_by_docs(sf)[list(fast_vg.columns)]
    assert len(fast_tl) > 0 and fast_tl.equals(slow_tl)
    assert len(fast_vg) > 0 and fast_vg.equals(slow_vg)

    # token length counts cover every token exactly once
    docs = pd.read_parquet(f"{sf}/documents.parquet",
                           columns=["text"])
    n_tok = docs.text.str.split().str.len().sum()
    assert fast_tl.n.sum() == n_tok
    # Heaps curve ends at the exact distinct-token count
    vocab = set()
    for t in docs.text:
        vocab.update(t.split())
    assert fast_vg.n_cum.iloc[-1] == len(vocab)
    assert (fast_vg.n_cum == fast_vg.n_new.cumsum()).all()


def test_round4_wave57_tiers_agree(ray_session, monkeypatch):
    """incremental_dedup_report: driver tier vs native rollup cluster
    tier, plus the report's invariants."""
    import biobloom_ray.pipelines.analytics as A

    sf = "/root/testdata/sf0.01"
    fast_in = A.incremental_dedup_report(sf)

    monkeypatch.setattr(A, "COUNT_TABLE_DRIVER_MAX_ROWS", 0)
    slow_in = A.incremental_dedup_report(sf)[list(fast_in.columns)]
    assert len(fast_in) > 0 and fast_in.equals(slow_in)

    # incremental report: day-2 classes partition the odd-id docs and
    # the fixture exercises all three classes
    docs = pd.read_parquet(f"{sf}/documents.parquet",
                           columns=["doc_id", "lang", "text"])
    odd = docs[docs.doc_id % 2 == 1]
    assert fast_in.n_day2.sum() == len(odd)
    assert (fast_in.n_day2 == fast_in.n_dup_day1 + fast_in.n_dup_within
            + fast_in.n_new).all()
    assert fast_in.n_dup_day1.sum() > 0 and fast_in.n_new.sum() > 0
    # cross-check dup_day1 directly: odd docs whose 64-char prefix
    # appears among even docs
    even_pref = set(docs.text[docs.doc_id % 2 == 0].str[:64])
    assert (fast_in.n_dup_day1.sum()
            == odd.text.str[:64].isin(even_pref).sum())


def test_round4_wave59_tiers_agree(ray_session, monkeypatch):
    """vocab_coverage_topp tier parity and invariants;
    bloom_fpr_report's binomial twin (observed FPR agrees with the
    occupancy-derived FPR and respects the configured bound — the
    BASELINE acceptance metric)."""
    import biobloom_ray.pipelines.analytics as A

    sf = "/root/testdata/sf0.01"
    fast_vc = A.vocab_coverage_topp(sf)
    rep = A.bloom_fpr_report(sf, n_probes=100_000)

    monkeypatch.setattr(A, "COUNT_TABLE_DRIVER_MAX_ROWS", 0)
    slow_vc = A.vocab_coverage_topp(sf)[list(fast_vc.columns)]
    assert len(fast_vc) == 5 and fast_vc.equals(slow_vc)

    # coverage: direct recomputation for one language
    docs = pd.read_parquet(f"{sf}/documents.parquet",
                           columns=["lang", "text"])
    en = docs[docs.lang == "en"]
    cnt = pd.Series(np.concatenate(
        en.text.str.findall(r"\S+").to_numpy())).value_counts()
    tot = int(cnt.sum())
    cum = cnt.sort_values(ascending=False).cumsum().to_numpy()
    thr = -(-90 * tot // 100)
    want = int(np.argmax(cum >= thr)) + 1
    row = fast_vc.set_index("lang").loc["en"]
    assert (row.n_vocab, row.total_tokens, row.n_cover) \
        == (len(cnt), tot, want)
    assert (fast_vc.n_cover <= fast_vc.n_vocab).all()

    # bloom FPR: observed within 5-sigma binomial of the
    # occupancy-derived rate, and within the configured bound plus
    # the same noise allowance (the bank is oversized on the tiny
    # fixture so both hold with huge margin)
    for r in rep.itertuples():
        p = r.occupancy_fpr_r6
        sig = np.sqrt(max(p * (1 - p), 1e-12) / r.n_probes)
        obs = r.n_hits / r.n_probes
        assert obs <= max(p + 5 * sig, 10 / r.n_probes)
        assert obs <= r.configured_fpr + 5 * sig + 10 / r.n_probes
    assert (rep.n_probes == 100_000).all()


def test_round4_wave61_tiers_agree(ray_session, monkeypatch):
    """dup_cluster_representatives: tier parity plus direct
    invariants."""
    import biobloom_ray.pipelines.analytics as A

    sf = "/root/testdata/sf0.01"
    fast_rep = A.dup_cluster_representatives(sf)

    monkeypatch.setattr(A, "DUPC_DRIVER_MAX_ROWS", 0)
    slow_rep = A.dup_cluster_representatives(sf)[
        list(fast_rep.columns)]
    assert len(fast_rep) > 0 and fast_rep.equals(slow_rep)

    # representatives: one per cluster; each rep is the longest (tie:
    # smallest id) member of its cluster per a direct recomputation
    clusters = A.dup_clusters(sf)
    docs = pd.read_parquet(f"{sf}/documents.parquet",
                           columns=["doc_id", "n_chars"])
    m = clusters.merge(docs, on="doc_id")
    want = (m.sort_values(["cluster_id", "n_chars", "doc_id"],
                          ascending=[True, False, True])
            .groupby("cluster_id").head(1))
    assert len(fast_rep) == clusters.cluster_id.nunique()
    w = want.set_index("cluster_id")
    g = fast_rep.set_index("cluster_id")
    assert (g.rep_doc == w.doc_id).all()
    assert (g.rep_n_chars == w.n_chars).all()
    assert (g.cluster_size == w.cluster_size).all()


def test_round4_wave65_reports(ray_session):
    """neardup_calibration_report consistency with its two source
    pipelines; hll_error_sweep within 3x the published bound at every
    precision and exact twin correct."""
    import biobloom_ray.pipelines.analytics as A

    sf = "/root/testdata/sf0.01"
    rep = A.neardup_calibration_report(sf)
    r = rep.iloc[0]
    assert r.n_hit <= min(r.n_candidates, r.n_true_pairs)
    assert 0 <= r.precision_r6 <= 1 and 0 <= r.recall_r6 <= 1
    # ground-truth side must agree with the oracled pipeline's count
    from biobloom_ray.stages.dedup import ngram_jaccard_pairs
    import biobloom_ray.io as io

    docs = io.read_parquet(f"{sf}/documents.parquet",
                           columns=["doc_id", "text"])
    truth = ngram_jaccard_pairs(docs, threshold=0.5)
    if not isinstance(truth, pd.DataFrame):
        truth = truth.to_pandas()
    assert r.n_true_pairs == len(truth)

    sweep = A.hll_error_sweep(sf)
    docs_pd = pd.read_parquet(f"{sf}/documents.parquet",
                              columns=["text"])
    vocab = set()
    for t in docs_pd.text:
        vocab.update(t.split())
    assert (sweep.exact == len(vocab)).all()
    assert (sweep.rel_err_r6.abs() <= 3 * sweep.bound_r6).all()
    # the bound column is the published 1.04/sqrt(m)
    assert np.allclose(sweep.bound_r6,
                       np.round(1.04 / np.sqrt(2.0 ** sweep.p), 6))


def test_round4_wave66_sketch_calibration(ray_session):
    """cms_error_sweep: no underestimates, max overcount within the
    published eps*N at every width, monotone improvement with width;
    quantile_sketch_calibration: rank error <= 3% (KLL k=200) and
    <= 5% (t-digest) at every q, exact column matches a direct
    PERCENTILE_DISC recomputation."""
    import biobloom_ray.pipelines.analytics as A

    sf = "/root/testdata/sf0.01"
    sw = A.cms_error_sweep(sf)
    assert (sw.n_underestimates == 0).all()
    assert (sw.max_overcount <= sw.eps_n_bound_r6).all()
    mo = sw.sort_values("width").max_overcount.to_numpy()
    assert (np.diff(mo) <= 0).all()

    cal = A.quantile_sketch_calibration(sf)
    assert (cal.kll_rank_err_r6 <= 0.03).all()
    assert (cal.tdigest_rank_err_r6 <= 0.05).all()
    nch = np.sort(pd.read_parquet(
        f"{sf}/documents.parquet", columns=["n_chars"])
        .n_chars.to_numpy(np.int64))
    n = len(nch)
    for r in cal.itertuples():
        target = -(-int(r.q * 1000) * n // 1000)
        assert r.exact == nch[target - 1]
