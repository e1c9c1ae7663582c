"""Property tests (hypothesis) for the round-4 wave kernels: each
pipeline runs at its driver tier over a generated tmp-parquet fixture
and is checked against an independent brute-force implementation."""

import os
import tempfile

import numpy as np
import pandas as pd
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st


@settings(max_examples=10, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(st.lists(st.integers(0, 30), min_size=1, max_size=400),
       st.integers(4, 64))
def test_misra_gries_properties(keys, capacity):
    """MG never over-counts; under-count is within N/(capacity+1);
    exact when capacity >= distinct."""
    from biobloom_ray.sketches.misra_gries import MisraGries

    arr = np.asarray(keys, dtype=np.uint64)
    m = MisraGries(capacity=capacity)
    for chunk in np.array_split(arr, 3):
        if len(chunk):
            m.update(chunk)
    uniq, cnt = np.unique(arr, return_counts=True)
    est = m.query(uniq)
    assert (est <= cnt).all()
    assert (cnt - est <= m.error_bound()).all()
    if capacity >= len(uniq):
        assert (est == cnt).all()


def test_wave_ops_empty_inputs(ray_session):
    """Empty tables produce empty/zero results, not crashes (the
    ADVICE-r3 empty-input class, applied to the round-4 waves)."""
    import biobloom_ray.pipelines.analytics as A

    with tempfile.TemporaryDirectory() as td:
        pd.DataFrame({"event_id": pd.Series([], dtype=np.int64),
                      "user_id": pd.Series([], dtype=np.int64),
                      "event_type": pd.Series([], dtype=str),
                      "props": pd.Series([], dtype=str),
                      "ts": pd.Series([], dtype="datetime64[us]"),
                      "value": pd.Series([], dtype=np.float64)}
                     ).to_parquet(os.path.join(td, "events.parquet"))
        pd.DataFrame({"doc_id": pd.Series([], dtype=np.int64),
                      "lang": pd.Series([], dtype=str),
                      "source": pd.Series([], dtype=str),
                      "text": pd.Series([], dtype=str),
                      "n_chars": pd.Series([], dtype=np.int64)}
                     ).to_parquet(os.path.join(td, "documents.parquet"))

        # round-5 yield family: zero-row corpus -> zero funnel
        f = A.curation_funnel(td)
        assert list(f.stage) == ["raw", "quality_gate", "exact_dedup",
                                 "decontaminated"]
        assert (f.n_docs == 0).all() and (f.n_tokens == 0).all()
        assert len(A.curation_funnel_by_source(td)) == 0
        c = A.clean_corpus(td)
        assert len(c) == 0 and list(c.columns) == ["doc_id", "lang",
                                                   "n_tokens"]
        d = A.decontaminate(td)
        assert len(d) == 0 and list(d.columns) == [
            "doc_id", "n_trigrams", "n_contam", "contaminated"]
        assert len(A.contamination_topk(td)) == 0
        assert len(A.dup_group_size_histogram(td)) == 0
        # sketch folds over zero partials: zero estimates, typed frames
        so = A.sketch_setops_report(td)
        assert len(so) == 1 and (so.iloc[0] == 0).all()
        h = A.hll_distinct_shingles_per_lang(td)
        assert len(h) == 0 and list(h.columns) == ["lang",
                                                   "distinct_shingles_est"]


# ---- continuation-session (waves 36-56) kernel properties ----------------


@settings(max_examples=25, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(st.lists(st.integers(0, 2**50), min_size=0, max_size=60),
       st.integers(2, 3))
def test_kmv_merge_associativity(hashes, n_parts):
    """keep-k-smallest-of-union is associative and split-invariant:
    folding any partition of the hash stream through k-truncated
    partials equals the bottom-k of the whole (the property
    kmv_distinct_userdays' tiers rely on)."""
    k = 8
    h = np.asarray(hashes, np.uint64)
    whole = np.unique(h)[:k]
    # random-ish deterministic split by value
    parts = [np.unique(h[h % np.uint64(n_parts) == np.uint64(i)])[:k]
             for i in range(n_parts)]
    merged = np.unique(np.concatenate(parts))[:k] if parts else whole
    assert (merged == whole).all()


@settings(max_examples=10, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(st.lists(st.integers(1, 10**6), min_size=1, max_size=40),
       st.integers(1, 5000))
def test_hamilton_apportionment_properties(counts, budget):
    """Largest-remainder allocation: seats sum to the budget, each
    source gets floor-quota or floor-quota+1, and allocation respects
    the quota ordering (a source with a strictly larger remainder
    never gets fewer extra seats; ties resolve by source order)."""
    n = np.asarray(counts, np.int64)
    N = int(n.sum())
    B = budget
    quota = (B * n) // N
    rem = (B * n) % N
    leftover = int(B - quota.sum())
    order = np.lexsort((np.arange(len(n)), -rem))
    extra = np.zeros(len(n), np.int64)
    extra[order[:leftover]] = 1
    alloc = quota + extra
    assert alloc.sum() == B
    assert ((alloc - quota) >= 0).all() and ((alloc - quota) <= 1).all()
    # remainder dominance: if rem[i] > rem[j] and j got an extra seat,
    # then i must have one too
    for i in range(len(n)):
        for j in range(len(n)):
            if rem[i] > rem[j] and extra[j] == 1:
                assert extra[i] == 1


@settings(max_examples=10, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(st.lists(st.tuples(st.integers(1, 50), st.integers(1, 10**6)),
                min_size=1, max_size=200))
def test_weighted_median_kernel_vs_expansion(pairs):
    """The count-table weighted-median walk equals the median of the
    weight-expanded multiset (lower-median convention)."""
    df = (pd.DataFrame(pairs, columns=["qty", "w"])
          .groupby("qty", as_index=False).w.sum()
          .sort_values("qty"))
    w = df.w.to_numpy(np.int64)
    q = df.qty.to_numpy(np.int64)
    cw = np.cumsum(w)
    tot = int(cw[-1])
    pick = int(q[np.argmax(2 * cw >= tot)])
    # brute force: expand (bounded by strategy sizes via repeats of
    # the DISTINCT values, using integer arithmetic on ranks instead
    # of a literal expansion when weights are large)
    below = int(w[q < pick].sum())
    upto = int(w[q <= pick].sum())
    assert 2 * below < tot <= 2 * upto
    smaller = q[q < pick]
    if len(smaller):
        p2 = int(smaller.max())
        assert 2 * int(w[q <= p2].sum()) < tot


def test_wave57plus_ops_empty_inputs(ray_session):
    """Empty tables produce empty results, not crashes, for the wave
    57-67 operators (the ADVICE-r3 empty-input class)."""
    import biobloom_ray.pipelines.analytics as A

    with tempfile.TemporaryDirectory() as td:
        pd.DataFrame({"event_id": pd.Series([], dtype=np.int64),
                      "user_id": pd.Series([], dtype=np.int64),
                      "event_type": pd.Series([], dtype=str),
                      "props": pd.Series([], dtype=str),
                      "ts": pd.Series([], dtype="datetime64[us]"),
                      "value": pd.Series([], dtype=np.float64)}
                     ).to_parquet(os.path.join(td, "events.parquet"))
        pd.DataFrame({"doc_id": pd.Series([], dtype=np.int64),
                      "lang": pd.Series([], dtype=str),
                      "source": pd.Series([], dtype=str),
                      "text": pd.Series([], dtype=str),
                      "n_chars": pd.Series([], dtype=np.int64)}
                     ).to_parquet(os.path.join(td, "documents.parquet"))

        assert len(A.incremental_dedup_report(td)) == 0
        assert len(A.vocab_coverage_topp(td)) == 0
        assert _partition_metrics_match_sql(td) == [0, 0]
        # the sketch queries folded by fold_partials: an empty fold is
        # a 0-row frame with the usual columns and dtypes
        i64, f64, obj = "int64", "float64", "object"
        for fn, cols in {
                A.cms_heavy_hitters: {"token": obj, "est_cnt": i64},
                A.mg_heavy_tokens: {"token": obj, "est_cnt": i64},
                A.kll_nchars_quantiles: {"q": f64, "n_chars_est": f64},
                A.lang_nchars_tdigest: {"lang": obj, "p50_est": f64,
                                        "p90_est": f64},
                A.hll_weekly_union: {"event_type": obj, "n_weeks": i64,
                                     "est_distinct_users": i64},
                A.quantile_sketch_calibration: {
                    "q": f64, "exact": i64, "kll_est_r6": f64,
                    "tdigest_est_r6": f64, "kll_rank_err_r6": f64,
                    "tdigest_rank_err_r6": f64},
                A.kmv_distinct_userdays: {
                    "event_type": obj, "n_kept": i64, "kth_hash": i64,
                    "kmv_distinct_r6": f64},
                A.kmv_type_jaccard: {
                    "type_a": obj, "type_b": obj, "n_union_kept": i64,
                    "n_matches": i64, "jaccard_r6": f64}}.items():
            got = fn(td)
            assert len(got) == 0, fn.__name__
            assert got.dtypes.astype(str).to_dict() == cols, fn.__name__


def _partition_metrics_match_sql(sf_dir: str) -> list[int]:
    """``curation_partition_metrics`` on ``sf_dir`` equals its oracle
    SQL; returns the engine's rows_in per partition."""
    import duckdb

    import biobloom_ray.pipelines.analytics as A
    from __ray_entry__ import oracle_sql

    got = A.curation_partition_metrics(sf_dir)
    con = duckdb.connect()
    # an empty pandas string column lands in parquet as type null
    con.sql("CREATE VIEW documents AS SELECT * REPLACE "
            "(CAST(text AS VARCHAR) AS text) FROM "
            f"'{os.path.join(sf_dir, 'documents.parquet')}'")
    want = con.sql(oracle_sql()["curation_partition_metrics"]).df()
    assert got.columns.tolist() == want.columns.tolist()
    assert got.astype(np.int64).equals(want.astype(np.int64))
    return got.rows_in.tolist()


def test_curation_partition_metrics_one_doc(ray_session):
    """One doc: the runner writes an empty first fragment and a one-doc
    second one, and the SQL twin reports both partitions."""
    with tempfile.TemporaryDirectory() as td:
        pd.DataFrame({"doc_id": np.array([7], dtype=np.int64),
                      "lang": ["en"], "source": ["web"],
                      "text": ["a plain english sentence"],
                      "n_chars": np.array([24], dtype=np.int64)}
                     ).to_parquet(os.path.join(td, "documents.parquet"))
        assert _partition_metrics_match_sql(td) == [0, 1]


@settings(max_examples=15, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(st.lists(st.integers(1, 10**5), min_size=1, max_size=200),
       st.integers(1, 99))
def test_nucleus_coverage_counts_of_counts_vs_expansion(counts, pct):
    """The counts-of-counts crossing walk (vocab_coverage_topp kernel)
    equals the brute-force minimal prefix over the expanded sorted
    count vector."""
    cnt = np.sort(np.asarray(counts, np.int64))[::-1]
    tot = int(cnt.sum())
    thr = -(-pct * tot // 100)
    cum = np.cumsum(cnt)
    want = int(np.argmax(cum >= thr)) + 1
    # counts-of-counts walk
    vals, k = np.unique(cnt, return_counts=True)
    vals, k = vals[::-1], k[::-1]
    mass = vals * k
    cmass = np.cumsum(mass)
    j = int(np.argmax(cmass >= thr))
    before = int(cmass[j - 1]) if j else 0
    need = thr - before
    got = int(k[:j].sum()) + int(-(-need // vals[j]))
    assert got == want


@settings(max_examples=15, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(st.lists(st.tuples(st.integers(0, 200),    # doc_id
                          st.integers(0, 6)),     # prefix-class
                min_size=1, max_size=80, unique_by=lambda t: t[0]))
def test_incremental_classify_invariants(docs):
    """The incremental-dedup classification (day-1 = even ids) is a
    partition of day-2 docs and matches a brute-force rule."""
    ids = np.array([d for d, _ in docs], np.int64)
    fp = np.array([c for _, c in docs], np.int64)
    odd = ids % 2 == 1
    SENT = np.int64(2**62)
    rows = pd.DataFrame({"fp": fp, "has1": (~odd).astype(np.int64),
                         "modd": np.where(odd, ids, SENT)})
    r = (rows.groupby("fp").agg(has1=("has1", "max"),
                                modd=("modd", "min")))
    cls = []
    for i, f in zip(ids[odd], fp[odd]):
        if r.has1[f] > 0:
            cls.append(0)
        elif i > r.modd[f]:
            cls.append(1)
        else:
            cls.append(2)
    cls = np.array(cls, np.int64)
    # brute force
    even_fps = set(fp[~odd])
    for i, f, c in zip(ids[odd], fp[odd], cls):
        if f in even_fps:
            assert c == 0
        else:
            first_odd = ids[odd & (fp == f)].min()
            assert c == (2 if i == first_odd else 1)
    # exactly one "new" per fp among odd-only fps
    for f in set(fp[odd]) - even_fps:
        assert (cls[fp[odd] == f] == 2).sum() == 1
