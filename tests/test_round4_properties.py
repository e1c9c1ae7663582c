"""Property tests (hypothesis) for the round-4 wave kernels: each
pipeline runs at its driver tier over a generated tmp-parquet fixture
and is checked against an independent brute-force implementation."""

import os
import tempfile

import numpy as np
import pandas as pd
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st


def _levenshtein(a: str, b: str) -> int:
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1,
                           prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


@settings(max_examples=8, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(st.lists(st.tuples(st.integers(1, 4),          # user
                          st.integers(0, 5000)),      # minute offset
                min_size=1, max_size=60))
def test_sweepline_matches_bruteforce(ray_session, events):
    """max_concurrent_sessions == brute-force sweep over the session
    intervals derived independently here."""
    import biobloom_ray.pipelines.analytics as A

    base = pd.Timestamp("2026-01-01")
    df = pd.DataFrame({
        "event_id": range(len(events)),
        "user_id": [u for u, _ in events],
        "ts": [base + pd.Timedelta(minutes=m) for _, m in events]})
    with tempfile.TemporaryDirectory() as td:
        df.to_parquet(os.path.join(td, "events.parquet"))
        got = A.max_concurrent_sessions(td).iloc[0]
    # brute force: per-user sessions at 30-min gap, then scan minutes
    ivs = []
    for u, g in df.groupby("user_id"):
        ts = np.sort(g.ts.values.astype("datetime64[m]").astype(int))
        start = ts[0]
        prev = ts[0]
        for t in ts[1:]:
            if t - prev > 30:
                ivs.append((start, prev))
                start = t
            prev = t
        ivs.append((start, prev))
    assert got.n_sessions == len(ivs)
    # closed intervals; concurrency at every boundary point
    points = sorted({p for iv in ivs for p in iv})
    best = max(sum(1 for s, e in ivs if s <= p <= e) for p in points)
    assert got.max_concurrent == best


@settings(max_examples=8, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(st.lists(st.text(alphabet="abc", min_size=1, max_size=5),
                min_size=1, max_size=25))
def test_typo_blocking_matches_bruteforce(ray_session, words):
    """FastSS deletion blocking returns EXACTLY the all-pairs
    levenshtein==1 set on arbitrary short words."""
    import biobloom_ray.pipelines.analytics as A

    df = pd.DataFrame({"c_name": [" ".join(words)]})
    with tempfile.TemporaryDirectory() as td:
        df.to_parquet(os.path.join(td, "customer.parquet"))
        got = A.name_typo_pairs(td)
    vocab = sorted(set(words))
    want = sorted((a, b) for i, a in enumerate(vocab)
                  for b in vocab[i + 1:] if _levenshtein(a, b) == 1)
    assert list(map(tuple, got.to_numpy())) == want


@settings(max_examples=8, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(st.lists(st.integers(1, 500), min_size=2, max_size=80))
def test_gini_matches_direct(ray_session, lens):
    """Count-table Gini == the direct sorted-array formula."""
    import biobloom_ray.pipelines.analytics as A

    df = pd.DataFrame({"lang": "xx", "n_chars": lens,
                       "doc_id": range(len(lens)),
                       "text": "", "source": "s"})
    with tempfile.TemporaryDirectory() as td:
        df.to_parquet(os.path.join(td, "documents.parquet"))
        got = A.doc_length_gini(td)
    x = np.sort(np.asarray(lens, dtype=np.int64))
    n = len(x)
    i = np.arange(1, n + 1, dtype=np.int64)
    direct = (2 * int(np.dot(i, x)) - (n + 1) * int(x.sum())) \
        / float(n * int(x.sum()))
    assert got.iloc[0].n == n
    assert got.iloc[0].gini_r6 == np.round(direct, 6)


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
        pd.DataFrame({"c_name": pd.Series([], dtype=str)}
                     ).to_parquet(os.path.join(td, "customer.parquet"))

        m = A.max_concurrent_sessions(td)
        assert m.iloc[0].max_concurrent == 0 and m.iloc[0].n_sessions == 0
        assert len(A.doc_length_gini(td)) == 0
        assert len(A.name_typo_pairs(td)) == 0
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
@given(st.lists(st.tuples(st.integers(0, 50),   # price (small domain
                          st.integers(1, 8)),   # forces ties), size
                min_size=1, max_size=60))
def test_skyline_kernel_vs_brute_force(pts):
    """part_skyline's sort/runmax kernel == O(n²) domination check,
    including duplicate (price, size) pairs and ties on either axis;
    and skyline-of-skylines over a random split equals the whole."""
    cents = np.asarray([p[0] for p in pts], np.int64)
    size = np.asarray([p[1] for p in pts], np.int64)
    # the pipeline's kernel, verbatim (sort + per-price max + strict
    # running max), vs the O(n^2) domination definition
    order = np.lexsort((-size, cents))
    c, s = cents[order], size[order]
    first = np.r_[True, c[1:] != c[:-1]]
    pc_, ps = c[first], s[first]
    run = np.maximum.accumulate(ps)
    keep_lvl = np.r_[True, ps[1:] > run[:-1]]
    lv = set(zip(pc_[keep_lvl].tolist(), ps[keep_lvl].tolist()))
    kernel_mask = np.asarray([(a, b) in lv for a, b in
                              zip(cents.tolist(), size.tolist())])
    brute = np.ones(len(pts), dtype=bool)
    for i in range(len(pts)):
        for j in range(len(pts)):
            if ((cents[j] < cents[i] and size[j] >= size[i])
                    or (cents[j] <= cents[i] and size[j] > size[i])):
                brute[i] = False
                break
    assert (kernel_mask == brute).all()


@settings(max_examples=25, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(st.lists(st.integers(0, 30), min_size=1, max_size=50),
       st.lists(st.integers(0, 30), min_size=1, max_size=50))
def test_ks_integer_supremum_vs_direct(a, b):
    """value_ks_matrix's cross-multiplied integer supremum equals the
    direct empirical-CDF D statistic."""
    a = np.sort(np.asarray(a, np.int64))
    b = np.sort(np.asarray(b, np.int64))
    grid = np.union1d(a, b)
    na, nb = len(a), len(b)
    ca = np.searchsorted(a, grid, side="right")
    cb = np.searchsorted(b, grid, side="right")
    num = int(np.abs(nb * ca - na * cb).max())
    d_direct = np.abs(ca / na - cb / nb).max()
    assert abs(num / (na * nb) - d_direct) < 1e-12


@settings(max_examples=25, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=40))
def test_haar_pyramid_reconstructs(series):
    """daily_revenue_haar's unnormalized coefficients are invertible:
    the inverse transform recovers the padded series exactly (integer
    arithmetic end to end)."""
    r = np.asarray(series, np.int64)
    slots = 1 << (len(r) - 1).bit_length() if len(r) > 1 else 1
    x = np.zeros(slots, np.int64)
    x[:len(r)] = r
    o = np.arange(slots, dtype=np.int64)
    levels = slots.bit_length() - 1
    coeffs = {}
    for lev in range(1, levels + 1):
        sign = 1 - 2 * ((o >> (lev - 1)) & 1)
        coef = np.zeros(slots >> lev, dtype=np.int64)
        np.add.at(coef, o >> lev, sign * x)
        coeffs[lev] = coef
    approx = np.asarray([x.sum()], np.int64)
    # inverse: start from the top approximation, at each level split
    # a = (s + d) / 2, b = (s - d) / 2
    cur = approx
    for lev in range(levels, 0, -1):
        d = coeffs[lev]
        nxt = np.empty(len(cur) * 2, np.int64)
        s_plus = cur + d
        s_minus = cur - d
        assert (s_plus % 2 == 0).all() and (s_minus % 2 == 0).all()
        nxt[0::2] = s_plus // 2
        nxt[1::2] = s_minus // 2
        cur = nxt
    assert (cur == x).all()


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


@settings(max_examples=25, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(st.lists(st.integers(-5, 5), min_size=0, max_size=60))
def test_up_run_kernel_vs_loop(diffs):
    """revenue_up_run_lengths' island walk == the sequential loop."""
    up = np.asarray(diffs, np.int64) > 0
    changes = np.nonzero(np.diff(np.r_[False, up, False]))[0]
    starts, ends = changes[::2], changes[1::2]
    lens = ends - starts
    best = cur = runs = 0
    prev = False
    for u in up:
        cur = cur + 1 if u else 0
        best = max(best, cur)
        if u and not prev:
            runs += 1
        prev = bool(u)
    assert (int(lens.max()) if len(lens) else 0) == best
    assert len(lens) == runs


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
        pd.DataFrame({"o_orderkey": pd.Series([], dtype=np.int64),
                      "o_custkey": pd.Series([], dtype=np.int64),
                      "o_orderstatus": pd.Series([], dtype=str),
                      "o_totalprice": pd.Series([], dtype=np.float64),
                      "o_orderdate": pd.Series([],
                                               dtype="datetime64[us]"),
                      "o_orderpriority": pd.Series([], dtype=str)}
                     ).to_parquet(os.path.join(td, "orders.parquet"))
        pd.DataFrame({"l_orderkey": pd.Series([], dtype=np.int64),
                      "l_partkey": pd.Series([], dtype=np.int64),
                      "l_suppkey": pd.Series([], dtype=np.int64),
                      "l_quantity": pd.Series([], dtype=np.float64),
                      "l_extendedprice": pd.Series([],
                                                   dtype=np.float64),
                      "l_discount": pd.Series([], dtype=np.float64),
                      "l_returnflag": pd.Series([], dtype=str),
                      "l_shipdate": pd.Series([],
                                              dtype="datetime64[us]")}
                     ).to_parquet(os.path.join(td, "lineitem.parquet"))

        assert len(A.sample_budget_allocation(td)) == 0
        assert len(A.order_size_distribution(td)) == 0
        assert len(A.session_bounce_rate(td)) == 0
        assert len(A.user_tenure_distribution(td)) == 0
        assert len(A.incremental_dedup_report(td)) == 0
        assert len(A.lang_temperature_mix(td)) == 0
        assert len(A.vocab_coverage_topp(td)) == 0
        assert len(A.quality_gate_sweep(td)) == 0
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


@settings(max_examples=10, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(st.lists(st.tuples(st.integers(1, 3),        # user
                          st.integers(0, 10**5),    # second offset
                          st.integers(0, 2)),       # type
                min_size=1, max_size=60))
def test_bounce_fold_vs_sequential(events):
    """The vectorized session fold (session_bounce_rate kernel) equals
    a sequential per-user session walk."""
    types = np.array(["x", "y", "z"], dtype=object)
    df = pd.DataFrame({
        "user_id": [u for u, _, _ in events],
        "ts_ns": [t * 10**9 for _, t, _ in events],
        "event_id": range(len(events)),
        "event_type": types[[k for _, _, k in events]]})
    df = df.sort_values(["user_id", "ts_ns", "event_id"])
    uid = df.user_id.to_numpy()
    ts = df.ts_ns.to_numpy(np.int64)
    et = df.event_type.to_numpy(dtype=object)
    gap = 30 * 60 * 10**9
    new_s = np.ones(len(df), bool)
    new_s[1:] = (uid[1:] != uid[:-1]) | (ts[1:] - ts[:-1] > gap)
    starts = np.nonzero(new_s)[0]
    ln = np.diff(np.r_[starts, len(df)])
    vec = (pd.DataFrame({"t": et[starts], "ln": ln}).groupby("t")
           .agg(ns=("ln", "size"),
                nb=("ln", lambda s: int((s == 1).sum())),
                ne=("ln", "sum")))
    # sequential walk
    from collections import defaultdict
    ns = defaultdict(int)
    nb = defaultdict(int)
    ne = defaultdict(int)
    rows = list(df.itertuples())
    cur_entry, cur_len, prev = None, 0, None
    for r in rows:
        if (prev is None or r.user_id != prev.user_id
                or r.ts_ns - prev.ts_ns > gap):
            if cur_entry is not None:
                ns[cur_entry] += 1
                ne[cur_entry] += cur_len
                nb[cur_entry] += int(cur_len == 1)
            cur_entry, cur_len = r.event_type, 1
        else:
            cur_len += 1
        prev = r
    if cur_entry is not None:
        ns[cur_entry] += 1
        ne[cur_entry] += cur_len
        nb[cur_entry] += int(cur_len == 1)
    assert dict(vec["ns"]) == dict(ns)
    assert dict(vec["nb"]) == dict(nb)
    assert dict(vec["ne"]) == dict(ne)


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
