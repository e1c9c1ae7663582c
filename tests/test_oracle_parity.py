"""Mimics the driver's correctness gate: run each queries() entry at
sf0.01 and compare against its oracle_sql() via DuckDB — row count,
column names and order-insensitive values."""

import math

import duckdb
import numpy as np
import pandas as pd
import pytest

SF_DIR = "/root/testdata/sf0.01"
TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


@pytest.fixture(scope="module")
def entrymod(ray_session):
    import __ray_entry__ as m

    return m


def _connect(sf_dir: str):
    c = duckdb.connect()
    for t in TABLES:
        c.sql(f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'")
    return c


@pytest.fixture(scope="module")
def con():
    return _connect(SF_DIR)


def _to_pandas(res):
    import pyarrow as pa

    import ray.data

    if isinstance(res, ray.data.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df.copy()
    df = df[sorted(df.columns)]
    for c in df.columns:
        if pd.api.types.is_datetime64_any_dtype(df[c]):
            df[c] = df[c].astype("datetime64[us]")
    return df.sort_values(list(df.columns)).reset_index(drop=True)


SQL_CHECKED = [
    "lang_counts", "frame_counts", "median_nchars_by_lang", "events_hourly",
    "exact_dedup", "distinct_text_per_lang", "token_counts", "quality_scores",
    "doc_fingerprint", "heavy_tokens_topk", "ann_topk", "user_event_counts",
    "top_users_by_events", "event_type_daily",
    # round-2 additions
    "lineitem_pricing_summary", "top_parts_by_revenue", "events_sessionize",
    "paired_join", "bpe_token_counts", "ann_topk_multi", "top_docs_per_lang",
    # round-3 additions
    "deterministic_sample_hash", "minhash_dedup_kept", "ngram_jaccard_pairs",
    "token_rarity_scores", "events_sliding_window", "stratified_sample",
    "user_event_counts_salted", "spaced_seed_distinct_exact", "pack_documents",
    "repetition_stats", "decontaminate", "repeated_substrings", "pii_redact",
    "gopher_quality_flags", "remove_boilerplate_ngrams", "bigram_lm_scores",
    "chunk_documents", "tfidf_top_terms", "bigram_ppl_buckets", "dup_clusters",
    "source_stats", "source_quality_gate", "token_freq_histogram",
    "inverted_index", "bm25_topk", "source_mix_sample", "lang_centroids",
    "epoch_shuffle_head", "clean_corpus", "curation_funnel",
    "curation_funnel_by_source", "contamination_topk",
    "dup_group_size_histogram", "curation_partition_metrics", "source_overlap",
    "quality_weighted_sample", "ann_topk_filtered", "token_entropy",
    "corpus_report",
    # round-4 additions
    "epoch_shuffle_full", "ann_ivf_exact", "events_props_stats",
    "top_bigrams_per_lang", "nchars_rank_in_source",
    "jsonl_roundtrip_lang_counts", "csv_roundtrip_event_counts",
    "segment_revenue_topk", "nb_class_scores", "token_drift_topk",
    "latest_event_per_user_type", "events_hourly_anomaly", "docs_rollup_cube",
    "nchars_ntile_buckets", "region_revenue", "shard_assignment_counts",
    "partitioned_roundtrip_source_counts", "source_lang_entropy",
    "event_user_setops", "max_concurrent_sessions", "pmi_top_bigrams",
    "doc_length_gini", "cross_lang_dup_matrix", "nchars_cume_dist",
    "source_lang_chi2", "name_typo_pairs", "mg_heavy_tokens",
    "diversified_top_docs", "latest_events_per_user",
    "event_gap_quantiles", "rrf_hybrid_topk", "grouped_split_counts",
    "weighted_sample_topk", "zorder_bucket_counts", "funnel_latency_quantiles",
    "nchars_robust_outliers", "source_dup_report", "table_fingerprint",
    "term_overlap_topk", "readability_scores", "charclass_stats",
    "range_shard_bounds", "cusum_changepoints", "hour_of_day_profile",
    "join_size_exact", "byte_median_doc_size", "ngram_containment_pairs",
    "source_exclusive_tokens", "nchars_histogram_log2",
    "bloom_prune_join_revenue", "kmv_distinct_userdays", "part_skyline",
    "kmv_type_jaccard", "lang_bigram_jsd", "value_ks_matrix",
    "daily_revenue_haar", "type_user_overlap_exact", "dominant_supplier_parts",
    "parts_keyset_page", "cumulative_parts_catalog", "prefix_dup_groups",
    "token_len_histogram", "vocab_growth_by_docs", "revenue_up_run_lengths",
    "weekday_uniformity_chi2", "value_twap_by_type",
    "incremental_dedup_report", "lang_temperature_mix", "vocab_coverage_topp",
    "knn_label_accuracy", "dup_cluster_representatives",
    "sample_budget_allocation", "session_bounce_rate", "quality_gate_sweep",
    "user_tenure_distribution", "order_size_distribution",
    "curation_run_summary", "label_centroid_affinity",
    "supplier_rank_correlation",
    # round-5: the curation runner with the MinHash near-dup stage
    "curation_neardup_summary",
]

#: slots 1-7 of the registry: the namesake sketch family (no SQL
#: oracle can express them — the driver records its rows-only check;
#: value correctness is pinned by golden/bound/parity tests)
SKETCH_FAMILY_SLOTS = [
    "categorize_summary", "mibf_classify", "bloom_build_info",
    "bloom_fpr_report", "hll_error_sweep", "cms_error_sweep",
    "quantile_sketch_calibration",
]


def test_every_oracle_is_tested(entrymod):
    """The parametrized list must not silently lag oracle_sql()."""
    assert set(entrymod.oracle_sql()) == set(SQL_CHECKED)


def _assert_oracle_parity(entrymod, con, name, sf_dir):
    """Registry query ``name`` on ``sf_dir`` equals its oracle_sql()
    on ``con``: column names, row count, order-insensitive values."""
    got = _canon(_to_pandas(entrymod.queries()[name](sf_dir)))
    want = _canon(con.sql(entrymod.oracle_sql()[name]).df())
    assert list(got.columns) == list(want.columns), (got.columns, want.columns)
    assert len(got) == len(want), (len(got), len(want))
    for c in got.columns:
        g, w = got[c], want[c]
        if pd.api.types.is_float_dtype(g) or pd.api.types.is_float_dtype(w):
            assert np.allclose(g.astype(float), w.astype(float),
                               rtol=0, atol=0), f"{name}.{c}"
        else:
            assert (g.to_numpy() == w.to_numpy()).all(), f"{name}.{c}"


@pytest.mark.parametrize("name", SQL_CHECKED)
def test_sql_parity(entrymod, con, name):
    _assert_oracle_parity(entrymod, con, name, SF_DIR)


def test_one_row_tables_slots_8_50(entrymod, tmp_path):
    """Every table cut to its first row: registry slots 8-50 (all
    oracled) still equal their oracles.  Ray Data skips the UDF on an
    empty read block, so a map whose rows are all filtered out hands
    back a frame with no columns unless the query types it."""
    import pyarrow.parquet as pq

    for t in TABLES:
        pq.write_table(
            pq.read_table(f"/root/testdata/sf0.001/{t}.parquet").slice(0, 1),
            tmp_path / f"{t}.parquet")
    one = _connect(str(tmp_path))
    failed = {}
    for name in list(entrymod.queries())[7:50]:
        try:
            _assert_oracle_parity(entrymod, one, name, str(tmp_path))
        except Exception as e:  # report every failing slot
            failed[name] = f"{type(e).__name__}: {e}"[:300]
    assert failed == {}


def test_rows_only_queries_run(entrymod):
    qs = entrymod.queries()
    oracles = set(entrymod.oracle_sql())
    for name, fn in qs.items():
        if name in oracles:
            continue
        res = _to_pandas(fn(SF_DIR))
        assert res is not None
        assert len(res.columns) > 0


def test_entry_smoke(entrymod):
    out = entrymod.entry()
    df = _to_pandas(out)
    assert len(df) >= 0
    assert "filter_id" in df.columns


def test_top50_registry_slots_contract(entrymod):
    """The driver records CORRECTNESS rows for ~the first 50 registry
    entries only.  Ordering contract (the comment in queries()): slots
    1-7 are the namesake sketch family (driver rows-only check; pytest
    golden/bound oracles), slots 8-50 are all DuckDB-oracled."""
    names = list(entrymod.queries())
    oracled = set(entrymod.oracle_sql())
    assert names[:7] == SKETCH_FAMILY_SLOTS
    not_oracled = [n for n in names[7:50] if n not in oracled]
    assert not_oracled == []
    # and every oracled query is exercised by this test module
    assert set(SQL_CHECKED) == oracled


def test_bench_query_list_subset_of_registry(entrymod):
    import bench

    names = set(entrymod.queries())
    missing = [q for q in bench.QUERIES if q not in names]
    assert missing == []


def _module_gates(path) -> set[str]:
    """Top-level scale-gate constants assigned in one module file."""
    import ast
    import re

    gate = re.compile(r"^[A-Z0-9_]*_MAX_(ROWS|KEYS|BYTES|SLOTS)$"
                      r"|^BROADCAST_LIMIT$")
    return {t.id for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.Assign) for t in node.targets
            if isinstance(t, ast.Name) and gate.match(t.id)}


def test_force_cluster_gate_list():
    """``bench._force_cluster_tiers`` (read, not called) zeroes only
    gates that exist, and every scale gate in ``biobloom_ray``: a
    leftover line for a deleted gate would otherwise create a new
    module attribute, and a new gate would keep its driver tier under
    GRAFT_FORCE_CLUSTER=1."""
    import ast
    import inspect
    import pathlib

    import bench

    root = pathlib.Path(bench.__file__).resolve().parent
    fn = ast.parse(inspect.getsource(bench._force_cluster_tiers)).body[0]
    alias = {a.asname: a.name for node in fn.body
             if isinstance(node, ast.Import) for a in node.names}
    zeroed = set()
    for node in fn.body:
        if not isinstance(node, ast.Assign):
            continue
        (t,) = node.targets
        assert isinstance(node.value, ast.Constant) and node.value.value == 0
        mod = alias[t.value.id]
        path = root.joinpath(*mod.split(".")).with_suffix(".py")
        assert t.attr in _module_gates(path), f"{mod}.{t.attr}"
        zeroed.add(f"{mod}.{t.attr}")

    gates = set()
    for path in sorted((root / "biobloom_ray").rglob("*.py")):
        mod = ".".join(path.relative_to(root).with_suffix("").parts)
        gates.update(f"{mod}.{g}" for g in _module_gates(path))
    assert gates - zeroed == set()

