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
    "lang_counts", "frame_counts", "median_nchars_by_lang",
    "exact_dedup", "distinct_text_per_lang", "token_counts", "quality_scores",
    "doc_fingerprint", "heavy_tokens_topk", "ann_topk",
    # round-2 additions
    "paired_join", "bpe_token_counts", "ann_topk_multi", "top_docs_per_lang",
    # round-3 additions
    "deterministic_sample_hash", "minhash_dedup_kept", "ngram_jaccard_pairs",
    "token_rarity_scores", "stratified_sample", "user_event_counts_salted",
    "spaced_seed_distinct_exact", "pack_documents", "repetition_stats",
    "decontaminate", "repeated_substrings", "pii_redact",
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
    "epoch_shuffle_full", "ann_ivf_exact", "top_bigrams_per_lang",
    "nchars_rank_in_source", "jsonl_roundtrip_lang_counts",
    "segment_revenue_topk", "nb_class_scores", "token_drift_topk",
    "docs_rollup_cube", "nchars_ntile_buckets", "region_revenue",
    "shard_assignment_counts", "partitioned_roundtrip_source_counts",
    "source_lang_entropy", "event_user_setops", "pmi_top_bigrams",
    "doc_length_gini", "cross_lang_dup_matrix", "nchars_cume_dist",
    "source_lang_chi2", "mg_heavy_tokens", "diversified_top_docs",
    "rrf_hybrid_topk", "grouped_split_counts", "weighted_sample_topk",
    "nchars_robust_outliers", "source_dup_report", "table_fingerprint",
    "term_overlap_topk", "readability_scores", "charclass_stats",
    "join_size_exact", "byte_median_doc_size", "ngram_containment_pairs",
    "source_exclusive_tokens", "nchars_histogram_log2",
    "bloom_prune_join_revenue", "kmv_distinct_userdays", "kmv_type_jaccard",
    "lang_bigram_jsd", "type_user_overlap_exact", "prefix_dup_groups",
    "token_len_histogram", "vocab_growth_by_docs", "incremental_dedup_report",
    "lang_temperature_mix", "vocab_coverage_topp", "knn_label_accuracy",
    "dup_cluster_representatives", "sample_budget_allocation",
    "quality_gate_sweep", "curation_run_summary", "label_centroid_affinity",
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


@pytest.mark.parametrize("forced", [False, True],
                         ids=["default", "forced"])
def test_one_row_tables_slots_8_50(entrymod, tmp_path, monkeypatch,
                                   forced):
    """Every table cut to its first row: registry slots 8-50 (all
    oracled) still equal their oracles, at the default tiers and with
    every scale gate zeroed (the cluster tiers).  Ray Data skips the
    UDF on an empty read block, so a map whose rows are all filtered
    out hands back a frame with no columns unless the query types
    it."""
    import importlib

    import pyarrow.parquet as pq

    if forced:
        for mod, gate in _force_cluster_gates():
            monkeypatch.setattr(importlib.import_module(mod), gate, 0)
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


def _force_cluster_gates() -> list[tuple[str, str]]:
    """The (module, gate) pairs ``bench._force_cluster_tiers`` zeroes,
    read from its source without calling it."""
    import ast
    import inspect

    import bench

    fn = ast.parse(inspect.getsource(bench._force_cluster_tiers)).body[0]
    alias = {a.asname: a.name for node in fn.body
             if isinstance(node, ast.Import) for a in node.names}
    pairs = []
    for node in fn.body:
        if not isinstance(node, ast.Assign):
            continue
        (t,) = node.targets
        assert isinstance(node.value, ast.Constant) and node.value.value == 0
        pairs.append((alias[t.value.id], t.attr))
    return pairs


def test_force_cluster_gate_list():
    """``bench._force_cluster_tiers`` (read, not called) zeroes only
    gates that exist, and every scale gate in ``biobloom_ray``: a
    leftover line for a deleted gate would otherwise create a new
    module attribute, and a new gate would keep its driver tier under
    GRAFT_FORCE_CLUSTER=1."""
    import pathlib

    import bench

    root = pathlib.Path(bench.__file__).resolve().parent
    zeroed = set()
    for mod, gate in _force_cluster_gates():
        path = root.joinpath(*mod.split(".")).with_suffix(".py")
        assert gate in _module_gates(path), f"{mod}.{gate}"
        zeroed.add(f"{mod}.{gate}")

    gates = set()
    for path in sorted((root / "biobloom_ray").rglob("*.py")):
        mod = ".".join(path.relative_to(root).with_suffix("").parts)
        gates.update(f"{mod}.{g}" for g in _module_gates(path))
    assert gates - zeroed == set()


#: the TPC-H/events tables; a query that reads one of them and reaches
#: no engine code is Ray Data's generic groupby/join, not this system
_TABLE_ONLY_TABLES = ("region", "nation", "customer", "supplier", "part",
                      "orders", "lineitem", "events")
_ENGINE_MODULE = (r"^biobloom_ray\.((sketches|stages|state)(\.|$)"
                  r"|(hashing|scoring|textnorm|pipelines\.resumable)$)")


def _table_only_functions(path, names) -> set[str]:
    """The functions of ``names`` (module-level in ``path``) whose call
    closure over the module's functions reads a TPC-H/events table and
    references no engine name (one imported from an engine module, or
    ``fold_partials`` / ``add_content_hash``)."""
    import ast
    import re

    tree = ast.parse(path.read_text())
    funcs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    engine = {"fold_partials", "add_content_hash"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module \
                and re.match(_ENGINE_MODULE, node.module):
            engine.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            engine.update(a.asname or a.name for a in node.names
                          if re.match(_ENGINE_MODULE, a.name))
    facts = {}
    for name, fn in funcs.items():
        tables, calls, reaches = set(), set(), False
        for node in ast.walk(fn):
            if isinstance(node, ast.Name):
                if node.id in funcs:
                    calls.add(node.id)
                reaches |= node.id in engine
            elif isinstance(node, ast.Constant) \
                    and isinstance(node.value, str):
                tables.update(t for t in _TABLE_ONLY_TABLES
                              if node.value == t
                              or f"/{t}.parquet" in node.value)
        facts[name] = (tables, calls, reaches)
    selected = set()
    for name in names:
        seen, todo, tables, reaches = set(), [name], set(), False
        while todo:
            f = todo.pop()
            if f not in seen:
                seen.add(f)
                tables |= facts[f][0]
                reaches |= facts[f][2]
                todo.extend(facts[f][1])
        if tables and not reaches:
            selected.add(name)
    return selected


def test_no_table_only_queries():
    """No registry query only runs Ray Data's generic groupby/join over
    the TPC-H/events tables: the closure scan over the public
    ``analytics`` functions and the ``__ray_entry__`` wrappers that
    ``queries()`` registers selects just the exact twins the sketch
    tests use as references."""
    import ast
    import pathlib

    import __ray_entry__

    entry = pathlib.Path(__ray_entry__.__file__)
    analytics = entry.parent / "biobloom_ray" / "pipelines" / "analytics.py"
    public = [n.name for n in ast.parse(analytics.read_text()).body
              if isinstance(n, ast.FunctionDef)
              and not n.name.startswith("_")]
    (qfn,) = [n for n in ast.parse(entry.read_text()).body
              if isinstance(n, ast.FunctionDef) and n.name == "queries"]
    (ret,) = [n for n in ast.walk(qfn) if isinstance(n, ast.Return)]
    wrappers = [v.id for v in ret.value.values if isinstance(v, ast.Name)]
    selected = (_table_only_functions(analytics, public)
                | _table_only_functions(entry, wrappers))
    twins = {"join_size_exact", "event_user_setops",
             "type_user_overlap_exact"}
    extra = sorted(selected - twins)
    if extra:  # name every one: an assert diff would be truncated
        pytest.fail(f"{len(extra)} table-only queries: {', '.join(extra)}")
    assert selected == twins
