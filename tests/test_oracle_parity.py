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
    "exact_dedup", "distinct_text_per_lang", "token_counts", "doc_fingerprint",
    # round-2 additions
    "paired_join", "bpe_token_counts",
    # round-3 additions
    "deterministic_sample_hash", "minhash_dedup_kept", "ngram_jaccard_pairs",
    "stratified_sample", "user_event_counts_salted",
    "spaced_seed_distinct_exact", "repetition_stats", "decontaminate",
    "repeated_substrings", "pii_redact", "gopher_quality_flags",
    "remove_boilerplate_ngrams", "bigram_lm_scores", "chunk_documents",
    "tfidf_top_terms", "bigram_ppl_buckets", "dup_clusters",
    "source_quality_gate", "token_freq_histogram", "source_mix_sample",
    "epoch_shuffle_head", "clean_corpus", "curation_funnel",
    "curation_funnel_by_source", "contamination_topk",
    "dup_group_size_histogram", "curation_partition_metrics", "source_overlap",
    "quality_weighted_sample", "token_entropy", "corpus_report",
    # round-4 additions
    "epoch_shuffle_full", "top_bigrams_per_lang", "segment_revenue_topk",
    "nb_class_scores", "token_drift_topk", "region_revenue",
    "shard_assignment_counts", "event_user_setops", "pmi_top_bigrams",
    "cross_lang_dup_matrix", "mg_heavy_tokens", "weighted_sample_topk",
    "source_dup_report", "join_size_exact", "ngram_containment_pairs",
    "source_exclusive_tokens", "bloom_prune_join_revenue",
    "kmv_distinct_userdays", "kmv_type_jaccard", "lang_bigram_jsd",
    "type_user_overlap_exact", "token_len_histogram", "vocab_growth_by_docs",
    "incremental_dedup_report", "vocab_coverage_topp",
    "dup_cluster_representatives", "curation_run_summary",
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
        import bench

        for mod, gate in bench._force_cluster_gates():
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
    """bench.QUERIES is the registry minus ``bench.NOT_BENCHED``; the
    list can only drift if an excluded name leaves the registry."""
    import bench

    names = set(entrymod.queries())
    assert [q for q in bench.NOT_BENCHED if q not in names] == []


def _module_gates(path) -> set[str]:
    """Top-level scale-gate constants assigned in one module file."""
    import ast
    import re

    gate = re.compile(r"^[A-Z0-9_]*_MAX_(ROWS|KEYS|BYTES|SLOTS)$"
                      r"|^BROADCAST_LIMIT$")
    return {t.id for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.Assign) for t in node.targets
            if isinstance(t, ast.Name) and gate.match(t.id)}


def _zeroing_setattrs(path) -> set[tuple[str, str]]:
    """The (module, gate) pairs that ``monkeypatch.setattr(M, "GATE",
    0)`` calls in one test file set to 0, with ``M`` resolved through
    the file's ``import ... as M`` / ``from ... import ... as M``."""
    import ast

    tree = ast.parse(path.read_text())
    alias: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.asname:
                    alias.setdefault(a.asname, set()).add(a.name)
        elif isinstance(node, ast.ImportFrom) and node.module:
            for a in node.names:
                alias.setdefault(a.asname or a.name, set()).add(
                    f"{node.module}.{a.name}")
    pairs = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "setattr"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "monkeypatch"
                and len(node.args) == 3
                and isinstance(node.args[0], ast.Name)
                and isinstance(node.args[1], ast.Constant)
                and isinstance(node.args[2], ast.Constant)
                and node.args[2].value == 0):
            for mod in alias.get(node.args[0].id, ()):
                pairs.add((mod, node.args[1].value))
    return pairs


def test_force_cluster_gate_list():
    """``bench._force_cluster_tiers`` (read, not called) zeroes only
    gates that exist, and every scale gate in ``biobloom_ray``: a
    leftover line for a deleted gate would otherwise create a new
    module attribute, and a new gate would keep its driver tier under
    GRAFT_FORCE_CLUSTER=1.  Each zeroed gate is also read by its module
    beyond its own assignment (no orphaned gate), and some test module
    other than this one sets it to 0 with ``monkeypatch.setattr`` (its
    forced-gate parity test)."""
    import ast
    import pathlib

    import bench

    root = pathlib.Path(bench.__file__).resolve().parent
    patched = set()
    for path in sorted((root / "tests").glob("test_*.py")):
        if path.name != pathlib.Path(__file__).name:
            patched |= _zeroing_setattrs(path)
    zeroed, unread, untested = set(), [], []
    for mod, gate in bench._force_cluster_gates():
        path = root.joinpath(*mod.split(".")).with_suffix(".py")
        assert gate in _module_gates(path), f"{mod}.{gate}"
        zeroed.add(f"{mod}.{gate}")
        if not any(isinstance(n, ast.Name) and n.id == gate
                   and isinstance(n.ctx, ast.Load)
                   for n in ast.walk(ast.parse(path.read_text()))):
            unread.append(f"{mod}.{gate}")
        if (mod, gate) not in patched:
            untested.append(f"{mod}.{gate}")
    assert unread == []
    assert untested == []

    gates = set()
    for path in sorted((root / "biobloom_ray").rglob("*.py")):
        mod = ".".join(path.relative_to(root).with_suffix("").parts)
        gates.update(f"{mod}.{g}" for g in _module_gates(path))
    assert gates - zeroed == set()


#: the modules that are not engine code: the registry queries
#: themselves, the read/join helpers, the config dataclasses and the
#: page-fixture generator
_NON_ENGINE = ("biobloom_ray.pipelines.analytics", "biobloom_ray.io",
               "biobloom_ray.config", "biobloom_ray.pages")


def _is_engine(dotted: str) -> bool:
    return dotted.startswith("biobloom_ray.") and not any(
        dotted == m or dotted.startswith(m + ".") for m in _NON_ENGINE)


def _table_only_functions(path, names) -> set[str]:
    """The functions of ``names`` (module-level in ``path``) whose call
    closure over the module's functions reads a test table and
    references no engine name: one that ``from biobloom_ray.X import
    name`` or ``import biobloom_ray.X as name`` binds, where
    ``biobloom_ray.X.name`` / ``biobloom_ray.X`` is outside
    ``_NON_ENGINE`` (so ``from biobloom_ray.pipelines import
    categorize`` counts, ``... import analytics`` does not).

    The scan matches names, not scopes: a local function that shadows
    a module function (``cms_error_sweep``'s inner ``token_counts``)
    pulls the module function into the closure.  That only makes a
    closure larger, so it can keep a query, never select one."""
    import ast

    tree = ast.parse(path.read_text())
    funcs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    engine = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            engine.update(a.asname or a.name for a in node.names
                          if _is_engine(f"{node.module}.{a.name}"))
        elif isinstance(node, ast.Import):
            engine.update(a.asname or a.name for a in node.names
                          if _is_engine(a.name))
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
                tables.update(t for t in TABLES
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
    a test table: the closure scan over the public ``analytics``
    functions and the ``__ray_entry__`` wrappers that ``queries()``
    registers selects just the exact twins that tests use as
    references (the three events twins behind the KMV, CMS and
    HLL/Bloom set-op tests, and ``token_counts``, the exact token total
    of the token-frequency histogram test)."""
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
             "type_user_overlap_exact", "token_counts"}
    extra = sorted(selected - twins)
    if extra:  # name every one: an assert diff would be truncated
        pytest.fail(f"{len(extra)} table-only queries: {', '.join(extra)}")
    assert selected == twins


def _checkout_py_files(root):
    """Every ``.py`` file of the checkout, outside hidden and cache
    directories."""
    return [p for p in sorted(root.rglob("*.py"))
            if not any(part.startswith(".") or part == "__pycache__"
                       for part in p.relative_to(root).parts[:-1])]


def _names_used(node):
    """Counter of the identifiers ``node`` names: loaded or deleted
    names, attribute names, imported names, and every part of a string
    constant that is a dotted name (``monkeypatch.setattr(A, "GATE",
    0)``, ``__all__``, a ``"ray.data.Dataset"`` annotation)."""
    import ast
    import collections
    import re

    used = collections.Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            used[n.id] += 1
        elif isinstance(n, ast.Attribute):
            used[n.attr] += 1
        elif isinstance(n, ast.alias):
            used[n.name.split(".")[-1]] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) \
                and re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*", n.value):
            used.update(n.value.split("."))
    return used


def _collected_by_pytest(node) -> bool:
    """A ``tests/`` definition pytest finds by its name or decorator: a
    ``test_*`` function, a ``Test*`` class, a fixture or a ``pytest_*``
    hook."""
    import ast

    if isinstance(node, ast.ClassDef):
        return node.name.startswith("Test")
    return (node.name.startswith(("test_", "pytest_"))
            or any(_names_used(d)["fixture"] for d in node.decorator_list))


def test_no_dead_definitions_or_imports():
    """Every module-level function, class and constant of
    ``biobloom_ray``, ``__ray_entry__.py`` and ``tests/`` (bar what
    pytest collects itself) is named somewhere outside its own
    definition in the checkout's ``.py`` files, and every module-level
    import of ``biobloom_ray`` is used in its module (``from
    __future__`` and a side-effect import marked ``# noqa: F401`` are
    exempt)."""
    import ast
    import collections
    import pathlib

    import __ray_entry__

    root = pathlib.Path(__ray_entry__.__file__).resolve().parent
    trees = {p: ast.parse(p.read_text()) for p in _checkout_py_files(root)}
    used = collections.Counter()
    for tree in trees.values():
        used.update(_names_used(tree))
    ours = [p for p in trees
            if p == root / "__ray_entry__.py"
            or p.is_relative_to(root / "biobloom_ray")
            or p.is_relative_to(root / "tests")]
    dead, unused = [], []
    for path in ours:
        rel = path.relative_to(root)
        for node in trees[path].body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if rel.parts[0] == "tests" and _collected_by_pytest(node):
                    continue
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = getattr(node, "targets", None) or [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)
                         and not t.id.startswith("__")]
            else:
                continue
            own = _names_used(node)
            dead += [f"{rel}:{n}" for n in names if used[n] - own[n] <= 0]
        if rel.parts[0] != "biobloom_ray":
            continue
        lines = path.read_text().splitlines()
        local = _names_used(ast.Module(
            body=[n for n in trees[path].body
                  if not isinstance(n, (ast.Import, ast.ImportFrom))],
            type_ignores=[]))
        for node in trees[path].body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)) \
                    or getattr(node, "module", None) == "__future__" \
                    or "noqa: F401" in lines[node.lineno - 1]:
                continue
            unused += [f"{rel}:{a.asname or a.name}" for a in node.names
                       if not local[(a.asname or a.name).split(".")[0]]]
    if dead or unused:  # name every one: an assert diff is truncated
        pytest.fail(f"unreferenced: {', '.join(dead) or '-'}; "
                    f"unused imports: {', '.join(unused) or '-'}")
