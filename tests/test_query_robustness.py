"""Degenerate-input and concurrency contracts of the curation queries.

- ``contamination_topk`` on a corpus where no training document shares a
  benchmark trigram returns a typed empty table on both tiers, including
  the native groupby tier behind ``RANK_DRIVER_MAX_ROWS``.
- The curation chain (``clean_corpus`` and both funnels) picks the
  first-wins dedup winner by signed doc_id order, also for negative ids,
  and names a null ``lang`` / ``source`` column instead of failing
  inside Arrow; its shuffle carries no text.
- The runner queries work in private temp directories, so two concurrent
  invocations return the same rows as a serial one.
"""

import io
import os
import subprocess
import sys
import tempfile

import duckdb
import numpy as np
import pandas as pd
import pytest


def test_contamination_topk_zero_hits_both_tiers(ray_session, monkeypatch):
    import biobloom_ray.pipelines.analytics as A

    with tempfile.TemporaryDirectory() as td:
        # doc 0 is the benchmark slice (doc_id % bench_mod == 0); the
        # training docs share no trigram with it
        pd.DataFrame({
            "doc_id": np.arange(6, dtype=np.int64),
            "text": ["alpha beta gamma delta epsilon",
                     "one two three four", "five six seven eight",
                     "nine ten eleven twelve", "red green blue",
                     "north south east west"],
        }).to_parquet(os.path.join(td, "documents.parquet"))
        folded = A.contamination_topk(td)
        monkeypatch.setattr(A, "RANK_DRIVER_MAX_ROWS", 0)
        native = A.contamination_topk(td)
    for out in (folded, native):
        assert len(out) == 0
        assert list(out.columns) == ["tg", "n_docs", "n_occ"]
        assert out.n_docs.dtype == np.int64 and out.n_occ.dtype == np.int64


def _write_corpus(d: str) -> None:
    """300 docs in three langs: word texts (passing the runners' 82%
    alpha gate), short digit texts (failing it) and exact copies of
    earlier docs (dropped by first-wins dedup)."""
    rng = np.random.default_rng(5)
    words = np.array(["alpha", "beta", "gamma", "delta", "kappa", "sigma",
                      "omega", "theta", "lambda", "zeta"])
    text = [" ".join(rng.choice(words, rng.integers(4, 30)))
            for _ in range(300)]
    for i in range(0, 300, 9):
        text[i] = "7 42 1999 8"
    for i in range(5, 300, 7):
        text[i] = text[rng.integers(0, i)]
    pd.DataFrame({"doc_id": np.arange(300, dtype=np.int64),
                  "lang": rng.choice(["en", "de", "fr"], 300),
                  "text": text}).to_parquet(
        os.path.join(d, "documents.parquet"))


_QUERY_SCRIPT = """
import sys
import ray
ray.init(address=sys.argv[1], logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
import biobloom_ray.pipelines.analytics as A
print(getattr(A, sys.argv[2])(sys.argv[3]).to_json(orient="split"))
"""


def test_runner_queries_concurrent_invocations_agree(ray_session):
    """Two processes run the same runner query at once (fixed shared
    temp paths made them delete each other's fragments); both must
    return the serial result."""
    import ray

    import biobloom_ray.pipelines.analytics as A

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=root)
    address = ray.get_runtime_context().gcs_address
    with tempfile.TemporaryDirectory() as td:
        _write_corpus(td)
        for name in ("curation_run_summary", "curation_partition_metrics"):
            serial = getattr(A, name)(td)
            assert len(serial) > 0
            procs = [subprocess.Popen(
                [sys.executable, "-c", _QUERY_SCRIPT, address, name, td],
                cwd=root, env=env, stdout=subprocess.PIPE, text=True)
                for _ in range(2)]
            for p in procs:
                out, _ = p.communicate(timeout=600)
                assert p.returncode == 0
                got = pd.read_json(
                    io.StringIO(out.strip().splitlines()[-1]),
                    orient="split")
                assert got.equals(serial), (name, got, serial)


def _negative_id_corpus(d: str) -> None:
    """The sf0.001 fixture with every doc_id mapped to 10*id - 10000 (all negative),
    plus copies of the first 40 docs at id - 5 under another lang and
    source: each copy is the smaller id, so first-wins dedup must pick
    it and attribute the text to its lang and source."""
    from __ray_entry__ import SF0001

    docs = pd.read_parquet(os.path.join(SF0001, "documents.parquet"))
    docs["doc_id"] = docs.doc_id * 10 - 10000
    dup = docs.head(40).copy()
    dup["doc_id"] -= 5
    dup["lang"] = "xx"
    dup["source"] = "dup_src"
    pd.concat([docs, dup], ignore_index=True).to_parquet(
        os.path.join(d, "documents.parquet"))


def test_curation_chain_negative_doc_ids_match_oracle(ray_session):
    import __ray_entry__ as E
    import biobloom_ray.pipelines.analytics as A

    with tempfile.TemporaryDirectory() as td:
        _negative_id_corpus(td)
        con = duckdb.connect()
        con.sql("CREATE VIEW documents AS SELECT * FROM "
                f"'{td}/documents.parquet'")
        for name in ("clean_corpus", "curation_funnel",
                     "curation_funnel_by_source"):
            got = getattr(A, name)(td)
            want = con.sql(E.oracle_sql()[name]).df()
            assert list(got.columns) == list(want.columns), name
            cols = list(got.columns)
            got = got.sort_values(cols).reset_index(drop=True)
            want = (want.astype(got.dtypes.to_dict())
                    .sort_values(cols).reset_index(drop=True))
            pd.testing.assert_frame_equal(got, want, obj=name)
            if name == "clean_corpus":  # some copies won
                assert (got.lang == "xx").any()


def _null_corpus(d: str, col: str) -> None:
    from __ray_entry__ import SF0001

    docs = pd.read_parquet(os.path.join(SF0001, "documents.parquet"))
    docs.loc[docs.index[3], col] = None
    docs.to_parquet(os.path.join(d, "documents.parquet"))


def test_curation_chain_null_lang_or_source(ray_session):
    from __ray_entry__ import SF0001

    import biobloom_ray.pipelines.analytics as A

    with tempfile.TemporaryDirectory() as td:
        _null_corpus(td, "lang")
        with pytest.raises(ValueError, match="documents.lang has null"):
            A.clean_corpus(td)
    with tempfile.TemporaryDirectory() as td:
        _null_corpus(td, "source")
        with pytest.raises(ValueError, match="documents.source has null"):
            A.curation_funnel_by_source(td)
        # the global funnel never reads source
        f = A.curation_funnel(td)
        want = A.curation_funnel(SF0001)
        assert f.equals(want)


def test_curation_plan_shuffles_no_text(ray_session):
    """The dedup shuffle's input is the narrow per-doc row: no text."""
    from __ray_entry__ import SF0001

    import biobloom_ray.pipelines.analytics as A

    docs, _ = A._curation_plan(SF0001, A.DECON_BENCH_MOD, "source")
    assert docs.schema().names == ["wk", "n_tokens", "gated", "fp_md5",
                                   "contam"]
