"""Cross-query invariants for the round-5 curation yield funnels:
the per-source attribution must tile the global funnel exactly, and
both must be monotone non-increasing through the pipeline stages.
(Value correctness vs DuckDB is pinned in test_oracle_parity; these
are the structural contracts a reader of the yield table relies on.)"""

import numpy as np

SF_DIR = "/root/testdata/sf0.01"


def test_funnel_monotone_and_source_tiling(ray_session):
    from biobloom_ray.pipelines.analytics import (curation_funnel,
                                                  curation_funnel_by_source)

    glob = curation_funnel(SF_DIR)
    per = curation_funnel_by_source(SF_DIR)

    # stage order and schema
    assert list(glob.stage) == ["raw", "quality_gate", "exact_dedup",
                                "decontaminated"]
    # docs and tokens never increase through the pipeline
    assert (np.diff(glob.n_docs.to_numpy()) <= 0).all()
    assert (np.diff(glob.n_tokens.to_numpy()) <= 0).all()

    # per-source rows tile the full source x stage grid
    n_src = per.source.nunique()
    assert len(per) == 4 * n_src

    # summing the attribution over sources reproduces the global funnel
    agg = (per.groupby(["stage_id", "stage"], as_index=False)
           [["n_docs", "n_tokens"]].sum()
           .sort_values("stage_id").reset_index(drop=True))
    assert (agg.n_docs.to_numpy() == glob.n_docs.to_numpy()).all()
    assert (agg.n_tokens.to_numpy() == glob.n_tokens.to_numpy()).all()

    # per-source monotonicity (gate <= raw per source; dedup winners are
    # attributed cross-source so only the raw->gate step is per-source
    # monotone by construction — assert exactly that)
    wide = per.pivot_table(index="source", columns="stage",
                           values="n_docs")
    assert (wide["quality_gate"] <= wide["raw"]).all()
    # decontamination only removes winners, per source
    wided = per.pivot_table(index="source", columns="stage",
                            values="n_tokens")
    assert (wided["decontaminated"] <= wided["exact_dedup"]).all()


def test_contamination_topk_tiers_agree(ray_session, monkeypatch):
    """contamination_topk: driver-fold tier vs native groupby +
    local-top-k tier produce identical rows (value parity vs DuckDB is
    in test_oracle_parity)."""
    import biobloom_ray.pipelines.analytics as A

    fast = A.contamination_topk(SF_DIR)
    monkeypatch.setattr(A, "COUNT_TABLE_DRIVER_MAX_ROWS", 0)
    slow = A.contamination_topk(SF_DIR)[list(fast.columns)]
    assert len(fast) > 0 and fast.equals(slow)
    # occurrences bound docs from above, both positive
    assert (fast.n_occ >= fast.n_docs).all()
    assert (fast.n_docs > 0).all()


def test_dup_histogram_tiers_agree_and_totals(ray_session, monkeypatch):
    """dup_group_size_histogram: driver counts-of-counts vs native
    second groupby agree; n_docs column totals the corpus."""
    import biobloom_ray.pipelines.analytics as A

    fast = A.dup_group_size_histogram(SF_DIR)
    monkeypatch.setattr(A, "COUNT_TABLE_DRIVER_MAX_ROWS", 0)
    slow = A.dup_group_size_histogram(SF_DIR)[list(fast.columns)]
    assert len(fast) > 0 and fast.equals(slow)
    import pyarrow.parquet as pq
    n = pq.read_metadata(f"{SF_DIR}/documents.parquet").num_rows
    assert int(fast.n_docs.sum()) == n
    assert (fast.n_docs == fast.group_size * fast.n_groups).all()
