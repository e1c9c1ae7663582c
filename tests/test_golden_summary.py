"""Golden summary fixture (F6): the flagship categorize of 2000 seeded
pages against the seeded per-lang bank must reproduce EXACTLY the frozen
counts below — classification parity under deterministic hash seeds is a
BASELINE acceptance metric.  If an intentional semantic change shifts
these numbers, refreeze them in the same commit and say why."""

import pytest

import ray.data

from biobloom_ray.config import BuildConfig, CategorizeConfig
from biobloom_ray.pages import generate_pages, generate_ref_corpora
from biobloom_ray.pipelines import build_filters, categorize
from biobloom_ray.stages.categorize import summary_table


def _compute(ray_session=None):
    ref = ray.data.from_arrow(generate_ref_corpora(docs_per_lang=100))
    built = build_filters(ref, text_col="doc", label_col="filter_id",
                          cfg=BuildConfig(kmer_size=8, batch_size=1024))
    bank = [built[f]["filter"] for f in sorted(built)]
    pages = ray.data.from_arrow(generate_pages(2000, seed=42))
    labeled = categorize(pages, bank,
                         CategorizeConfig(mode="std", batch_size=512))
    return summary_table(labeled, [b.filter_id for b in bank])


def test_golden_summary(ray_session):
    s = _compute().set_index("filter_id")
    # shared `common###` vocabulary drives cross-lang hits (multiMatch) by
    # fixture design (F2); the 400 zz control pages are all noMatch.
    golden_hits = {"de": 744, "en": 1036, "es": 1029, "fr": 799,
                   "multiMatch": 1017, "noMatch": 400}
    got = {k: int(s.loc[k, "hits"]) for k in golden_hits}
    assert got == golden_hits, f"summary drifted: {got}"
    golden_shared = {"de": 522, "en": 986, "es": 992, "fr": 525}
    got_shared = {k: int(s.loc[k, "shared"]) for k in golden_shared}
    assert got_shared == golden_shared
