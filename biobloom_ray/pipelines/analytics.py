"""Registry queries over the driver test tables (documents, embeddings,
events and the TPC-H-style tables).  Each function takes ``sf_dir`` and
returns a small result (Dataset → pandas/Arrow by the caller); the
matching ANSI-SQL oracles live in ``__ray_entry__.oracle_sql``.

Every query, whatever table it reads, drives engine code (the
mergeable sketches, the dedup and near-dup stages, hashing, scoring,
text normalization, the cleaning and decontamination stages, the
curation runner), except four exact twins that tests use as
references: ``join_size_exact``, ``event_user_setops`` and
``type_user_overlap_exact`` for the KMV, CMS and HLL/Bloom set-op
tests, and ``token_counts`` for the token-frequency histogram test.
``tests/test_oracle_parity.py::test_no_table_only_queries`` checks this
by an AST closure scan.

Scale notes: every reader prunes columns at the parquet read; per-batch
work is vectorized (pyarrow.compute / pandas C kernels / numpy);
aggregations pre-reduce inside map_batches so shuffles move partial rows
only.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import tempfile

from biobloom_ray.io import cheap_count as _cheap_count
from biobloom_ray.io import read_parquet as _rp
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data
from ray.data.aggregate import Count, Max, Min, Sum

from biobloom_ray.sketches.fold import fold_partials
from biobloom_ray.stages.dedup import add_content_hash


def _read(sf_dir: str, table: str, columns=None):
    return _rp(f"{sf_dir}/{table}.parquet", columns=columns)


def _parts_pandas(parts_ds, schema: dict) -> pd.DataFrame:
    """`Dataset.to_pandas()` for partial tables, safe on EMPTY inputs:
    a zero-row source yields a schema-less empty frame whose missing
    columns would KeyError downstream (the ADVICE-r3 empty-input
    class) — substitute a typed empty frame instead."""
    df = parts_ds.to_pandas()
    if len(df) == 0:
        return pd.DataFrame({c: pd.Series([], dtype=t)
                             for c, t in schema.items()})
    return df


def _cents_away(x: np.ndarray) -> np.ndarray:
    """Integer cents with SQL ROUND semantics (half AWAY from zero).
    ``np.round``/``pc.round`` default to banker's half-to-even, which
    diverges from DuckDB's ROUND on an exact .5 at the cent boundary
    (latent on 2-dp fixtures, real on >=3-dp data).  Integer money sums
    are also order-independent, so distributed partials match the
    oracle exactly."""
    return (np.sign(x) * np.floor(np.abs(x) * 100.0 + 0.5)).astype(np.int64)


#: input-row gate of the exact events twins (``event_user_setops``,
#: ``type_user_overlap_exact``, ``join_size_exact``): below this many
#: events rows their output-scale (user / type, user-day) partials
#: combine in one driver pandas groupby; above it a native shuffle runs
EVENTS_DRIVER_MAX_ROWS = 5_000_000


# -- dedup / distinct ---------------------------------------------------------

def exact_dedup_docs(sf_dir: str):
    """First-wins exact text dedup (D1 exact variant): min doc_id per
    distinct text.  ONE native aggregate — group on the content hash,
    ``Min(doc_id)`` picks the winner and ``Min(text)`` recovers the text
    (every text in an md5 group is identical, so Min IS the text); zero
    per-group Python, zero joins.  The generic row-preserving variant
    (arbitrary extra columns) is stages.dedup.exact_dedup's semi-join."""
    from biobloom_ray.stages.dedup import add_content_hash

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = (ds.map_batches(add_content_hash, batch_format="pyarrow")
           .groupby("fp_md5")
           .aggregate(Min("doc_id", alias_name="doc_id"),
                      Min("text", alias_name="text"))
           .to_pandas())
    return out[["doc_id", "text"]]


def distinct_text_per_lang(sf_dir: str):
    """Exact COUNT(DISTINCT text) per lang: per-batch (lang, hash) dedup
    → native two-level aggregate — groupby(lang, fp).count collapses
    duplicates, groupby(lang).count counts survivors.  (The HLL variant
    is the approximate twin — see hll_distinct_per_lang.)"""
    ds = _read(sf_dir, "documents", columns=["lang", "text"])

    def pairs(b: pa.Table) -> pa.Table:
        h = add_content_hash(b)
        df = pd.DataFrame({"lang": h["lang"].to_pandas(),
                           "fp": h["fp_md5"].to_pandas()})
        return pa.Table.from_pandas(df.drop_duplicates(), preserve_index=False)

    uniq = (ds.map_batches(pairs, batch_format="pyarrow")
            .groupby(["lang", "fp"]).aggregate(Count(alias_name="_c"))
            .select_columns(["lang"]))

    # second level: the survivors are already distinct, so counting per
    # lang needs no second shuffle — per-block partial counts (≤ n_langs
    # rows per block) sum on the driver
    def lang_counts_partial(b: pa.Table) -> pa.Table:
        vc = b["lang"].to_pandas().value_counts()
        return pa.table({"lang": pa.array(vc.index.to_numpy()),
                         "n_distinct": pa.array(vc.to_numpy())})

    parts = uniq.map_batches(lang_counts_partial,
                             batch_format="pyarrow").to_pandas()
    out = (parts.groupby("lang", as_index=False)["n_distinct"].sum()
           .sort_values("lang").reset_index(drop=True))
    return out[["lang", "n_distinct"]]


# -- text stats ---------------------------------------------------------------

def token_counts(sf_dir: str):
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def f(b: pa.Table) -> pa.Table:
        s = b["text"].to_pandas()
        n = s.str.count(r"\S+").fillna(0).astype(np.int64)
        return pa.table({"doc_id": b["doc_id"],
                         "n_tokens": pa.array(n.to_numpy())})

    return ds.map_batches(f, batch_format="pyarrow").to_pandas()


def doc_fingerprints(sf_dir: str):
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def f(b: pa.Table) -> pa.Table:
        h = add_content_hash(b)
        return pa.table({"doc_id": b["doc_id"],
                         "fp_md5": h["fp_md5"].cast(pa.string())})

    return ds.map_batches(f, batch_format="pyarrow").to_pandas()


#: input-row gate of the token count-table tiers (``token_drift_topk``,
#: ``pmi_top_bigrams``): below it the table combines on the driver and
#: broadcasts once; above it tokens hash-join the frequency table and
#: reduce with native aggregates
RARITY_BROADCAST_MAX_ROWS = 200_000


# -- sketch (rows-only) queries ----------------------------------------------

def hll_distinct_shingles_per_lang(sf_dir: str, k: int = 8, p: int = 14):
    """North-rule query: HLL distinct k-shingle cardinality per lang.
    Per-batch partial HLL rows → register-max fold per lang."""
    from biobloom_ray.hashing import shingle_hashes
    from biobloom_ray.sketches.hll import HLL

    ds = _read(sf_dir, "documents", columns=["lang", "text"])

    def partial(b: pa.Table) -> pa.Table:
        langs = b["lang"].to_pandas().to_numpy()
        texts = b["text"]
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        h1, _, nf = shingle_hashes(texts, k)
        row_of = np.repeat(np.arange(len(nf)), nf)
        out_l, out_b = [], []
        for lang in np.unique(langs):
            sel = (langs == lang)[row_of] if len(row_of) else np.zeros(0, bool)
            h = HLL(p=p)
            h.update(h1[sel])
            out_l.append(str(lang))
            out_b.append(h.serialize())
        return pa.table({"lang": pa.array(out_l, type=pa.string()),
                         "blob": pa.array(out_b, type=pa.large_binary())})

    folded = fold_partials(ds.map_batches(partial, batch_format="pyarrow"),
                           {"blob": HLL}, key="lang")
    return pd.DataFrame({
        "lang": pd.Series(list(folded), dtype=object),
        "distinct_shingles_est": pd.Series(
            [r["blob"].estimate() for r in folded.values()],
            dtype=np.float64)})


def _heavy_hitters(sf_dir: str, k: int, sketch) -> pd.DataFrame:
    """Top-k tokens by a frequency sketch's estimate.  Each block emits
    its sketch (``sketch()``, updated with the block's token counts) on
    the key row ``""``, which no ``\\S+`` token can take, and its local
    top ``4k`` tokens as key rows with no sketch; ``fold_partials``
    merges the sketches, and the folded keys are the candidates."""
    from biobloom_ray.hashing import hash_strings

    ds = _read(sf_dir, "documents", columns=["text"])

    def partial(b: pa.Table) -> pa.Table:
        toks = b["text"].to_pandas().str.findall(r"\S+").explode().dropna()
        vc = toks.value_counts()
        sk = sketch()
        sk.update(hash_strings(vc.index.tolist()),
                  vc.to_numpy().astype(np.int64))
        cands = vc.head(4 * k).index.astype(str).tolist()
        return pa.table({
            "token": pa.array([""] + cands, pa.string()),
            "blob": pa.array([sk.serialize()] + [b""] * len(cands),
                             pa.large_binary())})

    folded = fold_partials(ds.map_batches(partial, batch_format="pyarrow"),
                           {"blob": type(sketch())}, key="token")
    sk = folded.pop("", {"blob": None})["blob"]
    cand = list(folded)
    est = sk.query(hash_strings(cand)) if cand else []
    df = pd.DataFrame({"token": pd.Series(cand, dtype=object),
                       "est_cnt": np.asarray(est, np.int64)})
    return (df.sort_values(["est_cnt", "token"], ascending=[False, True])
            .head(k).reset_index(drop=True))


def cms_heavy_hitters(sf_dir: str, k: int = 20, eps: float = 0.001,
                      delta: float = 0.01):
    """CMS heavy hitters: per-block partial CMS + local candidate tokens →
    merged CMS estimates the final counts; top-k by estimate."""
    from biobloom_ray.sketches.cms import CountMinSketch

    return _heavy_hitters(
        sf_dir, k, lambda: CountMinSketch.for_error(eps, delta))


def kll_nchars_quantiles(sf_dir: str, qs=(0.1, 0.25, 0.5, 0.75, 0.9, 0.99)):
    """Page-length quantiles via merged per-block KLL partials."""
    from biobloom_ray.sketches.kll import KLL

    ds = _read(sf_dir, "documents", columns=["n_chars"])

    def partial(b: pa.Table) -> pa.Table:
        sk = KLL(k=200)
        sk.update(b["n_chars"].to_numpy(zero_copy_only=False).astype(np.float64))
        return pa.table({"blob": pa.array([sk.serialize()], type=pa.large_binary())})

    folded = fold_partials(ds.map_batches(partial, batch_format="pyarrow"),
                           {"blob": KLL})
    est = [folded[None]["blob"].quantile(q) for q in qs] if folded else []
    return pd.DataFrame({"q": pd.Series(list(qs) if folded else [],
                                        dtype=np.float64),
                         "n_chars_est": pd.Series(est, dtype=np.float64)})


def stratified_sample(sf_dir: str, n_per_lang: int = 50):
    """Deterministic STRATIFIED sampler: the ``n_per_lang`` docs with
    the smallest ``splitmix64(doc_id)`` per language — uniform within
    each stratum, reproducible across runs/engines (the oracle SQL
    reuses the bit-exact 128-bit splitmix64 re-implementation), and
    fixed-size per group where the rate-based sampler
    (deterministic_sample_hash) is fixed-rate.  Per-block local top-n
    per lang (at most n·n_langs rows leave any block) → one tiny
    driver reduce — the O3 top-k shape keyed on the hash."""
    from biobloom_ray.hashing import splitmix64

    ds = _read(sf_dir, "documents", columns=["doc_id", "lang"])

    def local_topn(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        h = splitmix64(ids.astype(np.uint64))
        df = pd.DataFrame({"lang": b["lang"].to_pandas(), "doc_id": ids,
                           "h": h.astype(np.uint64)})
        top = (df.sort_values(["lang", "h", "doc_id"])
               .groupby("lang", as_index=False).head(n_per_lang))
        return pa.Table.from_pandas(top, preserve_index=False)

    parts = ds.map_batches(local_topn, batch_format="pyarrow").to_pandas()
    out = (parts.sort_values(["lang", "h", "doc_id"])
           .groupby("lang", as_index=False).head(n_per_lang))
    return (out[["lang", "doc_id"]].sort_values(["lang", "doc_id"])
            .reset_index(drop=True))


def deterministic_sample_hash(sf_dir: str, rate: float = 0.125):
    """PRODUCTION deterministic corpus sampler: keep a row iff
    ``splitmix64(doc_id) < rate · 2^64`` — one vectorized numpy pass,
    no per-row Python (VERDICT r2 "Next round" #7).  Reproducible
    across runs/retries/engines (the oracle SQL re-implements
    splitmix64 in 128-bit DuckDB arithmetic and matches bit-for-bit);
    stratification falls out of hash uniformity."""
    from biobloom_ray.hashing import splitmix64

    ds = _read(sf_dir, "documents", columns=["doc_id", "lang"])
    thresh = np.uint64(min(int(rate * 2.0 ** 64), 2 ** 64 - 1))

    def pick(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        return b.filter(pa.array(splitmix64(ids) < thresh))

    return _parts_pandas(ds.map_batches(pick, batch_format="pyarrow"),
                         {"doc_id": np.int64, "lang": object})


# -- repetition / decontamination (training-data quality family) --------------

def repetition_stats(sf_dir: str):
    """Per-document Gopher-style repetition profile (exact integers; see
    ``stages/textstats.repetition_stats_batch``).  Map-only — no shuffle
    at any scale; output is one narrow row per document."""
    from biobloom_ray.stages.textstats import repetition_stats_batch

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = ds.map_batches(repetition_stats_batch,
                         batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


#: decontaminate: benchmark membership rule — docs whose doc_id is
#: divisible by this constant form the "benchmark" corpus (deterministic
#: ~1% subset of the fixture; a real run would read the eval suite)
DECON_BENCH_MOD = 97
#: Bloom prefilter FPR for the broadcast benchmark n-gram filter
DECON_BLOOM_FPR = 1e-4


def _bench_trigram_state(ds, bench_mod: int, n: int):
    """Build + broadcast the benchmark n-gram subtract-filter state
    probed by :func:`_contam_hits`: scan ``ds`` for the deterministic
    benchmark slice (``doc_id % bench_mod == 0``), collect its
    distinct token n-grams driver-side (the eval suite of a
    decontamination job is small and fixed by design), and
    ``ray.put`` ``(bloom words, m, hash_num, exact n-gram frozenset)``
    ONCE so every probe batch reads the same object-store copy —
    the Bloom filter is the bit-cheap vectorized prefilter, the exact
    set the verify probed only for the Bloom-positive fraction."""
    import ray

    from biobloom_ray.sketches.bloom import BloomFilter
    from biobloom_ray.stages.textstats import (_token_arrays,
                                               ngram_strings_at,
                                               token_ngram_hashes)

    def bench_grams(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        sel = np.nonzero(ids % bench_mod == 0)[0]
        if len(sel) == 0:
            return pa.table({"tg": pa.array([], type=pa.string()),
                             "h1": pa.array([], type=pa.uint64()),
                             "h2": pa.array([], type=pa.uint64())})
        sub = b.take(sel)
        flat, lens, row_of = _token_arrays(sub)
        h1, h2, _, start = token_ngram_hashes(flat, row_of, n)
        tg = ngram_strings_at(flat, start, n)
        df = pd.DataFrame({"tg": tg.to_numpy(dtype=object),
                           "h1": h1, "h2": h2}).drop_duplicates("tg")
        return pa.Table.from_pandas(df, preserve_index=False)

    bench = _parts_pandas(
        ds.map_batches(bench_grams, batch_format="pyarrow"),
        {"tg": object, "h1": np.uint64, "h2": np.uint64}
    ).drop_duplicates("tg")
    bf = BloomFilter.for_entries(max(len(bench), 1), DECON_BLOOM_FPR,
                                 kmer_size=n, filter_id="bench_ngrams")
    if len(bench):
        bf.insert(bench.h1.to_numpy(dtype=np.uint64),
                  bench.h2.to_numpy(dtype=np.uint64))
    return ray.put((bf.words, bf.m, bf.hash_num,
                    frozenset(bench.tg.to_numpy(dtype=object))))


def _contam_hits(b: pa.Table, state_ref, n: int):
    """The benchmark contamination probe over one batch's ``text``:
    Bloom prefilter of :func:`_bench_trigram_state`, then the exact-set
    verify of the Bloom positives only.  Returns ``(lens, rows,
    grams)``: per-row token counts, and the row and n-gram string of
    every verified hit occurrence."""
    import ray

    from biobloom_ray.sketches.bloom import BloomFilter
    from biobloom_ray.stages.textstats import (_token_arrays,
                                               ngram_strings_at,
                                               token_ngram_hashes)

    words, m, hnum, exact = ray.get(state_ref)
    flat, lens, row_of = _token_arrays(b)
    h1, h2, trow, tstart = token_ngram_hashes(flat, row_of, n)
    cand = BloomFilter(m=m, hash_num=hnum, kmer_size=n,
                       words=words).contains(h1, h2)
    grams = ngram_strings_at(flat, tstart[cand], n)
    ver = grams.isin(exact).to_numpy(dtype=bool)
    return lens, trow[cand][ver], grams.to_numpy(dtype=object)[ver]


def decontaminate(sf_dir: str, n: int = 3, bench_mod: int = DECON_BENCH_MOD):
    """Benchmark decontamination: count, per training document, the token
    n-gram positions whose n-gram also occurs in a benchmark corpus, and
    flag documents with any overlap — the standard n-gram eval-set
    contamination check (GPT-3 appendix C / Gopher §A.2 shape), with the
    benchmark taken as the deterministic ``doc_id % bench_mod == 0``
    subset of the corpus.

    Scale design (the reason this is BioBloom's subtract-filter pattern,
    ``BioBloomClassifier.cpp:102-110``, re-expressed): the benchmark side
    of a decontamination job is a small fixed eval suite, so its distinct
    n-grams broadcast once via ``ray.put`` as (a) a Bloom filter over
    combined-token-hash n-gram keys — the bit-cheap prefilter every probe
    batch tests vectorized — and (b) the exact n-gram string set, probed
    only for the Bloom-positive fraction (≈ overlap rate + FPR), which
    keeps the verify exact (no hash-collision false flags) without ever
    materializing probe-side n-gram strings in the common case.  The
    probe pass is map-only: no shuffle at any scale.

    Output (sorted by doc_id, benchmark docs excluded, docs with < n
    tokens excluded — they have no n-grams): ``doc_id, n_trigrams,
    n_contam, contaminated``.
    """
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    state_ref = _bench_trigram_state(ds, bench_mod, n)

    def probe(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        sel = np.nonzero(ids % bench_mod != 0)[0]
        lens, rows, _ = _contam_hits(b.take(sel), state_ref, n)
        n_contam = np.bincount(rows, minlength=len(sel))
        keep = lens >= n
        return pa.table({
            "doc_id": pa.array(ids[sel][keep]),
            "n_trigrams": pa.array(lens[keep] - (n - 1)),
            "n_contam": pa.array(n_contam[keep]),
            "contaminated": pa.array((n_contam[keep] > 0).astype(np.int64))})

    out = _parts_pandas(ds.map_batches(probe, batch_format="pyarrow"),
                        {"doc_id": np.int64, "n_trigrams": np.int64,
                         "n_contam": np.int64, "contaminated": np.int64})
    return out.sort_values("doc_id").reset_index(drop=True)


#: input-row gate for repeated_substrings' driver tier: below it the
#: deduped (doc, shingle-hash) pairs combine on the driver; above it the
#: native groupby(h) + hash-join path runs
REPEAT_DRIVER_MAX_ROWS = 200_000
#: window length (chars) for cross-document repeated-substring detection
REPEAT_SUBSTR_K = 30


def repeated_substrings(sf_dir: str, k: int = REPEAT_SUBSTR_K):
    """Cross-document repeated-substring profile — the exact-substring
    dedup signal of Lee et al. 2021 ("Deduplicating Training Data Makes
    Language Models Better") expressed per position: for every document,
    count the k-char window positions whose substring also occurs in at
    least one OTHER document.  Output (docs with ≥ k chars, sorted):
    ``doc_id, n_positions, n_repeated``.

    Shape: one shingle-hash scan emits per-batch-deduped narrow
    ``(doc_id, h:int64, pos_cnt)`` rows (a document is never split
    across input rows, so per-batch dedup is global dedup); shingles in
    ≥ 2 distinct docs come from ONE native ``groupby(h).Count()``; the
    per-doc repeated-position tally is an inner hash join back to the
    pair rows plus a ``groupby(doc_id).Sum(pos_cnt)``.  Below
    ``REPEAT_DRIVER_MAX_ROWS`` input docs the pair rows combine on the
    driver instead (identical output, tier-parity-tested).  Substring
    identity is the 64-bit rolling shingle hash — collision probability
    ~N²/2⁶⁵ over N distinct shingles (≈1e-9 at the parity fixture; at
    10¹²-position scale swap in a 128-bit hash).  A pathologically hot
    substring (boilerplate in every page) skews the groupby key; the
    pair rows are already deduped per doc, bounding any key at n_docs
    rows — salt via ``stages/skew`` if that bound is still hot.
    """
    from biobloom_ray.hashing import shingle_hashes

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def pairs_partial(b: pa.Table) -> pa.Table:
        texts = b["text"]
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        h1, _, nf = shingle_hashes(texts, k)
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        row_of = np.repeat(np.arange(len(ids), dtype=np.int64), nf)
        hs = h1.view(np.int64)
        order = np.lexsort((hs, row_of))
        rs, hss = row_of[order], hs[order]
        new = np.ones(len(rs), dtype=bool)
        if len(rs) > 1:
            new[1:] = (rs[1:] != rs[:-1]) | (hss[1:] != hss[:-1])
        starts = np.nonzero(new)[0]
        cnts = np.diff(np.append(starts, len(rs))).astype(np.int64)
        return pa.table({"doc_id": pa.array(ids[rs[starts]]),
                         "h": pa.array(hss[starts]),
                         "pos_cnt": pa.array(cnts)})

    def positions_partial(b: pa.Table) -> pa.Table:
        lens = pc.utf8_length(b["text"]).to_numpy(zero_copy_only=False)
        keep = lens >= k
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        return pa.table({"doc_id": pa.array(ids[keep]),
                         "n_positions": pa.array(lens[keep] - (k - 1))})

    pairs = ds.map_batches(pairs_partial, batch_format="pyarrow")
    npos = (ds.map_batches(positions_partial, batch_format="pyarrow")
            .to_pandas())
    n_rows = _cheap_count(ds)

    if n_rows is not None and n_rows <= REPEAT_DRIVER_MAX_ROWS:
        p = pairs.to_pandas()
        n_docs = p.groupby("h")["doc_id"].transform("size")
        rep = (p[n_docs >= 2].groupby("doc_id", as_index=False)
               ["pos_cnt"].sum().rename(columns={"pos_cnt": "n_repeated"}))
    else:
        from biobloom_ray.io import hash_join
        rep_h = (pairs.groupby("h")
                 .aggregate(Count(alias_name="n_docs")))

        def only_repeated(b: pa.Table) -> pa.Table:
            m = pc.greater_equal(b["n_docs"], 2)
            return b.filter(m).select(["h"])

        rep_h = rep_h.map_batches(only_repeated, batch_format="pyarrow")
        joined = hash_join(pairs, rep_h, on=("h",))
        rep = _parts_pandas(
            joined.groupby("doc_id")
            .aggregate(Sum("pos_cnt", alias_name="n_repeated")),
            {"doc_id": np.int64, "n_repeated": np.int64})

    out = npos.merge(rep, on="doc_id", how="left")
    out["n_repeated"] = out.n_repeated.fillna(0).astype(np.int64)
    return out.sort_values("doc_id").reset_index(drop=True)


def pii_redact(sf_dir: str):
    """PII redaction over the events props column — emails, IPv4
    literals and digit runs replaced by typed tokens, plus the
    pre-redaction digit-run count.  Map-only (three pandas C regex
    passes per batch); no shuffle at any scale.  Patterns are pinned to
    the Python-re ∩ RE2 common syntax so the DuckDB oracle's
    ``regexp_replace(..., 'g')`` chain is byte-identical."""
    from biobloom_ray.stages.webclean import pii_redact_batch

    ds = _read(sf_dir, "events", columns=["event_id", "props"])
    out = ds.map_batches(pii_redact_batch, batch_format="pyarrow")
    return out.to_pandas().sort_values("event_id").reset_index(drop=True)


def gopher_quality_flags(sf_dir: str):
    """Gopher-style quality gate per document (Rae et al. 2021 §A.1.1
    shape) in exact integers — see
    ``stages/webclean.gopher_flags_batch``.  Map-only; no shuffle."""
    from biobloom_ray.stages.webclean import gopher_flags_batch

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = ds.map_batches(gopher_flags_batch, batch_format="pyarrow")
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


#: input-row gate for the boilerplate remover's broadcast tier: below
#: it the corpus-frequent n-gram partials combine on the driver; above
#: it ONE native groupby(h).Sum reduces them in the cluster first.  The
#: broadcast set itself is bounded by boilerplate cardinality (n-grams
#: in >= min_docs distinct docs), not corpus size.
BOILERPLATE_DRIVER_MAX_ROWS = 200_000
BOILERPLATE_N = 3
BOILERPLATE_MIN_DOCS = 3


def remove_boilerplate_ngrams(sf_dir: str, n: int = BOILERPLATE_N,
                              min_docs: int = BOILERPLATE_MIN_DOCS):
    """Cross-document boilerplate removal (RefinedWeb/CCNet line-dedup
    analogue for unstructured text): every token position covered by a
    token n-gram occurring in >= ``min_docs`` DISTINCT documents is
    dropped, and the survivors are re-joined with single spaces.
    Output (sorted): ``doc_id, text_clean, n_removed``.

    Shape: scan 1 emits per-batch-deduped narrow ``(h, n_docs)``
    partials (a doc never splits across rows, so batch dedup is global
    dedup); the frequent set comes from ONE native ``groupby(h).Sum``
    (driver-combined below ``BOILERPLATE_DRIVER_MAX_ROWS`` docs —
    tier-parity-tested) and broadcasts once via ``ray.put`` (size is
    bounded by boilerplate cardinality); scan 2 is map-only: interval
    overlay + one vectorized ``binary_join`` reassembly per batch.
    N-gram identity is the 64-bit combined-token hash (collision odds
    ~N²/2⁶⁵; swap to 128-bit at 10¹²-doc scale)."""
    import ray

    from biobloom_ray.stages.webclean import (ngram_doc_partials,
                                              remove_ngrams_batch)

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    parts = ds.map_batches(lambda b: ngram_doc_partials(b, n),
                           batch_format="pyarrow")
    n_rows = _cheap_count(ds)
    if n_rows is not None and n_rows <= BOILERPLATE_DRIVER_MAX_ROWS:
        p = parts.to_pandas()
        agg = p.groupby("h", as_index=False)["n_docs"].sum()
        freq = np.sort(agg[agg.n_docs >= min_docs].h.to_numpy())
    else:
        agg = parts.groupby("h").aggregate(Sum("n_docs",
                                               alias_name="n_docs"))

        def hot(b: pa.Table) -> pa.Table:
            return b.filter(pc.greater_equal(b["n_docs"],
                                             min_docs)).select(["h"])

        freq = np.sort(_parts_pandas(
            agg.map_batches(hot, batch_format="pyarrow"),
            {"h": np.int64}).h.to_numpy())
    freq_ref = ray.put(freq)

    def clean(b: pa.Table) -> pa.Table:
        import ray as _r
        return remove_ngrams_batch(b, _r.get(freq_ref), n)

    out = ds.map_batches(clean, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


#: input-row gate for bigram_lm_scores' broadcast tier (same contract
#: as RARITY_BROADCAST_MAX_ROWS, one level up: bigram tables are ~V²
#: at worst, so the gate is lower)
BIGRAM_BROADCAST_MAX_ROWS = 100_000


def bigram_lm_scores(sf_dir: str):
    """Pandas-result wrapper over ``_bigram_scores_ds`` (the query
    contract); see that function for the full design notes."""
    out = _bigram_scores_ds(sf_dir).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _bigram_scores_ds(sf_dir: str) -> "ray.data.Dataset":
    """Corpus-trained bigram language-model score per document — the
    classic LM-quality signal (CCNet-style, with a corpus-internal
    model instead of an external KenLM): for every adjacent token pair
    the MLE conditional probability is ``c(w1 w2) / c(w1·)`` where
    ``c(w1·)`` counts w1 as a bigram prefix; a page's score is the mean
    log-probability over its bigrams.  Output (docs with >= 2 tokens,
    sorted): ``doc_id, n_bigrams, sum_bigram_cnt, min_bigram_cnt``
    (exact ints) and ``avg_logprob_r6`` (mean ln p rounded to 6 dp —
    the rounding absorbs libm/summation-order ulps vs the oracle).

    Tiered by ``BIGRAM_BROADCAST_MAX_ROWS``: one tokenize+hash scan emits
    per-batch-combined ``(hg, hp, cnt)`` partials (hg = bigram hash,
    hp = prefix-token hash — a function of hg, so carrying it is
    shuffle-free); bigram and prefix counts are two native Sums over
    those narrow rows; below the gate they combine on the driver and
    broadcast once, above it the exploded grams hash-join the two count
    tables and reduce with native aggregates."""
    import ray

    from biobloom_ray.hashing import hash_strings
    from biobloom_ray.stages.textstats import (_token_arrays,
                                               token_ngram_hashes)

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def grams(b: pa.Table, partial: bool) -> pa.Table:
        flat, lens, row_of = _token_arrays(b)
        hg, _, gram_row, gram_start = token_ngram_hashes(flat, row_of, 2)
        hgs = hg.view(np.int64)
        if not len(hgs):
            cols = {"hg": pa.array([], type=pa.int64()),
                    "hp": pa.array([], type=pa.int64()),
                    "cnt": pa.array([], type=pa.int64())}
            if not partial:
                cols["doc_id"] = pa.array([], type=pa.int64())
                del cols["cnt"]
            return pa.table(cols)
        th = hash_strings(pa.array(flat.tolist(),
                                   type=pa.large_string()))
        hps = th[gram_start].view(np.int64)
        if not partial:
            ids = b["doc_id"].to_numpy(zero_copy_only=False)
            return pa.table({"doc_id": pa.array(ids[gram_row]),
                             "hg": pa.array(hgs), "hp": pa.array(hps)})
        order = np.argsort(hgs, kind="stable")
        hgs_s, hps_s = hgs[order], hps[order]
        new = np.ones(len(hgs_s), dtype=bool)
        if len(hgs_s) > 1:
            new[1:] = hgs_s[1:] != hgs_s[:-1]
        starts = np.nonzero(new)[0]
        cnts = np.diff(np.append(starts, len(hgs_s))).astype(np.int64)
        return pa.table({"hg": pa.array(hgs_s[starts]),
                         "hp": pa.array(hps_s[starts]),
                         "cnt": pa.array(cnts)})

    parts = ds.map_batches(lambda b: grams(b, True),
                           batch_format="pyarrow")
    n_rows = _cheap_count(ds)

    if n_rows is not None and n_rows <= BIGRAM_BROADCAST_MAX_ROWS:
        p = parts.to_pandas()
        cg = p.groupby("hg", as_index=False)["cnt"].sum()
        cp = p.groupby("hp", as_index=False)["cnt"].sum()
        hg_s = cg.hg.to_numpy()
        order = np.argsort(hg_s)
        model = ((hg_s[order], cg.cnt.to_numpy()[order]),
                 (np.sort(cp.hp.to_numpy()),
                  cp.cnt.to_numpy()[np.argsort(cp.hp.to_numpy())]))
        model_ref = ray.put(model)

        def score(b: pa.Table) -> pa.Table:
            import ray as _r
            (hg_t, cg_t), (hp_t, cp_t) = _r.get(model_ref)
            g = grams(b, False)
            ids = b["doc_id"].to_numpy(zero_copy_only=False)
            gid = g["doc_id"].to_numpy(zero_copy_only=False)
            c_g = cg_t[np.searchsorted(hg_t, g["hg"].to_numpy())]
            c_p = cp_t[np.searchsorted(hp_t, g["hp"].to_numpy())]
            lp = np.log(c_g / c_p)
            uid, inv = np.unique(gid, return_inverse=True)
            nb = np.bincount(inv).astype(np.int64)
            s_cnt = np.zeros(len(uid), dtype=np.int64)
            np.add.at(s_cnt, inv, c_g)
            m_cnt = np.full(len(uid), np.iinfo(np.int64).max)
            np.minimum.at(m_cnt, inv, c_g)
            s_lp = np.zeros(len(uid))
            np.add.at(s_lp, inv, lp)
            return pa.table({
                "doc_id": pa.array(uid),
                "n_bigrams": pa.array(nb),
                "sum_bigram_cnt": pa.array(s_cnt),
                "min_bigram_cnt": pa.array(m_cnt),
                "avg_logprob_r6": pa.array(np.round(s_lp / nb, 6))})

        return ds.map_batches(score, batch_format="pyarrow")

    from biobloom_ray.io import hash_join
    cg = parts.groupby("hg").aggregate(Sum("cnt", alias_name="c_g"))
    cp_parts = parts.map_batches(
        lambda b: b.select(["hp", "cnt"]), batch_format="pyarrow")
    cp = cp_parts.groupby("hp").aggregate(Sum("cnt", alias_name="c_p"))
    exploded = ds.map_batches(lambda b: grams(b, False),
                              batch_format="pyarrow")
    j = hash_join(hash_join(exploded, cg, on=("hg",)), cp, on=("hp",))

    def lp_col(b: pa.Table) -> pa.Table:
        c_g = b["c_g"].to_numpy(zero_copy_only=False)
        c_p = b["c_p"].to_numpy(zero_copy_only=False)
        return pa.table({"doc_id": b["doc_id"],
                         "c_g": b["c_g"],
                         "lp": pa.array(np.log(c_g / c_p))})

    agg = (j.map_batches(lp_col, batch_format="pyarrow")
           .groupby("doc_id")
           .aggregate(Count(alias_name="n_bigrams"),
                      Sum("c_g", alias_name="sum_bigram_cnt"),
                      Min("c_g", alias_name="min_bigram_cnt"),
                      Sum("lp", alias_name="s_lp")))

    def finish(b: pa.Table) -> pa.Table:
        s_lp = b["s_lp"].to_numpy(zero_copy_only=False)
        nb = b["n_bigrams"].to_numpy(zero_copy_only=False)
        return pa.table({
            "doc_id": b["doc_id"], "n_bigrams": b["n_bigrams"],
            "sum_bigram_cnt": b["sum_bigram_cnt"],
            "min_bigram_cnt": b["min_bigram_cnt"],
            "avg_logprob_r6": pa.array(np.round(s_lp / nb, 6))})

    return agg.map_batches(finish, batch_format="pyarrow")


CHUNK_TOKENS = 64
CHUNK_STRIDE = 48


def chunk_documents(sf_dir: str, chunk: int = CHUNK_TOKENS,
                    stride: int = CHUNK_STRIDE):
    """Fixed-size overlapping token-window chunking (training-prep
    fan-out; see ``stages/webclean.chunk_docs_batch`` for the
    vectorized kernel).  Map-only flat_map — output fan-out is local
    to each batch, no shuffle at any scale; at 100 TB this is the
    stage whose OUTPUT exceeds its input (~chunk/stride ×), so it
    should feed a streaming writer, never a driver collect — the
    pandas tail here is the small-scale query contract only."""
    from biobloom_ray.stages.webclean import chunk_docs_batch

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = ds.map_batches(lambda b: chunk_docs_batch(b, chunk, stride),
                         batch_format="pyarrow")
    return (out.to_pandas().sort_values(["doc_id", "chunk_id"])
            .reset_index(drop=True))


#: input-row gate for tfidf_top_terms' broadcast tier (same contract
#: as RARITY_BROADCAST_MAX_ROWS: below it the vocabulary df table is
#: driver-combined and broadcast, above it a string-keyed hash join)
TFIDF_BROADCAST_MAX_ROWS = 100_000


def _doc_term_tf(b: pa.Table) -> pa.Table:
    """Per-batch (doc_id, token, tf) rows — exact, since a doc never
    splits across input rows.  Codes from np.unique are lex-ordered,
    which downstream tie-breaks rely on."""
    from biobloom_ray.stages.textstats import _token_arrays

    flat, lens, row_of = _token_arrays(b)
    ids = b["doc_id"].to_numpy(zero_copy_only=False)
    if not len(flat):
        return pa.table({"doc_id": pa.array([], type=pa.int64()),
                         "token": pa.array([], type=pa.string()),
                         "tf": pa.array([], type=pa.int64())})
    # hash-based factorize + small-vocab rank beats np.unique's
    # O(n log n) object-string sort ~30x; output is identical
    # (lex-sorted uniq, lex-ordered codes)
    codes0, uniq0 = pd.factorize(pd.Index(flat, dtype=object))
    vorder = np.argsort(uniq0)
    rank = np.empty(len(vorder), dtype=np.int64)
    rank[vorder] = np.arange(len(vorder))
    uniq = uniq0.to_numpy(dtype=object)[vorder]
    codes = rank[codes0]
    order = np.lexsort((codes, row_of))
    rs, cs = row_of[order], codes[order]
    new = np.ones(len(rs), dtype=bool)
    new[1:] = (rs[1:] != rs[:-1]) | (cs[1:] != cs[:-1])
    starts = np.nonzero(new)[0]
    tf = np.diff(np.append(starts, len(rs))).astype(np.int64)
    return pa.table({
        "doc_id": pa.array(ids[rs[starts]]),
        "token": pa.array(uniq[cs[starts]].tolist(), type=pa.string()),
        "tf": pa.array(tf)})


def tfidf_top_terms(sf_dir: str):
    """Most-salient term per document, ranked by EXACT INTEGERS —
    (tf desc, df asc, token asc) — so the winning row is float-free on
    both engines; the tf·idf score ``tf * ln(N/df)`` is emitted as a
    6-dp-rounded value column only (same float-absorption contract as
    ``bigram_lm_scores``).  Output (docs with >= 1 token, sorted):
    ``doc_id, top_term, tf, df, tfidf_r6``.

    Tiered: per-batch-deduped (token, df) partials -> ONE native
    ``groupby(token).Sum`` (df is exact: a doc never splits across
    rows).  Below the gate the vocabulary broadcasts once via
    ``ray.put`` (sorted-array binary search per batch, map-only
    pick); above it the (doc_id, token, tf) rows hash-join the df
    table, a global sort on the ranking key range-partitions the rows,
    each block keeps its first row per doc, and the driver keeps the
    first survivor per doc in sort order (candidates <= one per
    block that touches the doc; driver tail is proportional to the
    OUTPUT, one row per doc)."""
    import ray

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    n_docs = _cheap_count(ds)
    if n_docs is None:
        n_docs = ds.count()

    tf_ds = ds.map_batches(_doc_term_tf, batch_format="pyarrow")

    def df_partials(b: pa.Table) -> pa.Table:
        t = _doc_term_tf(b)
        ones = np.ones(len(t), dtype=np.int64)
        return pa.table({"token": t["token"], "df": pa.array(ones)})

    parts = ds.map_batches(df_partials, batch_format="pyarrow")

    if n_docs <= TFIDF_BROADCAST_MAX_ROWS:
        p = parts.to_pandas()
        dfg = p.groupby("token", as_index=False)["df"].sum()
        vocab = dfg.token.to_numpy(dtype=object)
        order = np.argsort(vocab)
        vocab, dfv = vocab[order], dfg.df.to_numpy()[order]
        ref = ray.put((vocab, dfv, n_docs))

        def pick(b: pa.Table) -> pa.Table:
            import ray as _r
            vocab, dfv, N = _r.get(ref)
            t = _doc_term_tf(b)
            if not len(t):
                return pa.table({
                    "doc_id": pa.array([], type=pa.int64()),
                    "top_term": pa.array([], type=pa.string()),
                    "tf": pa.array([], type=pa.int64()),
                    "df": pa.array([], type=pa.int64()),
                    "tfidf_r6": pa.array([], type=pa.float64())})
            toks = t["token"].to_numpy(zero_copy_only=False)
            tf = t["tf"].to_numpy(zero_copy_only=False)
            dids = t["doc_id"].to_numpy(zero_copy_only=False)
            dfx = dfv[np.searchsorted(vocab, toks)]
            # lex-ordered token codes keep the tie-break integer-only
            _, tcodes = np.unique(toks, return_inverse=True)
            order = np.lexsort((tcodes, dfx, -tf, dids))
            keep = np.ones(len(order), dtype=bool)
            keep[1:] = dids[order][1:] != dids[order][:-1]
            w = order[keep]
            return pa.table({
                "doc_id": pa.array(dids[w]),
                "top_term": pa.array(toks[w].tolist(), type=pa.string()),
                "tf": pa.array(tf[w]),
                "df": pa.array(dfx[w]),
                "tfidf_r6": pa.array(np.round(
                    tf[w] * np.log(N / dfx[w]), 6))})

        out = ds.map_batches(pick, batch_format="pyarrow").to_pandas()
        return out.sort_values("doc_id").reset_index(drop=True)

    from biobloom_ray.io import hash_join
    dfd = parts.groupby("token").aggregate(Sum("df", alias_name="df"))
    j = hash_join(tf_ds, dfd, on=("token",))
    ranked = j.sort(["doc_id", "tf", "df", "token"],
                    descending=[False, True, False, False])

    def block_first(b: pa.Table) -> pa.Table:
        dids = b["doc_id"].to_numpy(zero_copy_only=False)
        if not len(dids):
            return b
        keep = np.ones(len(dids), dtype=bool)
        keep[1:] = dids[1:] != dids[:-1]
        return b.filter(pa.array(keep))

    cand = (ranked.map_batches(block_first, batch_format="pyarrow",
                               batch_size=None).to_pandas())
    out = cand.drop_duplicates("doc_id", keep="first").copy()
    out["tfidf_r6"] = np.round(
        out.tf.to_numpy() * np.log(n_docs / out.df.to_numpy()), 6)
    out = out.rename(columns={"token": "top_term"})
    out = out[["doc_id", "top_term", "tf", "df", "tfidf_r6"]]
    return out.sort_values("doc_id").reset_index(drop=True)


PPL_BUCKETS = 3


def bigram_ppl_buckets(sf_dir: str, n_buckets: int = PPL_BUCKETS):
    """CCNet-style quality bucketing (head/middle/tail): NTILE over the
    corpus ranked by the bigram-LM score (best = bucket 1), with exact
    SQL NTILE semantics — earlier buckets take the remainder rows.

    Distributed global-rank pattern (the block-offset prefix of
    ``epoch_shuffle_full``): sort by (score desc, doc_id) → materialize
    (pins the block layout) → pass 1 reads one row per block (first
    key + row count) → driver computes #blocks exclusive rank offsets
    → pass 2 adds the broadcast offset to each block's local arange
    and maps rank → bucket in closed form.  Partitioning assumption,
    documented: pass 2's batches are exactly pass 1's blocks
    (``batch_size=None`` on the same materialized dataset)."""
    import ray

    sc = _bigram_scores_ds(sf_dir).map_batches(
        lambda b: b.select(["doc_id", "avg_logprob_r6"]),
        batch_format="pyarrow")
    sorted_ds = sc.sort(["avg_logprob_r6", "doc_id"],
                        descending=[True, False]).materialize()

    def block_key_cnt(b: pa.Table) -> pa.Table:
        lp = b["avg_logprob_r6"].to_numpy(zero_copy_only=False)
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        if len(lp) == 0:
            return pa.table({"k_lp": pa.array([], type=pa.float64()),
                             "k_docid": pa.array([], type=pa.int64()),
                             "blk_n": pa.array([], type=pa.int64())})
        return pa.table({"k_lp": pa.array([float(lp[0])]),
                         "k_docid": pa.array([int(ids[0])]),
                         "blk_n": pa.array([len(lp)])})

    blocks = (sorted_ds.map_batches(block_key_cnt, batch_format="pyarrow",
                                    batch_size=None).to_pandas())
    blocks = blocks.sort_values(["k_lp", "k_docid"],
                                ascending=[False, True])
    offs = blocks.blk_n.cumsum().shift(fill_value=0).to_numpy()
    n_total = int(blocks.blk_n.sum())
    off_of = {(float(r.k_lp), int(r.k_docid)): int(o)
              for r, o in zip(blocks.itertuples(), offs)}
    off_ref = ray.put(off_of)
    base_sz, rem = divmod(n_total, n_buckets)
    cut = rem * (base_sz + 1)

    def assign(b: pa.Table) -> pa.Table:
        import ray as _r
        omap = _r.get(off_ref)
        lp = b["avg_logprob_r6"].to_numpy(zero_copy_only=False)
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        if len(lp) == 0:
            return pa.table({"doc_id": pa.array([], type=pa.int64()),
                             "avg_logprob_r6": pa.array(
                                 [], type=pa.float64()),
                             "ppl_bucket": pa.array([], type=pa.int64())})
        rank = omap[(float(lp[0]), int(ids[0]))] + np.arange(
            len(lp), dtype=np.int64)
        bucket = np.where(
            rank < cut, rank // (base_sz + 1) + 1,
            rem + (rank - cut) // max(base_sz, 1) + 1)
        return pa.table({"doc_id": pa.array(ids),
                         "avg_logprob_r6": pa.array(lp),
                         "ppl_bucket": pa.array(bucket)})

    return (sorted_ds.map_batches(assign, batch_format="pyarrow",
                                  batch_size=None)
            .to_pandas().sort_values("doc_id").reset_index(drop=True))


#: input-row gate for dup_clusters' driver tier (same contract as
#: REPEAT_DRIVER_MAX_ROWS: below it the deduped membership rows combine
#: on the driver, above it the iterative BSP label propagation runs)
DUPC_DRIVER_MAX_ROWS = 200_000
#: window length (chars) for the shared-substring edge definition
DUPC_SUBSTR_K = 30
#: grams in more than this many docs are boilerplate, not dup evidence
DUPC_HOT_GRAM_CAP = 10
#: hard stop for the label-propagation loop (converges in O(log D)
#: rounds for D-doc components; real dup clusters have tiny diameter)
DUPC_MAX_ITERS = 50


def _gram_membership(b: pa.Table, k: int) -> pa.Table:
    """Per-batch-deduped ``(doc_id, h)`` membership rows: doc contains
    the k-char shingle with 64-bit rolling hash h.  A document never
    splits across input rows, so per-batch dedup is global dedup."""
    from biobloom_ray.hashing import shingle_hashes

    texts = b["text"]
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    h1, _, nf = shingle_hashes(texts, k)
    ids = b["doc_id"].to_numpy(zero_copy_only=False)
    row_of = np.repeat(np.arange(len(ids), dtype=np.int64), nf)
    hs = h1.view(np.int64)
    order = np.lexsort((hs, row_of))
    rs, hss = row_of[order], hs[order]
    new = np.ones(len(rs), dtype=bool)
    if len(rs) > 1:
        new[1:] = (rs[1:] != rs[:-1]) | (hss[1:] != hss[:-1])
    return pa.table({"doc_id": pa.array(ids[rs[new]]),
                     "h": pa.array(hss[new])})


def dup_clusters(sf_dir: str, k: int = DUPC_SUBSTR_K,
                 cap: int = DUPC_HOT_GRAM_CAP):
    """Near-duplicate CLUSTERS by connected components over the
    shared-substring graph — the grouping step a dedup pipeline runs
    after pair generation (each cluster keeps one representative): two
    docs are connected when they share a k-char substring occurring in
    2..cap distinct docs (the cap excludes boilerplate grams, which are
    popularity, not duplication — same motivation as
    ``remove_boilerplate_ngrams``).  Output (docs in a component of
    size >= 2, sorted): ``doc_id, cluster_id, cluster_size`` with
    cluster_id = min doc_id of the component.

    Shape: one shingle scan emits per-batch-deduped narrow
    ``(doc_id, h)`` membership rows; grams kept by ONE native
    ``groupby(h).Count()`` (rows are deduped per doc, so Count = df);
    components via BSP min-label propagation on the bipartite doc-gram
    graph — per round, 2 hash joins + 2 native ``Min`` groupbys:
    ``lbl(doc) <- min over its grams of min over the gram's docs of
    lbl``.  Labels decrease monotonically, so ``sum(lbl)`` unchanged
    <=> fixpoint; rounds needed = O(log max-component-diameter).  The
    per-round label table is materialized to truncate lineage — it is
    16 B/doc narrow rows bounded by the DUPLICATE population, not the
    corpus (checkpoint to parquet above an object-store gate at real
    scale, as ``stages/dedup`` documents for signatures).  Below
    ``DUPC_DRIVER_MAX_ROWS`` input docs the membership rows combine on
    the driver with the identical numpy propagation
    (tier-parity-tested).  Substring identity is the 64-bit shingle
    hash — collision odds ~N^2/2^65 (swap in the 128-bit pair at
    10^12-shingle scale).  Skew: the cap bounds every gram group at
    ``cap`` rows; the groupby(h) key itself is the dedup bound
    (<= n_docs rows per h).
    """
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    mem_all = ds.map_batches(lambda b: _gram_membership(b, k),
                             batch_format="pyarrow")
    n_rows = _cheap_count(ds)

    def _frame(doc_id, cluster_id, cluster_size):
        out = pd.DataFrame({
            "doc_id": np.asarray(doc_id, dtype=np.int64),
            "cluster_id": np.asarray(cluster_id, dtype=np.int64),
            "cluster_size": np.asarray(cluster_size, dtype=np.int64)})
        return out.sort_values("doc_id").reset_index(drop=True)

    if n_rows is not None and n_rows <= DUPC_DRIVER_MAX_ROWS:
        p = mem_all.to_pandas()
        df_of = p.groupby("h")["doc_id"].transform("size")
        m = p[(df_of >= 2) & (df_of <= cap)]
        if len(m) == 0:
            return _frame([], [], [])
        docs, gid = np.unique(m.doc_id.to_numpy(), return_inverse=True)
        _, hidx = np.unique(m.h.to_numpy(), return_inverse=True)
        n_h = int(hidx.max()) + 1
        lbl = docs.copy()
        for _ in range(DUPC_MAX_ITERS):
            hl = np.full(n_h, np.iinfo(np.int64).max)
            np.minimum.at(hl, hidx, lbl[gid])
            nl = lbl.copy()
            np.minimum.at(nl, gid, hl[hidx])
            if (nl == lbl).all():
                break
            lbl = nl
        uniq, inv, cnt = np.unique(lbl, return_inverse=True,
                                   return_counts=True)
        return _frame(docs, lbl, cnt[inv])

    from biobloom_ray.io import hash_join
    dfc = mem_all.groupby("h").aggregate(Count(alias_name="n_docs"))

    def kept_only(b: pa.Table) -> pa.Table:
        ok = pc.and_(pc.greater_equal(b["n_docs"], 2),
                     pc.less_equal(b["n_docs"], cap))
        return b.filter(ok).select(["h"])

    kept = dfc.map_batches(kept_only, batch_format="pyarrow")
    mem = hash_join(mem_all, kept, on=("h",)).materialize()

    def init_lbl(b: pa.Table) -> pa.Table:
        return pa.table({"doc_id": b["doc_id"], "lbl": b["doc_id"]})

    lbl_ds = (mem.groupby("doc_id").aggregate(Count(alias_name="x"))
              .map_batches(lambda b: init_lbl(b), batch_format="pyarrow")
              .materialize())
    prev_tot = None
    for _ in range(DUPC_MAX_ITERS):
        a = hash_join(mem, lbl_ds, on=("doc_id",))
        hmin = a.groupby("h").aggregate(Min("lbl", alias_name="hlbl"))
        bjoin = hash_join(mem, hmin, on=("h",))
        lbl_ds = (bjoin.groupby("doc_id")
                  .aggregate(Min("hlbl", alias_name="lbl"))
                  .materialize())
        tot = lbl_ds.sum("lbl")
        if tot == prev_tot:
            break
        prev_tot = tot

    # label table is output-scale (one row per dup doc) — size the
    # clusters driver-side rather than paying another shuffle + join
    out = lbl_ds.to_pandas()
    if len(out) == 0:
        return _frame([], [], [])
    sizes = out.groupby("lbl")["doc_id"].transform("size")
    return _frame(out.doc_id, out.lbl, sizes)


#: input-row gate for source_quality_gate's broadcast tier: below it
#: the kept-source set ships once via ray.put (filter is map-only);
#: above it a hash semi-join on source runs instead
SRCGATE_BROADCAST_MAX_ROWS = 100_000


def source_quality_gate(sf_dir: str):
    """Domain-level quality gate — keep documents whose SOURCE has a
    Gopher pass rate >= 1/2 (exact integers: ``2 * n_pass >= n_docs``),
    the UT1/RefinedWeb-style 'judge the domain, not the page' filter.
    Two phases: (1) per-batch (source, n_docs, n_pass) partials from
    the ``gopher_flags_batch`` kernel -> ONE native ``groupby(source)``
    Sum -> the kept-source table (#domains rows, never corpus-scale);
    (2) a map-only filter of the documents scan against that table —
    broadcast once via ``ray.put`` below ``SRCGATE_BROADCAST_MAX_ROWS``
    input rows, hash semi-join above it (tier-parity-tested).  Output
    (kept docs, sorted): ``doc_id, source``."""
    import ray

    from biobloom_ray.stages.webclean import gopher_flags_batch

    ds = _read(sf_dir, "documents", columns=["doc_id", "text", "source"])

    def rate_partial(b: pa.Table) -> pa.Table:
        flags = gopher_flags_batch(b)
        df = pd.DataFrame({
            "source": b["source"].to_pandas(),
            "p": flags["pass_gopher"].to_numpy(zero_copy_only=False)})
        agg = df.groupby("source", as_index=False).agg(
            n_docs=("p", "size"), n_pass=("p", "sum"))
        return pa.Table.from_pandas(agg, preserve_index=False)

    rates = (ds.map_batches(rate_partial, batch_format="pyarrow")
             .groupby("source")
             .aggregate(Sum("n_docs", alias_name="n_docs"),
                        Sum("n_pass", alias_name="n_pass")))

    def kept_only(b: pa.Table) -> pa.Table:
        n = b["n_docs"].to_numpy(zero_copy_only=False)
        p = b["n_pass"].to_numpy(zero_copy_only=False)
        return pa.table({"source": b["source"].filter(
            pa.array(2 * p >= n))})

    kept = rates.map_batches(kept_only, batch_format="pyarrow")
    n_rows = _cheap_count(ds)
    # phase-2 scan re-reads only the two output columns — the text
    # column (the bulk of the table's bytes) stays in storage
    slim = _read(sf_dir, "documents", columns=["doc_id", "source"])

    if n_rows is not None and n_rows <= SRCGATE_BROADCAST_MAX_ROWS:
        kset = np.sort(_parts_pandas(kept, {"source": object})
                       .source.to_numpy(dtype=object))
        ref = ray.put(kset)

        def pick(b: pa.Table) -> pa.Table:
            import ray as _r
            ks = _r.get(ref)
            src = b["source"].to_numpy(zero_copy_only=False)
            if len(ks) == 0:
                m = np.zeros(len(src), dtype=bool)
            else:
                i = np.searchsorted(ks, src)
                i = np.minimum(i, len(ks) - 1)
                m = ks[i] == src
            return b.filter(pa.array(m))

        out = slim.map_batches(pick, batch_format="pyarrow")
    else:
        from biobloom_ray.io import hash_join
        out = hash_join(slim, kept, on=("source",))
    out = _parts_pandas(out, {"doc_id": np.int64, "source": object})
    return (out[["doc_id", "source"]].sort_values("doc_id")
            .reset_index(drop=True))


def token_freq_histogram(sf_dir: str):
    """Zipf profile of the corpus vocabulary: for every global token
    frequency f, how many distinct tokens occur exactly f times — the
    frequency-of-frequencies table (Good-Turing input, vocabulary-
    truncation diagnostics).  Shape: per-batch-combined (token, cnt)
    partials -> ONE native ``groupby(token)`` Sum (the inherent
    vocabulary shuffle, narrow rows) -> per-batch histogram partials ->
    a tiny ``groupby(freq)`` Sum (#distinct-frequencies keys, ~log-
    scale).  Output sorted by freq: ``freq, n_tokens``."""
    from biobloom_ray.stages.textstats import _token_arrays

    ds = _read(sf_dir, "documents", columns=["text"])

    def tok_partial(b: pa.Table) -> pa.Table:
        flat, _, _ = _token_arrays(b)
        if not len(flat):
            return pa.table({"token": pa.array([], type=pa.string()),
                             "cnt": pa.array([], type=pa.int64())})
        # hash-based factorize beats np.unique's object-string sort
        # ~30x; partial order is irrelevant (feeds a groupby)
        codes, uniq = pd.factorize(pd.Index(flat, dtype=object))
        cnt = np.bincount(codes, minlength=len(uniq))
        return pa.table({"token": pa.array(uniq.to_numpy(dtype=object)
                                           .tolist(), type=pa.string()),
                         "cnt": pa.array(cnt.astype(np.int64))})

    vocab = (ds.map_batches(tok_partial, batch_format="pyarrow")
             .groupby("token").aggregate(Sum("cnt", alias_name="cnt")))

    def hist_partial(b: pa.Table) -> pa.Table:
        c = b["cnt"].to_numpy(zero_copy_only=False)
        if not len(c):
            return pa.table({"freq": pa.array([], type=pa.int64()),
                             "n_tokens": pa.array([], type=pa.int64())})
        f, n = np.unique(c, return_counts=True)
        return pa.table({"freq": pa.array(f.astype(np.int64)),
                         "n_tokens": pa.array(n.astype(np.int64))})

    out = (vocab.map_batches(hist_partial, batch_format="pyarrow")
           .groupby("freq").aggregate(Sum("n_tokens",
                                          alias_name="n_tokens"))
           .to_pandas())
    out["n_tokens"] = out.n_tokens.astype(np.int64)
    return out.sort_values("freq").reset_index(drop=True)


def source_mix_sample(sf_dir: str):
    """Source-mixture rebalancer — the dataset-mixing step of a
    training-data pipeline (cap a dominant domain, as in Pile/CCNet
    source weighting): downsample every source above the headroom cap
    ``C = ceil(total_docs / (2 * n_sources))`` (half the uniform
    share — the standard dominance bound that leaves room for
    under-represented domains to be upweighted later) with the SAME
    bit-exact splitmix64 keep rule as :func:`deterministic_sample_hash`
    (keep iff ``splitmix64(doc_id) < (C << 64) // n_s``; sources at or
    under the cap keep everything, no hash test).  Reproducible across
    runs/retries/engines; the oracle replays splitmix64 in 128-bit
    DuckDB arithmetic and computes the identical integer thresholds.

    Shape: one native ``groupby(source).Count`` (tiny shuffle, one row
    per source) -> per-source integer thresholds closed over (#sources
    entries, broadcast-trivial) -> map-only vectorized filter pass.
    Output (sorted by doc_id): ``doc_id, source``."""
    from biobloom_ray.hashing import splitmix64

    ds = _read(sf_dir, "documents", columns=["doc_id", "source"])
    cnt = ds.groupby("source").aggregate(Count(alias_name="n")).to_pandas()
    total, k = int(cnt.n.sum()), len(cnt)
    if k == 0:
        return pd.DataFrame({"doc_id": pd.Series([], dtype=np.int64),
                             "source": pd.Series([], dtype=object)})
    cap = (total + 2 * k - 1) // (2 * k)
    svocab = cnt.source.to_numpy(dtype=object)
    order = np.argsort(svocab)
    svocab = svocab[order]
    ns = cnt.n.to_numpy()[order].astype(np.int64)
    keep_all = ns <= cap
    thr = np.where(keep_all, np.uint64(0),
                   np.array([(cap << 64) // int(n) if n > cap else 0
                             for n in ns], dtype=np.uint64))

    def pick(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        src = b["source"].to_numpy(zero_copy_only=False)
        code = np.searchsorted(svocab, src)
        mask = keep_all[code] | (splitmix64(ids) < thr[code])
        return b.filter(pa.array(mask))

    out = ds.map_batches(pick, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


#: fixed epoch seed for the oracle-checked query (any uint64 works)
EPOCH_SHUFFLE_SEED = 7
EPOCH_SHUFFLE_HEAD = 100


def epoch_shuffle_head(sf_dir: str, seed: int = EPOCH_SHUFFLE_SEED,
                       head: int = EPOCH_SHUFFLE_HEAD):
    """Deterministic epoch shuffle — the reproducible global permutation
    a training run draws its batches from: order docs by the bit-exact
    key ``splitmix64(doc_id XOR seed)`` (new seed => new permutation;
    same seed => identical order across runs/retries/engines).  The
    oracle replays the hash in 128-bit DuckDB arithmetic.

    At scale the full permutation is ``sort(key)`` + partitioned write
    (one range per output shard); the oracle-checked query returns the
    permutation's first ``head`` rows, which pins the global order
    without materializing it: per block a vectorized argpartition keeps
    the ``head`` smallest keys (map-only, no shuffle), the driver
    merges <= head x #blocks candidate rows.  Output: ``pos`` (1-based
    position), ``doc_id``."""
    from biobloom_ray.hashing import splitmix64

    ds = _read(sf_dir, "documents", columns=["doc_id"])
    sd = np.uint64(seed)

    def block_head(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        h = splitmix64(ids.astype(np.uint64) ^ sd)
        k = min(head, len(h))
        if k == 0:
            return pa.table({"doc_id": pa.array([], type=pa.int64()),
                             "h": pa.array([], type=pa.uint64())})
        part = np.argpartition(h, k - 1)[:k]
        return pa.table({"doc_id": pa.array(ids[part]),
                         "h": pa.array(h[part])})

    cand = ds.map_batches(block_head, batch_format="pyarrow",
                          batch_size=None).to_pandas()
    cand = cand.sort_values(["h", "doc_id"]).head(head)
    out = pd.DataFrame({"pos": np.arange(1, len(cand) + 1,
                                         dtype=np.int64),
                        "doc_id": cand.doc_id.to_numpy()})
    return out


def epoch_shuffle_full(sf_dir: str, seed: int = EPOCH_SHUFFLE_SEED):
    """The FULL epoch permutation with GLOBAL 1-based positions (r3
    verdict #9: the head query pins only the first rows; this one pins
    every position).  Distributed plan — no driver sort of the corpus:
    ``sort(h, doc_id)`` (Ray's range-partitioned exchange) +
    a block-offset prefix: pass 1
    reads ONE row per block (first key + row count; the sort's range
    partitioning makes first-keys order the blocks), the driver prefixes
    the #blocks-sized counts, pass 2 adds the broadcast base offset to
    each block's local ``arange``.  Oracle: the same bit-exact
    128-bit splitmix64 SQL replay as the head query, without the LIMIT.

    Output (sorted by pos): ``pos``, ``doc_id``."""
    import ray

    from biobloom_ray.hashing import splitmix64

    ds = _read(sf_dir, "documents", columns=["doc_id"])
    sd = np.uint64(seed)

    def key(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        h = splitmix64(ids.astype(np.uint64) ^ sd)
        return pa.table({"doc_id": pa.array(ids), "h": pa.array(h)})

    sorted_ds = (ds.map_batches(key, batch_format="pyarrow")
                 .sort(["h", "doc_id"]).materialize())

    def block_meta(b: pa.Table) -> pa.Table:
        if len(b) == 0:
            return pa.table({"k_h": pa.array([], type=pa.uint64()),
                             "k_id": pa.array([], type=pa.int64()),
                             "n": pa.array([], type=pa.int64())})
        return pa.table({"k_h": pa.array([b["h"][0].as_py()],
                                         type=pa.uint64()),
                         "k_id": pa.array([b["doc_id"][0].as_py()],
                                          type=pa.int64()),
                         "n": pa.array([len(b)], type=pa.int64())})

    blocks = (sorted_ds.map_batches(block_meta, batch_format="pyarrow",
                                    batch_size=None).to_pandas())
    blocks = blocks.sort_values(["k_h", "k_id"])
    offs = blocks.n.cumsum().shift(fill_value=0).to_numpy()
    off_of = {(int(r.k_h), int(r.k_id)): int(o)
              for r, o in zip(blocks.itertuples(), offs)}
    off_ref = ray.put(off_of)

    def assign(b: pa.Table) -> pa.Table:
        if len(b) == 0:
            return pa.table({"pos": pa.array([], type=pa.int64()),
                             "doc_id": pa.array([], type=pa.int64())})
        omap = ray.get(off_ref)
        base = omap[(int(b["h"][0].as_py()), int(b["doc_id"][0].as_py()))]
        return pa.table({
            "pos": pa.array(base + 1 + np.arange(len(b), dtype=np.int64)),
            "doc_id": b["doc_id"]})

    return (sorted_ds.map_batches(assign, batch_format="pyarrow",
                                  batch_size=None)
            .to_pandas().sort_values("pos").reset_index(drop=True))


_SIGN_BIT = np.uint64(1 << 63)


def _wk_encode(ids: np.ndarray, payload=None) -> pa.Array:
    """First-wins composite key: the doc_id with its sign bit flipped,
    read as uint64 and zero-padded to 20 digits, so string order IS
    signed doc_id order and one ``Min`` picks the smallest id; an
    optional ``payload`` column rides after a ``|`` and comes back
    with the winner, no join back."""
    u = ids.astype(np.int64).view(np.uint64) ^ _SIGN_BIT
    key = pc.utf8_lpad(pa.array(u).cast(pa.string()), 20, "0")
    if payload is None:
        return key
    return pc.binary_join_element_wise(key, payload, "|")


def _wk_decode(wk) -> tuple[np.ndarray, pa.Array]:
    """Inverse of :func:`_wk_encode`: (int64 doc_ids, payload strings)."""
    u = pc.cast(pc.utf8_slice_codeunits(wk, 0, 20), pa.uint64())
    ids = (u.to_numpy(zero_copy_only=False) ^ _SIGN_BIT).view(np.int64)
    return ids, pc.utf8_slice_codeunits(wk, 21)


def _curation_plan(sf_dir: str, bench_mod: int, attr: str | None):
    """The cleaning chain of :func:`clean_corpus` and both funnels:
    Gopher gate + benchmark-doc exclusion -> first-wins exact dedup ->
    benchmark trigram decontamination (the C4/Gopher/GPT-3 order).

    ONE map emits a narrow row per document: ``wk`` (the id key with
    the ``attr`` column as payload), ``n_tokens``, ``gated``, and for
    gated rows ``fp_md5`` and the :func:`_contam_hits` flag
    ``contam``.  Both are functions of the text, which is identical
    within an md5 group, so the dedup ``groupby(fp_md5)`` carries no
    text.  Returns ``(docs, winners)``: ``docs`` materialized, and one
    winner row per distinct gated text (``fp_md5, wk, n_tokens,
    contam``).  A null ``attr`` value raises ``ValueError``."""
    from biobloom_ray.stages.webclean import gopher_flags_batch

    n = 3
    cols = ["doc_id", "text"] + ([attr] if attr else [])
    ds = _read(sf_dir, "documents", columns=cols)
    # surface narrow()'s ValueError as itself, not as a UserCodeException
    ds.context.raise_original_map_exception = True
    # the eval suite is fixed before any cleaning decision: its
    # trigrams come from the FULL corpus bench slice
    state_ref = _bench_trigram_state(ds, bench_mod, n)

    def narrow(b: pa.Table) -> pa.Table:
        if attr and b[attr].null_count:
            raise ValueError(f"documents.{attr} has null values; the "
                             f"curation chain attributes docs by {attr}")
        flags = gopher_flags_batch(b)
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        gated = ((flags["pass_gopher"].to_numpy(zero_copy_only=False)
                  == 1) & (ids % bench_mod != 0))
        sel = np.nonzero(gated)[0]
        sub = b.take(sel)
        fp = np.full(len(b), None, dtype=object)
        fp[sel] = add_content_hash(sub)["fp_md5"].to_numpy(
            zero_copy_only=False)
        _, rows, _ = _contam_hits(sub, state_ref, n)
        contam = np.zeros(len(b), dtype=np.int64)
        contam[sel] = np.bincount(rows, minlength=len(sel)) > 0
        return pa.table({
            "wk": _wk_encode(ids, b[attr] if attr else None),
            "n_tokens": flags["n_words"],
            "gated": pa.array(gated),
            "fp_md5": pa.array(fp, type=pa.string()),
            "contam": pa.array(contam)})

    docs = ds.map_batches(narrow, batch_format="pyarrow").materialize()
    winners = (docs.map_batches(
        lambda b: b.filter(b["gated"]).drop_columns(["gated"]),
        batch_format="pyarrow")
        .groupby("fp_md5")
        .aggregate(Min("wk", alias_name="wk"),
                   Min("n_tokens", alias_name="n_tokens"),
                   Max("contam", alias_name="contam")))
    return docs, winners


def clean_corpus(sf_dir: str, bench_mod: int = DECON_BENCH_MOD):
    """The canonical web-cleaning pipeline COMPOSED end-to-end
    (:func:`_curation_plan`): the uncontaminated first-wins dedup
    winners of the quality gate, with the winner's lang.

    Output (kept docs, sorted by doc_id): ``doc_id, lang, n_tokens``."""
    _, winners = _curation_plan(sf_dir, bench_mod, "lang")

    def kept(b: pa.Table) -> pa.Table:
        b = b.filter(pc.equal(b["contam"], 0))
        ids, lang = _wk_decode(b["wk"])
        return pa.table({"doc_id": pa.array(ids), "lang": lang,
                         "n_tokens": b["n_tokens"]})

    out = _parts_pandas(winners.map_batches(kept, batch_format="pyarrow"),
                        {"doc_id": np.int64, "lang": object,
                         "n_tokens": np.int64})
    return out.sort_values("doc_id").reset_index(drop=True)


def _funnel(sf_dir: str, bench_mod: int, attr: str | None) -> pd.DataFrame:
    """Docs and whitespace tokens surviving each stage of
    :func:`_curation_plan` per ``attr`` value (key ``""`` when ``attr``
    is None): per-block ``(key, stage_id)`` sums of ``docs``
    (raw, gated) and ``winners`` (deduped, decontaminated) fold on the
    driver onto the zero-filled grid of raw keys × 4 stages.

    Output: ``key, stage_id, stage, n_docs, n_tokens`` sorted by
    (key, stage_id)."""
    docs, winners = _curation_plan(sf_dir, bench_mod, attr)

    def stage_sums(s0: int, col: str, val):
        def fn(b: pa.Table) -> pa.Table:
            key = _wk_decode(b["wk"])[1].to_numpy(zero_copy_only=False)
            df = pd.DataFrame({"key": key, "n_docs": np.int64(1),
                               "n_tokens": b["n_tokens"].to_numpy()})
            nxt = b[col].to_numpy(zero_copy_only=False) == val
            df = pd.concat([df.assign(stage_id=np.int64(s0)),
                            df[nxt].assign(stage_id=np.int64(s0 + 1))])
            return pa.Table.from_pandas(
                df.groupby(["key", "stage_id"], as_index=False).sum(),
                preserve_index=False)
        return fn

    schema = {"key": object, "stage_id": np.int64, "n_docs": np.int64,
              "n_tokens": np.int64}
    parts = pd.concat([
        _parts_pandas(docs.map_batches(stage_sums(0, "gated", True),
                                       batch_format="pyarrow"), schema),
        _parts_pandas(winners.map_batches(stage_sums(2, "contam", 0),
                                          batch_format="pyarrow"),
                      schema)])
    keys = (np.unique(parts.key[parts.stage_id == 0].to_numpy(object))
            if attr else [""])
    grid = pd.MultiIndex.from_product([keys, np.arange(4, dtype=np.int64)],
                                      names=["key", "stage_id"])
    out = (parts.groupby(["key", "stage_id"])[["n_docs", "n_tokens"]]
           .sum().reindex(grid, fill_value=0).reset_index())
    out["stage"] = np.array(["raw", "quality_gate", "exact_dedup",
                             "decontaminated"], dtype=object)[out.stage_id]
    return out[["key", "stage_id", "stage", "n_docs", "n_tokens"]]


def curation_funnel(sf_dir: str, bench_mod: int = DECON_BENCH_MOD):
    """Stage-attrition funnel of the canonical cleaning pipeline — the
    YIELD table a curation team reads first on a new crawl: documents
    and whitespace tokens surviving after each stage of
    :func:`clean_corpus`'s composition, in pipeline order (raw ->
    Gopher quality gate + benchmark exclusion -> first-wins exact
    dedup -> benchmark trigram decontamination).  This is the report
    that tells you whether a stage is eating your token budget before
    you commit a 100-TB run.

    Scale shape: :func:`_funnel` with one constant key (never reads
    ``source``); driver folds are over block-count-scale partial rows
    only, and the output is exactly 4 rows at any corpus size.

    Output: ``stage_id, stage, n_docs, n_tokens`` sorted by stage_id.
    """
    return _funnel(sf_dir, bench_mod, None).drop(columns="key")


def dup_group_size_histogram(sf_dir: str):
    """Duplicate-group size distribution — the dedup diagnostic read
    before picking a dedup strategy: for each exact-content group
    size, how many groups have that size and how many documents they
    account for.  A long tail of big groups means template/boilerplate
    pages; all-1s means exact dedup is a no-op and the budget belongs
    to near-dup.

    Scale shape: one map-only content-hash scan (32-hex md5 keys,
    never text) -> ONE native ``groupby(fp_md5).Count`` — group sizes
    are corpus-distinct-scale, so the counts-of-counts fold is tiered:
    driver fold below ``COUNT_TABLE_DRIVER_MAX_ROWS`` input rows, else a
    second native ``groupby(group_size)`` whose output is
    size-distribution-scale (tiny) at any corpus size.

    Output: ``group_size, n_groups, n_docs`` sorted by group_size.
    """
    ds = _read(sf_dir, "documents", columns=["text"])
    fps = ds.map_batches(
        lambda b: add_content_hash(b).select(["fp_md5"]),
        batch_format="pyarrow")
    grp = fps.groupby("fp_md5").aggregate(
        Count(alias_name="group_size"))
    n_rows = _cheap_count(ds)
    if n_rows is not None and n_rows <= COUNT_TABLE_DRIVER_MAX_ROWS:
        sizes = _parts_pandas(grp, {"fp_md5": object,
                                    "group_size": np.int64})
        out = (sizes.groupby("group_size", as_index=False).size()
               .rename(columns={"size": "n_groups"}))
    else:
        out = _parts_pandas(
            grp.groupby("group_size")
            .aggregate(Count(alias_name="n_groups")),
            {"group_size": np.int64, "n_groups": np.int64})
    out["group_size"] = out.group_size.astype(np.int64)
    out["n_groups"] = out.n_groups.astype(np.int64)
    out["n_docs"] = out.group_size * out.n_groups
    return (out.sort_values("group_size").reset_index(drop=True)
            [["group_size", "n_groups", "n_docs"]])


def contamination_topk(sf_dir: str, n: int = 3,
                       bench_mod: int = DECON_BENCH_MOD, k: int = 20):
    """Contamination ATTRIBUTION — the debugging table behind
    :func:`decontaminate`: the top-k benchmark trigrams by how many
    distinct training documents they leak into (tie-broken by trigram
    text), with total occurrence counts.  A curation team reads this
    to decide whether a 'contaminated' flag means real eval leakage
    or a ubiquitous phrase that should be allowlisted.

    Scale shape: one map-only probe scan over the corpus against the
    broadcast benchmark state (:func:`_contam_hits`); each block emits
    per-trigram partial rows ``(tg, n_docs, n_occ)`` — a document
    never splits across blocks, so per-block distinct ``(tg, doc)``
    counts sum to the global distinct-doc count.  Partials are
    overlap-scale (verified hits only).  Tiered combine: driver fold
    below ``COUNT_TABLE_DRIVER_MAX_ROWS`` input rows, else native
    ``groupby(tg)`` + per-block local top-k + driver final top-k over
    #blocks x k rows (the standard top-k reduction).
    """
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    state_ref = _bench_trigram_state(ds, bench_mod, n)

    def hits(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        sel = np.nonzero(ids % bench_mod != 0)[0]
        _, rows, grams = _contam_hits(b.take(sel), state_ref, n)
        agg = (pd.DataFrame({"tg": grams, "doc": ids[sel][rows]})
               .groupby("tg", as_index=False)
               .agg(n_docs=("doc", "nunique"), n_occ=("doc", "size")))
        return pa.table({
            "tg": pa.array(agg.tg.to_numpy(dtype=object), type=pa.string()),
            "n_docs": pa.array(agg.n_docs.to_numpy(np.int64)),
            "n_occ": pa.array(agg.n_occ.to_numpy(np.int64))})

    parts_ds = ds.map_batches(hits, batch_format="pyarrow")
    schema = {"tg": object, "n_docs": np.int64, "n_occ": np.int64}
    n_rows = _cheap_count(ds)
    if n_rows is not None and n_rows <= COUNT_TABLE_DRIVER_MAX_ROWS:
        agg = (_parts_pandas(parts_ds, schema)
               .groupby("tg", as_index=False)[["n_docs", "n_occ"]]
               .sum())
    else:
        g = (parts_ds.groupby("tg")
             .aggregate(Sum("n_docs", alias_name="n_docs"),
                        Sum("n_occ", alias_name="n_occ")))

        def local_topk(t: pa.Table) -> pa.Table:
            d = t.to_pandas()
            return pa.Table.from_pandas(
                d.sort_values(["n_docs", "tg"],
                              ascending=[False, True]).head(k),
                preserve_index=False)

        agg = _parts_pandas(g.map_batches(local_topk,
                                          batch_format="pyarrow"), schema)
    out = (agg.sort_values(["n_docs", "tg"], ascending=[False, True])
           .head(k).reset_index(drop=True))
    out["n_docs"] = out.n_docs.astype(np.int64)
    out["n_occ"] = out.n_occ.astype(np.int64)
    return out[["tg", "n_docs", "n_occ"]]


def curation_funnel_by_source(sf_dir: str,
                              bench_mod: int = DECON_BENCH_MOD):
    """Per-source yield attribution for the cleaning pipeline — the
    companion table to :func:`curation_funnel` a curation team reads
    when deciding which crawl sources to keep buying: for EVERY
    source × stage, docs and whitespace tokens surviving (raw ->
    Gopher gate + benchmark exclusion -> first-wins exact dedup ->
    trigram decontamination).  Dedup winners are attributed to the
    minimum-doc_id member's source (the first-wins contract), carried
    through the groupby in the winner's ``wk`` key.

    Scale shape: :func:`_funnel` keyed by source; the output is
    |sources| × 4 rows, with zero rows for sources absent from a
    stage.  A null source raises ``ValueError``.

    Output: ``source, stage_id, stage, n_docs, n_tokens`` sorted by
    (source, stage_id).
    """
    return _funnel(sf_dir, bench_mod, "source").rename(
        columns={"key": "source"})


def source_overlap(sf_dir: str):
    """Cross-source contamination matrix — for every pair of sources,
    the number of distinct token trigrams they share (the leakage
    diagnostic behind 'which domains are mirroring each other / the
    benchmark').  Trigram identity is the 64-bit combined-token hash
    (same contract as :func:`repeated_substrings`: collision odds
    ~N²/2⁶⁵; swap a 128-bit hash above ~10¹² distinct grams).

    Shape — ONE all-to-all total: per-batch-deduped ``(h, source)``
    rows go straight into a global sort on (h, source); the sort
    co-locates every surviving duplicate, so a vectorized
    adjacent-row dedup inside each block IS the global dedup (a
    duplicate split across a block boundary makes its hash the block
    edge and falls into the stitch path).  Per block a pandas
    self-merge then expands pairs for hashes wholly inside the block
    (#pairs per hash <= #sources² — bounded, because rows are
    per-source distinct), while rows of the <= #blocks-1
    block-spanning hashes go to the driver raw, are deduped and
    expanded there (output-scale tail).  No groupby, no join — the
    sort replaces both.  Output (sorted): ``src_a, src_b, n_shared``."""
    from biobloom_ray.stages.textstats import (_token_arrays,
                                               token_ngram_hashes)

    ds = _read(sf_dir, "documents", columns=["source", "text"])

    def hs_partial(b: pa.Table) -> pa.Table:
        flat, lens, row_of = _token_arrays(b)
        h1, _, trow, _ = token_ngram_hashes(flat, row_of, 3)
        if not len(h1):
            return pa.table({"h": pa.array([], type=pa.int64()),
                             "source": pa.array([], type=pa.string())})
        src = b["source"].to_pandas()
        codes, uniq = pd.factorize(src)
        hc = h1.view(np.int64)
        sc = codes[trow]
        ok = sc >= 0  # null-source docs carry no attributable grams
        hc, sc = hc[ok], sc[ok]
        order = np.lexsort((sc, hc))
        hs, ss = hc[order], sc[order]
        new = np.ones(len(hs), dtype=bool)
        new[1:] = (hs[1:] != hs[:-1]) | (ss[1:] != ss[:-1])
        return pa.table({
            "h": pa.array(hs[new]),
            "source": pa.array(uniq.to_numpy(dtype=object)[ss[new]]
                               .tolist(), type=pa.string())})

    srt = (ds.map_batches(hs_partial, batch_format="pyarrow")
           .sort(["h", "source"]))

    def block_pairs(b: pa.Table) -> pa.Table:
        h = b["h"].to_numpy(zero_copy_only=False)
        n = len(h)
        empty = pa.table({
            "kind": pa.array([], type=pa.int8()),
            "h": pa.array([], type=pa.int64()),
            "src_a": pa.array([], type=pa.string()),
            "src_b": pa.array([], type=pa.string()),
            "n_shared": pa.array([], type=pa.int64())})
        if n == 0:
            return empty
        src = b["source"].to_pandas().to_numpy(dtype=object)
        # adjacent-row dedup = global dedup (sort co-located dups;
        # boundary-split dups fall into the raw stitch path)
        keep = np.ones(n, dtype=bool)
        keep[1:] = (h[1:] != h[:-1]) | (src[1:] != src[:-1])
        h, src = h[keep], src[keep]
        n = len(h)
        interior = (h != h[0]) & (h != h[-1])
        dfb = pd.DataFrame({"h": h[interior], "s": src[interior]})
        m = dfb.merge(dfb, on="h")
        m = m[m.s_x < m.s_y]
        pairs = (m.groupby(["s_x", "s_y"], as_index=False)
                 .agg(n_shared=("h", "size")))
        bnd = ~interior
        out = pd.DataFrame({
            "kind": np.concatenate([
                np.zeros(len(pairs), dtype=np.int8),
                np.ones(int(bnd.sum()), dtype=np.int8)]),
            "h": np.concatenate([np.zeros(len(pairs), dtype=np.int64),
                                 h[bnd]]),
            "src_a": np.concatenate([pairs.s_x.to_numpy(dtype=object),
                                     src[bnd]]),
            "src_b": np.concatenate([pairs.s_y.to_numpy(dtype=object),
                                     np.full(int(bnd.sum()), "",
                                             dtype=object)]),
            "n_shared": np.concatenate([
                pairs.n_shared.to_numpy(dtype=np.int64),
                np.zeros(int(bnd.sum()), dtype=np.int64)])})
        return pa.Table.from_pandas(out, preserve_index=False)

    part = (srt.map_batches(block_pairs, batch_format="pyarrow",
                            batch_size=None).to_pandas())
    got = part[part.kind == 0][["src_a", "src_b", "n_shared"]]
    bnd = part[part.kind == 1][["h", "src_a"]].drop_duplicates()
    if len(bnd):
        m = bnd.merge(bnd, on="h")
        m = m[m.src_a_x < m.src_a_y]
        extra = (m.groupby(["src_a_x", "src_a_y"], as_index=False)
                 .agg(n_shared=("h", "size"))
                 .rename(columns={"src_a_x": "src_a",
                                  "src_a_y": "src_b"}))
        got = pd.concat([got, extra], ignore_index=True)
    out = (got.groupby(["src_a", "src_b"], as_index=False)["n_shared"]
           .sum())
    out["n_shared"] = out.n_shared.astype(np.int64)
    return out.sort_values(["src_a", "src_b"]).reset_index(drop=True)


def quality_weighted_sample(sf_dir: str):
    """Quality-weighted importance sampler — keep each document with
    probability proportional to its Gopher mean-word-length signal
    (the DoReMi-flavoured 'sample good text more' mixing step): keep
    iff ``splitmix64(doc_id) < (sum_word_len << 64) // (10 *
    n_words)`` — i.e. keep-probability = mean word length / 10, an
    exact integer threshold per doc (docs at mean length >= 10
    saturate to always-keep; zero-token docs are dropped).
    Deterministic across runs/retries/engines — the oracle replays
    both the hash and the thresholds in 128-bit DuckDB arithmetic.
    Map-only: quality stats and the keep decision happen in one fused
    scan, no shuffle at any scale.

    Output (kept docs, sorted by doc_id): ``doc_id, n_words,
    sum_word_len``."""
    from biobloom_ray.hashing import splitmix64
    from biobloom_ray.stages.webclean import gopher_flags_batch

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def pick(b: pa.Table) -> pa.Table:
        flags = gopher_flags_batch(b)
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        nw = flags["n_words"].to_numpy(zero_copy_only=False)
        swl = flags["sum_word_len"].to_numpy(zero_copy_only=False)
        h = splitmix64(ids.astype(np.uint64))
        nz = nw > 0
        thr = np.zeros(len(ids), dtype=np.uint64)
        if nz.any():
            # exact (swl << 64) // (10*nw), vectorized as two 32-bit
            # long-division steps (10*nw < 2^31, so each partial fits
            # int64); swl >= 10*nw saturates to 2^64-1 (mirrored in
            # the SQL)
            num, den = swl[nz], 10 * nw[nz]
            r0 = num % den
            t1 = (r0 << 32) // den
            t2 = (((r0 << 32) % den) << 32) // den
            t = (t1.astype(np.uint64) << np.uint64(32)) \
                + t2.astype(np.uint64)
            t[num >= den] = np.uint64((1 << 64) - 1)
            thr[nz] = t
        keep = nz & (h < thr)
        return pa.table({"doc_id": pa.array(ids[keep]),
                         "n_words": pa.array(nw[keep]),
                         "sum_word_len": pa.array(swl[keep])})

    out = _parts_pandas(ds.map_batches(pick, batch_format="pyarrow"),
                        {"doc_id": np.int64, "n_words": np.int64,
                         "sum_word_len": np.int64})
    return out.sort_values("doc_id").reset_index(drop=True)


def token_entropy(sf_dir: str):
    """Per-document Shannon entropy of the token distribution — the
    unigram-diversity quality signal (low entropy = repetitive /
    template pages; pairs with :func:`repetition_stats`'s exact-count
    view).  ``H = ln(n) - (1/n) * sum_t c_t ln c_t`` over the doc's
    token counts — every input an exact int64, emitted 6-dp-rounded
    under the repo's float contract (the per-doc sum has <= #distinct
    tokens terms; engine sums in token-code order, ULPs absorbed by
    ROUND).  Map-only: factorize + one segment reduce per batch, no
    shuffle at any scale.

    Output (docs with >= 1 token, sorted): ``doc_id, n_tokens,
    n_distinct, entropy_r6``."""
    from biobloom_ray.stages.textstats import _token_arrays

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def ent(b: pa.Table) -> pa.Table:
        flat, lens, row_of = _token_arrays(b)
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        if not len(flat):
            return pa.table({
                "doc_id": pa.array([], type=pa.int64()),
                "n_tokens": pa.array([], type=pa.int64()),
                "n_distinct": pa.array([], type=pa.int64()),
                "entropy_r6": pa.array([], type=pa.float64())})
        codes, _ = pd.factorize(pd.Index(flat, dtype=object))
        key = row_of * (codes.max() + 1) + codes
        uk, cnt = np.unique(key, return_counts=True)
        urow = (uk // (codes.max() + 1)).astype(np.int64)
        nd = np.bincount(urow, minlength=len(ids))
        clogc = np.zeros(len(ids), dtype=np.float64)
        np.add.at(clogc, urow, cnt * np.log(cnt))
        nz = lens > 0
        n = lens[nz].astype(np.float64)
        h = np.log(n) - clogc[nz] / n
        return pa.table({
            "doc_id": pa.array(ids[nz]),
            "n_tokens": pa.array(lens[nz]),
            "n_distinct": pa.array(nd[nz].astype(np.int64)),
            "entropy_r6": pa.array(np.round(h, 6))})

    out = ds.map_batches(ent, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def corpus_report(sf_dir: str):
    """One-row corpus health report — the summary a 100 TB curation run
    prints at the end: doc/token/char totals, language and source
    cardinalities, exact duplicate count, and the benchmark-slice size
    (all exact integers, so the oracle hash is float-free).

    Single scan -> per-batch partial row (ONE row per batch: counts +
    per-batch md5 multiset partials are impossible driver-side, so the
    dup count reuses the exact_dedup shuffle on narrow (fp, 1) rows) —
    concretely: a map-only partial pass for the scan stats plus ONE
    native ``groupby(fp_md5).Count`` whose >1 groups are summed in a
    per-block partial before a driver fold.  lang/source cardinality
    is folded from per-batch distinct strings — report-scale by
    assumption (langs and named sources print in the report); swap the
    HLL sketch when the source column is an unbounded URL domain.
    Output: ``n_docs, n_tokens, n_chars, n_langs, n_sources,
    n_dup_docs, n_bench_docs``."""
    from biobloom_ray.stages.dedup import add_content_hash
    from biobloom_ray.stages.textstats import _token_arrays

    ds = _read(sf_dir, "documents",
               columns=["doc_id", "text", "lang", "source", "n_chars"])

    def scan_partial(b: pa.Table) -> pa.Table:
        flat, lens, _ = _token_arrays(b)
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        return pa.table({
            "n_docs": pa.array([b.num_rows], type=pa.int64()),
            "n_tokens": pa.array([int(lens.sum())], type=pa.int64()),
            "n_chars": pa.array([int(pc.sum(b["n_chars"]).as_py() or 0)],
                                type=pa.int64()),
            "n_bench_docs": pa.array(
                [int((ids % DECON_BENCH_MOD == 0).sum())],
                type=pa.int64()),
            # list-typed distinct partials — no delimiter to collide
            # with data; nulls excluded like SQL COUNT(DISTINCT)
            "langs": pa.array(
                [[x for x in set(b["lang"].to_pylist())
                  if x is not None]],
                type=pa.large_list(pa.large_string())),
            "sources": pa.array(
                [[x for x in set(b["source"].to_pylist())
                  if x is not None]],
                type=pa.large_list(pa.large_string()))})

    p = ds.map_batches(scan_partial, batch_format="pyarrow").to_pandas()
    langs = set()
    sources = set()
    for ls in p.langs:
        langs.update(ls)
    for ss in p.sources:
        sources.update(ss)

    fps = ds.map_batches(
        lambda b: add_content_hash(b).select(["fp_md5"]),
        batch_format="pyarrow")
    grp = fps.groupby("fp_md5").aggregate(Count(alias_name="c"))

    def dup_partial(b: pa.Table) -> pa.Table:
        c = b["c"].to_numpy(zero_copy_only=False)
        # docs that are NOT the kept first of their group
        return pa.table({"d": pa.array([int((c[c > 1] - 1).sum())],
                                       type=pa.int64())})

    dups = int(grp.map_batches(dup_partial, batch_format="pyarrow")
               .to_pandas().d.sum())
    return pd.DataFrame({
        "n_docs": [np.int64(p.n_docs.sum())],
        "n_tokens": [np.int64(p.n_tokens.sum())],
        "n_chars": [np.int64(p.n_chars.sum())],
        "n_langs": [np.int64(len(langs))],
        "n_sources": [np.int64(len(sources))],
        "n_dup_docs": [np.int64(dups)],
        "n_bench_docs": [np.int64(p.n_bench_docs.sum())]})


# -- round-4 additions: per-group top-k bigrams -------------------------------


#: driver-combine gate for the bigram count table (output-scale:
#: #langs × distinct bigrams rows); above it the native groupby runs
BIGRAM_DRIVER_MAX_ROWS = 2_000_000


def top_bigrams_per_lang(sf_dir: str, k: int = 5):
    """Per-group heavy hitters: the k most frequent word bigrams of
    every language (exact counts, ties broken lexicographically).  Block
    partials factorize (lang, bigram) pairs with ONE pandas C groupby —
    at most the block's distinct-pair count leaves any block — then the
    count table reduces (driver below the gate, native Sum groupby
    above) and a per-block local-top-k → tiny per-lang reduce picks the
    winners."""
    ds = _read(sf_dir, "documents", columns=["lang", "text"])

    def partial(b: pa.Table) -> pa.Table:
        from biobloom_ray.stages.textstats import _token_arrays

        flat, _lens, row_of = _token_arrays(b)
        if len(flat) < 2:
            return pa.table({"lang": pa.array([], pa.string()),
                             "bigram": pa.array([], pa.string()),
                             "cnt": pa.array([], pa.int64())})
        langs = b["lang"].to_pandas().to_numpy(dtype=object)
        same = row_of[1:] == row_of[:-1]  # adjacent pairs within one doc
        bg = (pd.Series(flat[:-1][same], dtype=object)
              .str.cat(pd.Series(flat[1:][same], dtype=object), sep=" "))
        df = pd.DataFrame({
            "lang": langs[row_of[:-1][same]],
            "bigram": bg.to_numpy(dtype=object)})
        agg = df.groupby(["lang", "bigram"], as_index=False).size()
        agg = agg.rename(columns={"size": "cnt"})
        agg["cnt"] = agg["cnt"].astype(np.int64)
        return pa.Table.from_pandas(agg, preserve_index=False)

    parts_ds = ds.map_batches(partial, batch_format="pyarrow")
    n_rows = _cheap_count(ds)
    if n_rows is not None and n_rows <= BIGRAM_DRIVER_MAX_ROWS:
        p = parts_ds.to_pandas()
        counts = (p.groupby(["lang", "bigram"], as_index=False)["cnt"]
                  .sum())
        counts = counts.sort_values(["lang", "cnt", "bigram"],
                                    ascending=[True, False, True])
        out = counts.groupby("lang").head(k)
        return (out.reset_index(drop=True)[["lang", "bigram", "cnt"]])

    counts_ds = (parts_ds.groupby(["lang", "bigram"])
                 .aggregate(Sum("cnt", alias_name="cnt")))

    def local_topk(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        df = df.sort_values(["lang", "cnt", "bigram"],
                            ascending=[True, False, True])
        return pa.Table.from_pandas(df.groupby("lang").head(k),
                                    preserve_index=False)

    def final_topk(g: pa.Table) -> pa.Table:
        df = g.to_pandas().sort_values(
            ["cnt", "bigram"], ascending=[False, True]).head(k)
        return pa.Table.from_pandas(df, preserve_index=False)

    out = (counts_ds.map_batches(local_topk, batch_format="pyarrow")
           .groupby("lang").map_groups(final_topk, batch_format="pyarrow")
           .to_pandas())
    return (out.sort_values(["lang", "cnt", "bigram"],
                            ascending=[True, False, True])
            .reset_index(drop=True)[["lang", "bigram", "cnt"]])


#: input-row gate shared by the output-scale count-table reduces
#: (dup-group sizes, contamination, cross-lang and per-source dups,
#: exclusive vocab, token lengths, vocab growth and coverage,
#: incremental dedup): the per-block partials are small keyed count
#: rows, so below this many input rows they combine on the driver
#: instead of a native groupby shuffle; above it the unchanged native
#: Sum groupby runs
COUNT_TABLE_DRIVER_MAX_ROWS = 5_000_000


#: segment-customer broadcast gate: below this many CUSTOMER rows the
#: in-segment custkey set (and then the matching orderkey set) rides
#: ray.put broadcasts; above it both links become Dataset hash joins
SEGMENT_BROADCAST_MAX_ROWS = 1_000_000


def segment_revenue_topk(sf_dir: str, segment: str = "BUILDING",
                         k: int = 10):
    """TPC-H Q3 shape — a THREE-way join: customers of one market
    segment ⋈ their orders ⋈ lineitem revenue, top-k orders by exact
    integer revenue (10⁻⁴-dollar units, same fixed-point contract as
    ``top_parts_by_revenue``).  Below the gate the two link tables
    (in-segment custkeys, then matching orderkeys) broadcast via
    ``ray.put`` and revenue partials combine on the driver; above it
    the same DAG runs as two ``io.hash_join``s + a native Sum groupby
    + per-block exact top-k (nothing driver-bound grows with the
    corpus; the revenue rollup shuffles (orderkey, cents) partials
    only)."""
    import ray

    from biobloom_ray.io import hash_join

    cust = _read(sf_dir, "customer",
                 columns=["c_custkey", "c_mktsegment"])
    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])
    li = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_extendedprice", "l_discount"])

    def seg_keys(b: pa.Table) -> pa.Table:
        return (b.filter(pc.equal(b["c_mktsegment"], segment))
                .select(["c_custkey"]))

    def rev_partial(b: pa.Table) -> pa.Table:
        cents = _cents_away(
            b["l_extendedprice"].to_numpy(zero_copy_only=False))
        disc = _cents_away(b["l_discount"].to_numpy(zero_copy_only=False))
        df = pd.DataFrame({
            "l_orderkey": b["l_orderkey"].to_numpy(zero_copy_only=False),
            "revenue": cents * (100 - disc)})
        agg = df.groupby("l_orderkey", as_index=False)["revenue"].sum()
        return pa.Table.from_pandas(agg, preserve_index=False)

    n_cust = _cheap_count(cust)
    if n_cust is not None and n_cust <= SEGMENT_BROADCAST_MAX_ROWS:
        ck = np.sort(_parts_pandas(
            cust.map_batches(seg_keys, batch_format="pyarrow"),
            {"c_custkey": np.int64})["c_custkey"].to_numpy())
        ck_ref = ray.put(ck)

        def order_keys(b: pa.Table) -> pa.Table:
            keys = ray.get(ck_ref)
            oc = b["o_custkey"].to_numpy(zero_copy_only=False)
            pos = np.searchsorted(keys, oc)
            pos[pos >= len(keys)] = 0
            hit = len(keys) > 0
            mask = (keys[pos] == oc) if hit else np.zeros(len(oc), bool)
            return b.filter(pa.array(mask)).select(["o_orderkey"])

        ok = np.sort(_parts_pandas(
            orders.map_batches(order_keys, batch_format="pyarrow"),
            {"o_orderkey": np.int64})["o_orderkey"].to_numpy())
        ok_ref = ray.put(ok)

        def rev_in_seg(b: pa.Table) -> pa.Table:
            keys = ray.get(ok_ref)
            lk = b["l_orderkey"].to_numpy(zero_copy_only=False)
            pos = np.searchsorted(keys, lk)
            pos[pos >= len(keys)] = 0
            hit = len(keys) > 0
            mask = (keys[pos] == lk) if hit else np.zeros(len(lk), bool)
            return rev_partial(b.filter(pa.array(mask)))

        p = _parts_pandas(li.map_batches(rev_in_seg, batch_format="pyarrow"),
                          {"l_orderkey": np.int64, "revenue": np.int64})
        agg = p.groupby("l_orderkey", as_index=False)["revenue"].sum()
        agg = agg.rename(columns={"l_orderkey": "o_orderkey"})
        out = agg.sort_values(["revenue", "o_orderkey"],
                              ascending=[False, True]).head(k)
        return out.reset_index(drop=True)[["o_orderkey", "revenue"]]

    seg_ds = cust.map_batches(seg_keys, batch_format="pyarrow")
    seg_orders = hash_join(orders, seg_ds, on=("o_custkey",),
                           right_on=("c_custkey",)).select_columns(
                               ["o_orderkey"])
    # runtime Bloom join filter (the Spark/Presto "runtime filter"
    # move): prune ~4/5 of lineitem BEFORE its rollup shuffle with a
    # broadcast Bloom over the in-segment orderkeys; FPs drop in the
    # real hash join below, so the result is exactly unchanged
    # (tier-parity + forced-FP pytest pin this)
    from biobloom_ray.stages.joinfilter import (bloom_semi_filter,
                                                build_key_bloom)

    n_ord = _cheap_count(orders)
    okey_bloom = build_key_bloom(seg_orders, "o_orderkey",
                                 expected=max((n_ord or 1000) // 4, 1))
    li = bloom_semi_filter(li, "l_orderkey", okey_bloom)
    rev = (li.map_batches(rev_partial, batch_format="pyarrow")
           .groupby("l_orderkey")
           .aggregate(Sum("revenue", alias_name="revenue")))
    joined = hash_join(rev, seg_orders, on=("l_orderkey",),
                       right_on=("o_orderkey",))

    def local_topk(b: pa.Table) -> pa.Table:
        rev_np = b["revenue"].to_numpy(zero_copy_only=False)
        keys = b["l_orderkey"].to_numpy(zero_copy_only=False)
        idx = np.lexsort((keys, -rev_np))[:k]
        return pa.table({"o_orderkey": pa.array(keys[idx]),
                         "revenue": pa.array(rev_np[idx])})

    cand = _parts_pandas(
        joined.map_batches(local_topk, batch_format="pyarrow"),
        {"o_orderkey": np.int64, "revenue": np.int64})
    out = cand.sort_values(["revenue", "o_orderkey"],
                           ascending=[False, True]).head(k)
    return out.reset_index(drop=True)[["o_orderkey", "revenue"]]


#: document-row gate for the NB vocabulary broadcast (same contract as
#: RARITY_BROADCAST_MAX_ROWS: the class-count vocab table broadcasts
#: below it; above, the exploded tokens hash-join the vocab Dataset)
NB_BROADCAST_MAX_ROWS = 100_000


def nb_class_scores(sf_dir: str):
    """Supervised corpus-trained scorer — a multinomial Naive Bayes
    log-odds per document, the fastText-style quality-classifier shape
    (train a linear bag-of-words model on a labeled split, score every
    page) with a corpus-internal label: class A = documents whose
    source number is even, B = odd.  Training is ONE tokenize pass
    (per-block (token, ca, cb) partials, factorize-based); scoring is
    map-only against the broadcast vocabulary.  Output per doc:
    ``n_tokens, sum_ca, sum_cb`` (exact integers — they pin the
    token⋈vocab join float-free) and ``score_r6`` = Laplace-smoothed
    log-odds Σ ln((ca+1)/(ta+V)) − ln((cb+1)/(tb+V)) rounded to 6 dp
    (absorbs libm/summation-order ulps, same contract as
    ``bigram_lm_scores``).  Docs with zero tokens drop (no score).

    Tiered: below ``NB_BROADCAST_MAX_ROWS`` docs the vocab broadcasts
    once via ``ray.put`` (searchsorted per batch); above it the
    exploded (doc_id, token) rows hash-join the vocab Dataset and
    per-doc native Count/Sum aggregates finish — the float column sums
    per doc in whatever order the join emits, which the 6-dp rounding
    absorbs (tier-parity asserted at 1e-6)."""
    import ray

    from biobloom_ray.io import hash_join

    ds = _read(sf_dir, "documents", columns=["doc_id", "source", "text"])

    def _class_a(source: pd.Series) -> np.ndarray:
        nums = source.str.extract(r"(\d+)", expand=False).astype(np.int64)
        return (nums % 2 == 0).to_numpy()

    def vocab_partial(b: pa.Table) -> pa.Table:
        from biobloom_ray.stages.textstats import _token_arrays

        flat, lens, row_of = _token_arrays(b)
        if not len(flat):
            return pa.table({"token": pa.array([], pa.string()),
                             "ca": pa.array([], pa.int64()),
                             "cb": pa.array([], pa.int64())})
        is_a = _class_a(b["source"].to_pandas())[row_of]
        codes, uniq = pd.factorize(pd.Index(flat, dtype=object))
        ca = np.zeros(len(uniq), dtype=np.int64)
        cb = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(ca, codes[is_a], 1)
        np.add.at(cb, codes[~is_a], 1)
        return pa.table({"token": pa.array(uniq.to_numpy(dtype=object)
                                           .tolist(), type=pa.string()),
                         "ca": pa.array(ca), "cb": pa.array(cb)})

    vocab_parts = ds.map_batches(vocab_partial, batch_format="pyarrow")
    n_rows = _cheap_count(ds)

    if n_rows is not None and n_rows <= NB_BROADCAST_MAX_ROWS:
        vp = (vocab_parts.to_pandas().groupby("token", as_index=False)
              [["ca", "cb"]].sum())
        ta, tb, v = (int(vp.ca.sum()), int(vp.cb.sum()), len(vp))
        tok_sorted = vp.token.to_numpy(dtype=object)
        order = np.argsort(tok_sorted, kind="stable")
        model_ref = ray.put((tok_sorted[order],
                             vp.ca.to_numpy()[order],
                             vp.cb.to_numpy()[order], ta, tb, v))

        def score(b: pa.Table) -> pa.Table:
            import ray as _r

            from biobloom_ray.stages.textstats import _token_arrays

            toks_s, ca_s, cb_s, ta_, tb_, v_ = _r.get(model_ref)
            flat, lens, row_of = _token_arrays(b)
            ids = b["doc_id"].to_numpy(zero_copy_only=False)
            idx = np.searchsorted(toks_s, flat)
            ca = ca_s[idx]
            cb = cb_s[idx]
            lp = (np.log((ca + 1.0) / (ta_ + v_))
                  - np.log((cb + 1.0) / (tb_ + v_)))
            n = len(ids)
            sc = np.zeros(n)
            sa = np.zeros(n, dtype=np.int64)
            sb = np.zeros(n, dtype=np.int64)
            np.add.at(sc, row_of, lp)
            np.add.at(sa, row_of, ca)
            np.add.at(sb, row_of, cb)
            keep = lens > 0
            return pa.table({
                "doc_id": pa.array(ids[keep]),
                "n_tokens": pa.array(lens[keep]),
                "sum_ca": pa.array(sa[keep]),
                "sum_cb": pa.array(sb[keep]),
                "score_r6": pa.array(np.round(sc[keep], 6))})

        out = ds.map_batches(score, batch_format="pyarrow").to_pandas()
        return out.sort_values("doc_id").reset_index(drop=True)

    vocab = (vocab_parts.groupby("token")
             .aggregate(Sum("ca", alias_name="ca"),
                        Sum("cb", alias_name="cb")))
    tot = (vocab.map_batches(
        lambda b: pa.table({
            "ta": pa.array([int(pc.sum(b["ca"]).as_py() or 0)]),
            "tb": pa.array([int(pc.sum(b["cb"]).as_py() or 0)]),
            "v": pa.array([b.num_rows])}), batch_format="pyarrow")
        .to_pandas().sum())
    ta, tb, v = int(tot.ta), int(tot.tb), int(tot.v)

    def explode(b: pa.Table) -> pa.Table:
        from biobloom_ray.stages.textstats import _token_arrays

        flat, lens, row_of = _token_arrays(b)
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        return pa.table({
            "doc_id": pa.array(ids[row_of]),
            "token": pa.array(flat.tolist(), type=pa.string())})

    toks = ds.map_batches(explode, batch_format="pyarrow")
    joined = hash_join(toks, vocab, on=("token",))

    def lp_col(b: pa.Table) -> pa.Table:
        ca = b["ca"].to_numpy(zero_copy_only=False)
        cb = b["cb"].to_numpy(zero_copy_only=False)
        lp = (np.log((ca + 1.0) / (ta + v))
              - np.log((cb + 1.0) / (tb + v)))
        return b.append_column("lp", pa.array(lp))

    out = (joined.map_batches(lp_col, batch_format="pyarrow")
           .groupby("doc_id")
           .aggregate(Count(alias_name="n_tokens"),
                      Sum("ca", alias_name="sum_ca"),
                      Sum("cb", alias_name="sum_cb"),
                      Sum("lp", alias_name="score"))
           .to_pandas())
    out["score_r6"] = np.round(out["score"].to_numpy(), 6)
    return (out[["doc_id", "n_tokens", "sum_ca", "sum_cb", "score_r6"]]
            .sort_values("doc_id").reset_index(drop=True))


def token_drift_topk(sf_dir: str, k: int = 20):
    """Distribution-drift monitor between two corpus slices (here: even
    vs odd doc_id, standing in for yesterday's crawl vs today's): the k
    tokens with the largest absolute count difference — all exact
    integers, ties broken lexicographically.  ONE tokenize pass emits
    per-block (token, c_even, c_odd) partials; the count table reduces
    through the shared ``RARITY_BROADCAST_MAX_ROWS`` tier contract
    (driver fold below, native Sum groupby above) and top-k is a
    driver sort of the output-scale table below the gate / per-block
    local top-k + final reduce above it."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def partial(b: pa.Table) -> pa.Table:
        from biobloom_ray.stages.textstats import _token_arrays

        flat, lens, row_of = _token_arrays(b)
        if not len(flat):
            return pa.table({"token": pa.array([], pa.string()),
                             "c_even": pa.array([], pa.int64()),
                             "c_odd": pa.array([], pa.int64())})
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        is_even = (ids % 2 == 0)[row_of]
        codes, uniq = pd.factorize(pd.Index(flat, dtype=object))
        ce = np.zeros(len(uniq), dtype=np.int64)
        co = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(ce, codes[is_even], 1)
        np.add.at(co, codes[~is_even], 1)
        return pa.table({"token": pa.array(uniq.to_numpy(dtype=object)
                                           .tolist(), type=pa.string()),
                         "c_even": pa.array(ce), "c_odd": pa.array(co)})

    parts_ds = ds.map_batches(partial, batch_format="pyarrow")
    n_rows = _cheap_count(ds)
    if n_rows is not None and n_rows <= RARITY_BROADCAST_MAX_ROWS:
        p = (parts_ds.to_pandas().groupby("token", as_index=False)
             [["c_even", "c_odd"]].sum())
        p["drift"] = np.abs(p.c_even - p.c_odd).astype(np.int64)
        out = p.sort_values(["drift", "token"],
                            ascending=[False, True]).head(k)
        return (out.reset_index(drop=True)
                [["token", "c_even", "c_odd", "drift"]])

    counts_ds = (parts_ds.groupby("token")
                 .aggregate(Sum("c_even", alias_name="c_even"),
                            Sum("c_odd", alias_name="c_odd")))

    def local_topk(b: pa.Table) -> pa.Table:
        ce = b["c_even"].to_numpy(zero_copy_only=False)
        co = b["c_odd"].to_numpy(zero_copy_only=False)
        drift = np.abs(ce - co)
        toks = b["token"].to_numpy(zero_copy_only=False)
        idx = np.lexsort((toks, -drift))[:k]
        return pa.table({"token": pa.array(toks[idx].tolist(),
                                           type=pa.string()),
                         "c_even": pa.array(ce[idx]),
                         "c_odd": pa.array(co[idx]),
                         "drift": pa.array(drift[idx])})

    cand = (counts_ds.map_batches(local_topk, batch_format="pyarrow")
            .to_pandas())
    out = cand.sort_values(["drift", "token"],
                           ascending=[False, True]).head(k)
    return (out.reset_index(drop=True)
            [["token", "c_even", "c_odd", "drift"]])


# -- round-4 wave 6: multi-way join ------------------------------------------

#: orders-side row gate of ``region_revenue``: below it the year's
#: orderkey→region link table broadcasts once and lineitem reduces
#: map-side; above it orders, customer and lineitem go through
#: ``io.hash_join``
ANTI_BROADCAST_MAX_ROWS = 2_000_000


def region_revenue(sf_dir: str, year: int = 1996):
    """TPC-H Q5 shape — a FIVE-table join pruned to one fact-table
    pass: lineitem revenue per REGION for orders placed in one year.
    The three dimension hops (customer→nation→region) collapse into a
    single orderkey→region-code link table; below the gate that table
    broadcasts once and lineitem reduces map-side straight to ≤5 rows
    per block (zero shuffle on the fact table).  Above it, orders hash-
    joins customer, the tiny nation⋈region lookup rides along as a
    broadcast dict, a runtime Bloom over the year's orderkeys prunes
    lineitem BEFORE its rollup shuffle (FPs drop in the real hash join
    below, so the result is exactly unchanged), and the final groupby
    sums (region, cents·(100−disc)) partials.  Revenue is exact integer
    10⁻⁴-dollar units (int64 headroom ≈ 1.8·10¹⁰ line items per region
    at worst-case prices; overflow-guarded upstream contracts apply)."""
    import ray

    from biobloom_ray.io import hash_join

    orders = _read(sf_dir, "orders",
                   columns=["o_orderkey", "o_custkey", "o_orderdate"])
    cust = _read(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])
    li = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_extendedprice", "l_discount"])
    nation = _read(sf_dir, "nation",
                   columns=["n_nationkey", "n_regionkey"]).to_pandas()
    region = _read(sf_dir, "region",
                   columns=["r_regionkey", "r_name"]).to_pandas()
    reg_of_nat = dict(zip(nation.n_nationkey.astype(np.int64),
                          nation.n_regionkey.astype(np.int64)))
    name_of_reg = dict(zip(region.r_regionkey.astype(np.int64),
                           region.r_name))

    lo = np.datetime64(f"{year}-01-01", "us").astype(np.int64)
    hi = np.datetime64(f"{year + 1}-01-01", "us").astype(np.int64)

    def year_orders(b: pa.Table) -> pa.Table:
        ts = (b["o_orderdate"].cast(pa.timestamp("us")).cast(pa.int64())
              .to_numpy(zero_copy_only=False))
        m = (ts >= lo) & (ts < hi)
        return pa.table({
            "o_orderkey": b["o_orderkey"].filter(pa.array(m)),
            "o_custkey": b["o_custkey"].filter(pa.array(m))})

    ykeys = orders.map_batches(year_orders, batch_format="pyarrow")

    def finish(parts: pd.DataFrame) -> pd.DataFrame:
        agg = (parts.groupby("rcode", as_index=False)
               .agg(revenue_e4=("revenue_e4", "sum"),
                    n_items=("n_items", "sum")))
        agg["r_name"] = agg.rcode.map(name_of_reg)
        out = agg.sort_values("r_name").reset_index(drop=True)
        return out[["r_name", "revenue_e4", "n_items"]]

    n_ord = _cheap_count(orders)
    if n_ord is not None and n_ord <= ANTI_BROADCAST_MAX_ROWS:
        cd = cust.to_pandas()
        nat_of_cust = dict(zip(cd.c_custkey.astype(np.int64),
                               cd.c_nationkey.astype(np.int64)))
        yo = _parts_pandas(ykeys, {"o_orderkey": np.int64,
                                   "o_custkey": np.int64})
        rcode = (yo.o_custkey.map(nat_of_cust).map(reg_of_nat)
                 .to_numpy(np.int64))
        order_ = np.argsort(yo.o_orderkey.to_numpy())
        link_ref = ray.put((yo.o_orderkey.to_numpy()[order_],
                            rcode[order_]))

        def li_partial(b: pa.Table) -> pa.Table:
            okeys, rc = ray.get(link_ref)
            lk = b["l_orderkey"].to_numpy(zero_copy_only=False)
            if len(okeys) == 0 or len(lk) == 0:
                return pa.table({"rcode": pa.array([], pa.int64()),
                                 "revenue_e4": pa.array([], pa.int64()),
                                 "n_items": pa.array([], pa.int64())})
            pos = np.searchsorted(okeys, lk)
            pos[pos >= len(okeys)] = 0
            hit = okeys[pos] == lk
            cents = _cents_away(
                b["l_extendedprice"].to_numpy(zero_copy_only=False))[hit]
            disc = _cents_away(
                b["l_discount"].to_numpy(zero_copy_only=False))[hit]
            rev = cents * (100 - disc)
            r = rc[pos[hit]]
            nbins = int(r.max()) + 1 if len(r) else 1
            n_per = np.bincount(r, minlength=nbins)
            rev_per = np.zeros(nbins, dtype=np.int64)
            np.add.at(rev_per, r, rev)
            nz = np.nonzero(n_per)[0]
            return pa.table({
                "rcode": pa.array(nz.astype(np.int64)),
                "revenue_e4": pa.array(rev_per[nz]),
                "n_items": pa.array(n_per[nz].astype(np.int64))})

        parts = _parts_pandas(
            li.map_batches(li_partial, batch_format="pyarrow"),
            {"rcode": np.int64, "revenue_e4": np.int64,
             "n_items": np.int64})
        return finish(parts)

    # cluster tier: orders ⋈ customer, dims ride as a broadcast dict
    yo_cust = hash_join(ykeys, cust, on=("o_custkey",),
                        right_on=("c_custkey",))
    lut_ref = ray.put((reg_of_nat,))

    def tag_region(b: pa.Table) -> pa.Table:
        (r_of_n,) = ray.get(lut_ref)
        nk = b["c_nationkey"].to_numpy(zero_copy_only=False)
        rc = pd.Series(nk).map(r_of_n).to_numpy(np.int64)
        return pa.table({"o_orderkey": b["o_orderkey"],
                         "rcode": pa.array(rc)})

    link = yo_cust.map_batches(tag_region, batch_format="pyarrow")

    from biobloom_ray.stages.joinfilter import (bloom_semi_filter,
                                                build_key_bloom)

    okey_bloom = build_key_bloom(link, "o_orderkey",
                                 expected=max((n_ord or 1000) // 4, 1))
    li = bloom_semi_filter(li, "l_orderkey", okey_bloom)

    def rev_partial(b: pa.Table) -> pa.Table:
        cents = _cents_away(
            b["l_extendedprice"].to_numpy(zero_copy_only=False))
        disc = _cents_away(b["l_discount"].to_numpy(zero_copy_only=False))
        df = pd.DataFrame({
            "l_orderkey": b["l_orderkey"].to_numpy(zero_copy_only=False),
            "revenue_e4": cents * (100 - disc),
            "n_items": np.ones(len(cents), dtype=np.int64)})
        agg = (df.groupby("l_orderkey", as_index=False)
               [["revenue_e4", "n_items"]].sum())
        return pa.Table.from_pandas(agg, preserve_index=False)

    rev = li.map_batches(rev_partial, batch_format="pyarrow")
    joined = hash_join(rev, link, on=("l_orderkey",),
                       right_on=("o_orderkey",))

    def reg_partial(b: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "rcode": b["rcode"].to_numpy(zero_copy_only=False),
            "revenue_e4": b["revenue_e4"].to_numpy(zero_copy_only=False),
            "n_items": b["n_items"].to_numpy(zero_copy_only=False)})
        agg = (df.groupby("rcode", as_index=False)
               [["revenue_e4", "n_items"]].sum())
        return pa.Table.from_pandas(agg, preserve_index=False)

    parts = _parts_pandas(
        joined.map_batches(reg_partial, batch_format="pyarrow"),
        {"rcode": np.int64, "revenue_e4": np.int64, "n_items": np.int64})
    return finish(parts)


# -- round-4 wave 8: rendezvous sharding --------------------------------------


SHARD_COUNT = 16


def shard_assignment_counts(sf_dir: str, n_shards: int = SHARD_COUNT):
    """Rendezvous (highest-random-weight) sharding: each document goes
    to ``argmax_s splitmix64(doc_id·n_shards + s)`` — the consistent-
    hashing scheme where removing one shard reassigns ONLY that shard's
    documents.  Map-only and bit-exactly SQL-replayable (same mixer
    contract as ``deterministic_sample_hash``); per-block rollup emits
    ≤ n_shards rows, summed on the driver at any corpus size."""
    from biobloom_ray.hashing import splitmix64

    ds = _read(sf_dir, "documents", columns=["doc_id", "n_chars"])
    ns = np.uint64(n_shards)

    def partial(b: pa.Table) -> pa.Table:
        ids = (b["doc_id"].to_numpy(zero_copy_only=False)
               .astype(np.uint64))
        if len(ids) == 0:
            return pa.table({"shard": pa.array([], pa.int64()),
                             "n_docs": pa.array([], pa.int64()),
                             "sum_chars": pa.array([], pa.int64())})
        w = np.empty((n_shards, len(ids)), dtype=np.uint64)
        for s in range(n_shards):
            w[s] = splitmix64(ids * ns + np.uint64(s))
        shard = np.argmax(w, axis=0).astype(np.int64)  # first max wins
        nc = b["n_chars"].to_numpy(zero_copy_only=False)
        n_per = np.bincount(shard, minlength=n_shards)
        c_per = np.zeros(n_shards, dtype=np.int64)
        np.add.at(c_per, shard, nc)
        nz = np.nonzero(n_per)[0]
        return pa.table({"shard": pa.array(nz.astype(np.int64)),
                         "n_docs": pa.array(n_per[nz].astype(np.int64)),
                         "sum_chars": pa.array(c_per[nz])})

    parts = (ds.map_batches(partial, batch_format="pyarrow").to_pandas())
    out = (parts.groupby("shard", as_index=False)
           [["n_docs", "sum_chars"]].sum())
    return out.sort_values("shard").reset_index(drop=True)


# -- round-4 waves 11-27: set ops, rank and distribution stats, sampling -----

def event_user_setops(sf_dir: str, type_a: str = "click",
                      type_b: str = "purchase"):
    """Set operations (INTERSECT / EXCEPT) over per-type user sets as a
    single conditional rollup: users who did BOTH ``type_a`` and
    ``type_b``, either side only, or neither — one exact-integer report
    row.  The two user sets never materialize and never join: ONE
    tiered groupby(user_id) with Max-indicator partials decides every
    set-op count (|A∩B|, |A\\B|, |B\\A| fall out of the (a,b) flag
    combination counts), so the plan is a single shuffle of ≤ #users
    pre-deduped rows regardless of corpus size."""
    ds = _read(sf_dir, "events", columns=["user_id", "event_type"])

    def partial(b: pa.Table) -> pa.Table:
        et = b["event_type"]
        df = pd.DataFrame({
            "user_id": b["user_id"].to_numpy(zero_copy_only=False),
            "a": pc.equal(et, type_a).to_numpy(zero_copy_only=False)
                 .astype(np.int64),
            "b": pc.equal(et, type_b).to_numpy(zero_copy_only=False)
                 .astype(np.int64)})
        agg = df.groupby("user_id", as_index=False).max()
        return pa.Table.from_pandas(agg, preserve_index=False)

    parts_ds = ds.map_batches(partial, batch_format="pyarrow")
    n_rows = _cheap_count(ds)
    if n_rows is not None and n_rows <= EVENTS_DRIVER_MAX_ROWS:
        flags = (parts_ds.to_pandas()
                 .groupby("user_id", as_index=False).max())
    else:
        flags = (parts_ds.groupby("user_id")
                 .aggregate(Max("a", alias_name="a"),
                            Max("b", alias_name="b")).to_pandas())
    a = flags["a"].to_numpy(np.int64)
    b = flags["b"].to_numpy(np.int64)
    return pd.DataFrame({
        "n_users": [np.int64(len(flags))],
        "n_a": [np.int64(a.sum())],
        "n_b": [np.int64(b.sum())],
        "n_both": [np.int64(int((a & b).sum()))],
        "n_only_a": [np.int64(int((a & (1 - b)).sum()))],
        "n_only_b": [np.int64(int(((1 - a) & b).sum()))],
        "n_neither": [np.int64(int(((1 - a) & (1 - b)).sum()))]})


def pmi_top_bigrams(sf_dir: str, min_count: int = 5, k: int = 20):
    """Global PMI collocations: the k strongest word bigrams by
    pointwise mutual information, PMI = ln(p(x,y) / (p(x)·p(y))) with
    p from exact corpus counts (bigram mass over N_bg, unigram mass
    over N_uni), restricted to bigrams seen ≥ ``min_count`` times.
    ONE tokenize scan feeds factorized bigram AND unigram count
    partials; both reduce through the shared rarity tier (driver fold
    below ``RARITY_BROADCAST_MAX_ROWS``, native Sum groupby + hash
    joins of the ≥min_count candidates against the unigram table
    above).  The 6-dp PMI is computed with the same left-associative
    double algebra the oracle spells out."""
    from biobloom_ray.stages.textstats import _token_arrays

    ds = _read(sf_dir, "documents", columns=["text"])

    def partial(b: pa.Table) -> pa.Table:
        flat, _lens, row_of = _token_arrays(b)
        if len(flat) == 0:
            return pa.table({"w1": pa.array([], pa.string()),
                             "w2": pa.array([], pa.string()),
                             "c": pa.array([], pa.int64())})
        uni = pd.DataFrame({"w1": flat, "w2": ""})
        if len(flat) >= 2:
            same = row_of[1:] == row_of[:-1]
            bg = pd.DataFrame({"w1": flat[:-1][same],
                               "w2": flat[1:][same]})
        else:
            bg = pd.DataFrame({"w1": [], "w2": []})
        df = pd.concat([uni, bg], ignore_index=True)
        agg = df.groupby(["w1", "w2"], as_index=False).size().rename(
            columns={"size": "c"})
        agg["c"] = agg["c"].astype(np.int64)
        return pa.Table.from_pandas(agg, preserve_index=False)

    def _pmi_frame(bg: pd.DataFrame, n_uni: int, n_bg: int
                   ) -> pd.DataFrame:
        c_xy = bg["c_xy"].to_numpy(np.int64)
        c_x = bg["c_x"].to_numpy(np.int64)
        c_y = bg["c_y"].to_numpy(np.int64)
        pmi = np.log(c_xy.astype(np.float64) * n_uni * n_uni
                     / (float(n_bg) * c_x * c_y))
        out = pd.DataFrame({
            "bigram": bg["w1"].str.cat(bg["w2"], sep=" "),
            "c_xy": c_xy, "pmi_r6": np.round(pmi, 6)})
        return (out.sort_values(["pmi_r6", "bigram"],
                                ascending=[False, True]).head(k)
                .reset_index(drop=True))

    parts_ds = ds.map_batches(partial, batch_format="pyarrow")
    n_rows = _cheap_count(ds)
    if n_rows is not None and n_rows <= RARITY_BROADCAST_MAX_ROWS:
        c = (parts_ds.to_pandas()
             .groupby(["w1", "w2"], as_index=False)["c"].sum())
        uni = c[c.w2 == ""]
        bg = c[(c.w2 != "") & (c.c >= min_count)].copy()
        n_uni = int(uni.c.sum())
        n_bg = int(c[c.w2 != ""].c.sum())
        cx = uni.set_index("w1").c
        bg = bg.rename(columns={"c": "c_xy"})
        bg["c_x"] = bg.w1.map(cx).to_numpy(np.int64)
        bg["c_y"] = bg.w2.map(cx).to_numpy(np.int64)
        return _pmi_frame(bg, n_uni, n_bg)

    # cluster tier: the vocab/bigram count table never visits the
    # driver — ≥min_count candidates hash-join the unigram side twice,
    # PMI + local top-k per block, and only #blocks·k rows reduce
    from biobloom_ray.io import hash_join

    counts_ds = (parts_ds.groupby(["w1", "w2"])
                 .aggregate(Sum("c", alias_name="c")).materialize())

    def tot_partial(b: pa.Table) -> pa.Table:
        w2 = b["w2"].to_numpy(zero_copy_only=False).astype(object)
        cc = b["c"].to_numpy(zero_copy_only=False)
        is_bg = w2 != ""
        return pa.table({"n_uni": pa.array([int(cc[~is_bg].sum())]),
                         "n_bg": pa.array([int(cc[is_bg].sum())])})

    tots = (counts_ds.map_batches(tot_partial, batch_format="pyarrow")
            .to_pandas())
    n_uni = int(tots.n_uni.sum())
    n_bg = int(tots.n_bg.sum())

    def uni_proj(b: pa.Table) -> pa.Table:
        t = b.filter(pc.equal(b["w2"], ""))
        return pa.table({"w": t["w1"], "cu": t["c"]})

    def cand_proj(b: pa.Table) -> pa.Table:
        t = b.filter(pc.and_(pc.not_equal(b["w2"], ""),
                             pc.greater_equal(b["c"], min_count)))
        return pa.table({"w1": t["w1"], "w2": t["w2"], "c_xy": t["c"]})

    uni_ds = counts_ds.map_batches(uni_proj, batch_format="pyarrow")
    cand_ds = counts_ds.map_batches(cand_proj, batch_format="pyarrow")

    def ren(col_from: str, col_to: str):
        def f(b: pa.Table) -> pa.Table:
            names = [col_to if nm == col_from else nm
                     for nm in b.column_names]
            return b.rename_columns(names).drop_columns(
                [c for c in ("w",) if c in names])
        return f

    j1 = hash_join(cand_ds, uni_ds, on=("w1",), right_on=("w",)
                   ).map_batches(ren("cu", "c_x"),
                                 batch_format="pyarrow")
    j2 = hash_join(j1, uni_ds, on=("w2",), right_on=("w",)
                   ).map_batches(ren("cu", "c_y"),
                                 batch_format="pyarrow")

    def local_topk(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        top = _pmi_frame(df, n_uni, n_bg)
        return pa.Table.from_pandas(top, preserve_index=False)

    pooled = (j2.map_batches(local_topk, batch_format="pyarrow")
              .to_pandas())
    return (pooled.sort_values(["pmi_r6", "bigram"],
                               ascending=[False, True]).head(k)
            .reset_index(drop=True)[["bigram", "c_xy", "pmi_r6"]])


def cross_lang_dup_matrix(sf_dir: str, threshold: float = 0.5):
    """Cross-lingual contamination matrix: the exact-Jaccard near-dup
    pairs (same shingle/threshold contract as ``ngram_jaccard_pairs``)
    counted per unordered language pair — the curation report that
    tells you whether near-dups leak ACROSS languages (translation
    boilerplate, mirrored sites) or stay within one.  Composition op:
    the distributed dedup operator produces the output-scale pair
    list; each side then picks up its language (broadcast doc→lang
    map below the rank gate, two hash joins above) and a tiny rollup
    finishes."""
    import ray

    from biobloom_ray.stages.dedup import ngram_jaccard_pairs

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    pairs = ngram_jaccard_pairs(docs, threshold=threshold)
    if not isinstance(pairs, pd.DataFrame):
        pairs = pairs.to_pandas()
    meta = _read(sf_dir, "documents", columns=["doc_id", "lang"])
    n_rows = _cheap_count(meta)
    if n_rows is not None and n_rows <= COUNT_TABLE_DRIVER_MAX_ROWS:
        lut = meta.to_pandas().set_index("doc_id")["lang"]
        la = pairs.id_a.map(lut)
        lb = pairs.id_b.map(lut)
    else:
        from biobloom_ray.io import hash_join

        pair_ds = ray.data.from_pandas(
            pairs[["id_a", "id_b"]].astype(np.int64))
        j = hash_join(pair_ds, meta.map_batches(
            lambda b: pa.table({"id_a": b["doc_id"],
                                "lang_a_j": b["lang"]}),
            batch_format="pyarrow"), on=("id_a",))
        j = hash_join(j, meta.map_batches(
            lambda b: pa.table({"id_b": b["doc_id"],
                                "lang_b_j": b["lang"]}),
            batch_format="pyarrow"), on=("id_b",))
        jd = _parts_pandas(j, {"id_a": np.int64, "id_b": np.int64,
                               "lang_a_j": object, "lang_b_j": object})
        la, lb = jd["lang_a_j"], jd["lang_b_j"]
    out = pd.DataFrame({
        "lang_lo": np.minimum(la.to_numpy(dtype=object),
                              lb.to_numpy(dtype=object)),
        "lang_hi": np.maximum(la.to_numpy(dtype=object),
                              lb.to_numpy(dtype=object))})
    agg = (out.groupby(["lang_lo", "lang_hi"], as_index=False).size()
           .rename(columns={"size": "n_pairs"}))
    agg["n_pairs"] = agg["n_pairs"].astype(np.int64)
    return agg.sort_values(["lang_lo", "lang_hi"]).reset_index(drop=True)


def mg_heavy_tokens(sf_dir: str, k: int = 20, capacity: int = 4096):
    """Misra–Gries heavy hitters — the deterministic counter-based
    twin of ``cms_heavy_hitters`` (sixth mergeable sketch family):
    per-block partial MG summaries fold through ``_heavy_hitters``
    (``fold_partials``, in input order), candidates ride along as
    per-block local top lists.  With ``capacity`` ≥ the
    corpus vocabulary the sketch NEVER truncates and every estimate is
    the exact count under any merge order — the regime the SQL oracle
    pins; the under-count bound N/(capacity+1) in the sketchy regime
    is pytest-pinned in test_sketches.py.  Same candidate caveat as
    the CMS query: per-block top lists can miss a globally-heavy but
    everywhere-locally-light token (documented, inherent to all
    candidate+sketch designs)."""
    from biobloom_ray.sketches.misra_gries import MisraGries

    return _heavy_hitters(sf_dir, k, lambda: MisraGries(capacity=capacity))


def weighted_sample_topk(sf_dir: str, k: int = 20):
    """Weighted sampling WITHOUT replacement (Efraimidis–Spirakis
    A-ES): each doc draws u = (splitmix64(doc_id)+1)/2^64 and ranks by
    key = ln(u)/w with weight w = n_chars — the top-k keys are a
    weighted sample with inclusion ∝ weight, fixed size, no
    replacement (the fixed-k twin of the Bernoulli
    ``quality_weighted_sample``).  Deterministic and engine-replayable:
    u is the bit-exact splitmix64 the sampler family already replays
    in HUGEINT SQL, and the ln/divide composition is spelled
    identically in the oracle; map-only block top-k partials + one
    k-sized reduce."""
    from biobloom_ray.hashing import splitmix64

    ds = _read(sf_dir, "documents", columns=["doc_id", "n_chars"])

    def local_topk(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        w = b["n_chars"].to_numpy(zero_copy_only=False).astype(
            np.float64)
        z = splitmix64(ids.astype(np.uint64)).astype(np.float64)
        u = (z + 1.0) / 18446744073709551616.0
        key = np.log(u) / w  # in (-inf, 0); larger = more likely kept
        order = np.lexsort((ids, -key))[:k]
        return pa.table({
            "doc_id": pa.array(ids[order].astype(np.int64)),
            "n_chars": pa.array(b["n_chars"].to_numpy(
                zero_copy_only=False)[order].astype(np.int64)),
            "key": pa.array(key[order])})

    pooled = (ds.map_batches(local_topk, batch_format="pyarrow")
              .to_pandas())
    pooled = pooled.sort_values(["key", "doc_id"],
                                ascending=[False, True]).head(k)
    return (pooled.reset_index(drop=True)[["doc_id", "n_chars"]]
            .astype(np.int64))


def sketch_setops_report(sf_dir: str, type_a: str = "click",
                         type_b: str = "purchase"):
    """Approximate SET ALGEBRA on sketches — the sketch-library
    counterpart of ``event_user_setops``: per-block HLL and Bloom
    partials for the two per-type user sets merge associatively
    (#blocks blob rows to the driver, like every sketch pipeline),
    then |A|, |B| and |A∪B| come from HLL, |A∩B| from
    inclusion–exclusion, and a second intersection estimate from the
    bitwise-AND Bloom via Swamidass–Baldi occupancy inversion.  No SQL
    oracle can exist for sketch outputs; the exact twin
    (``event_user_setops``) pins every estimate inside its published
    bound in ``test_sketches.py``."""
    from biobloom_ray.hashing import splitmix64
    from biobloom_ray.sketches.bloom import BloomFilter
    from biobloom_ray.sketches.hll import HLL

    ds = _read(sf_dir, "events", columns=["user_id", "event_type"])
    M_BITS, H_NUM, P = 1 << 16, 4, 12
    C2 = np.uint64(0x9E3779B97F4A7C15)

    def partial(b: pa.Table) -> pa.Table:
        uid = b["user_id"].to_numpy(zero_copy_only=False).astype(
            np.uint64)
        et = b["event_type"].to_numpy(zero_copy_only=False).astype(
            object)
        out = {}
        for t, tag in ((type_a, "a"), (type_b, "b")):
            u = np.unique(uid[et == t])
            h1 = splitmix64(u)
            with np.errstate(over="ignore"):
                h2 = splitmix64(u ^ C2)
            hll = HLL(p=P)
            hll.update(h1)
            bf = BloomFilter(m=M_BITS, hash_num=H_NUM, kmer_size=0,
                             filter_id=tag)
            bf.insert(h1, h2)
            out[f"{tag}_hll"] = pa.array([hll.serialize()], pa.large_binary())
            out[f"{tag}_bf"] = pa.array([bf.serialize()], pa.large_binary())
        return pa.table(out)

    kinds = {"a_hll": HLL, "a_bf": BloomFilter,
             "b_hll": HLL, "b_bf": BloomFilter}
    folded = fold_partials(ds.map_batches(partial, batch_format="pyarrow"),
                           kinds)
    if not folded:  # no events: both sets are empty
        return pd.DataFrame(0.0, index=[0], columns=[
            "est_a", "est_b", "est_union", "est_inter_hll", "est_inter_bloom"])
    sk = folded[None]
    est_a = sk["a_hll"].estimate()
    est_b = sk["b_hll"].estimate()
    union = HLL.deserialize(sk["a_hll"].serialize()).merge(sk["b_hll"])
    est_u = union.estimate()
    est_inter_hll = est_a + est_b - est_u
    inter_bf = sk["a_bf"].intersect(sk["b_bf"])
    est_inter_bloom = inter_bf.estimate_cardinality()
    return pd.DataFrame({
        "est_a": [est_a], "est_b": [est_b], "est_union": [est_u],
        "est_inter_hll": [est_inter_hll],
        "est_inter_bloom": [est_inter_bloom]})


def lang_nchars_tdigest(sf_dir: str, qs=(0.5, 0.9)):
    """GROUPED sketch quantiles: one mergeable t-digest per language
    over document length — per-block (lang, digest-blob) partials,
    folded per lang by ``fold_partials(key="lang")``, estimates per
    requested quantile.  Rows-only (sketch output); pytest pins each
    estimate inside the published t-digest band against the exact
    per-lang PERCENTILE_DISC."""
    from biobloom_ray.sketches.tdigest import TDigest

    ds = _read(sf_dir, "documents", columns=["lang", "n_chars"])

    def partial(b: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "lang": b["lang"].to_pandas(),
            "n": b["n_chars"].to_numpy(zero_copy_only=False)})
        langs, blobs = [], []
        for lang, g in df.groupby("lang"):
            td = TDigest()
            td.update(g["n"].to_numpy(np.float64))
            langs.append(lang)
            blobs.append(td.serialize())
        return pa.table({"lang": pa.array(langs, pa.string()),
                         "blob": pa.array(blobs,
                                          type=pa.large_binary())})

    folded = fold_partials(ds.map_batches(partial, batch_format="pyarrow"),
                           {"blob": TDigest}, key="lang")
    out = {"lang": pd.Series(list(folded), dtype=object)}
    for q in qs:
        out[f"p{int(q * 100)}_est"] = pd.Series(
            [r["blob"].quantile(q) for r in folded.values()],
            dtype=np.float64)
    return pd.DataFrame(out)


def source_dup_report(sf_dir: str, threshold: float = 0.6):
    """Per-source near-dup rate — the curation report that tells you
    WHICH crawl is polluting the corpus: the production MinHash-LSH
    dedup (same keep-lowest-id contract as ``minhash_dedup_kept``)
    decides the drop set, each doc picks up its source, and a tiny
    rollup emits docs / dropped / 6-dp dup-rate per source.  At
    fixture scale every near-dup pair's Jaccard is far from the
    threshold, so the exact-shingle SQL drop set provably equals the
    LSH drop set (the argument the kept-set oracle documents) and the
    report is DuckDB-oracled end-to-end."""
    from biobloom_ray.stages.dedup import minhash_dedup

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    kept = set(minhash_dedup(docs, threshold=threshold)
               .select_columns(["doc_id"]).to_pandas().doc_id)
    meta = _read(sf_dir, "documents", columns=["doc_id", "source"])

    def partial(b: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "doc_id": b["doc_id"].to_numpy(zero_copy_only=False),
            "source": b["source"].to_pandas()})
        df["dropped"] = (~df.doc_id.isin(kept)).astype(np.int64)
        agg = (df.groupby("source", as_index=False)
               .agg(n_docs=("doc_id", "size"),
                    n_dropped=("dropped", "sum")))
        agg["n_docs"] = agg["n_docs"].astype(np.int64)
        agg["n_dropped"] = agg["n_dropped"].astype(np.int64)
        return pa.Table.from_pandas(agg, preserve_index=False)

    parts_ds = meta.map_batches(partial, batch_format="pyarrow")
    n_rows = _cheap_count(meta)
    schema = {"source": object, "n_docs": np.int64,
              "n_dropped": np.int64}
    if n_rows is not None and n_rows <= COUNT_TABLE_DRIVER_MAX_ROWS:
        out = (_parts_pandas(parts_ds, schema)
               .groupby("source", as_index=False).sum())
    else:
        out = _parts_pandas(
            parts_ds.groupby("source")
            .aggregate(Sum("n_docs", alias_name="n_docs"),
                       Sum("n_dropped", alias_name="n_dropped")),
            schema)
    out["dup_rate_r6"] = np.round(
        out["n_dropped"].to_numpy(np.float64)
        / out["n_docs"].to_numpy(np.float64), 6)
    out["n_docs"] = out["n_docs"].astype(np.int64)
    out["n_dropped"] = out["n_dropped"].astype(np.int64)
    return out.sort_values("source").reset_index(drop=True)


# -- round-4 wave 31: sketch join-size / PCA ---------------------------------


def _user_type_counts(sf_dir: str, ta: str, tb: str) -> pd.DataFrame:
    """Tiered (user, c_a, c_b) frequency table for the two event-type
    slices — the shared input of the exact and CMS join-size ops."""
    ds = _read(sf_dir, "events", columns=["user_id", "event_type"])

    def partial(b: pa.Table) -> pa.Table:
        et = b["event_type"].to_numpy(zero_copy_only=False)
        m = (et == ta) | (et == tb)
        df = pd.DataFrame({
            "user_id": b["user_id"].to_numpy(zero_copy_only=False)[m],
            "is_a": (et[m] == ta).astype(np.int64)})
        agg = (df.groupby("user_id", as_index=False)
               .agg(ca=("is_a", "sum"), n=("is_a", "size")))
        agg["cb"] = (agg.n - agg.ca).astype(np.int64)
        return pa.Table.from_pandas(agg[["user_id", "ca", "cb"]],
                                    preserve_index=False)

    parts_ds = ds.map_batches(partial, batch_format="pyarrow")
    n_rows = _cheap_count(ds)
    if n_rows is not None and n_rows <= EVENTS_DRIVER_MAX_ROWS:
        return (_parts_pandas(parts_ds,
                              {"user_id": np.int64, "ca": np.int64,
                               "cb": np.int64})
                .groupby("user_id", as_index=False)[["ca", "cb"]].sum())
    return (parts_ds.groupby("user_id")
            .aggregate(Sum("ca", alias_name="ca"),
                       Sum("cb", alias_name="cb")).to_pandas())


def join_size_exact(sf_dir: str, ta: str = "view", tb: str = "purchase"):
    """EXACT equi-join cardinality |σ_{type=a}(events) ⋈_user
    σ_{type=b}(events)| = Σ_u c_a(u)·c_b(u) — the number the query
    planner needs before picking a join strategy.  One tiered
    (user, c_a, c_b) rollup; the Σ of products runs on the user-scale
    table.  All int64-exact."""
    uc = _user_type_counts(sf_dir, ta, tb)
    both = uc[(uc.ca > 0) & (uc.cb > 0)]
    return pd.DataFrame({
        "join_size": [np.int64((both.ca.to_numpy(np.int64)
                                * both.cb.to_numpy(np.int64)).sum())],
        "n_matching_users": [np.int64(len(both))]})


def join_size_cms(sf_dir: str, ta: str = "view", tb: str = "purchase",
                  eps: float = 0.0005, delta: float = 0.01):
    """Sketch-estimated join cardinality: one Count-Min sketch per
    side built from per-block blob partials (associative merge), then
    the Cormode–Muthukrishnan inner-product estimate min_r Σ_j
    a[r,j]·b[r,j].  Guarantees (pytest-pinned): est ≥ exact always,
    est ≤ exact + ε·N_a·N_b w.p. ≥ 1−δ.  The exact twin rides along
    for the error column; at corpus scale only the sketches move."""
    from biobloom_ray.hashing import splitmix64
    from biobloom_ray.sketches.cms import CountMinSketch

    ds = _read(sf_dir, "events", columns=["user_id", "event_type"])

    def partial(b: pa.Table) -> pa.Table:
        et = b["event_type"].to_numpy(zero_copy_only=False)
        uid = b["user_id"].to_numpy(zero_copy_only=False) \
            .astype(np.uint64)
        out = {}
        for kind, m in (("a", et == ta), ("b", et == tb)):
            cms = CountMinSketch.for_error(eps, delta)
            cms.update(splitmix64(uid[m]), 1)
            out[kind] = pa.array([cms.serialize()], pa.large_binary())
        return pa.table(out)

    sk = fold_partials(
        ds.map_batches(partial, batch_format="pyarrow"),
        {"a": CountMinSketch, "b": CountMinSketch},
    ).get(None, {"a": None, "b": None})
    est = sk["a"].inner_product(sk["b"]) if sk["a"] and sk["b"] else 0
    exact = int(join_size_exact(sf_dir, ta, tb).join_size.iloc[0])
    na = sk["a"].n if sk["a"] else 0
    nb = sk["b"].n if sk["b"] else 0
    return pd.DataFrame({
        "join_size_cms": [np.int64(est)],
        "join_size_exact": [np.int64(exact)],
        "abs_err": [np.int64(est - exact)],
        "eps_bound": [np.int64(int(np.ceil(eps * na * nb)))]})


def embedding_top_pc(sf_dir: str):
    """Distributed PCA, top principal component: each block
    contributes the moment partials (n, Σx, XᵀX) — d and d² numbers
    per block, never rows — which fold associatively into the exact
    covariance; the d×d eigendecomposition runs on the driver
    (d = embedding dim, data-scale-free).  Sign fixed by the
    largest-|loading| component.  Output: one row per dimension with
    the 6-dp loading, plus the explained-variance ratio."""
    from biobloom_ray.stages.ann import _matrix

    ds = _read(sf_dir, "embeddings", columns=["embedding"])

    def partial(b: pa.Table) -> pa.Table:
        m = _matrix(b["embedding"])
        return pa.table({
            "n": pa.array([m.shape[0]], pa.int64()),
            "s": pa.array([np.ascontiguousarray(
                m.sum(axis=0)).tobytes()], pa.large_binary()),
            "xtx": pa.array([np.ascontiguousarray(
                m.T @ m).tobytes()], pa.large_binary())})

    rows = ds.map_batches(partial, batch_format="pyarrow").take_all()
    if not rows:
        return pd.DataFrame({
            "dim": pd.Series([], dtype=np.int64),
            "loading_r6": pd.Series([], dtype=np.float64),
            "explained_var_r6": pd.Series([], dtype=np.float64)})
    n = sum(r["n"] for r in rows)
    s = np.sum([np.frombuffer(r["s"], dtype=np.float64) for r in rows],
               axis=0)
    d = len(s)
    xtx = np.sum([np.frombuffer(r["xtx"],
                                dtype=np.float64).reshape(d, d)
                  for r in rows], axis=0)
    mu = s / n
    cov = xtx / n - np.outer(mu, mu)
    w, vecs = np.linalg.eigh(cov)
    v = vecs[:, -1]
    lam = float(w[-1])
    if v[np.argmax(np.abs(v))] < 0:
        v = -v
    evr = lam / float(np.trace(cov))
    return pd.DataFrame({
        "dim": np.arange(d, dtype=np.int64),
        "loading_r6": np.round(v, 6),
        "explained_var_r6": np.round(np.full(d, evr), 6)})


# -- round-4 wave 33: grid HLL union -----------------------------------------

def hll_weekly_union(sf_dir: str, p: int = 14):
    """Grid-cell sketch merge: one HLL per (event_type, week) cell
    built from per-block blob partials, then the WEEK CELLS of each
    type merge into the type-level distinct-user estimate — the
    union-across-grid operation a precomputed sketch cube answers
    without rescanning (register-wise max, associative).  Pinned
    against the exact twin within 5σ = 5·1.04/√m in pytest."""
    from biobloom_ray.hashing import splitmix64
    from biobloom_ray.sketches.hll import HLL

    ds = _read(sf_dir, "events", columns=["event_type", "ts", "user_id"])

    def partial(b: pa.Table) -> pa.Table:
        week = (pc.floor_temporal(b["ts"], unit="week")
                .cast(pa.timestamp("s")).cast(pa.int64())
                .to_numpy(zero_copy_only=False))
        et = b["event_type"].to_numpy(zero_copy_only=False)
        uid = b["user_id"].to_numpy(zero_copy_only=False) \
            .astype(np.uint64)
        cells, blobs = [], []
        df = pd.DataFrame({"et": et, "wk": week})
        for (t, w), g in df.groupby(["et", "wk"], sort=False):
            h = HLL(p=p)
            h.update(splitmix64(uid[g.index.to_numpy()]))
            cells.append(f"{t} {int(w)}")
            blobs.append(h.serialize())
        return pa.table({"cell": pa.array(cells, pa.string()),
                         "blob": pa.array(blobs, pa.large_binary())})

    # one HLL per "<event_type> <week_epoch>" cell, then the union
    # across the week cells of each type
    per_type: dict = {}
    n_weeks: dict = {}
    for cell, r in fold_partials(
            ds.map_batches(partial, batch_format="pyarrow"),
            {"blob": HLL}, key="cell").items():
        t = cell.rsplit(" ", 1)[0]
        n_weeks[t] = n_weeks.get(t, 0) + 1
        per_type[t] = per_type[t].merge(r["blob"]) if t in per_type \
            else r["blob"]
    types = sorted(per_type)
    return pd.DataFrame({
        "event_type": pd.Series(types, dtype=object),
        "n_weeks": pd.Series([n_weeks[t] for t in types], dtype=np.int64),
        "est_distinct_users": pd.Series(
            [round(per_type[t].estimate()) for t in types],
            dtype=np.int64)})


# -- round-4 wave 34: exclusive vocab ----------------------------------------


def source_exclusive_tokens(sf_dir: str):
    """Source-exclusive vocabulary — contamination/provenance signal:
    per source, how many of its token OCCURRENCES use a token that
    appears in NO other source, plus the exclusive-type count and the
    6-dp occurrence share.  The corpus reduces to the (token, source)
    rollup (vocab-scale); exclusivity is decided on the vocab table
    (a token's distinct-source count == 1) and joined back without
    touching the corpus again."""
    ds = _read(sf_dir, "documents", columns=["source", "text"])

    def partial(b: pa.Table) -> pa.Table:
        from biobloom_ray.stages.textstats import _token_arrays

        flat, lens, row_of = _token_arrays(b)
        src = b["source"].to_numpy(zero_copy_only=False)
        if not len(flat):
            return pa.table({"source": pa.array([], pa.string()),
                             "token": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64())})
        df = pd.DataFrame({"source": src[row_of], "token": flat})
        agg = (df.groupby(["source", "token"], as_index=False)
               .size().rename(columns={"size": "n"}))
        agg["n"] = agg["n"].astype(np.int64)
        return pa.Table.from_pandas(agg, preserve_index=False)

    parts_ds = ds.map_batches(partial, batch_format="pyarrow")
    n_rows = _cheap_count(ds)
    if n_rows is not None and n_rows <= COUNT_TABLE_DRIVER_MAX_ROWS:
        st = (_parts_pandas(parts_ds, {"source": object,
                                       "token": object, "n": np.int64})
              .groupby(["source", "token"], as_index=False)["n"].sum())
    else:
        st = (parts_ds.groupby(["source", "token"])
              .aggregate(Sum("n", alias_name="n")).to_pandas())
    nsrc = st.groupby("token")["source"].transform("nunique")
    st["excl"] = (nsrc == 1).to_numpy()
    tot = st.groupby("source", as_index=False)["n"].sum() \
        .rename(columns={"n": "n_tokens"})
    exc = (st[st.excl].groupby("source", as_index=False)
           .agg(n_exclusive_occ=("n", "sum"),
                n_exclusive_types=("token", "size")))
    out = tot.merge(exc, on="source", how="left").fillna(0)
    out["n_tokens"] = out.n_tokens.astype(np.int64)
    out["n_exclusive_occ"] = out.n_exclusive_occ.astype(np.int64)
    out["n_exclusive_types"] = out.n_exclusive_types.astype(np.int64)
    out["exclusive_share_r6"] = np.round(
        out.n_exclusive_occ.to_numpy(np.float64)
        / out.n_tokens.to_numpy(np.float64), 6)
    return out.sort_values("source").reset_index(drop=True)


# -- round-4 wave 35: Bloom-pruned join ---------------------------------------


#: orders-row gate of ``bloom_prune_join_revenue``: below it the selected
#: order keys broadcast as an exact sorted array; above it they build a
#: key-Bloom that prunes lineitem before a hash join
LINEITEM_DRIVER_MAX_ROWS = 5_000_000

#: FPR for the key-Bloom the pruned join broadcasts (2^-8: ~11 bits/key,
#: so even a 10^9-key dimension side stays a ~1.4 GB one-time broadcast
#: while cutting ~99.6% of non-matching fact rows before the shuffle).
BLOOMJOIN_FPR = 1.0 / 256.0


def _key_hashes(keys: np.ndarray, seed: int = 0x9E3779B97F4A7C15):
    """(h1, h2) double-hash pair for int64 join keys (splitmix64
    family); h2 forced odd so ``h1 + i*h2`` walks all bit positions."""
    from biobloom_ray.hashing import splitmix64

    u = keys.astype(np.uint64)
    h1 = splitmix64(u)
    h2 = splitmix64(u ^ np.uint64(seed)) | np.uint64(1)
    return h1, h2


def bloom_prune_join_revenue(sf_dir: str, priority: str = "1-URGENT",
                             lo: str = "1995-01-01",
                             hi: str = "1996-01-01"):
    """Bloom-pruned fact⋈dimension join (the classic "Bloom join" /
    runtime-filter pushdown, here built from the engine's OWN sketch
    core): revenue of lineitems whose order is in-priority and
    in-window, per return flag — EXACT result, the Bloom only shrinks
    the shuffle.  Cluster tier: (1) the filtered order keys build a
    ``BloomFilter`` distributively — per-block partial filters OR-fold
    through ``fold_partials`` (the maker's blob-partial fold; sized to
    the unfiltered order count so the realized FPR only undershoots
    ``BLOOMJOIN_FPR``); (2) the fact
    scan probes the broadcast filter map-side and pre-reduces survivors
    to (orderkey, flag, cents) partials — no false negatives, so
    nothing true is lost; (3) an inner hash join against the real key
    set kills the ≤FPR false positives, then a tiny Sum groupby.  At
    a selectivity of s the exchange moves ≈ (s + FPR) of the fact rows
    instead of all of them.  Below the gate the exact sorted key set
    broadcasts directly (no Bloom needed at that size)."""
    import ray

    from biobloom_ray.io import hash_join
    from biobloom_ray.sketches.bloom import (BloomFilter,
                                             calc_optimal_hash_num,
                                             calc_optimal_size)

    orders = _read(sf_dir, "orders",
                   columns=["o_orderkey", "o_orderdate",
                            "o_orderpriority"])
    tlo = np.datetime64(lo, "us").astype(np.int64)
    thi = np.datetime64(hi, "us").astype(np.int64)

    def sel_keys(b: pa.Table) -> pa.Table:
        ts = (b["o_orderdate"].cast(pa.timestamp("us")).cast(pa.int64())
              .to_numpy(zero_copy_only=False))
        pr = b["o_orderpriority"].to_numpy(zero_copy_only=False)
        keep = (pr == priority) & (ts >= tlo) & (ts < thi)
        return pa.table({"o_orderkey": pa.array(
            b["o_orderkey"].to_numpy(zero_copy_only=False)[keep])})

    keys_ds = orders.map_batches(sel_keys, batch_format="pyarrow")
    li = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_returnflag",
                        "l_extendedprice", "l_discount"])

    _rev_schema = pa.schema([("l_orderkey", pa.int64()),
                             ("l_returnflag", pa.string()),
                             ("revenue", pa.int64()),
                             ("n_items", pa.int64())])

    def rev_partial(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:  # keep block schemas unifiable (no null cols)
            return _rev_schema.empty_table()
        cents = _cents_away(
            b["l_extendedprice"].to_numpy(zero_copy_only=False))
        disc = _cents_away(b["l_discount"].to_numpy(zero_copy_only=False))
        df = pd.DataFrame({
            "l_orderkey": b["l_orderkey"].to_numpy(zero_copy_only=False),
            "l_returnflag": pd.Series(b["l_returnflag"].to_pandas())
            .to_numpy(dtype=object),
            "revenue": cents * (100 - disc)})
        agg = (df.groupby(["l_orderkey", "l_returnflag"], as_index=False)
               .agg(revenue=("revenue", "sum"), n_items=("revenue", "size")))
        return pa.Table.from_pandas(agg, preserve_index=False) \
            .cast(_rev_schema)

    def final(df: pd.DataFrame) -> pd.DataFrame:
        out = (df.groupby("l_returnflag", as_index=False)
               [["revenue", "n_items"]].sum())
        out["revenue"] = out.revenue.astype(np.int64)
        out["n_items"] = out.n_items.astype(np.int64)
        return out.sort_values("l_returnflag").reset_index(drop=True)

    n_ord = _cheap_count(orders)
    if n_ord is not None and n_ord <= LINEITEM_DRIVER_MAX_ROWS:
        keys = np.sort(_parts_pandas(keys_ds, {"o_orderkey": np.int64})
                       ["o_orderkey"].to_numpy(np.int64))
        k_ref = ray.put(keys)

        def probe_exact(b: pa.Table) -> pa.Table:
            kk = ray.get(k_ref)
            ok = b["l_orderkey"].to_numpy(zero_copy_only=False)
            if len(kk) == 0:
                return rev_partial(b.slice(0, 0))
            pos = np.searchsorted(kk, ok)
            pos[pos >= len(kk)] = 0
            hit = kk[pos] == ok
            return rev_partial(b.filter(pa.array(hit)))

        parts = li.map_batches(probe_exact, batch_format="pyarrow")
        return final(_parts_pandas(parts, {"l_orderkey": np.int64,
                                           "l_returnflag": object,
                                           "revenue": np.int64,
                                           "n_items": np.int64}))

    # cluster tier: distributed key-Bloom build (partial filters folded)
    h = calc_optimal_hash_num(BLOOMJOIN_FPR)
    m = calc_optimal_size(max(int(n_ord or 1), 1), BLOOMJOIN_FPR, h)

    def bloom_partial(b: pa.Table) -> pa.Table:
        bf = BloomFilter(m=m, hash_num=h, kmer_size=1,
                         filter_id="bloomjoin")
        kk = b["o_orderkey"].to_numpy(zero_copy_only=False)
        if len(kk):
            bf.insert(*_key_hashes(kk.astype(np.int64)))
        return pa.table({"blob": pa.array([bf.serialize()],
                                          pa.large_binary())})

    folded = fold_partials(
        keys_ds.map_batches(bloom_partial, batch_format="pyarrow"),
        {"blob": BloomFilter})
    bf = (folded[None]["blob"] if folded else
          BloomFilter(m=m, hash_num=h, kmer_size=1, filter_id="bloomjoin"))
    # the words array broadcasts as numpy, so ``ray.get`` maps it
    # zero-copy from the object store — no per-batch copy of the filter
    words_ref = ray.put(bf.words)
    shape = dict(m=bf.m, hash_num=bf.hash_num, kmer_size=1, seed=bf.seed)

    def bloom_probe(b: pa.Table) -> pa.Table:
        """Probe + pre-reduce on the task path: an actor pool would
        hold cpus the join's aggregator actors need, and at 2 cpus the
        two starve each other."""
        probe = BloomFilter(words=ray.get(words_ref), **shape)
        ok = b["l_orderkey"].to_numpy(zero_copy_only=False)
        maybe = probe.contains(*_key_hashes(ok.astype(np.int64)))
        return rev_partial(b.filter(pa.array(maybe)))

    survivors = li.map_batches(bloom_probe, batch_format="pyarrow")
    exact = hash_join(survivors, keys_ds, on=("l_orderkey",),
                      right_on=("o_orderkey",), join_type="inner")
    agg = _parts_pandas(
        exact.groupby("l_returnflag")
        .aggregate(Sum("revenue", alias_name="revenue"),
                   Sum("n_items", alias_name="n_items")),
        {"l_returnflag": object, "revenue": np.int64, "n_items": np.int64})
    return final(agg)


#: KMV (k-minimum-values / bottom-k) sketch size — 7th mergeable
#: sketch family.  Relative std ≈ 1/sqrt(k-2) ≈ 0.127 at 64.
KMV_K = 64


def _kmv_type_sets(sf_dir: str, k: int) -> dict:
    """Bottom-k sketch of the (user, day) pairs per event type →
    {event_type: sorted int64 hash array (≤ k)}.  Each block dedupes
    its pairs, hashes them (60-bit md5 prefix) and emits one ``KMV``
    per type, folded by ``fold_partials(key="event_type")``.  Shared by
    ``kmv_distinct_userdays`` and ``kmv_type_jaccard``; output scale is
    k × |types| at any corpus size."""
    import hashlib

    from biobloom_ray.sketches.kmv import KMV

    def partial(b: pa.Table) -> pa.Table:
        ts = (b["ts"].cast(pa.timestamp("us")).cast(pa.int64())
              .to_numpy(zero_copy_only=False))
        df = pd.DataFrame({
            "event_type": pd.Series(b["event_type"].to_pandas())
            .to_numpy(dtype=object),
            "user_id": b["user_id"].to_numpy(zero_copy_only=False),
            "day": (ts // 86_400_000_000) * 86_400}).drop_duplicates()
        df["hv"] = np.fromiter(
            (int(hashlib.md5(f"{u}|{d}".encode()).hexdigest()[:15], 16)
             for u, d in zip(df.user_id, df.day)),
            dtype=np.int64, count=len(df))
        types, blobs = [], []
        for t, g in df.groupby("event_type", sort=True):
            sk = KMV(k=k)
            sk.update(g.hv.to_numpy(np.int64))
            types.append(t)
            blobs.append(sk.serialize())
        return pa.table({"event_type": pa.array(types, pa.string()),
                         "kmv": pa.array(blobs, pa.large_binary())})

    ds = _read(sf_dir, "events", columns=["event_type", "user_id", "ts"])
    return {t: r["kmv"].hashes for t, r in fold_partials(
        ds.map_batches(partial, batch_format="pyarrow"), {"kmv": KMV},
        key="event_type").items()}


def kmv_distinct_userdays(sf_dir: str, k: int = KMV_K):
    """KMV / bottom-k distinct sketch (Bar-Yossef et al. 2002): per
    event type, estimate distinct (user, day) pairs from the k SMALLEST
    60-bit md5 hashes.  Fully SQL-oracled — unlike HLL, the KMV state
    is a deterministic function of the input set, so DuckDB replays the
    exact hash, the exact k-th order statistic, AND the exact estimate
    ((k−1)/normalized kth hash; exact count when fewer than k distinct
    hashes survive).  The per-type sketches come from
    ``_kmv_type_sets``; md5 is inherently per-item, and it runs on
    block-DEDUPED pairs only."""
    two60 = float(1 << 60)
    sets = _kmv_type_sets(sf_dir, k)
    kept = [len(hv) for hv in sets.values()]
    kth = [int(hv[-1]) if len(hv) else 0 for hv in sets.values()]
    return pd.DataFrame({
        "event_type": pd.Series(list(sets), dtype=object),
        "n_kept": pd.Series(kept, dtype=np.int64),
        "kth_hash": pd.Series(kth, dtype=np.int64),
        "kmv_distinct_r6": pd.Series(
            [round(float(m) if m < k else (k - 1) / (h / two60), 6)
             for m, h in zip(kept, kth)], dtype=np.float64)})


def kmv_type_jaccard(sf_dir: str, k: int = KMV_K):
    """KMV SET ALGEBRA — the bottom-k sketch's party trick (HLL can
    only union): estimate the Jaccard similarity of the (user, day)
    sets of every event-type pair from the two bottom-k sketches
    alone.  J ≈ |bottom-k(A ∪ B) ∩ A_k ∩ B_k| / |bottom-k(A ∪ B)| —
    the k smallest hashes of the union are a uniform sample of the
    union, so the match fraction is an unbiased Jaccard estimate.
    Deterministic given the hash ⇒ DuckDB replays the whole
    computation bit-exactly (the sketch is SQL-oracled, not just
    bounded).  The per-type sets come from the shared fold
    (``_kmv_type_sets``); the pair math runs on k × |types| rows."""
    sets = _kmv_type_sets(sf_dir, k)
    types = sorted(sets)
    rows = []
    for i, ta in enumerate(types):
        for tb in types[i + 1:]:
            u = np.union1d(sets[ta], sets[tb])[:k]
            both = np.intersect1d(np.intersect1d(u, sets[ta]),
                                  sets[tb])
            rows.append((ta, tb, len(u), len(both),
                         round(len(both) / len(u), 6) if len(u) else 0.0))
    out = pd.DataFrame(rows, columns=["type_a", "type_b",
                                      "n_union_kept", "n_matches",
                                      "jaccard_r6"])
    out["n_union_kept"] = out.n_union_kept.astype(np.int64)
    out["n_matches"] = out.n_matches.astype(np.int64)
    out["jaccard_r6"] = out.jaccard_r6.astype(np.float64)
    return (out.sort_values(["type_a", "type_b"])
            .reset_index(drop=True))


def lang_bigram_jsd(sf_dir: str):
    """Pairwise Jensen-Shannon divergence between the per-language
    word-bigram distributions — the corpus-drift / contamination
    screen in information-theoretic units.  Distributed shape: block
    partials PIVOT counts into one column per language (languages
    discovered in a tiny pre-pass), so ONE native Sum groupby on
    bigram co-locates every language's count for a key with no
    per-group Python; per-pair JSD terms then vectorize per block and
    fold into |langs|² rows.  Driver tier: pandas pivot_table.  The
    exact-integer anchors (union / common bigram counts) pin the
    float column, which rounds to 6 dp like every entropy oracle."""
    ds = _read(sf_dir, "documents", columns=["lang", "text"])
    langs = sorted(ds.groupby("lang").count().to_pandas()["lang"]
                   .to_numpy(dtype=object))
    lcols = [f"n_{i}" for i in range(len(langs))]
    lidx = {l: i for i, l in enumerate(langs)}

    def partial(b: pa.Table) -> pa.Table:
        from biobloom_ray.stages.textstats import _token_arrays

        flat, _lens, row_of = _token_arrays(b)
        cols = {"bigram": pd.Series([], dtype=object)}
        cols.update({c: pd.Series([], dtype=np.int64) for c in lcols})
        if len(flat) < 2:
            return pa.Table.from_pandas(pd.DataFrame(cols),
                                        preserve_index=False)
        lg = b["lang"].to_pandas().to_numpy(dtype=object)
        same = row_of[1:] == row_of[:-1]
        bg = (pd.Series(flat[:-1][same], dtype=object)
              .str.cat(pd.Series(flat[1:][same], dtype=object),
                       sep=" "))
        df = pd.DataFrame({"lang": lg[row_of[:-1][same]],
                           "bigram": bg.to_numpy(dtype=object)})
        agg = (df.groupby(["lang", "bigram"], as_index=False).size())
        piv = (agg.pivot_table(index="bigram", columns="lang",
                               values="size", fill_value=0,
                               aggfunc="sum").reset_index())
        out = pd.DataFrame({"bigram": piv.bigram
                            .to_numpy(dtype=object)})
        for l in langs:
            out[lcols[lidx[l]]] = (piv[l].to_numpy(np.int64)
                                   if l in piv.columns
                                   else np.zeros(len(piv), np.int64))
        return pa.Table.from_pandas(out, preserve_index=False)

    def pair_terms(mat: np.ndarray, tot: np.ndarray) -> pd.DataFrame:
        """(vocab_chunk × L) counts + GLOBAL totals → per-pair partial
        (Σ jsd terms, union tally, common tally) — associative."""
        rows = []
        for i in range(len(langs)):
            for j in range(i + 1, len(langs)):
                na, nb = mat[:, i], mat[:, j]
                m = (na > 0) | (nb > 0)
                p = na[m] / tot[i] if tot[i] else na[m] * 0.0
                q = nb[m] / tot[j] if tot[j] else nb[m] * 0.0
                mid = 0.5 * (p + q)
                with np.errstate(divide="ignore", invalid="ignore"):
                    ta = np.where(p > 0, p * np.log(
                        np.where(p > 0, p, 1.0) / np.where(
                            mid > 0, mid, 1.0)), 0.0)
                    tb = np.where(q > 0, q * np.log(
                        np.where(q > 0, q, 1.0) / np.where(
                            mid > 0, mid, 1.0)), 0.0)
                rows.append((langs[i], langs[j],
                             0.5 * float(ta.sum())
                             + 0.5 * float(tb.sum()),
                             int(m.sum()),
                             int(((na > 0) & (nb > 0)).sum())))
        return pd.DataFrame(rows, columns=["lang_a", "lang_b", "term",
                                           "n_union", "n_common"])

    def finish(parts: pd.DataFrame) -> pd.DataFrame:
        agg = (parts.groupby(["lang_a", "lang_b"], as_index=False)
               .agg(jsd_r6=("term", "sum"), n_union=("n_union", "sum"),
                    n_common=("n_common", "sum")))
        agg["jsd_r6"] = agg.jsd_r6.round(6)
        agg["n_union"] = agg.n_union.astype(np.int64)
        agg["n_common"] = agg.n_common.astype(np.int64)
        return (agg[["lang_a", "lang_b", "n_union", "n_common",
                     "jsd_r6"]].sort_values(["lang_a", "lang_b"])
                .reset_index(drop=True))

    parts_ds = ds.map_batches(partial, batch_format="pyarrow")
    n_rows = _cheap_count(ds)
    if n_rows is not None and n_rows <= BIGRAM_DRIVER_MAX_ROWS:
        p = _parts_pandas(parts_ds, dict(
            [("bigram", object)] + [(c, np.int64) for c in lcols]))
        agg = p.groupby("bigram", as_index=False)[lcols].sum()
        mat = agg[lcols].to_numpy(np.int64)
        return finish(pair_terms(mat, mat.sum(axis=0)
                                 .astype(np.float64)))
    # cluster tier: ONE native Sum groupby co-locates each bigram's
    # per-lang counts; totals broadcast; per-block pair partials fold
    # to |blocks| × |pairs| rows — nothing vocab-scale leaves workers
    counts_ds = (parts_ds.groupby("bigram")
                 .aggregate(*[Sum(c, alias_name=c) for c in lcols])
                 .materialize())

    def col_sums(b: pa.Table) -> pa.Table:
        return pa.table({c: pa.array(
            [int(b[c].to_numpy(zero_copy_only=False).sum())],
            pa.int64()) for c in lcols})

    tot = (counts_ds.map_batches(col_sums, batch_format="pyarrow")
           .to_pandas()[lcols].sum().to_numpy(np.float64))
    import ray as _ray

    tot_ref = _ray.put(tot)

    def block_terms(b: pa.Table) -> pa.Table:
        sub = np.stack([b[c].to_numpy(zero_copy_only=False)
                        for c in lcols], axis=1).astype(np.int64)
        return pa.Table.from_pandas(
            pair_terms(sub, _ray.get(tot_ref)), preserve_index=False)

    parts = _parts_pandas(
        counts_ds.map_batches(block_terms, batch_format="pyarrow"),
        {"lang_a": object, "lang_b": object, "term": np.float64,
         "n_union": np.int64, "n_common": np.int64})
    return finish(parts)


def type_user_overlap_exact(sf_dir: str):
    """EXACT set-overlap matrix between event types over (user, day)
    activity sets — the exact twin the KMV Jaccard estimates
    (``kmv_type_jaccard``): |A ∩ B|, |A ∪ B| and the exact Jaccard
    per type pair.  Shape: each deduped (user, day) entity expands
    its ≤ |types| active-type set into pairs INSIDE the per-entity
    group (the market-basket expansion, domain-bounded), so the
    shuffle carries (pair, 1) partials only; totals come from the
    same dedup pass."""
    ds = _read(sf_dir, "events", columns=["event_type", "user_id", "ts"])

    def triple_partial(b: pa.Table) -> pa.Table:
        ts = (b["ts"].cast(pa.timestamp("us")).cast(pa.int64())
              .to_numpy(zero_copy_only=False))
        day = (ts // 86_400_000_000) * 86_400
        df = pd.DataFrame({
            "event_type": pd.Series(b["event_type"].to_pandas())
            .to_numpy(dtype=object),
            "user_id": b["user_id"].to_numpy(zero_copy_only=False),
            "day": day}).drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False)

    trips = ds.map_batches(triple_partial, batch_format="pyarrow")

    n_rows = _cheap_count(ds)
    if n_rows is not None and n_rows <= EVENTS_DRIVER_MAX_ROWS:
        df = (_parts_pandas(trips, {"event_type": object,
                                    "user_id": np.int64,
                                    "day": np.int64})
              .drop_duplicates())
        # vectorized pair expansion: sort by entity, pair adjacent
        # combinations via per-entity merges on the 5-type domain
        piv = (df.assign(one=1)
               .pivot_table(index=["user_id", "day"],
                            columns="event_type", values="one",
                            fill_value=0, aggfunc="max"))
        types = sorted(piv.columns)
        m = piv[types].to_numpy(np.int64)
        rows = []
        for i, a in enumerate(types):
            for j in range(i + 1, len(types)):
                inter = int((m[:, i] & m[:, j]).sum())
                union = int((m[:, i] | m[:, j]).sum())
                rows.append((a, types[j], np.int64(inter),
                             np.int64(union),
                             round(inter / union, 6) if union else 0.0))
    else:
        # cluster tier: global dedup of triples, then a per-entity
        # map_groups basket expansion into (pair, 1) partials
        dedup = (trips.groupby(["event_type", "user_id", "day"])
                 .aggregate(Count(alias_name="_c")))

        def basket(g: pd.DataFrame) -> pd.DataFrame:
            tps = sorted(set(g.event_type))
            out = {"ta": [], "tb": []}
            for i, a in enumerate(tps):
                for b_ in tps[i + 1:]:
                    out["ta"].append(a)
                    out["tb"].append(b_)
            o = pd.DataFrame(out)
            o["n"] = np.int64(1)
            return o

        pair_ds = (dedup.groupby(["user_id", "day"])
                   .map_groups(basket, batch_format="pandas"))
        pairs = (pair_ds.groupby(["ta", "tb"])
                 .aggregate(Sum("n", alias_name="n")).to_pandas())
        sz = (dedup.groupby("event_type")
              .aggregate(Count(alias_name="sz")).to_pandas())
        szmap = dict(zip(sz.event_type, sz.sz.astype(np.int64)))
        types = sorted(szmap)
        pmap = {(r.ta, r.tb): int(r.n) for r in pairs.itertuples()}
        rows = []
        for i, a in enumerate(types):
            for j in range(i + 1, len(types)):
                b_ = types[j]
                inter = pmap.get((a, b_), 0)
                union = szmap[a] + szmap[b_] - inter
                rows.append((a, b_, np.int64(inter), np.int64(union),
                             round(inter / union, 6) if union else 0.0))
    out = pd.DataFrame(rows, columns=["type_a", "type_b", "n_inter",
                                      "n_union", "jaccard_r6"])
    out["n_inter"] = out.n_inter.astype(np.int64)
    out["n_union"] = out.n_union.astype(np.int64)
    return (out.sort_values(["type_a", "type_b"])
            .reset_index(drop=True))


def token_len_histogram(sf_dir: str):
    """Token-LENGTH profile per language (the tokenizer-budget view:
    how many BPE pieces a word will shatter into correlates with
    length): exact counts per (lang, token character length), factorized
    per block with the shared ``_token_arrays`` kernel (no Python
    loop), tiered combine."""
    from biobloom_ray.stages.textstats import _token_arrays

    ds = _read(sf_dir, "documents", columns=["lang", "text"])

    def partial(b: pa.Table) -> pa.Table:
        flat, _lens, row_of = _token_arrays(b)
        if len(flat) == 0:
            return pa.table({"lang": pa.array([], pa.string()),
                             "tok_len": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        lg = b["lang"].to_pandas().to_numpy(dtype=object)
        ln = pd.Series(flat, dtype=object).str.len() \
            .to_numpy(np.int64)
        df = pd.DataFrame({"lang": lg[row_of], "tok_len": ln})
        agg = (df.groupby(["lang", "tok_len"], as_index=False)
               .size().rename(columns={"size": "n"}))
        agg["n"] = agg.n.astype(np.int64)
        return pa.Table.from_pandas(agg, preserve_index=False)

    parts_ds = ds.map_batches(partial, batch_format="pyarrow")
    n_rows = _cheap_count(ds)
    if n_rows is not None and n_rows <= COUNT_TABLE_DRIVER_MAX_ROWS:
        agg = (_parts_pandas(parts_ds, {"lang": object,
                                        "tok_len": np.int64,
                                        "n": np.int64})
               .groupby(["lang", "tok_len"], as_index=False)["n"].sum())
    else:
        agg = (parts_ds.groupby(["lang", "tok_len"])
               .aggregate(Sum("n", alias_name="n")).to_pandas())
    agg["tok_len"] = agg.tok_len.astype(np.int64)
    agg["n"] = agg.n.astype(np.int64)
    return (agg.sort_values(["lang", "tok_len"])
            .reset_index(drop=True))


def vocab_growth_by_docs(sf_dir: str, bucket: int = 1):
    """HEAPS'-LAW vocabulary growth: distinct tokens seen so far as
    the corpus is consumed in doc_id order, sampled every ``bucket``
    documents — running distinct via the FIRST-APPEARANCE trick (a
    token enters the curve at its MIN doc_id; one per-token Min
    rollup + an output-scale prefix sum — no running set, the same
    decomposition as ``cumulative_parts_catalog``)."""
    from biobloom_ray.stages.textstats import _token_arrays

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def partial(b: pa.Table) -> pa.Table:
        flat, _lens, row_of = _token_arrays(b)
        if len(flat) == 0:
            return pa.table({"token": pa.array([], pa.string()),
                             "d0": pa.array([], pa.int64())})
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        df = pd.DataFrame({"token": pd.Series(flat, dtype=object),
                           "d0": ids[row_of]})
        agg = df.groupby("token", as_index=False)["d0"].min()
        return pa.Table.from_pandas(agg, preserve_index=False)

    parts_ds = ds.map_batches(partial, batch_format="pyarrow")
    n_rows = _cheap_count(ds)
    if n_rows is not None and n_rows <= COUNT_TABLE_DRIVER_MAX_ROWS:
        firsts = (_parts_pandas(parts_ds, {"token": object,
                                           "d0": np.int64})
                  .groupby("token", as_index=False)["d0"].min())
    else:
        firsts = (parts_ds.groupby("token")
                  .aggregate(Min("d0", alias_name="d0")).to_pandas())
    firsts["b"] = (firsts.d0.to_numpy(np.int64)
                   // bucket).astype(np.int64)
    daily = (firsts.groupby("b", as_index=False)
             .size().rename(columns={"size": "n_new",
                                     "b": "doc_bucket"}))
    daily = daily.sort_values("doc_bucket").reset_index(drop=True)
    daily["n_cum"] = daily.n_new.cumsum().astype(np.int64)
    daily["doc_bucket"] = daily.doc_bucket.astype(np.int64)
    daily["n_new"] = daily.n_new.astype(np.int64)
    return daily[["doc_bucket", "n_new", "n_cum"]]


def incremental_dedup_report(sf_dir: str, n_chars: int = 64):
    """INCREMENTAL INGESTION dedup report — the day-2 batch classified
    against the day-1 snapshot, the shape every continuously-crawled
    corpus runs nightly.  Day 1 = even doc_ids, day 2 = odd (a
    deterministic split of the fixture); the dedup key is the C4-style
    ``n_chars``-prefix fingerprint (the fixture has real prefix
    collisions).  Each day-2 doc
    is exactly one of: `dup_day1` (prefix already in the snapshot),
    `dup_within` (new prefix but a smaller-id day-2 doc already has
    it), `new`.  Plan: ONE fingerprint rollup over all docs — per-fp
    (seen-in-day-1 flag, min odd id) pre-reduced per block — then
    day-2 rows classify map-side (rollup broadcast below
    `COUNT_TABLE_DRIVER_MAX_ROWS` input rows, hash join above) and the
    per-lang counts are output-scale.  No text moves in any shuffle:
    the rollup carries 32-hex digests of the prefix."""
    import ray

    from biobloom_ray.io import hash_join
    from biobloom_ray.textnorm import content_md5_batch

    SENTINEL = np.int64(2**62)
    ds = _read(sf_dir, "documents", columns=["doc_id", "lang", "text"])

    def _pfp(b: pa.Table) -> pa.Table:
        pref = pc.utf8_slice_codeunits(b["text"], 0, n_chars)
        return b.append_column("fp_md5", pa.array(
            content_md5_batch(pref), type=pa.large_string()))

    def fp_partial(b: pa.Table) -> pa.Table:
        h = _pfp(b)
        did = h["doc_id"].to_numpy(zero_copy_only=False)
        odd = did % 2 == 1
        df = pd.DataFrame({
            "fp": h["fp_md5"].to_pandas().to_numpy(dtype=object),
            "has1": (~odd).astype(np.int64),
            "modd": np.where(odd, did, SENTINEL)})
        agg = (df.groupby("fp", as_index=False)
               .agg(has1=("has1", "max"), modd=("modd", "min")))
        return pa.Table.from_pandas(agg, preserve_index=False)

    def day2_rows(b: pa.Table) -> pa.Table:
        h = _pfp(b)
        odd = pc.equal(pc.bit_wise_and(h["doc_id"], 1), 1)
        sub = h.filter(odd)
        return pa.table({"doc_id": sub["doc_id"].cast(pa.int64()),
                         "lang": sub["lang"],
                         "fp2": sub["fp_md5"].cast(pa.string())})

    def classify(doc_id, lang, has1, modd) -> pa.Table:
        cls = np.where(has1 > 0, 0, np.where(doc_id > modd, 1, 2))
        df = pd.DataFrame({"lang": lang,
                           "n_day2": np.ones(len(cls), np.int64),
                           "n_dup_day1": (cls == 0).astype(np.int64),
                           "n_dup_within": (cls == 1).astype(np.int64),
                           "n_new": (cls == 2).astype(np.int64)})
        agg = df.groupby("lang", as_index=False).sum()
        return pa.Table.from_pandas(agg, preserve_index=False)

    parts_ds = ds.map_batches(fp_partial, batch_format="pyarrow")
    cols = ["n_day2", "n_dup_day1", "n_dup_within", "n_new"]
    n_rows = _cheap_count(ds)
    if n_rows is not None and n_rows <= COUNT_TABLE_DRIVER_MAX_ROWS:
        r = _parts_pandas(parts_ds, {"fp": object, "has1": np.int64,
                                     "modd": np.int64})
        r = (r.groupby("fp", as_index=False)
             .agg(has1=("has1", "max"), modd=("modd", "min")))
        order = np.argsort(r.fp.to_numpy(dtype=object))
        fps = r.fp.to_numpy(dtype=object)[order]
        has1 = r.has1.to_numpy(np.int64)[order]
        modd = r.modd.to_numpy(np.int64)[order]
        roll_ref = ray.put((fps, has1, modd))

        def cls_map(b: pa.Table) -> pa.Table:
            ff, hh, mm = ray.get(roll_ref)
            d2 = day2_rows(b)
            f2 = d2["fp2"].to_pandas().to_numpy(dtype=object)
            pos = np.searchsorted(ff, f2)  # every fp present
            return classify(
                d2["doc_id"].to_numpy(zero_copy_only=False),
                d2["lang"].to_pandas().to_numpy(dtype=object),
                hh[pos], mm[pos])

        cparts = ds.map_batches(cls_map, batch_format="pyarrow")
        p = _parts_pandas(cparts, {"lang": object,
                                   **{c: np.int64 for c in cols}})
        out = p.groupby("lang", as_index=False)[cols].sum()
    else:
        rollup = (parts_ds.groupby("fp")
                  .aggregate(Max("has1", alias_name="has1"),
                             Min("modd", alias_name="modd")))
        d2 = ds.map_batches(day2_rows, batch_format="pyarrow")
        joined = hash_join(d2, rollup, on=("fp2",), right_on=("fp",))

        def cls_join(b: pa.Table) -> pa.Table:
            return classify(
                b["doc_id"].to_numpy(zero_copy_only=False),
                b["lang"].to_pandas().to_numpy(dtype=object),
                b["has1"].to_numpy(zero_copy_only=False),
                b["modd"].to_numpy(zero_copy_only=False))

        cparts = joined.map_batches(cls_join, batch_format="pyarrow")
        out = _parts_pandas(
            cparts.groupby("lang")
            .aggregate(*[Sum(c, alias_name=c) for c in cols]),
            {"lang": object, **{c: np.int64 for c in cols}})
    for c in cols:
        out[c] = out[c].astype(np.int64)
    return out.sort_values("lang").reset_index(drop=True)


def vocab_coverage_topp(sf_dir: str, pct: int = 90):
    """NUCLEUS (top-p) VOCABULARY COVERAGE per language: the minimal
    number of distinct tokens whose summed frequency reaches ``pct``%
    of the language's token mass (the "how small can the tokenizer
    vocab be" curve; Zipf makes it tiny).  Exact integers end-to-end:
    the inherent (lang, token) vocabulary shuffle (narrow rows) below
    — driver combine under `COUNT_TABLE_DRIVER_MAX_ROWS` input rows, native
    Sum groupby above — reduces to a per-lang COUNTS-OF-COUNTS table
    (≤ #distinct frequencies rows, log-scale under Zipf), and the
    crossing walk picks full count-buckets plus the exact partial take
    ceil((thr − cum)/cnt); ties inside a bucket are interchangeable so
    the minimum is exact."""
    from biobloom_ray.stages.textstats import _token_arrays

    ds = _read(sf_dir, "documents", columns=["lang", "text"])

    def lt_partial(b: pa.Table) -> pa.Table:
        flat, lens, _ = _token_arrays(b)
        lg = np.repeat(
            b["lang"].to_pandas().to_numpy(dtype=object), lens)
        if not len(flat):
            return pa.table({"lang": pa.array([], pa.string()),
                             "token": pa.array([], pa.string()),
                             "cnt": pa.array([], pa.int64())})
        df = pd.DataFrame({"lang": lg, "token": flat})
        agg = (df.groupby(["lang", "token"], as_index=False)
               .size().rename(columns={"size": "cnt"}))
        agg["cnt"] = agg.cnt.astype(np.int64)
        return pa.Table.from_pandas(agg, preserve_index=False)

    parts_ds = ds.map_batches(lt_partial, batch_format="pyarrow")
    n_rows = _cheap_count(ds)
    if n_rows is not None and n_rows <= COUNT_TABLE_DRIVER_MAX_ROWS:
        vocab = (_parts_pandas(parts_ds, {"lang": object,
                                          "token": object,
                                          "cnt": np.int64})
                 .groupby(["lang", "token"], as_index=False).cnt.sum())
        cc = (vocab.groupby(["lang", "cnt"], as_index=False)
              .size().rename(columns={"size": "k"}))
    else:
        vocab = (parts_ds.groupby(["lang", "token"])
                 .aggregate(Sum("cnt", alias_name="cnt")))

        def cc_partial(b: pa.Table) -> pa.Table:
            df = pd.DataFrame({
                "lang": b["lang"].to_pandas().to_numpy(dtype=object),
                "cnt": b["cnt"].to_numpy(zero_copy_only=False)})
            agg = (df.groupby(["lang", "cnt"], as_index=False)
                   .size().rename(columns={"size": "k"}))
            agg["k"] = agg.k.astype(np.int64)
            return pa.Table.from_pandas(agg, preserve_index=False)

        cc = (_parts_pandas(
            vocab.map_batches(cc_partial, batch_format="pyarrow"),
            {"lang": object, "cnt": np.int64, "k": np.int64})
            .groupby(["lang", "cnt"], as_index=False).k.sum())
    rows = []
    for lang, g in cc.groupby("lang", sort=True):
        g = g.sort_values("cnt", ascending=False)
        cnt = g.cnt.to_numpy(np.int64)
        k = g.k.to_numpy(np.int64)
        mass = cnt * k
        tot = int(mass.sum())
        n_vocab = int(k.sum())
        thr = -(-pct * tot // 100)  # ceil(pct·tot/100), exact
        cum = np.cumsum(mass)
        j = int(np.argmax(cum >= thr))
        before = int(cum[j - 1]) if j else 0
        need = thr - before
        n_cover = int(k[:j].sum()) + int(-(-need // cnt[j]))
        rows.append((lang, n_vocab, tot, n_cover))
    out = pd.DataFrame(rows, columns=["lang", "n_vocab",
                                      "total_tokens", "n_cover"])
    for c in ["n_vocab", "total_tokens", "n_cover"]:
        out[c] = out[c].astype(np.int64)
    return out.sort_values("lang").reset_index(drop=True)


def bloom_fpr_report(sf_dir: str, n_probes: int = 200_000):
    """OBSERVED vs CONFIGURED Bloom FPR — the BASELINE acceptance
    metric ("observed FPR ≤ configured bound at the chosen m/n and k
    hash functions") as a first-class report.  Builds the per-lang
    filter bank (distributed partial-OR build), then probes each
    filter with ``n_probes`` deterministic uniform hash pairs
    (splitmix64 of a counter — exactly the unseen-key distribution the
    FPR formula assumes): hit rate = observed FPR.  Probes stream as a
    `ray.data.range` → `map_batches` against the broadcast bank with
    per-block hit-count partials (#filters rows per block), so the
    probe count scales without driver involvement.  No SQL oracle can
    exist (sketch internals); the pytest twin pins binomial agreement
    with the occupancy-derived FPR and the configured bound."""
    import ray
    import ray.data

    from biobloom_ray.config import BuildConfig
    from biobloom_ray.hashing import splitmix64
    from biobloom_ray.pipelines import build_filters

    desired = 0.0078125
    docs = _read(sf_dir, "documents", columns=["text", "lang"])
    built = build_filters(docs, text_col="text", label_col="lang",
                          cfg=BuildConfig(kmer_size=8,
                                          desired_fpr=desired,
                                          batch_size=1024),
                          with_hll=False)
    fids = sorted(built)
    bank_ref = ray.put({f: built[f]["filter"].serialize()
                        for f in fids})

    def probe(b: pa.Table) -> pa.Table:
        from biobloom_ray.sketches.bloom import BloomFilter

        ids = b["id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        h1 = splitmix64(ids)
        h2 = splitmix64(ids + np.uint64(0x9E3779B97F4A7C15))
        blobs = ray.get(bank_ref)
        hits = []
        for f in fids:
            bf = BloomFilter.deserialize(blobs[f])
            hits.append(int(bf.contains(h1, h2).sum()))
        return pa.table({"filter_id": pa.array(fids, pa.string()),
                         "n_hits": pa.array(hits, pa.int64()),
                         "n_probes": pa.array(
                             [len(ids)] * len(fids), pa.int64())})

    # batch_size=None → one batch per block: the bank deserializes 8
    # times total, not once per default-size minibatch
    parts = (ray.data.range(n_probes, override_num_blocks=8)
             .map_batches(probe, batch_format="pyarrow",
                          batch_size=None))
    agg = (_parts_pandas(parts, {"filter_id": object,
                                 "n_hits": np.int64,
                                 "n_probes": np.int64})
           .groupby("filter_id", as_index=False)
           [["n_hits", "n_probes"]].sum())
    meta = []
    for f in fids:
        bf = built[f]["filter"]
        meta.append((f, bf.m, bf.hash_num, bf.n_distinct,
                     desired, round(bf.fpr_realized(), 6)))
    md = pd.DataFrame(meta, columns=["filter_id", "m", "hash_num",
                                     "n_distinct", "configured_fpr",
                                     "occupancy_fpr_r6"])
    out = md.merge(agg, on="filter_id")
    out["observed_fpr_r6"] = (out.n_hits / out.n_probes).round(6)
    for c in ["m", "hash_num", "n_distinct", "n_hits", "n_probes"]:
        out[c] = out[c].astype(np.int64)
    return out.sort_values("filter_id").reset_index(drop=True)


def dup_cluster_representatives(sf_dir: str):
    """CANONICAL DOCUMENT per near-dup cluster — the keep-decision a
    dedup pipeline makes after clustering (C4/CCNet keep-the-longest
    heuristic): for every `dup_clusters` component, the member with
    max ``n_chars`` (tie → min doc_id) becomes the representative.
    The cluster table is DUPLICATE-scale, so the pick is a small
    merge; ``n_chars`` attaches by broadcasting the (sorted) dup-doc
    ids and filtering the pruned 2-column documents read map-side —
    no corpus-scale shuffle, no text moves."""
    import ray

    clusters = dup_clusters(sf_dir)
    ids = np.sort(clusters.doc_id.to_numpy(np.int64))
    ids_ref = ray.put(ids)
    docs = _read(sf_dir, "documents", columns=["doc_id", "n_chars"])

    def pick_members(b: pa.Table) -> pa.Table:
        kk = ray.get(ids_ref)
        v = b["doc_id"].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(kk, v)
        pos[pos >= len(kk)] = 0
        hit = (kk[pos] == v) if len(kk) else np.zeros(len(v), bool)
        return b.filter(pa.array(hit))

    nc = _parts_pandas(docs.map_batches(pick_members,
                                        batch_format="pyarrow"),
                       {"doc_id": np.int64, "n_chars": np.int64})
    m = clusters.merge(nc, on="doc_id")
    m = m.sort_values(["cluster_id", "n_chars", "doc_id"],
                      ascending=[True, False, True])
    rep = m.groupby("cluster_id", as_index=False).head(1)
    out = rep.rename(columns={"doc_id": "rep_doc",
                              "n_chars": "rep_n_chars"})[
        ["cluster_id", "cluster_size", "rep_doc", "rep_n_chars"]]
    for c in out.columns:
        out[c] = out[c].astype(np.int64)
    return out.sort_values("cluster_id").reset_index(drop=True)


def neardup_calibration_report(sf_dir: str, threshold: float = 0.5,
                               max_hamming: int = 3):
    """SKETCH-vs-EXACT calibration for the near-dup detectors — the
    table that justifies replacing exact all-pairs Jaccard with
    SimHash at scale: candidate pairs from the SimHash banding path
    vs ground-truth pairs from the exact n-gram-Jaccard path
    (threshold 0.5), intersected on normalized (lo, hi) keys →
    precision / recall counts.  Both sides are existing distributed
    pipelines; the pair tables are duplicate-scale so the set math is
    a driver fold.  No SQL twin for the SimHash side (sketch); the
    ground-truth side is already independently SQL-oracled
    (`ngram_jaccard_pairs`)."""
    from biobloom_ray.stages.dedup import (ngram_jaccard_pairs,
                                           simhash_neardup_pairs)

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    cand = simhash_neardup_pairs(docs, max_hamming=max_hamming)
    truth = ngram_jaccard_pairs(
        _read(sf_dir, "documents", columns=["doc_id", "text"]),
        threshold=threshold)
    if not isinstance(cand, pd.DataFrame):
        cand = cand.to_pandas()
    if not isinstance(truth, pd.DataFrame):
        truth = truth.to_pandas()

    def keyset(df: pd.DataFrame) -> set:
        a = df["id_a"].to_numpy(np.int64)
        b = df["id_b"].to_numpy(np.int64)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        return set(zip(lo.tolist(), hi.tolist()))

    c, t = keyset(cand), keyset(truth)
    hit = len(c & t)
    out = pd.DataFrame({
        "n_candidates": np.asarray([len(c)], np.int64),
        "n_true_pairs": np.asarray([len(t)], np.int64),
        "n_hit": np.asarray([hit], np.int64),
        "precision_r6": [round(hit / len(c), 6) if c else 1.0],
        "recall_r6": [round(hit / len(t), 6) if t else 1.0]})
    return out


def hll_error_sweep(sf_dir: str, precisions=(8, 10, 12, 14)):
    """HLL PUBLISHED-ERROR-BOUND verification as a first-class query
    (BASELINE: sketches "verified against the algorithms' published
    error bounds"): ONE token-hash scan folds FOUR HLL precisions per
    block (register-max merge is associative at every p), the exact
    distinct count comes from the same scan's per-block token-hash
    dedup + one native distinct rollup, and the report shows
    est / exact / relative error / the 1.04/√m bound per precision.
    The pytest twin asserts |rel_err| ≤ 3× bound for every p."""
    from biobloom_ray.sketches.hll import HLL
    from biobloom_ray.stages.textstats import _token_arrays
    from biobloom_ray.hashing import hash_strings

    ds = _read(sf_dir, "documents", columns=["text"])
    ps = tuple(precisions)

    def partial(b: pa.Table) -> pa.Table:
        flat, _, _ = _token_arrays(b)
        # 64-bit token hashes: vectorized splitmix64-finalized
        # polynomial hash per distinct token (same kernel as the
        # production token-hash path; no per-item Python hashing)
        uniq = pd.unique(pd.Index(flat, dtype=object))
        h = hash_strings(uniq)
        blobs = []
        for p in ps:
            sk = HLL(p=p)
            sk.update(h)
            blobs.append(sk.serialize())
        return pa.table({
            "p": pa.array(list(ps), pa.int64()),
            "blob": pa.array(blobs, pa.large_binary())})

    folded = fold_partials(ds.map_batches(partial, batch_format="pyarrow"),
                           {"blob": HLL}, key="p")
    rows = [(int(p), float(r["blob"].estimate()))
            for p, r in folded.items()]

    # exact twin: per-block distinct token rollup -> ONE native
    # distinct count on the narrow hash column
    def tok_hash(b: pa.Table) -> pa.Table:
        flat, _, _ = _token_arrays(b)
        uniq = pd.unique(pd.Index(flat, dtype=object))
        h = hash_strings(uniq)
        return pa.table({"h": pa.array(h.view(np.int64))})

    exact = (ds.map_batches(tok_hash, batch_format="pyarrow")
             .groupby("h").count().count())
    out = pd.DataFrame(rows, columns=["p", "estimate"])
    out["exact"] = np.int64(exact)
    out["rel_err_r6"] = ((out.estimate - exact) / exact).round(6)
    out["bound_r6"] = np.round(1.04 / np.sqrt(2.0 ** out.p), 6)
    out["estimate"] = out.estimate.round(6)
    out["p"] = out.p.astype(np.int64)
    return out.sort_values("p").reset_index(drop=True)


def cms_error_sweep(sf_dir: str, widths=(256, 1024, 4096), depth: int = 5):
    """CMS PUBLISHED-BOUND verification as a query (Cormode &
    Muthukrishnan: overcount ≤ ε·N with ε = e/width, w.p. 1−δ):
    ONE token scan folds a CMS per width (same depth/seed), and EVERY
    distinct token is probed against its exact count; the report shows
    per width the max/mean overcount against ε·N.  CMS can only
    overcount, so underestimates flag a real defect.  The exact counts
    sum per token in the cluster (a native Sum groupby), the folded
    sketches reach the probe map through ``ray.put``, and only one
    (max, sum, count, under) row per width and block comes back to the
    driver.  The pytest twin asserts est ≥ exact for every probe token
    and max overcount ≤ ε·N."""
    import ray

    from biobloom_ray.hashing import hash_strings
    from biobloom_ray.sketches.cms import CountMinSketch
    from biobloom_ray.stages.textstats import _token_arrays

    ds = _read(sf_dir, "documents", columns=["text"])
    ws = tuple(widths)

    def token_counts(b: pa.Table):
        flat, _, _ = _token_arrays(b)
        codes, uniq = pd.factorize(pd.Index(flat, dtype=object))
        cnt = np.bincount(codes, minlength=len(uniq)).astype(np.int64)
        return uniq.to_numpy(dtype=object), cnt

    def partial(b: pa.Table) -> pa.Table:
        uniq, cnt = token_counts(b)
        h = hash_strings(uniq)
        blobs = []
        for w in ws:
            sk = CountMinSketch(depth=depth, width=w)
            sk.update(h, cnt)
            blobs.append(sk.serialize())
        return pa.table({"w": pa.array(list(ws), pa.int64()),
                         "blob": pa.array(blobs, pa.large_binary())})

    folded = fold_partials(ds.map_batches(partial, batch_format="pyarrow"),
                           {"blob": CountMinSketch}, key="w")
    sk_ref = ray.put({int(w): r["blob"] for w, r in folded.items()})

    def tok_cnt(b: pa.Table) -> pa.Table:
        uniq, cnt = token_counts(b)
        return pa.table({"token": pa.array(uniq.tolist(), pa.string()),
                         "cnt": pa.array(cnt)})

    cols = ["w", "n", "max_over", "sum_over", "n_probes", "n_under"]

    def overcount(b: pa.Table) -> pa.Table:
        exact = b["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
        probes = hash_strings(
            b["token"].to_numpy(zero_copy_only=False).astype(object))
        rows = []
        for w, sk in (ray.get(sk_ref).items() if len(exact) else ()):
            over = sk.query(probes).astype(np.int64) - exact
            rows.append((w, int(exact.sum()), int(over.max()),
                         int(over.sum()), len(over),
                         int((over < 0).sum())))
        return pa.Table.from_pandas(
            pd.DataFrame(rows, columns=cols).astype(np.int64),
            preserve_index=False)

    vocab = (ds.map_batches(tok_cnt, batch_format="pyarrow")
             .groupby("token").aggregate(Sum("cnt", alias_name="cnt")))
    parts = _parts_pandas(vocab.map_batches(overcount,
                                            batch_format="pyarrow"),
                          dict.fromkeys(cols, np.int64))
    per_w = (parts.groupby("w").agg(
        n=("n", "sum"), max_over=("max_over", "max"),
        sum_over=("sum_over", "sum"), n_probes=("n_probes", "sum"),
        n_under=("n_under", "sum"))
        .reindex([int(w) for w in folded], fill_value=0))
    rows = [(w, int(r.n), int(r.max_over),
             round(r.sum_over / r.n_probes, 6) if r.n_probes else 0.0,
             round(np.e / w * int(r.n), 6), int(r.n_under))
            for w, r in per_w.iterrows()]
    out = pd.DataFrame(rows, columns=["width", "n_tokens",
                                      "max_overcount",
                                      "mean_overcount_r6",
                                      "eps_n_bound_r6",
                                      "n_underestimates"])
    for c in ["width", "n_tokens", "max_overcount", "n_underestimates"]:
        out[c] = out[c].astype(np.int64)
    return out.sort_values("width").reset_index(drop=True)


def quantile_sketch_calibration(sf_dir: str,
                                qs=(0.1, 0.5, 0.9, 0.99)):
    """KLL vs t-digest vs EXACT quantile calibration on page lengths —
    the rank-error report the north rule requires for the quantile
    sketches: per q, both sketch estimates, the exact value (count-
    table rank walk, PERCENTILE_DISC convention), and each estimate's
    RANK error (|rank(est) − q·n|/n — the metric KLL's guarantee is
    stated in).  One scan's per-block KLL and t-digest partials fold
    through ``fold_partials``; the exact side is the (n_chars → count)
    table.  Pytest asserts rank error
    ≤ 3 % for KLL(k=200) and ≤ 5 % for t-digest at every q."""
    from biobloom_ray.sketches.kll import KLL
    from biobloom_ray.sketches.tdigest import TDigest

    ds = _read(sf_dir, "documents", columns=["n_chars"])

    def partial(b: pa.Table) -> pa.Table:
        v = b["n_chars"].to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        kll = KLL(k=200)
        kll.update(v)
        td = TDigest()
        td.update(v)
        return pa.table({
            "kll": pa.array([kll.serialize()], pa.large_binary()),
            "td": pa.array([td.serialize()], pa.large_binary())})

    cols = ["q", "exact", "kll_est_r6", "tdigest_est_r6",
            "kll_rank_err_r6", "tdigest_rank_err_r6"]
    folded = fold_partials(ds.map_batches(partial, batch_format="pyarrow"),
                           {"kll": KLL, "td": TDigest})
    if not folded:
        return pd.DataFrame({c: pd.Series([], dtype=np.int64 if c == "exact"
                                          else np.float64) for c in cols})
    kll, td = folded[None]["kll"], folded[None]["td"]

    def cpartial(b: pa.Table) -> pa.Table:
        v, c = np.unique(
            b["n_chars"].to_numpy(zero_copy_only=False), return_counts=True)
        return pa.table({"v": pa.array(v.astype(np.int64)),
                         "c": pa.array(c.astype(np.int64))})

    ct = (_parts_pandas(ds.map_batches(cpartial, batch_format="pyarrow"),
                        {"v": np.int64, "c": np.int64})
          .groupby("v", as_index=False).c.sum().sort_values("v"))
    vals = ct.v.to_numpy(np.int64)
    cum = np.cumsum(ct.c.to_numpy(np.int64))
    n = int(cum[-1])

    def rank_of(x: float) -> int:
        """#values <= x (for rank error in the exact distribution)."""
        i = np.searchsorted(vals, x, side="right") - 1
        return int(cum[i]) if i >= 0 else 0

    rows = []
    for q in qs:
        target = -(-int(q * 1000) * n // 1000)  # ceil(q·n), q in 1/1000
        exact = int(vals[np.argmax(cum >= target)])
        e_kll = float(kll.quantile(q))
        e_td = float(td.quantile(q))
        rows.append((q, exact, round(e_kll, 6), round(e_td, 6),
                     round(abs(rank_of(e_kll) - q * n) / n, 6),
                     round(abs(rank_of(e_td) - q * n) / n, 6)))
    out = pd.DataFrame(rows, columns=cols)
    out["exact"] = out.exact.astype(np.int64)
    return out


@contextlib.contextmanager
def _two_fragment_corpus(sf_dir: str):
    """The runner queries' input: the documents table split into two
    doc_id-ordered fragments in a fresh ``mkdtemp`` directory.  Yields
    ``(in_dir, out_dir)`` and removes the directory on exit, so
    concurrent calls never share or delete each other's files."""
    docs = _parts_pandas(
        _read(sf_dir, "documents", columns=["doc_id", "lang", "text"]),
        {"doc_id": np.int64, "lang": object, "text": object}) \
        .sort_values("doc_id").reset_index(drop=True)
    base = tempfile.mkdtemp(prefix="biobloom_curation_")
    try:
        in_dir = os.path.join(base, "in")
        os.makedirs(in_dir)
        h = len(docs) // 2
        docs.iloc[:h].to_parquet(os.path.join(in_dir, "frag_00.parquet"))
        docs.iloc[h:].to_parquet(os.path.join(in_dir, "frag_01.parquet"))
        yield in_dir, os.path.join(base, "out")
    finally:
        shutil.rmtree(base, ignore_errors=True)


def _kept_lang_counts(out_dir: str) -> pd.DataFrame:
    """Per-lang row counts of the two published runner partitions."""
    kept = _rp(out_dir + "/part=0").union(_rp(out_dir + "/part=1"))

    def lang_partial(b: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "lang": b["lang"].to_pandas().to_numpy(dtype=object)})
        agg = df.groupby("lang", as_index=False).agg(
            n_kept=("lang", "size"))
        agg["n_kept"] = agg.n_kept.astype(np.int64)
        return pa.Table.from_pandas(agg, preserve_index=False)

    out = (_parts_pandas(kept.map_batches(lang_partial,
                                          batch_format="pyarrow"),
                         {"lang": object, "n_kept": np.int64})
           .groupby("lang", as_index=False).n_kept.sum())
    out["n_kept"] = out.n_kept.astype(np.int64)
    return out.sort_values("lang").reset_index(drop=True)


def curation_run_summary(sf_dir: str):
    """The RESUMABLE CURATION RUNNER under the correctness oracle: the
    documents table splits into two deterministic doc_id-ordered
    fragments in a private temp dir, `run_partitioned_curation` executes
    its full per-partition DAG (alpha gate → within-partition first-wins
    dedup → cross-partition dedup vs the seen-key checkpoint →
    crash-atomic publish), and the published partitions roll up to
    per-lang kept counts.  Because fragments are doc_id-ordered, the
    runner's first-wins semantics equal the SQL twin's global
    min-doc_id-per-text rule — so the whole checkpointed runner, not
    just its kernels, is oracle-checked."""
    from biobloom_ray.pipelines.resumable import (
        run_partitioned_curation)

    with _two_fragment_corpus(sf_dir) as (in_dir, out_dir):
        # 82% splits the fixture's alpha-ratio distribution (median ~82.2)
        # so the gate is exercised, not a pass-through
        run_partitioned_curation(in_dir, out_dir, min_alpha_pct=82)
        return _kept_lang_counts(out_dir)


def curation_partition_metrics(sf_dir: str):
    """The runner's PER-PARTITION LINEAGE METRICS under the oracle —
    the north-rule artifact ("every partition emits lineage +
    metrics") checked end-to-end: the same deterministic two-fragment
    demo as :func:`curation_run_summary` runs, then the table comes
    FROM THE PUBLISHED ``_lineage.json`` MANIFESTS (via
    :func:`biobloom_ray.pipelines.resumable.curation_partition_report`),
    not from recomputation — so a hash match proves the manifests
    record the true per-stage attrition (rows in → 82%-alpha gate →
    within-partition first-wins dedup → published rows after
    cross-partition drops).  The SQL twin replays the doc_id-ordered
    halves split and the runner's non-recursive drop rule.

    Output: ``part_id, rows_in, gate_kept, exact_kept, rows_out``
    (one row per partition, sorted)."""
    from biobloom_ray.pipelines.resumable import (
        curation_partition_report, run_partitioned_curation)

    with _two_fragment_corpus(sf_dir) as (in_dir, out_dir):
        run_partitioned_curation(in_dir, out_dir, min_alpha_pct=82)
        rep = curation_partition_report(out_dir)
    rep = rep[["part_id", "rows_in", "gate_kept", "exact_kept",
               "rows_out"]]
    for c in rep.columns:
        rep[c] = rep[c].astype(np.int64)
    return rep.sort_values("part_id").reset_index(drop=True)


def curation_neardup_summary(sf_dir: str):
    """The resumable curation runner WITH the MinHash near-dup stage
    under the correctness oracle (VERDICT r4 #4): two doc_id-ordered
    fragments, ``run_partitioned_curation(neardup=True)`` executing its
    full per-partition DAG (alpha gate → exact first-wins dedup →
    cross-partition seen-key dedup → within+cross-partition MinHash
    near-dup vs the per-partition signature checkpoints → crash-atomic
    publish), rolled up to per-lang kept counts.

    Oracle equivalence: with doc_id-ordered fragments the runner's
    survivors equal the plain greedy min-neighbor rule over the gated
    corpus — drop a doc iff some smaller-id gated doc has the same
    text OR exact 5-shingle Jaccard ≥ 0.6 (at sf0.01 every true
    near-dup pair's est-Jaccard is far above the threshold, so the
    LSH pair set provably equals the exact-Jaccard pair set — the
    same argument the ``minhash_dedup_kept`` oracle rests on)."""
    from biobloom_ray.pipelines.resumable import (
        run_partitioned_curation)

    with _two_fragment_corpus(sf_dir) as (in_dir, out_dir):
        run_partitioned_curation(in_dir, out_dir, min_alpha_pct=82,
                                 neardup=True, neardup_threshold=0.6)
        return _kept_lang_counts(out_dir)
