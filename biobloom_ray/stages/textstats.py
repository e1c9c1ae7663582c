"""Text-analysis stages for training-data pipelines: token counting,
quality scoring, language-ID heuristic.  All vectorized per batch;
heavier string work uses pandas' C string kernels.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa

from biobloom_ray.hashing import hash_strings, shingle_hashes

_TOKEN_RE = r"\S+"
_ALPHA_RE = r"[A-Za-z]"
_PUNCT_RE = r"[!-/:-@\[-`{-~]"  # ASCII punctuation ranges
_STOPWORDS = frozenset(
    "the a an and or of to in is are was were be been it this that for on "
    "with as at by from not but".split())
# ASCII-pinned whitespace class so the pattern means the same thing in
# Python re and RE2 (the DuckDB oracle engine)
_BPE_ISH_RE = re.compile(r"[A-Za-z]+|[0-9]{1,3}|[^ \t\r\n\f\vA-Za-z0-9]")


def token_count_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """doc_id → n_tokens (whitespace tokens, len(findall(r'\\S+')))."""
    s = batch[text_col].to_pandas()
    n = s.str.count(_TOKEN_RE).fillna(0).astype(np.int64)
    return batch.append_column("n_tokens", pa.array(n.to_numpy()))


def bpe_ish_token_count_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Sub-word-ish token count: alpha runs + short digit groups + single
    punctuation — a deterministic, tokenizer-free BPE proxy."""
    s = batch[text_col].to_pandas()
    # pandas' C regex-count kernel == len(findall) for this pattern
    n = s.str.count(_BPE_ISH_RE).fillna(0)
    return batch.append_column("n_bpe_tokens",
                               pa.array(n.to_numpy().astype(np.int64)))


def quality_score_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Heuristic quality features: char length, alpha count/ratio,
    punctuation ratio, stopword ratio, mean word length — the standard
    cheap web-text quality signals, all exactly reproducible."""
    s = batch[text_col].to_pandas()
    n_chars = s.str.len().fillna(0).astype(np.int64)
    n_alpha = s.str.count(_ALPHA_RE).fillna(0).astype(np.int64)
    n_punct = s.str.count(_PUNCT_RE).fillna(0).astype(np.int64)
    n_tokens = s.str.count(_TOKEN_RE).fillna(0).astype(np.int64)
    # explode → vectorized set-membership → segment-sum back to docs
    # (exact whitespace-token semantics; no per-row Python)
    toks = s.str.lower().str.findall(_TOKEN_RE)
    ex = toks.explode()
    n_stop = (ex.isin(_STOPWORDS)
              .groupby(level=0).sum()
              .reindex(s.index, fill_value=0).astype(np.int64))
    denom = np.maximum(n_chars.to_numpy(), 1).astype(np.float64)
    tok_denom = np.maximum(n_tokens.to_numpy(), 1).astype(np.float64)
    out = batch
    out = out.append_column("n_chars_calc", pa.array(n_chars.to_numpy()))
    out = out.append_column("n_alpha", pa.array(n_alpha.to_numpy()))
    out = out.append_column("alpha_ratio",
                            pa.array(n_alpha.to_numpy() / denom))
    out = out.append_column("punct_ratio",
                            pa.array(n_punct.to_numpy() / denom))
    out = out.append_column("stopword_ratio",
                            pa.array(n_stop.to_numpy() / tok_denom))
    return out


class NGramLangProfiles:
    """Per-language character-trigram profiles fit from a labeled sample.

    ``fit`` counts trigram hashes per language (top ``profile_size``
    kept); ``LangIdActor`` broadcasts the profiles and scores each doc by
    normalized overlap — the classic n-gram LangID heuristic (Cavnar &
    Trenkle 1994 shape, hash-based)."""

    def __init__(self, n: int = 3, profile_size: int = 2000):
        self.n = n
        self.profile_size = profile_size
        self.profiles: dict[str, np.ndarray] = {}

    @staticmethod
    def _top_hashes(uniq: np.ndarray, counts: np.ndarray,
                    k: int) -> np.ndarray:
        """Deterministic top-k: count desc, hash asc on ties."""
        order = np.lexsort((uniq, -counts.astype(np.int64)))
        return np.sort(uniq[order[:k]])

    def fit(self, texts, langs) -> "NGramLangProfiles":
        df = pd.DataFrame({"text": list(texts), "lang": list(langs)})
        for lang, grp in df.groupby("lang"):
            h1, _, nf = shingle_hashes(grp["text"].tolist(), self.n)
            if len(h1) == 0:
                self.profiles[lang] = np.empty(0, dtype=np.uint64)
                continue
            uniq, counts = np.unique(h1, return_counts=True)
            self.profiles[lang] = self._top_hashes(uniq, counts,
                                                   self.profile_size)
        return self

    def fit_distributed(self, ds, text_col: str = "text",
                        lang_col: str = "lang") -> "NGramLangProfiles":
        """Fit from a Dataset without materializing it on the driver:
        per-batch (lang, hash) partial counts → native Sum groupby →
        per-lang vectorized top-k.  Only ``profile_size`` hashes per
        language ever reach the driver (round-2 fix of the
        ``to_pandas()`` training path, VERDICT.md "What's wrong" #1)."""
        from ray.data.aggregate import Sum

        n = self.n
        psize = self.profile_size

        def partial(b: pa.Table) -> pa.Table:
            langs = b[lang_col].to_pandas().to_numpy()
            texts = b[text_col]
            if isinstance(texts, pa.ChunkedArray):
                texts = texts.combine_chunks()
            h1, _, nf = shingle_hashes(texts, n)
            row_of = np.repeat(np.arange(len(nf)), nf)
            df = pd.DataFrame({"lang": langs[row_of],
                               "h": h1.view(np.int64)})
            agg = df.groupby(["lang", "h"], as_index=False).size()
            return pa.table({
                "lang": pa.array(agg["lang"].to_numpy(dtype=object),
                                 type=pa.string()),
                "h": pa.array(agg["h"].to_numpy()),
                "cnt": pa.array(agg["size"].to_numpy().astype(np.int64)),
            })

        # big batches: per-batch trigram dedup saturates at the (small)
        # trigram-space size, so fewer/larger batches mean far fewer
        # (lang, hash) partial rows entering the shuffle
        summed = (ds.map_batches(partial, batch_format="pyarrow",
                                 batch_size=16384)
                  .groupby(["lang", "h"])
                  .aggregate(Sum("cnt", alias_name="cnt")))

        def topk(g: pa.Table) -> pa.Table:
            h = g["h"].to_numpy(zero_copy_only=False).view(np.uint64)
            cnt = g["cnt"].to_numpy(zero_copy_only=False)
            top = NGramLangProfiles._top_hashes(h, cnt, psize)
            return pa.table({
                "lang": pa.array([g["lang"][0].as_py()], type=pa.string()),
                "blob": pa.array([top.astype("<u8").tobytes()],
                                 type=pa.large_binary()),
            })

        for r in (summed.groupby("lang")
                  .map_groups(topk, batch_format="pyarrow").take_all()):
            self.profiles[r["lang"]] = np.frombuffer(r["blob"], dtype="<u8")
        return self


class LangIdActor:
    """Actor-pool stage: predict language per row from broadcast profiles."""

    def __init__(self, profiles_ref, text_col: str = "text"):
        import ray
        p = (ray.get(profiles_ref)
             if isinstance(profiles_ref, ray.ObjectRef) else profiles_ref)
        self.model: NGramLangProfiles = p
        self.text_col = text_col
        self.langs = sorted(self.model.profiles)

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch[self.text_col]
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        h1, _, nf = shingle_hashes(texts, self.model.n)
        n = len(nf)
        scores = np.zeros((n, len(self.langs)))
        if len(h1):
            row_of = np.repeat(np.arange(n), nf)
            for j, lang in enumerate(self.langs):
                prof = self.model.profiles[lang]
                if len(prof) == 0:
                    continue
                idx = np.minimum(np.searchsorted(prof, h1), len(prof) - 1)
                member = prof[idx] == h1
                np.add.at(scores[:, j], row_of, member.astype(np.float64))
        denom = np.maximum(nf, 1).astype(np.float64)
        scores /= denom[:, None]
        best = np.argmax(scores, axis=1)
        pred = np.array(self.langs, dtype=object)[best]
        pred[scores.max(axis=1) == 0] = "unknown"
        out = batch.append_column("lang_pred",
                                  pa.array(pred, type=pa.large_string()))
        out = out.append_column("lang_conf", pa.array(scores.max(axis=1)))
        return out


# ---------------------------------------------------------------------------
# Repetition / n-gram contamination kernels (training-data quality ops)
# ---------------------------------------------------------------------------

def _token_arrays(batch: pa.Table, text_col: str = "text"):
    """Whitespace tokens of a batch, flattened: (flat tokens as object
    ndarray, per-row token counts, row index per token).  One pandas
    C-regex pass; shared by the repetition and decontamination kernels."""
    s = batch[text_col].to_pandas()
    lists = s.str.findall(_TOKEN_RE)
    lens = lists.str.len().fillna(0).to_numpy().astype(np.int64)
    flat = lists.explode().dropna().to_numpy(dtype=object)
    row_of = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
    return flat, lens, row_of


def repetition_stats_batch(batch: pa.Table, text_col: str = "text",
                           id_col: str = "doc_id") -> pa.Table:
    """Gopher-style repetition signals per document, in exact integers:
    ``n_tokens``, ``n_distinct_tokens``, ``top_token_cnt`` (count of the
    doc's most frequent token) and ``n_bigrams`` / ``n_distinct_bigrams``
    (adjacent token pairs).  High duplicate fractions flag low-quality
    repetitive pages (Rae et al. 2021 "Gopher" §A.1.1 shape).

    Purely per-row → a map-only stage: no shuffle at any scale.  All
    counting is factorize + sort/segment numpy; no Python loop over rows
    or tokens.  Zero-token docs are dropped (no stats are defined),
    matching the oracle's inner GROUP BY over exploded tokens.
    """
    flat, lens, row_of = _token_arrays(batch, text_col)
    ids = batch[id_col].to_numpy(zero_copy_only=False)
    n = len(ids)
    codes, uniques = pd.factorize(pd.Index(flat, dtype=object))
    codes = codes.astype(np.int64)
    V = max(len(uniques), 1)
    n_distinct = np.zeros(n, dtype=np.int64)
    top_cnt = np.zeros(n, dtype=np.int64)
    if len(codes):
        key = row_of * V + codes  # row < 2**20, V <= tokens-in-batch
        uk, ucnt = np.unique(key, return_counts=True)
        urow = uk // V
        np.add.at(n_distinct, urow, 1)
        np.maximum.at(top_cnt, urow, ucnt)
    n_db = np.zeros(n, dtype=np.int64)
    if len(codes) > 1:
        same = row_of[:-1] == row_of[1:]
        brow = row_of[:-1][same]
        c1 = codes[:-1][same]
        c2 = codes[1:][same]
        order = np.lexsort((c2, c1, brow))
        brow_s, c1_s, c2_s = brow[order], c1[order], c2[order]
        new = np.ones(len(brow_s), dtype=bool)
        if len(brow_s) > 1:
            new[1:] = ((brow_s[1:] != brow_s[:-1]) | (c1_s[1:] != c1_s[:-1])
                       | (c2_s[1:] != c2_s[:-1]))
        np.add.at(n_db, brow_s[new], 1)
    keep = lens > 0
    return pa.table({
        "doc_id": pa.array(ids[keep]),
        "n_tokens": pa.array(lens[keep]),
        "n_distinct_tokens": pa.array(n_distinct[keep]),
        "top_token_cnt": pa.array(top_cnt[keep]),
        "n_bigrams": pa.array(np.maximum(lens[keep] - 1, 0)),
        "n_distinct_bigrams": pa.array(n_db[keep]),
    })


# chain multiplier for folding n token hashes into one n-gram hash
# (golden-ratio odd constant, splitmix64 family).  The combine is a
# position-CHAINED mix — h = splitmix64(h * MULT ^ th[j]) per step — so
# any reordering or repetition of tokens changes the hash for every n
# (the previous XOR-of-multiplied scheme cycled 5 multipliers and
# collided deterministically on position swaps j ↔ j+5 for n > 5).
_NGRAM_CHAIN_MULT = 0x9E3779B97F4A7C15


def token_ngram_hashes(flat: np.ndarray, row_of: np.ndarray, n: int,
                       seed: int | None = None):
    """(h1, h2, gram_row, gram_start) for every within-row n-gram of
    adjacent tokens.  Hashes are combined from per-token 64-bit hashes
    (one `hash_strings` pass) — no n-gram strings are built here; the
    decontaminate verify path materializes strings only for sketch-
    positive candidates.  ``gram_start`` indexes into ``flat``."""
    from biobloom_ray.hashing import DEFAULT_SEED, splitmix64
    if seed is None:
        seed = DEFAULT_SEED
    U64 = np.uint64
    if len(flat) < n:
        e = np.empty(0, dtype=U64)
        return e, e, np.empty(0, np.int64), np.empty(0, np.int64)
    th = hash_strings(pa.array(flat.tolist(), type=pa.large_string()))
    ok = row_of[: len(row_of) - n + 1] == row_of[n - 1:]
    start = np.nonzero(ok)[0]
    with np.errstate(over="ignore"):
        # chained position mix: order-sensitive for ANY n (no cap)
        raw = np.zeros(len(start), dtype=U64)
        for j in range(n):
            raw = splitmix64(raw * U64(_NGRAM_CHAIN_MULT) ^ th[start + j])
        h1 = splitmix64(raw + U64(seed))
        h2 = splitmix64(raw) | U64(1)
    return h1, h2, row_of[start], start


def ngram_strings_at(flat: np.ndarray, starts: np.ndarray, n: int) -> pd.Series:
    """Join the n tokens at each start offset with single spaces
    (pandas ``str.cat`` — the candidate set is small post-prefilter)."""
    if len(starts) == 0:
        return pd.Series(np.empty(0, dtype=object))
    s = pd.Series(flat[starts].astype(object))
    for j in range(1, n):
        s = s.str.cat(pd.Series(flat[starts + j].astype(object)), sep=" ")
    return s
