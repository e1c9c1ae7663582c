"""Web-corpus cleaning stages for training-data pipelines (graft
additions per the build brief): PII redaction, Gopher-style quality
gates, and cross-document boilerplate n-gram removal.

All kernels are map-only per batch (pandas C string kernels / numpy
segment ops); the boilerplate remover adds ONE narrow (hash, cnt)
groupby for the corpus-frequent set, broadcast once via ``ray.put``.
Every regex is pinned to a syntax that means the same thing in Python
``re`` and RE2 (the DuckDB oracle engine): character classes, bounded
repetition and ``\\b`` only — no lookaround, no backreferences.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from biobloom_ray.stages.textstats import _STOPWORDS, _token_arrays

# redaction patterns, applied in this order (email before IP before
# digit-run so a later pattern never eats an earlier pattern's input)
PII_PATTERNS = (
    (r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}", "<EMAIL>"),
    (r"\b([0-9]{1,3}\.){3}[0-9]{1,3}\b", "<IP>"),
    (r"[0-9]+", "<NUM>"),
)


def pii_redact_batch(batch: pa.Table, text_col: str = "props",
                     id_col: str = "event_id") -> pa.Table:
    """Redact email addresses, IPv4 literals and digit runs from a
    string column; emit the redacted string plus the pre-redaction
    digit-run count.  Purely per-row → map-only at any scale; each
    replacement is one zero-copy Arrow RE2 kernel pass over the batch
    (the same regex engine as the DuckDB oracle, so replacement
    semantics are identical by construction)."""
    s = batch[text_col]
    if isinstance(s, pa.ChunkedArray):
        s = s.combine_chunks()
    n_digit_runs = pc.count_substring_regex(s, PII_PATTERNS[2][0])
    for pat, repl in PII_PATTERNS:
        s = pc.replace_substring_regex(s, pat, repl)
    return pa.table({
        id_col: batch[id_col],
        f"{text_col}_redacted": s,
        "n_digit_runs": pc.cast(n_digit_runs, pa.int64()),
    })


# Gopher-rule bounds (Rae et al. 2021 §A.1.1, adapted to the fixture's
# 50-5000-char pages): word-count window, mean-word-length window as an
# exact integer cross-multiplication, minimum stopword hits, minimum
# fraction of all-alphabetic words (8/10 = 80%).
GOPHER_MIN_WORDS = 20
GOPHER_MAX_WORDS = 100_000
GOPHER_MIN_MEAN_LEN_NUM = 2   # mean word length >= 2
GOPHER_MAX_MEAN_LEN_NUM = 10  # mean word length <= 10
GOPHER_MIN_STOPWORDS = 2
GOPHER_ALPHA_FRAC_NUM = 8     # n_alpha_words / n_words >= 8/10
GOPHER_ALPHA_FRAC_DEN = 10


def gopher_flags_batch(batch: pa.Table, text_col: str = "text",
                       id_col: str = "doc_id") -> pa.Table:
    """Gopher-style document-quality gate in exact integers: per doc
    ``n_words``, ``sum_word_len`` (non-whitespace chars), ``n_stop``
    (stopword hits), ``n_alpha_words`` (tokens that are entirely
    ``[A-Za-z]``), and the four rule flags plus their conjunction as
    0/1 ints.  Mean-word-length and alpha-fraction bounds are integer
    cross-multiplications, so the oracle hash has no float hazard.
    Map-only; no shuffle at any scale."""
    flat, lens, row_of = _token_arrays(batch, text_col)
    ids = batch[id_col].to_numpy(zero_copy_only=False)
    n = len(ids)
    flat_s = pd.Series(flat, dtype=object)
    sum_len = np.zeros(n, dtype=np.int64)
    n_stop = np.zeros(n, dtype=np.int64)
    n_alpha = np.zeros(n, dtype=np.int64)
    if len(flat):
        tok_len = flat_s.str.len().to_numpy(np.int64)
        np.add.at(sum_len, row_of, tok_len)
        is_stop = flat_s.isin(_STOPWORDS).to_numpy(bool)
        np.add.at(n_stop, row_of, is_stop.astype(np.int64))
        is_alpha = flat_s.str.fullmatch("[A-Za-z]+").to_numpy(bool)
        np.add.at(n_alpha, row_of, is_alpha.astype(np.int64))
    f_wc = ((lens >= GOPHER_MIN_WORDS)
            & (lens <= GOPHER_MAX_WORDS)).astype(np.int64)
    f_mean = ((sum_len >= GOPHER_MIN_MEAN_LEN_NUM * lens)
              & (sum_len <= GOPHER_MAX_MEAN_LEN_NUM * lens)
              & (lens > 0)).astype(np.int64)
    f_stop = (n_stop >= GOPHER_MIN_STOPWORDS).astype(np.int64)
    f_alpha = ((GOPHER_ALPHA_FRAC_DEN * n_alpha
                >= GOPHER_ALPHA_FRAC_NUM * lens)
               & (lens > 0)).astype(np.int64)
    return pa.table({
        id_col: pa.array(ids),
        "n_words": pa.array(lens),
        "sum_word_len": pa.array(sum_len),
        "n_stop": pa.array(n_stop),
        "n_alpha_words": pa.array(n_alpha),
        "flag_word_count": pa.array(f_wc),
        "flag_mean_word_len": pa.array(f_mean),
        "flag_stopwords": pa.array(f_stop),
        "flag_alpha_words": pa.array(f_alpha),
        "pass_gopher": pa.array(f_wc * f_mean * f_stop * f_alpha),
    })


def chunk_docs_batch(batch: pa.Table, chunk: int, stride: int,
                     text_col: str = "text",
                     id_col: str = "doc_id") -> pa.Table:
    """Fixed-size token-window chunking with overlap (the LLM
    training-prep fan-out): doc with L tokens emits
    ``1 + ceil(max(L - chunk, 0) / stride)`` chunks, chunk c covering
    tokens ``[c*stride, min(c*stride + chunk, L))``; zero-token docs
    emit nothing.  Pure flat_map over a batch — every step (window
    index fan-out, overlapped token gather, per-chunk reassembly) is a
    numpy segment op + ONE ``binary_join``; no Python loop over rows,
    chunks or tokens."""
    flat, lens, _ = _token_arrays(batch, text_col)
    ids = batch[id_col].to_numpy(zero_copy_only=False)
    L = lens
    n_chunks = np.where(
        L > 0, 1 + (np.maximum(L - chunk, 0) + stride - 1) // stride, 0)
    doc_start = np.zeros(len(L) + 1, dtype=np.int64)
    np.cumsum(L, out=doc_start[1:])
    total = int(n_chunks.sum())
    if total == 0:
        return pa.table({
            id_col: pa.array([], type=pa.int64()),
            "chunk_id": pa.array([], type=pa.int64()),
            "n_chunk_tokens": pa.array([], type=pa.int64()),
            "chunk_text": pa.array([], type=pa.string())})
    d_of = np.repeat(np.arange(len(L), dtype=np.int64), n_chunks)
    chunk_excl = np.zeros(len(L) + 1, dtype=np.int64)
    np.cumsum(n_chunks, out=chunk_excl[1:])
    c_of = np.arange(total, dtype=np.int64) - chunk_excl[d_of]
    start = c_of * stride
    clen = np.minimum(start + chunk, L[d_of]) - start
    flat_start = doc_start[d_of] + start
    tok_excl = np.zeros(total + 1, dtype=np.int64)
    np.cumsum(clen, out=tok_excl[1:])
    idx = (np.arange(int(tok_excl[-1]), dtype=np.int64)
           - np.repeat(tok_excl[:-1], clen) + np.repeat(flat_start, clen))
    lists = pa.ListArray.from_arrays(
        pa.array(tok_excl, type=pa.int32()),
        pa.array(flat[idx].tolist(), type=pa.string()))
    return pa.table({
        id_col: pa.array(ids[d_of]),
        "chunk_id": pa.array(c_of),
        "n_chunk_tokens": pa.array(clen),
        "chunk_text": pc.binary_join(lists, " "),
    })


def ngram_doc_partials(batch: pa.Table, n: int, text_col: str = "text",
                       seed: int | None = None) -> pa.Table:
    """Per-batch-deduped ``(h, n_docs)`` partial rows for counting the
    DISTINCT documents containing each token n-gram.  A document never
    splits across input rows, so per-batch dedup is global dedup and a
    native ``groupby(h).Sum(n_docs)`` yields exact distinct-doc counts
    (same argument as ``repeated_substrings``)."""
    from biobloom_ray.stages.textstats import token_ngram_hashes

    flat, _, row_of = _token_arrays(batch, text_col)
    h1, _, gram_row, _ = token_ngram_hashes(flat, row_of, n, seed=seed)
    if not len(h1):
        return pa.table({"h": pa.array([], type=pa.int64()),
                         "n_docs": pa.array([], type=pa.int64())})
    hs = h1.view(np.int64)
    order = np.lexsort((hs, gram_row))
    rs, hss = gram_row[order], hs[order]
    new = np.ones(len(rs), dtype=bool)  # dedupe (row, h) in the batch
    if len(rs) > 1:
        new[1:] = (rs[1:] != rs[:-1]) | (hss[1:] != hss[:-1])
    uh, cnt = np.unique(hss[new], return_counts=True)
    return pa.table({"h": pa.array(uh),
                     "n_docs": pa.array(cnt.astype(np.int64))})


def remove_ngrams_batch(batch: pa.Table, freq_sorted: np.ndarray, n: int,
                        text_col: str = "text", id_col: str = "doc_id",
                        seed: int | None = None) -> pa.Table:
    """Drop every token position covered by a corpus-frequent n-gram
    (sorted 64-bit hash set ``freq_sorted``, broadcast once per worker)
    and reassemble the survivors with single spaces.  Coverage marking
    is a diff/cumsum interval overlay; reassembly is ONE vectorized
    ``pyarrow.compute.binary_join_element_wise``-free ``binary_join``
    over a rebuilt ListArray — no Python loop over rows or tokens."""
    from biobloom_ray.stages.textstats import token_ngram_hashes

    flat, lens, row_of = _token_arrays(batch, text_col)
    ids = batch[id_col].to_numpy(zero_copy_only=False)
    h1, _, gram_row, gram_start = token_ngram_hashes(flat, row_of, n,
                                                     seed=seed)
    covered = np.zeros(len(flat) + 1, dtype=np.int64)
    if len(h1) and len(freq_sorted):
        hs = h1.view(np.int64)
        idx = np.searchsorted(freq_sorted, hs)
        idx_c = np.minimum(idx, len(freq_sorted) - 1)
        hot = freq_sorted[idx_c] == hs
        starts = gram_start[hot]
        np.add.at(covered, starts, 1)
        np.add.at(covered, starts + n, -1)
    cov = np.cumsum(covered[:-1]) > 0
    keep = ~cov
    kept_cnt = np.zeros(len(ids), dtype=np.int64)
    np.add.at(kept_cnt, row_of[keep], 1)
    offsets = np.zeros(len(ids) + 1, dtype=np.int64)
    np.cumsum(kept_cnt, out=offsets[1:])
    kept_flat = pa.array(flat[keep].tolist(), type=pa.string())
    lists = pa.ListArray.from_arrays(
        pa.array(offsets, type=pa.int32()), kept_flat)
    clean = pc.binary_join(lists, " ")
    return pa.table({
        id_col: pa.array(ids),
        "text_clean": clean,
        "n_removed": pa.array(lens - kept_cnt),
    })
