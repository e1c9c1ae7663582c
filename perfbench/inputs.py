"""Seeded input generator owned by the benchmark.

The program under test receives only the parquet files written here, so
edits to the package's own fixtures (``biobloom_ray.pages``) can never
change what the benchmark measures.  Every table is a pure function of
``(workload, seed, size)``; the files are cached under the checkout's
``.perfbench/cache`` directory keyed by exactly that triple.

Vocabulary design (shared by all three workloads):

- ``en``/``de``/``fr``/``es`` each own 400 words ``<lang>wordNNN`` and
  share 40 ``commonNNN`` words, so categorize sees unique, shared and
  multiMatch traffic;
- ``zz`` is a negative control: its words ``negNNNctrl`` share no 8-char
  window with any other pool, so a correct categorizer labels every
  ``zz`` page ``noMatch``.
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

LANGS = ("en", "de", "fr", "es", "zz")
REF_LANGS = LANGS[:-1]
POOL_WORDS = 400
SHARED_WORDS = 40
# format version of the generated files: bump when the generator changes
VERSION = 2

# workload -> (rows, fragments)
SIZES = {
    "categorize_pages": (100_000, 16),
    "build_bank": (30_000, 16),
    "curate_partitions": (40_000, 8),
}
REF_DOCS_PER_LANG = 100
REF_WORDS_PER_DOC = 120
COPY_RATE = 0.20       # curation: exact copies of an earlier doc
LOW_ALPHA_RATE = 0.10  # curation: digit-only docs the quality gate rejects
NEAR_RATE = 0.05       # curation: an earlier doc plus one extra word
WARMUP_ROWS = 1_000


def _pools() -> dict[str, np.ndarray]:
    shared = [f"common{i:03d}" for i in range(SHARED_WORDS)]
    pools = {"zz": np.array([f"neg{i:03d}ctrl" for i in range(POOL_WORDS)],
                            dtype=object)}
    for lang in REF_LANGS:
        own = [f"{lang}word{i:03d}" for i in range(POOL_WORDS)]
        pools[lang] = np.array(own + shared, dtype=object)
    return pools


def _join_words(words: np.ndarray, counts: np.ndarray) -> pa.Array:
    """One space-joined string per row from a flat word array."""
    offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)
    lists = pa.ListArray.from_arrays(pa.array(offsets),
                                     pa.array(words, type=pa.string()))
    return pc.binary_join(lists, " ")


def _texts(rng: np.random.Generator, lang_idx: np.ndarray,
           n_words: np.ndarray) -> pa.Array:
    """Random pages: row i draws ``n_words[i]`` words from its language's
    pool."""
    pools = _pools()
    offsets = np.concatenate([[0], np.cumsum(n_words)])
    words = np.empty(int(offsets[-1]), dtype=object)
    word_lang = np.repeat(lang_idx, n_words)
    for li, lang in enumerate(LANGS):
        sel = np.nonzero(word_lang == li)[0]
        words[sel] = pools[lang][rng.integers(0, len(pools[lang]),
                                              size=len(sel))]
    return _join_words(words, n_words)


def pages_table(n_rows: int, seed: int) -> pa.Table:
    """``doc_id, text, lang`` web pages, languages uniform over LANGS."""
    rng = np.random.default_rng([seed, 1])
    lang_idx = rng.integers(0, len(LANGS), size=n_rows)
    n_words = np.maximum(rng.lognormal(3.4, 0.5, size=n_rows)
                         .astype(np.int64), 8)
    return pa.table({
        "doc_id": pa.array(np.arange(n_rows, dtype=np.int64)),
        "text": _texts(rng, lang_idx, n_words),
        "lang": pa.array(np.array(LANGS, dtype=object)[lang_idx],
                         type=pa.string()),
    })


def ref_table(seed: int) -> pa.Table:
    """Reference docs the categorize bank is built from (``filter_id``,
    ``doc``): REF_DOCS_PER_LANG docs per non-control language."""
    rng = np.random.default_rng([seed, 2])
    lang_idx = np.repeat(np.arange(len(REF_LANGS)), REF_DOCS_PER_LANG)
    n_words = np.full(len(lang_idx), REF_WORDS_PER_DOC, dtype=np.int64)
    return pa.table({
        "filter_id": pa.array(np.array(REF_LANGS, dtype=object)[lang_idx],
                              type=pa.string()),
        "doc": _texts(rng, lang_idx, n_words),
    })


def curation_table(n_rows: int, seed: int) -> pa.Table:
    """``doc_id, text`` docs for the curation runner: COPY_RATE of the
    docs repeat an earlier doc's text verbatim, NEAR_RATE repeat it with
    one word appended and LOW_ALPHA_RATE are digit-only, so the gate,
    exact dedup and near-dup stages all drop something."""
    rng = np.random.default_rng([seed, 3])
    lang_idx = rng.integers(0, len(REF_LANGS), size=n_rows)
    n_words = np.maximum(rng.lognormal(3.4, 0.5, size=n_rows)
                         .astype(np.int64), 8)
    text = _texts(rng, lang_idx, n_words).to_numpy(zero_copy_only=False)
    kind = rng.random(n_rows)
    low = np.nonzero(kind < LOW_ALPHA_RATE)[0]
    digits = rng.integers(0, 10**6, size=(len(low), 12))
    text[low] = [" ".join(map(str, row)) for row in digits]
    copied = (kind >= LOW_ALPHA_RATE) \
        & (kind < LOW_ALPHA_RATE + COPY_RATE + NEAR_RATE)
    copied[0] = False
    extra = _pools()["en"]
    # in ascending order, so a copy of a copy reads the final text
    for i in np.nonzero(copied)[0]:
        text[i] = text[rng.integers(0, i)]
        if kind[i] >= LOW_ALPHA_RATE + COPY_RATE:
            text[i] += " " + extra[rng.integers(0, len(extra))]
    return pa.table({
        "doc_id": pa.array(np.arange(n_rows, dtype=np.int64)),
        "text": pa.array(text, type=pa.string()),
    })


def _table_stats(table: pa.Table, k: int) -> dict:
    lens = pc.utf8_length(table["text"]).to_numpy().astype(np.int64)
    return {"rows": table.num_rows, "chars": int(lens.sum()),
            "frames": int(np.maximum(lens - k + 1, 0).sum())}


def _write_fragments(table: pa.Table, out_dir: str, n_files: int) -> None:
    os.makedirs(out_dir, exist_ok=True)
    per = -(-table.num_rows // n_files)
    for i in range(n_files):
        pq.write_table(table.slice(i * per, per),
                       os.path.join(out_dir, f"part-{i:04d}.parquet"))


def materialize(cache_root: str, workload: str, seed: int) -> dict:
    """Write (once) the workload's inputs under ``cache_root`` and return
    ``{"key", "dir", "warmup_dir", "stats"}``.  ``key`` names the inputs
    by (workload, seed, size, version); ``dir`` holds the doc_id-ordered
    fragments; ``warmup_dir`` holds a small slice in the same layout for
    worker warm-up; ``stats`` describes the inputs."""
    n_rows, n_files = SIZES[workload]
    root = os.path.join(cache_root,
                        f"{workload}-s{seed}-n{n_rows}-v{VERSION}")
    stats_path = os.path.join(root, "stats.json")
    if os.path.exists(stats_path):
        with open(stats_path) as f:
            return {"key": os.path.basename(root),
                    "dir": os.path.join(root, "data"),
                    "warmup_dir": os.path.join(root, "warmup"),
                    "stats": json.load(f)}
    shutil.rmtree(root, ignore_errors=True)
    if workload == "curate_partitions":
        table = curation_table(n_rows, seed)
        stats = _table_stats(table, 5)
        alpha = pc.count_substring_regex(table["text"], "[A-Za-z]")
        chars = pc.utf8_length(table["text"])
        low = pc.less(pc.multiply(alpha, 100), pc.multiply(chars, 50))
        stats["low_alpha_frac"] = pc.sum(low).as_py() / n_rows
        n_unique = len(pc.unique(table["text"]))
        stats["dup_frac"] = 1 - n_unique / n_rows
        planted = (COPY_RATE, NEAR_RATE, LOW_ALPHA_RATE)
        # the warm-up run needs two partitions so the cross-partition
        # state paths run once before timing
        warm = curation_table(WARMUP_ROWS, seed + 1)
        warm_files = 2
    else:
        table = pages_table(n_rows, seed)
        stats = _table_stats(table, 8 if workload == "categorize_pages"
                             else 25)
        stats["dup_frac"] = 1 - len(pc.unique(table["text"])) / n_rows
        stats["low_alpha_frac"] = 0.0
        planted = (0.0, 0.0, 0.0)
        warm = pages_table(WARMUP_ROWS, seed + 1)
        warm_files = 4
    stats["fragments"] = n_files
    stats.update(zip(("planted_copy_rate", "planted_near_rate",
                      "planted_low_alpha_rate"), planted))
    _write_fragments(table, os.path.join(root, "data"), n_files)
    _write_fragments(warm, os.path.join(root, "warmup"), warm_files)
    tmp = stats_path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(stats, f)
    os.replace(tmp, stats_path)
    return materialize(cache_root, workload, seed)
