"""Categorize stage — the biobloomcategorizer classify loop as a
stateful actor-pool ``map_batches`` (SURVEY.md §3.2 "Ray rebuild").

Reference lifecycle (``BioBloomCategorizer.cpp:145`` →
``BioBloomClassifier.cpp:950-971``): load every filter once, then OpenMP
threads share a locked reader and run one of the ``evaluateRead*``
dispatchers per record, tallying with atomic counters.

Ray design: the filter bank is ``ray.put`` once on the driver and every
actor ``ray.get``s it in ``__init__`` — one zero-copy plasma copy per
node, amortized across all batches (T1).  The per-record loops become
the vectorized lockstep scorers of :mod:`biobloom_ray.scoring`; the
atomic counters become a post-hoc aggregation over appended columns.

Multi-filter modes (``BioBloomClassifier.cpp:1145-1237``):

- ``std``      — every filter evaluated, all hits collected (M14)
- ``ordered``  — first filter in bank order that matches wins (M15)
- ``besthit``  — argmax of exhaustive score, ties → multiMatch (M16)
- ``scores``   — std hits + full per-filter exhaustive score vector (M17)

Appended columns: ``label`` (noMatch / filter_id / multiMatch, the
ResultsManager routing of ``ResultsManager.hpp:41-89``), ``hit_mask``
(uint64 bitmask of matching filters — this engine supports ≤ 64 filters
per categorize run), ``score`` (besthit max score, else 0), and
optionally ``scores`` (list<double>, one per filter).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray

from biobloom_ray.config import CategorizeConfig
from biobloom_ray.hashing import shingle_hashes
from biobloom_ray.scoring import eval_batch, score_batch
from biobloom_ray.sketches.bloom import BloomFilter, FilterBank
from biobloom_ray.textnorm import normalize_batch

NO_MATCH = "noMatch"
MULTI_MATCH = "multiMatch"


def broadcast_bank(filters: list[BloomFilter]) -> "ray.ObjectRef":
    """One plasma copy of the whole filter bank, shared by all actors on
    a node (J1 broadcast semi-join — never a shuffle)."""
    return ray.put(filters)


def labels_from_hits(hit_matrix: np.ndarray, filter_ids: list[str]) -> np.ndarray:
    """ResultsManager label routing (``ResultsManager.hpp:41-89``):
    0 hits → noMatch, 1 hit → that filter, ≥2 → multiMatch."""
    n_hits = hit_matrix.sum(axis=1)
    first = np.argmax(hit_matrix, axis=1)
    ids = np.array(filter_ids, dtype=object)
    out = np.where(n_hits == 0, NO_MATCH,
                   np.where(n_hits > 1, MULTI_MATCH, ids[first]))
    return out.astype(object)


def check_bank(bank: list[BloomFilter]) -> None:
    """Raise ``ValueError`` unless ``bank`` can run one categorize pass:
    1 to 64 filters (``hit_mask`` is a uint64) sharing one (k, seed)."""
    if not bank:
        raise ValueError("a filter bank needs at least one filter")
    if len(bank) > 64:
        raise ValueError("hit_mask supports at most 64 filters per run")
    if len({(bf.kmer_size, bf.seed) for bf in bank}) > 1:
        raise ValueError("all filters in a bank must share (k, seed)")


def _hit_mask(hit_matrix: np.ndarray) -> np.ndarray:
    weights = (np.uint64(1) << np.arange(hit_matrix.shape[1], dtype=np.uint64))
    with np.errstate(over="ignore"):
        return (hit_matrix.astype(np.uint64) * weights[None, :]).sum(
            axis=1, dtype=np.uint64)


class CategorizerActor:
    """Actor-pool callable for ``map_batches(CategorizerActor,
    concurrency=N, batch_size=B, batch_format="pyarrow")``."""

    def __init__(self, bank_ref, cfg: CategorizeConfig, text_col: str = "text",
                 subtract_ref=None, normalize: bool = True):
        bank = ray.get(bank_ref) if isinstance(bank_ref, ray.ObjectRef) else bank_ref
        check_bank(bank)
        self.fids = [bf.filter_id for bf in bank]
        self.cfg = cfg
        self.text_col = text_col
        self.normalize = normalize
        self.k = bank[0].kmer_size
        self.seed = bank[0].seed
        self.subtract = (ray.get(subtract_ref)
                         if isinstance(subtract_ref, ray.ObjectRef)
                         else subtract_ref)
        if self.subtract is not None and (
                self.subtract.kmer_size != self.k
                or self.subtract.seed != self.seed):
            raise ValueError(
                "subtract filter (k, seed) does not match the bank — its "
                "hits would be FPR noise (checkFilters guard)")
        # realized FPR per filter, precomputed once (getFPRPrecompute,
        # SeqEval.h:225) — binomial min-count tables memoize per frame
        # length in scoring.calc_min_count (T6 analogue)
        self.fprs = [bf.fpr_realized() for bf in bank]
        # The bank is read once here and never kept: FilterBank holds its
        # own worker-private copy of every bit it probes (the bit slices of
        # a shared-(m, hash_num) group, a copy of a lone filter's words).
        # Measured on this environment, holding plasma-backed numpy views
        # while running allocation-heavy kernels inflates worker CPU ~10x
        # under 32-way concurrency (shm mmap × allocator interaction); the
        # broadcast still ships ONE plasma copy per node.
        self.filter_bank = FilterBank(bank)

    # -- per-batch core --------------------------------------------------------
    def _frame_hits(self, texts: pa.Array):
        if self.normalize:
            texts = normalize_batch(texts)
        h1, h2, nf = shingle_hashes(texts, self.k, self.seed)
        sub_hits = None
        if self.subtract is not None:
            sub_hits = self.subtract.contains(h1, h2)
        word = self.filter_bank.probe(h1, h2)
        if self.cfg.mask_repetition is not None or \
                self.cfg.mask_dust is not None:
            # SDUST analogue (M5): masked frames become misses everywhere,
            # exactly like `!(sduster->isLowComp) && contains` (SeqEval.h:53).
            # Two criteria, OR-combined: in-document repetition (webtext
            # boilerplate) and the DUST triplet score (the reference's own
            # low-complexity definition, block-window approximation).
            mask = np.zeros(len(h1), dtype=bool)
            if self.cfg.mask_repetition is not None:
                from biobloom_ray.stages.masking import repetition_mask

                mask |= repetition_mask(h1, nf, self.cfg.mask_repetition)
            if self.cfg.mask_dust is not None:
                from biobloom_ray.hashing import string_column_bytes
                from biobloom_ray.stages.masking import dust_mask

                data, starts, ends = string_column_bytes(texts)
                mask |= dust_mask(data, starts, ends, self.k,
                                  threshold=self.cfg.mask_dust)
            word[mask] = 0
        per_filter = self.filter_bank.unpack(word)
        return per_filter, sub_hits, nf

    def _decide(self, per_filter, sub_hits, nf) -> np.ndarray:
        """One fused eval_batch call over all filters: the per-filter hit
        bitmaps are concatenated into F× the rows, so the lockstep loop's
        per-numpy-op overhead is amortized across the whole bank instead
        of paid once per filter."""
        cfg = self.cfg
        F = len(per_filter)
        if F == 0:
            return np.zeros((len(nf), 0), bool)
        same_fpr = (cfg.scoring_method != "binomial"
                    or len(set(self.fprs)) == 1)
        if same_fpr:
            fused_hits = np.concatenate(per_filter)
            fused_nf = np.tile(nf, F)
            fused_sub = (np.tile(sub_hits, F) if sub_hits is not None else None)
            m = eval_batch(fused_hits, fused_nf, self.k,
                           method=cfg.scoring_method,
                           threshold=cfg.score_threshold,
                           bf_fpr=self.fprs[0] if self.fprs else None,
                           subtract_hits=fused_sub,
                           streak_threshold=cfg.streak_threshold)
            return m.reshape(F, len(nf)).T
        cols = []
        for i, fh in enumerate(per_filter):
            cols.append(eval_batch(
                fh, nf, self.k, method=cfg.scoring_method,
                threshold=cfg.score_threshold, bf_fpr=self.fprs[i],
                subtract_hits=sub_hits,
                streak_threshold=cfg.streak_threshold))
        return np.stack(cols, axis=1)

    def _score_all(self, per_filter, sub_hits, nf) -> np.ndarray:
        cfg = self.cfg
        cols = []
        for i, fh in enumerate(per_filter):
            cols.append(score_batch(
                fh, nf, self.k, method=cfg.scoring_method,
                bf_fpr=self.fprs[i], subtract_hits=sub_hits,
                streak_threshold=cfg.streak_threshold))
        return np.stack(cols, axis=1) if cols else np.zeros((len(nf), 0))

    # Row-chunk budget for the fused hash→probe→decide pipeline: with
    # ~1 frame/char, a chunk's h1/h2 (16 B/frame) plus the per-filter hit
    # bitmaps stay L2-resident, so each frame's hashes are written and
    # re-read F+1 times from CACHE instead of DRAM.  Whole-block arrays
    # were the 32-way memory-bandwidth ceiling (BASELINE.md scaling).
    TARGET_CHUNK_CHARS = 131072

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = len(batch)
        if n == 0:
            return self._call_block(batch)
        import pyarrow.compute as _pc

        lens = _pc.utf8_length(batch[self.text_col]) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        col2 = getattr(self, "text_col2", None)
        if col2:
            lens = lens + _pc.utf8_length(batch[col2]) \
                .to_numpy(zero_copy_only=False).astype(np.int64)
        cum = np.cumsum(lens)
        total = int(cum[-1])
        if total <= 2 * self.TARGET_CHUNK_CHARS:
            return self._call_block(batch)
        marks = np.searchsorted(
            cum, np.arange(self.TARGET_CHUNK_CHARS, total,
                           self.TARGET_CHUNK_CHARS)) + 1
        bounds = [0]
        for r in marks:
            r = int(r)
            if bounds[-1] < r < n:
                bounds.append(r)
        bounds.append(n)
        parts = [self._call_block(batch.slice(s, e - s))
                 for s, e in zip(bounds[:-1], bounds[1:])]
        return pa.concat_tables(parts)

    def _call_block(self, batch: pa.Table) -> pa.Table:
        texts = batch[self.text_col]
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        per_filter, sub_hits, nf = self._frame_hits(texts)
        cfg = self.cfg
        n = len(nf)
        fids = self.fids
        scores_matrix = None
        best_score = np.zeros(n)

        if cfg.mode == "std":
            hits = self._decide(per_filter, sub_hits, nf)
        elif cfg.mode == "ordered":
            # first matching filter wins (BioBloomClassifier.cpp:1145-1153);
            # every filter is probed in one bank pass, then evaluated in
            # bank order, stopping once every row has matched (same
            # result, less work)
            hits = np.zeros((n, len(fids)), dtype=bool)
            undecided = np.ones(n, dtype=bool)
            for i, fh in enumerate(per_filter):
                if not undecided.any():
                    break
                m = eval_batch(fh, nf, self.k, method=cfg.scoring_method,
                               threshold=cfg.score_threshold, bf_fpr=self.fprs[i],
                               subtract_hits=sub_hits,
                               streak_threshold=cfg.streak_threshold)
                hits[:, i] = m & undecided
                undecided &= ~m
        elif cfg.mode == "besthit":
            # argmax of exhaustive score; ties all flagged (multiMatch);
            # maxScore 0 → no hits (BioBloomClassifier.cpp:1194-1218)
            scores_matrix = self._score_all(per_filter, sub_hits, nf)
            best_score = scores_matrix.max(axis=1) if scores_matrix.size else best_score
            hits = (scores_matrix == best_score[:, None]) & (best_score[:, None] > 0)
        elif cfg.mode == "scores":
            hits = self._decide(per_filter, sub_hits, nf)
            scores_matrix = self._score_all(per_filter, sub_hits, nf)
        else:
            raise ValueError(f"unknown mode {cfg.mode!r}")

        label = labels_from_hits(hits, fids)
        out = batch.append_column("label", pa.array(label, type=pa.large_string()))
        out = out.append_column("hit_mask", pa.array(_hit_mask(hits)))
        out = out.append_column("score", pa.array(best_score, type=pa.float64()))
        if cfg.with_scores or cfg.mode == "scores":
            if scores_matrix is None:
                scores_matrix = self._score_all(per_filter, sub_hits, nf)
            flat = pa.array(scores_matrix.reshape(-1), type=pa.float64())
            out = out.append_column(
                "scores", pa.FixedSizeListArray.from_arrays(flat, len(fids)))
        return out


class PairedCategorizerActor(CategorizerActor):
    """Paired evaluation (M18): a row carries two texts; a filter matches
    the pair iff it matches BOTH mates (default AND,
    ``BioBloomClassifier.cpp:1159-1180``) or EITHER (``-i`` inclusive →
    union, ``ResultsManager.hpp:91-152``).  ``ordered`` short-circuits on
    the first filter whose combined test passes."""

    def __init__(self, bank_ref, cfg: CategorizeConfig,
                 text_col: str = "text_1", text_col2: str = "text_2", **kw):
        super().__init__(bank_ref, cfg, text_col=text_col, **kw)
        self.text_col2 = text_col2

    def _call_block(self, batch: pa.Table) -> pa.Table:
        cfg = self.cfg
        t1 = batch[self.text_col]
        t2 = batch[self.text_col2]
        if isinstance(t1, pa.ChunkedArray):
            t1 = t1.combine_chunks()
        if isinstance(t2, pa.ChunkedArray):
            t2 = t2.combine_chunks()
        pf1, sub1, nf1 = self._frame_hits(t1)
        pf2, sub2, nf2 = self._frame_hits(t2)
        fids = self.fids
        n = len(nf1)

        def decide(per_filter, sub, nf, i):
            return eval_batch(per_filter[i], nf, self.k,
                              method=cfg.scoring_method,
                              threshold=cfg.score_threshold, bf_fpr=self.fprs[i],
                              subtract_hits=sub,
                              streak_threshold=cfg.streak_threshold)

        hits = np.zeros((n, len(fids)), dtype=bool)
        if cfg.mode == "ordered":
            undecided = np.ones(n, dtype=bool)
            for i in range(len(fids)):
                if not undecided.any():
                    break
                m1 = decide(pf1, sub1, nf1, i)
                m2 = decide(pf2, sub2, nf2, i)
                m = (m1 | m2) if cfg.inclusive else (m1 & m2)
                hits[:, i] = m & undecided
                undecided &= ~m
        else:
            for i in range(len(fids)):
                m1 = decide(pf1, sub1, nf1, i)
                m2 = decide(pf2, sub2, nf2, i)
                hits[:, i] = (m1 | m2) if cfg.inclusive else (m1 & m2)

        label = labels_from_hits(hits, fids)
        out = batch.append_column("label", pa.array(label, type=pa.large_string()))
        out = out.append_column("hit_mask", pa.array(_hit_mask(hits)))
        out = out.append_column("score",
                                pa.array(np.zeros(n), type=pa.float64()))
        return out


# Worker-local categorizer cache for the task-based path: tasks run on
# Ray's long-lived prestarted workers, so caching by (bank ref, config)
# amortizes construction exactly like an actor's __init__ would — without
# paying a fresh actor process (and a fresh import of the whole stack)
# per map_batches stage.  ray.get of the bank inside a worker is a
# zero-copy plasma read; each cached categorizer holds its FilterBank.
# Every categorize() call broadcasts a new bank ref, so the cache keeps
# only the most recent _WORKER_CACHE_SIZE categorizers per worker.
_WORKER_CACHE: dict = {}
_WORKER_CACHE_SIZE = 4


def make_categorizer_fn(bank_ref, cfg: CategorizeConfig, text_col: str = "text",
                        text_col2: str | None = None, subtract_ref=None,
                        normalize: bool = True):
    key = (bank_ref.hex() if hasattr(bank_ref, "hex") else id(bank_ref),
           cfg, text_col, text_col2, normalize)

    def fn(batch: pa.Table) -> pa.Table:
        actor = _WORKER_CACHE.get(key)
        if actor is None:
            if text_col2:
                actor = PairedCategorizerActor(
                    bank_ref, cfg, text_col=text_col, text_col2=text_col2,
                    subtract_ref=subtract_ref, normalize=normalize)
            else:
                actor = CategorizerActor(
                    bank_ref, cfg, text_col=text_col,
                    subtract_ref=subtract_ref, normalize=normalize)
            if len(_WORKER_CACHE) >= _WORKER_CACHE_SIZE:
                del _WORKER_CACHE[next(iter(_WORKER_CACHE))]
            _WORKER_CACHE[key] = actor
        return actor(batch)

    return fn


def summary_partial(batch: pa.Table, n_filters: int) -> pa.Table:
    """Per-block partial of the summary counters (A4) — pre-aggregation so
    the final reduce sees one tiny row per block instead of every record."""
    mask = batch["hit_mask"].to_numpy(zero_copy_only=False).astype(np.uint64)
    label = batch["label"].to_numpy(zero_copy_only=False)
    above = [int(((mask >> np.uint64(i)) & np.uint64(1)).sum())
             for i in range(n_filters)]
    n_hits = np.zeros(len(mask), dtype=np.int64)
    for i in range(n_filters):
        n_hits += ((mask >> np.uint64(i)) & np.uint64(1)).astype(np.int64)
    unique = [int(((n_hits == 1) & (((mask >> np.uint64(i)) & np.uint64(1)) == 1)).sum())
              for i in range(n_filters)]
    return pa.table({
        "above": pa.array([above], type=pa.list_(pa.int64())),
        "unique": pa.array([unique], type=pa.list_(pa.int64())),
        "multi": pa.array([int((label == MULTI_MATCH).sum())]),
        "no": pa.array([int((label == NO_MATCH).sum())]),
        "total": pa.array([len(mask)]),
    })


def summary_table(labeled_ds, filter_ids: list[str]):
    """Reference summary.tsv shape (``ResultsManager.hpp:191-237``):
    one row per filter + multiMatch + noMatch, columns
    filter_id, hits, misses, shared, rate_hit, rate_miss, rate_shared."""
    nf = len(filter_ids)
    partials = labeled_ds.map_batches(
        lambda b: summary_partial(b, nf), batch_format="pyarrow").take_all()
    return summary_from_partials(partials, filter_ids)


def summary_from_partials(partials, filter_ids: list[str]):
    """Sum ``summary_partial`` rows into the summary table; no partials
    give the zero-total table (NaN rates)."""
    import pandas as pd

    nf = len(filter_ids)
    above = np.zeros(nf, dtype=np.int64)
    unique = np.zeros(nf, dtype=np.int64)
    multi = no = total = 0
    for row in partials:
        above += np.asarray(row["above"], dtype=np.int64)
        unique += np.asarray(row["unique"], dtype=np.int64)
        multi += row["multi"]
        no += row["no"]
        total += row["total"]
    rows = []
    denom = float(total) if total else float("nan")
    for i, fid in enumerate(filter_ids):
        hits = int(above[i])
        rows.append({
            "filter_id": fid, "hits": hits, "misses": total - hits,
            "shared": hits - int(unique[i]),
            "rate_hit": hits / denom, "rate_miss": (total - hits) / denom,
            "rate_shared": (hits - int(unique[i])) / denom,
        })
    rows.append({"filter_id": MULTI_MATCH, "hits": multi, "misses": total - multi,
                 "shared": 0, "rate_hit": multi / denom,
                 "rate_miss": (total - multi) / denom, "rate_shared": 0.0})
    rows.append({"filter_id": NO_MATCH, "hits": no, "misses": total - no,
                 "shared": 0, "rate_hit": no / denom,
                 "rate_miss": (total - no) / denom, "rate_shared": 0.0})
    return pd.DataFrame(rows)


def emit_matching(labeled, filter_id: str | None = None,
                  invert: bool = False, label_col: str = "label"):
    """S9 matched/unmatched stream emitter — the ``-d``/``-n`` stdout
    routing of the reference (``BioBloomClassifier.h:115-142``): after
    classification, forward only the rows that matched (``-d``; a
    specific ``filter_id`` narrows to that filter's stream, incl.
    ``multiMatch``) or only the unmatched rows (``-n``/``invert=True``).

    Pure streaming ``Dataset.filter`` over the labeled output — chain
    ``.write_parquet`` (the Dynamicofstream analogue) or ``iter_batches``
    (the literal stdout pipe) on the result.
    """
    import pyarrow.compute as pc

    def pick(b: pa.Table) -> pa.Table:
        lab = b[label_col]
        if filter_id is None:
            mask = pc.not_equal(lab, NO_MATCH)
        else:
            mask = pc.or_(pc.equal(lab, filter_id),
                          pc.equal(lab, MULTI_MATCH))
        if invert:
            mask = pc.invert(mask)
        return b.filter(mask)

    return labeled.map_batches(pick, batch_format="pyarrow")
