"""Batch scorers with exact SeqEval semantics (``Common/SeqEval.h``).

The reference evaluates one read at a time against a Bloom filter with a
stateful loop: streak bonuses, an anti-score early-reject, and the
"jumping k-mer" heuristic (on a miss after a streak of
``opt::streakThreshold`` = 3 adjacent hits, skip k frames —
``Common/Options.cpp:9``, ``README.md:185``).  Early accept/reject only
short-circuits *within* the sequential loop, and the jump changes which
frames are examined, so decisions are genuinely order-dependent per row.

We vectorize ACROSS rows instead: a lockstep state machine advances every
still-undecided row one frame per iteration with pure numpy ops, exactly
reproducing the per-row sequential semantics (including early exits,
which here *remove rows from the working set* — the vector analogue of
short-circuiting).  Iteration count is bounded by the longest row; work
shrinks as rows decide.

Deviation (documented per SURVEY.md §7.4): the reference's simple /
harmonic scorers construct ``ntHashIterator(rec, kmerSize, kmerSize)`` —
passing ``kmerSize`` where ``hashNum`` is expected (``SeqEval.h:50,129``)
while minMatchLen uses ``getHashNum()`` (``SeqEval.h:302``).  We always
probe with the filter's true ``hash_num`` (reproduce the behavior, not
the bug).

Scoring methods (dispatch mirrors ``SeqEval.h:493-524`` /
``Common/Options.h:35``): simple, harmonic, binomial, length.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

STREAK_THRESHOLD = 3  # opt::streakThreshold default (Common/Options.cpp:9)

METHODS = ("simple", "harmonic", "binomial", "length")

# --------------------------------------------------------------------------
# user-extension surface (SURVEY.md §2.10): the reference swaps scoring
# implementations by rebuilding with an alternative SeqEval.h
# (Tests/SeqEvalMethods/evalCompare.pl:38-46); here custom scorers
# register plain callables with the eval_batch/score_batch signature and
# become selectable via CategorizeConfig.scoring_method.
# --------------------------------------------------------------------------

_CUSTOM_SCORERS: dict = {}


def register_scorer(name: str, eval_fn, score_fn=None) -> None:
    """Register a custom scoring method.

    ``eval_fn(hits, n_frames, k, threshold=..., **kw) -> bool[n]``;
    optional ``score_fn`` with the score_batch signature.  Built-in names
    cannot be overridden.
    """
    if name in METHODS:
        raise ValueError(f"cannot override built-in scorer {name!r}")
    _CUSTOM_SCORERS[name] = (eval_fn, score_fn)


# --------------------------------------------------------------------------
# binomial tail helpers (replaces boost::math::binomial, SeqEval.h:199-216)
# --------------------------------------------------------------------------

@lru_cache(maxsize=4096)
def _binom_sf_table(n: int, p: float) -> np.ndarray:
    """sf[x] = P(X > x) for X ~ Binomial(n, p), x = 0..n.

    pmf computed in log space via a cumulative-sum of log binomial ratios
    (no scipy in this environment); the tail sum is taken high-to-low so
    small survival probabilities keep full relative accuracy.
    """
    if n == 0:
        return np.zeros(1)
    j = np.arange(1, n + 1, dtype=np.float64)
    log_choose = np.concatenate([[0.0], np.cumsum(np.log((n - j + 1.0) / j))])
    jj = np.arange(0, n + 1, dtype=np.float64)
    if p <= 0.0:
        pmf = np.zeros(n + 1)
        pmf[0] = 1.0
    elif p >= 1.0:
        pmf = np.zeros(n + 1)
        pmf[n] = 1.0
    else:
        log_pmf = log_choose + jj * math.log(p) + (n - jj) * math.log1p(-p)
        pmf = np.exp(log_pmf)
    # sf[x] = sum_{j=x+1..n} pmf[j], accumulated from the top for accuracy
    sf = np.zeros(n + 1)
    sf[:-1] = np.cumsum(pmf[::-1])[::-1][1:]
    return sf


def binom_sf(n: int, p: float, x: int) -> float:
    """P(X > x) — ``calcProbMatches`` (SeqEval.h:209-216)."""
    if x >= n:
        return 0.0
    if x < 0:
        return 1.0
    return float(_binom_sf_table(n, round(p, 12))[x])


@lru_cache(maxsize=65536)
def calc_min_count(frame_len: int, bf_fpr: float, min_fpr: float) -> int:
    """Smallest c with P(X > c) <= min_fpr, floored at 1 —
    ``SeqEval.h:199-207`` (boost quantile(complement(...)) with the
    integer_round_up discrete policy)."""
    if frame_len == 0:
        return 1
    sf = _binom_sf_table(frame_len, round(bf_fpr, 12))
    idx = np.nonzero(sf <= min_fpr)[0]
    c = int(idx[0]) if len(idx) else frame_len + 1
    return max(c, 1)


# --------------------------------------------------------------------------
# lockstep batch evaluation
# --------------------------------------------------------------------------

def _seg_starts(n_frames: np.ndarray) -> np.ndarray:
    seg = np.zeros(len(n_frames), dtype=np.int64)
    if len(n_frames) > 1:
        np.cumsum(n_frames[:-1], out=seg[1:])
    return seg


def _thresholds(method: str, n_frames: np.ndarray, threshold: float,
                bf_fpr: float | None) -> tuple[np.ndarray, np.ndarray]:
    """Per-row (accept_thres, anti_thres).

    simple/harmonic: thres = threshold·F; antiThres = floor((1−threshold)·F)
    (``denormalizeScore``, SeqEval.h:28-45).  binomial: thres from the
    binomial inverse tail at the filter's realized FPR; antiThres = F −
    thres, never-reject when thres > F (the reference's unsigned
    underflow makes antiThres huge — SeqEval.h:224-227)."""
    F = n_frames.astype(np.float64)
    if method in ("simple", "harmonic"):
        thres = threshold * F
        anti = np.floor((1.0 - threshold) * F)
        return thres, anti
    if method == "binomial":
        if bf_fpr is None:
            raise ValueError("binomial scoring needs the filter's realized FPR")
        uniq = np.unique(n_frames)
        tmap = {int(f): calc_min_count(int(f), bf_fpr, threshold) for f in uniq}
        thres = np.array([tmap[int(f)] for f in n_frames], dtype=np.float64)
        anti = np.where(thres <= F, F - thres, np.inf)
        return thres, anti
    raise ValueError(f"no thresholds for method {method!r}")


#: frames per walk chunk: the walk's prefix/trigger arrays (~20 B/frame)
#: stay cache-resident instead of streaming through DRAM — the limiting
#: resource when ~32 workers run concurrently on one node
_WALK_CHUNK_FRAMES = 1 << 16


def _row_chunked(fn, hits, n_frames, seg, *per_row_arrays, out_dtype):
    """Run a per-row-independent walk over row groups of ≤
    _WALK_CHUNK_FRAMES frames (a single huge row becomes its own group).
    Exact: the walks never look across rows."""
    n = len(n_frames)
    total = len(hits)
    if total <= _WALK_CHUNK_FRAMES:
        return fn(hits, n_frames, seg, *per_row_arrays)
    out = np.empty(n, dtype=out_dtype)
    r0 = 0
    while r0 < n:
        r1 = r0
        span = 0
        while r1 < n and (r1 == r0 or span + n_frames[r1] <= _WALK_CHUNK_FRAMES):
            span += int(n_frames[r1])
            r1 += 1
        lo = int(seg[r0])
        sub_frames = n_frames[r0:r1]
        sub_seg = seg[r0:r1] - lo
        sub_hits = hits[lo:lo + span]
        out[r0:r1] = fn(sub_hits, sub_frames, sub_seg,
                        *(a[r0:r1] for a in per_row_arrays))
        r0 = r1
    return out


def _jump_walk_decide(
    hits: np.ndarray,
    n_frames: np.ndarray,
    seg: np.ndarray,
    method: str,
    thres: np.ndarray,
    anti_thres: np.ndarray,
    k: int,
    streak_threshold: int,
) -> np.ndarray:
    """Exact evalSimple/evalBinomial decisions, one JUMP per vectorized
    round instead of one frame per loop iteration.

    Key observations that make this exact:

    - Between jumps the walk visits consecutive frames, so score and
      anti-score are prefix-sum differences of per-frame gains computed
      once from the raw bitmap (for the simple scorer the only frame whose
      gain differs after a resume is the resume frame itself: it restarts
      a streak, so a mid-run hit gains 0.5 instead of 1.0 — a single
      per-row correction).  Gains are halves/ones, so everything is kept
      in DOUBLED INTEGER arithmetic: `thres <= score` ⟺
      `score2 >= ceil(2·thres)` exactly, eliminating any float-rounding
      drift from the reference's own accumulated-float comparison.
    - All prefix sums are globally monotone → the first threshold crossing
      of every alive row is ONE vectorized ``searchsorted``.
    - The walk's jump triggers are exactly the raw bitmap's triggers
      (miss with >= streak_threshold raw hits immediately before) at
      positions >= resume + streak_threshold: the 3-hit window then lies
      inside the walk, and closer triggers can't reach streak 3.
    - A reject exactly at the trigger frame fires before the skip
      (SeqEval.h:94-108), so crossing <= trigger decides the row.

    Rounds = max jumps taken by any row before its decision.
    """
    n = len(n_frames)
    out = np.zeros(n, dtype=bool)
    total = len(hits)
    if total == 0 or n == 0:
        return out
    is_simple = method == "simple"

    nz = n_frames > 0
    row_starts_all = seg[nz]

    prev = np.empty(total, dtype=bool)
    prev[0] = False
    prev[1:] = hits[:-1]
    prev[row_starts_all] = False
    first_of_run = hits & ~prev

    if is_simple:  # doubled gains: 1 for a streak-opening hit, 2 after
        gains2 = (hits.view(np.int8) << 1) - first_of_run.view(np.int8)
    else:
        gains2 = hits.view(np.int8)
    # int32 prefix arrays: values are bounded by 2·total ≤ 2^31 for any
    # realistic batch, and halving the bytes halves the DRAM traffic of
    # the walk (the measured bottleneck at 32-way concurrency)
    if total >= (1 << 30):
        raise ValueError("batch too large for int32 prefix sums — lower batch_size")
    CS = np.zeros(total + 1, dtype=np.int32)
    np.cumsum(gains2, dtype=np.int32, out=CS[1:])
    CA = np.zeros(total + 1, dtype=np.int32)
    np.cumsum(hits.view(np.int8) ^ 1, out=CA[1:])

    max_f = int(n_frames.max())
    if streak_threshold >= max_f:
        trig = np.zeros(total, dtype=bool)  # no row can reach the streak
    else:
        trig = ~hits
        for b in range(1, streak_threshold + 1):
            t = np.empty(total, dtype=bool)
            t[:b] = False
            t[b:] = hits[:-b]
            trig &= t
    # windows crossing row boundaries are invalid: clear the first
    # streak_threshold positions of every row (O(rows), no per-frame
    # index arrays)
    for _b in range(min(streak_threshold, max_f)):
        _idx = row_starts_all + _b
        trig[_idx[_idx < total]] = False
    CT = np.zeros(total + 1, dtype=np.int32)
    np.cumsum(trig.view(np.int8), out=CT[1:])

    INF = np.iinfo(np.int64).max
    SENT = np.int64(1) << np.int64(62)        # "never reject" sentinel
    scale = 2.0 if is_simple else 1.0

    alive = np.nonzero(nz)[0]
    p = seg[alive].copy()                     # current flat position
    score2 = np.zeros(len(alive), dtype=np.int64)
    anti = np.zeros(len(alive), dtype=np.int64)
    r_end = seg[alive] + n_frames[alive]      # flat row end (exclusive)
    # exact integer thresholds: thres <= score ⟺ score2 >= ceil(scale·thres)
    r_thres2 = np.ceil(scale * thres[alive]).astype(np.int64)
    a = anti_thres[alive]
    r_anti = np.where(np.isfinite(a), a, float(SENT)).astype(np.int64)

    while len(alive):
        if is_simple:
            corr2 = (hits[p] & ~first_of_run[p]).astype(np.int64)
        else:
            corr2 = 0
        # first accept frame: smallest q with CS[q+1] >= target (all int)
        acc_target = CS[p] + (r_thres2 - score2) + corr2
        q_acc = np.searchsorted(CS, acc_target, side="left") - 1
        # first reject frame (reject fires on ++antiScore, so level >= 1)
        rej_level = np.maximum(r_anti - anti, 1)
        q_rej = np.searchsorted(CA, CA[p] + rej_level, side="left") - 1
        # first walk trigger: raw trigger at >= p + streak_threshold
        s = np.minimum(p + streak_threshold, r_end)
        q_trig = np.searchsorted(CT, CT[s] + 1, side="left") - 1

        e_acc = np.where(q_acc < r_end, q_acc, INF)
        e_rej = np.where(q_rej < r_end, q_rej, INF)
        e_trig = np.where(q_trig < r_end, q_trig, INF)

        decision = np.minimum(e_acc, e_rej)
        decided = decision <= e_trig          # INF <= INF → walk ends, False
        matched_now = decided & (e_acc < e_rej)

        out[alive[matched_now]] = True

        live = ~decided
        if decided.any():
            alive = alive[live]
            if len(alive) == 0:
                break
            p = p[live]
            score2 = score2[live]
            anti = anti[live]
            r_end = r_end[live]
            r_thres2 = r_thres2[live]
            r_anti = r_anti[live]
            e_trig = e_trig[live]
            if is_simple:
                corr2 = corr2[live]

        # take the jump at T = e_trig (< r_end for every live row)
        T = e_trig
        score2 = score2 + (CS[T + 1] - CS[p]) - corr2
        anti = anti + (CA[T + 1] - CA[p])
        # skip consumes positions T+1 .. T+k-1 (T itself already counted),
        # clipped to the row end, each counted as a miss with reject check
        cnt = np.clip(r_end - (T + 1), 0, k - 1)
        rej_in_skip = anti + cnt >= np.maximum(r_anti, 1)
        anti = anti + cnt
        p = T + k
        done2 = rej_in_skip | (p >= r_end)    # neither outcome matches
        if done2.any():
            live = ~done2
            alive = alive[live]
            p = p[live]
            score2 = score2[live]
            anti = anti[live]
            r_end = r_end[live]
            r_thres2 = r_thres2[live]
            r_anti = r_anti[live]
    return out


def _jump_walk_scores(
    hits: np.ndarray,
    n_frames: np.ndarray,
    seg: np.ndarray,
    method: str,
    k: int,
    streak_threshold: int,
) -> np.ndarray:
    """Exhaustive (no early exit) raw scores for simple/binomial without
    subtract — the evalSimpleScore/evalBinomialScore walks, advanced one
    JUMP per vectorized round using the same prefix-sum machinery as
    :func:`_jump_walk_decide`.  Returns the raw accumulated score (the
    caller normalizes / converts to a p-value)."""
    n = len(n_frames)
    out = np.zeros(n, dtype=np.float64)
    total = len(hits)
    if total == 0 or n == 0:
        return out
    is_simple = method == "simple"
    nz = n_frames > 0
    row_starts_all = seg[nz]

    prev = np.empty(total, dtype=bool)
    prev[0] = False
    prev[1:] = hits[:-1]
    prev[row_starts_all] = False
    first_of_run = hits & ~prev
    if is_simple:
        gains2 = np.where(first_of_run, 1, 2) * hits
    else:
        gains2 = hits.astype(np.int32)
    CS = np.zeros(total + 1, dtype=np.int64)
    np.cumsum(gains2, out=CS[1:])

    max_f = int(n_frames.max())
    if streak_threshold >= max_f:
        trig = np.zeros(total, dtype=bool)  # no row can reach the streak
    else:
        trig = ~hits
        for b in range(1, streak_threshold + 1):
            t = np.empty(total, dtype=bool)
            t[:b] = False
            t[b:] = hits[:-b]
            trig &= t
    # windows crossing row boundaries are invalid: clear the first
    # streak_threshold positions of every row (O(rows), no per-frame
    # index arrays)
    for _b in range(min(streak_threshold, max_f)):
        _idx = row_starts_all + _b
        trig[_idx[_idx < total]] = False
    CT = np.zeros(total + 1, dtype=np.int32)
    np.cumsum(trig.view(np.int8), out=CT[1:])

    alive = np.nonzero(nz)[0]
    p = seg[alive].copy()
    score2 = np.zeros(len(alive), dtype=np.int64)
    r_end = seg[alive] + n_frames[alive]

    while len(alive):
        if is_simple:
            corr2 = (hits[p] & ~first_of_run[p]).astype(np.int64)
        else:
            corr2 = 0
        s = np.minimum(p + streak_threshold, r_end)
        q_trig = np.searchsorted(CT, CT[s] + 1, side="left") - 1
        has_trig = q_trig < r_end
        stop = np.where(has_trig, q_trig, r_end - 1)
        score2 = score2 + (CS[stop + 1] - CS[p]) - corr2
        done = ~has_trig
        if done.any():
            out[alive[done]] = score2[done]
            live = has_trig
            alive = alive[live]
            p = p[live]
            score2 = score2[live]
            r_end = r_end[live]
            stop = stop[live]
        p = stop + k
        ends = p >= r_end
        if ends.any():
            out[alive[ends]] = score2[ends]
            live = ~ends
            alive = alive[live]
            p = p[live]
            score2 = score2[live]
            r_end = r_end[live]
    scale = 2.0 if is_simple else 1.0
    return out / scale


def eval_batch(
    hits: np.ndarray,
    n_frames: np.ndarray,
    k: int,
    method: str = "simple",
    threshold: float = 0.15,
    bf_fpr: float | None = None,
    subtract_hits: np.ndarray | None = None,
    mask: np.ndarray | None = None,
    streak_threshold: int = STREAK_THRESHOLD,
) -> np.ndarray:
    """Per-row boolean match decision, exact ``evalSimple`` /
    ``evalHarmonic`` / ``evalBinomial`` / ``evalMinMatchLen`` semantics.

    ``hits``: concatenated per-row frame-hit booleans (filter membership
    of each k-shingle); ``n_frames``: frames per row; ``subtract_hits``:
    frames present in the subtract filter (score-gated, J2 broadcast
    anti-join); ``mask``: frames to treat as misses (SDUST analogue,
    ``SeqEval.h:53``).  ``threshold`` is the normalized score for
    simple/harmonic, the min-FPR for binomial, and the minimum match
    length (in characters) for length.
    """
    n_frames = np.asarray(n_frames, dtype=np.int64)
    if mask is not None:
        hits = hits & ~mask
    if method in _CUSTOM_SCORERS:
        return _CUSTOM_SCORERS[method][0](
            hits, n_frames, k, threshold=threshold, bf_fpr=bf_fpr,
            subtract_hits=subtract_hits, streak_threshold=streak_threshold)
    if method == "length":
        return _minmatchlen_scores(hits, n_frames, k, subtract_hits) >= round(threshold)

    n = len(n_frames)
    out = np.zeros(n, dtype=bool)
    if n == 0:
        return out
    thres, anti_thres = _thresholds(method, n_frames, threshold, bf_fpr)
    # Exact count bound: the walk only skips frames (jump heuristic), a
    # counted hit gains at most 1, and for simple/harmonic the first
    # examined hit of a run starts a streak and gains at most 0.5.  So a
    # row with H hits in R runs scores at most H − R/2 (binomial: H), and
    # a row whose bound is below its accept threshold is False.  Only
    # the other rows are walked.
    hits = np.asarray(hits, dtype=bool)
    live = n_frames > 0
    n_live = int(np.count_nonzero(live))
    if n_live == 0:
        return out
    starts = _seg_starts(n_frames)[live]
    # int32 sums: a row has < 2**30 frames (see _jump_walk_decide)
    bound2 = 2 * np.add.reduceat(hits.view(np.uint8), starts,
                                 dtype=np.int32).astype(np.int64)
    if method != "binomial":
        opens = np.empty_like(hits)
        opens[0] = hits[0]
        np.greater(hits[1:], hits[:-1], out=opens[1:])
        opens[starts] = hits[starts]
        bound2 -= np.add.reduceat(opens.view(np.uint8), starts, dtype=np.int32)
    live[live] = bound2 >= 2 * thres[live]
    if not live.any():
        return out
    if np.count_nonzero(live) < n_live:
        frames = np.repeat(live, n_frames)
        hits = hits[frames]
        if subtract_hits is not None:
            subtract_hits = subtract_hits[frames]
    out[live] = _decide_rows(hits, n_frames[live], k, method, thres[live],
                             anti_thres[live], subtract_hits,
                             streak_threshold)
    return out


def _decide_rows(
    hits: np.ndarray,
    n_frames: np.ndarray,
    k: int,
    method: str,
    thres: np.ndarray,
    anti_thres: np.ndarray,
    subtract_hits: np.ndarray | None,
    streak_threshold: int,
) -> np.ndarray:
    """The per-row walk behind :func:`eval_batch`, over every row."""
    n = len(n_frames)
    out = np.zeros(n, dtype=bool)
    seg = _seg_starts(n_frames)

    # ---- jump-walk (one vectorized round per jump) for the common case ----
    # simple/binomial without a subtract filter and with a positive accept
    # threshold (a zero threshold accepts on a zero-gain hit frame, which
    # prefix sums can't see); harmonic gains depend on the absolute streak
    # and stay on the exact frame loop below.
    if subtract_hits is None and method in ("simple", "binomial") \
            and (thres > 0).all():
        return _row_chunked(
            lambda h, f, s, t, a: _jump_walk_decide(
                h, f, s, method, t, a, k, streak_threshold),
            hits, n_frames, seg, thres, anti_thres, out_dtype=bool)

    alive = np.nonzero(n_frames > 0)[0]
    pos = np.zeros(len(alive), dtype=np.int64)
    score = np.zeros(len(alive), dtype=np.float64)
    anti = np.zeros(len(alive), dtype=np.float64)
    streak = np.zeros(len(alive), dtype=np.int64)
    skip_left = np.zeros(len(alive), dtype=np.int64)

    row_seg = seg[alive]
    row_F = n_frames[alive]
    row_thres = thres[alive]
    row_anti_thres = anti_thres[alive]
    use_sub = subtract_hits is not None

    while len(alive):
        in_skip = skip_left > 0
        look = ~in_skip
        idx = row_seg + pos
        hit = np.zeros(len(alive), dtype=bool)
        hit[look] = hits[idx[look]]

        if use_sub:
            counted = hit.copy()
            counted[hit] = ~subtract_hits[idx[hit]]
        else:
            counted = hit

        # --- hit branch -----------------------------------------------------
        if method == "simple":
            gain = np.where(streak == 0, 0.5, 1.0)
        elif method == "harmonic":
            gain = np.where(streak == 0, 0.5, 1.0 - 1.0 / (1.0 + streak))
        else:  # binomial
            gain = np.ones(len(alive))
        score = np.where(counted, score + gain, score)
        accept = hit & (row_thres <= score)

        # --- miss branch (incl. forced-skip steps) ---------------------------
        miss = ~hit
        anti = np.where(miss, anti + 1.0, anti)
        reject = miss & (row_anti_thres <= anti)

        # jump heuristic: miss after streak >= streak_threshold skips k
        # frames; this step consumed the first of the k
        start_skip = miss & ~in_skip & (streak >= streak_threshold)
        skip_left = np.where(start_skip, k - 1,
                             np.where(in_skip, skip_left - 1, skip_left))
        streak = np.where(hit, streak + 1, 0)
        pos += 1

        done = accept | reject | (pos >= row_F)
        out[alive[accept]] = True
        if done.any():
            keep = ~done
            alive = alive[keep]
            pos = pos[keep]
            score = score[keep]
            anti = anti[keep]
            streak = streak[keep]
            skip_left = skip_left[keep]
            row_seg = row_seg[keep]
            row_F = row_F[keep]
            row_thres = row_thres[keep]
            row_anti_thres = row_anti_thres[keep]
    return out


def score_batch(
    hits: np.ndarray,
    n_frames: np.ndarray,
    k: int,
    method: str = "simple",
    bf_fpr: float | None = None,
    subtract_hits: np.ndarray | None = None,
    mask: np.ndarray | None = None,
    streak_threshold: int = STREAK_THRESHOLD,
) -> np.ndarray:
    """Exhaustive per-row scores — ``evalSimpleScore`` /
    ``evalHarmonicScore`` / ``evalBinomialScore`` / ``evalMinMatchLenScore``
    (SeqEval.h:334-491): no early exit, jump heuristic still applies
    (except length).  simple/harmonic are normalized by F; binomial is
    reported as −10·log10(P(X > matches)) like ``evalScore``
    (SeqEval.h:545,558); length is the max contiguous matched length.
    """
    n_frames = np.asarray(n_frames, dtype=np.int64)
    if mask is not None:
        hits = hits & ~mask
    if method in _CUSTOM_SCORERS and _CUSTOM_SCORERS[method][1] is not None:
        return _CUSTOM_SCORERS[method][1](
            hits, n_frames, k, bf_fpr=bf_fpr, subtract_hits=subtract_hits,
            streak_threshold=streak_threshold)
    if method == "length":
        return _minmatchlen_scores(hits, n_frames, k, subtract_hits).astype(np.float64)

    n = len(n_frames)
    if subtract_hits is None and method in ("simple", "binomial"):
        seg = _seg_starts(n_frames)
        raw = _row_chunked(
            lambda h, f, s: _jump_walk_scores(h, f, s, method, k,
                                              streak_threshold),
            hits, n_frames, seg, out_dtype=np.float64)
        return _finalize_scores(raw, n_frames, method, bf_fpr)

    raw = np.zeros(n, dtype=np.float64)
    seg = _seg_starts(n_frames)
    alive = np.nonzero(n_frames > 0)[0]
    pos = np.zeros(len(alive), dtype=np.int64)
    score = np.zeros(len(alive), dtype=np.float64)
    streak = np.zeros(len(alive), dtype=np.int64)
    skip_left = np.zeros(len(alive), dtype=np.int64)
    row_seg = seg[alive]
    row_F = n_frames[alive]
    use_sub = subtract_hits is not None

    while len(alive):
        in_skip = skip_left > 0
        look = ~in_skip
        idx = row_seg + pos
        hit = np.zeros(len(alive), dtype=bool)
        hit[look] = hits[idx[look]]
        if use_sub:
            counted = hit.copy()
            counted[hit] = ~subtract_hits[idx[hit]]
        else:
            counted = hit
        if method == "simple":
            gain = np.where(streak == 0, 0.5, 1.0)
        elif method == "harmonic":
            gain = np.where(streak == 0, 0.5, 1.0 - 1.0 / (1.0 + streak))
        else:
            gain = np.ones(len(alive))
        score = np.where(counted, score + gain, score)
        miss = ~hit
        start_skip = miss & ~in_skip & (streak >= streak_threshold)
        skip_left = np.where(start_skip, k - 1,
                             np.where(in_skip, skip_left - 1, skip_left))
        streak = np.where(hit, streak + 1, 0)
        pos += 1
        done = pos >= row_F
        if done.any():
            raw[alive[done]] = score[done]
            keep = ~done
            alive = alive[keep]
            pos = pos[keep]
            score = score[keep]
            streak = streak[keep]
            skip_left = skip_left[keep]
            row_seg = row_seg[keep]
            row_F = row_F[keep]

    return _finalize_scores(raw, n_frames, method, bf_fpr)


def _finalize_scores(raw: np.ndarray, n_frames: np.ndarray, method: str,
                     bf_fpr: float | None) -> np.ndarray:
    """normalizeScore for simple/harmonic; −10·log10 P(X > matches) for
    binomial (rows with no frames score 0 — evalBinomialScore returns
    1.0 for short reads, SeqEval.h:452-454)."""
    n = len(n_frames)
    if method in ("simple", "harmonic"):
        out = np.zeros(n, dtype=np.float64)
        nz = n_frames > 0
        out[nz] = raw[nz] / n_frames[nz]
        return out
    if bf_fpr is None:
        raise ValueError("binomial scoring needs the filter's realized FPR")
    out = np.zeros(n, dtype=np.float64)
    for i in np.nonzero(n_frames > 0)[0]:
        p = binom_sf(int(n_frames[i]), bf_fpr, int(raw[i]))
        out[i] = -10.0 * math.log10(p) if p > 0 else math.inf
    return out


def _minmatchlen_scores(
    hits: np.ndarray,
    n_frames: np.ndarray,
    k: int,
    subtract_hits: np.ndarray | None = None,
) -> np.ndarray:
    """Max contiguous matched length per row — ``evalMinMatchLenScore``
    (SeqEval.h:421-448), fully vectorized over runs.

    Within a maximal run of consecutive filter-hit frames, the first
    *non-subtract* hit sets matchLen = k and every later non-subtract hit
    adds 1; subtract hits leave matchLen unchanged (the reference has no
    reset in that branch — quirk preserved); a miss resets to 0.  So a
    run with t >= 1 counted hits peaks at k + t − 1.
    """
    n = len(n_frames)
    out = np.zeros(n, dtype=np.int64)
    total = int(n_frames.sum())
    if total == 0 or n == 0:
        return out
    seg = _seg_starts(n_frames)
    row_of = np.repeat(np.arange(n, dtype=np.int64), n_frames)
    prev = np.empty(total, dtype=bool)
    prev[0] = False
    prev[1:] = hits[:-1]
    starts_mask = seg[n_frames > 0]
    prev[starts_mask] = False  # runs do not span rows
    run_start = hits & ~prev
    run_id = np.cumsum(run_start) - 1
    hit_pos = np.nonzero(hits)[0]
    if len(hit_pos) == 0:
        return out
    counted = np.ones(len(hit_pos), dtype=np.int64)
    if subtract_hits is not None:
        counted = (~subtract_hits[hit_pos]).astype(np.int64)
    n_runs = int(run_id[hit_pos[-1]]) + 1
    t = np.bincount(run_id[hit_pos], weights=counted, minlength=n_runs).astype(np.int64)
    run_val = np.where(t > 0, k + t - 1, 0)
    run_rows = row_of[np.nonzero(run_start)[0]]
    np.maximum.at(out, run_rows, run_val)
    return out
