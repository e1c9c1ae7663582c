"""The count bound in ``eval_batch`` is exact.

``eval_batch`` walks only the rows whose hit/run count can still reach
the accept threshold.  Its decisions must equal the same walk over every
row (``_decide_rows``, no bound) on random hit bitmaps — rows of 0, 1,
fewer than k and at least k frames, every scorer the bound covers, the
edge thresholds, with a subtract filter and with a mask.
"""

import numpy as np
import pytest

from biobloom_ray.scoring import (STREAK_THRESHOLD, _decide_rows,
                                  _thresholds, eval_batch)

K = 5
BF_FPR = 0.05


def _bitmap(rng, n_rows):
    """Rows of 0, 1, < k and >= k frames; per-row hit density from 0 to
    1, laid out in runs so streaks, jumps and rejects all occur."""
    n_frames = rng.choice([0, 1, K - 1, K, 3 * K, 40, 120], n_rows)
    hits = []
    for f in n_frames:
        p = rng.choice([0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0])
        run = rng.integers(1, 8)
        row = np.repeat(rng.random(-(-f // run)) < p, run)[:f]
        hits.append(row)
    return np.concatenate(hits).astype(bool), n_frames.astype(np.int64)


@pytest.mark.parametrize("method", ["simple", "harmonic", "binomial"])
@pytest.mark.parametrize("threshold", [0.0, 0.15, 1.0])
@pytest.mark.parametrize("with_subtract", [False, True])
@pytest.mark.parametrize("with_mask", [False, True])
def test_bound_matches_unbounded_walk(method, threshold, with_subtract,
                                      with_mask):
    rng = np.random.default_rng([len(method), int(threshold * 100),
                                 with_subtract, with_mask])
    for _ in range(8):
        hits, n_frames = _bitmap(rng, 300)
        sub = rng.random(len(hits)) < 0.2 if with_subtract else None
        mask = rng.random(len(hits)) < 0.1 if with_mask else None
        got = eval_batch(hits, n_frames, K, method=method,
                         threshold=threshold, bf_fpr=BF_FPR,
                         subtract_hits=sub, mask=mask)
        masked = hits & ~mask if with_mask else hits
        thres, anti = _thresholds(method, n_frames, threshold, BF_FPR)
        want = _decide_rows(masked, n_frames, K, method, thres, anti, sub,
                            STREAK_THRESHOLD)
        assert (got == want).all()
        assert not got[n_frames == 0].any()
