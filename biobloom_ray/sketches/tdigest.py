"""t-digest sketch — mergeable quantiles with relative accuracy at the
tails (Dunning & Ertl, "Computing extremely accurate quantiles using
t-digests").  Ships alongside KLL per BASELINE.json north_rule
("t-digest/KLL as mergeable UDAFs").

This is the merging variant: centroids (mean, weight) kept sorted; an
update/merge concatenates incoming points/centroids and recompacts
against the scale-function budget k1(q) = δ/(2π)·asin(2q−1), which
bounds centroid weight near the median and forces singleton centroids
at the tails.  Deterministic (no RNG): compaction is a left-to-right
greedy pass over sorted centroids, so a fixed update/merge order
reproduces exactly; like all compacting quantile sketches the merge is
associative in accuracy, not bit-for-bit (see KLL notes).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np


@dataclass
class TDigest:
    delta: float = 200.0          # compression: more → more centroids
    means: np.ndarray = field(default_factory=lambda: np.empty(0))
    weights: np.ndarray = field(default_factory=lambda: np.empty(0))
    n: int = 0
    _buffer: list = field(default_factory=list)

    def _k(self, q: np.ndarray) -> np.ndarray:
        return self.delta * (np.arcsin(2.0 * np.clip(q, 0, 1) - 1.0)
                             / (2.0 * np.pi) + 0.25)

    def _compress(self, means: np.ndarray, weights: np.ndarray) -> None:
        order = np.argsort(means, kind="stable")
        means, weights = means[order], weights[order]
        total = weights.sum()
        out_m, out_w = [], []
        cur_m, cur_w = means[0], weights[0]
        w_before = 0.0
        for m, w in zip(means[1:], weights[1:]):
            q0 = w_before / total
            q1 = (w_before + cur_w + w) / total
            if self._k(np.array([q1])) - self._k(np.array([q0])) >= 1.0:
                out_m.append(cur_m)
                out_w.append(cur_w)
                w_before += cur_w
                cur_m, cur_w = m, w
            else:  # merge into current centroid
                cur_m = (cur_m * cur_w + m * w) / (cur_w + w)
                cur_w += w
        out_m.append(cur_m)
        out_w.append(cur_w)
        self.means = np.asarray(out_m)
        self.weights = np.asarray(out_w)

    def update(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=np.float64)
        values = values[~np.isnan(values)]
        if len(values) == 0:
            return
        self.n += len(values)
        # pre-aggregate duplicates so the greedy pass sees one centroid
        # per distinct value instead of one per point
        uniq, counts = np.unique(values, return_counts=True)
        all_m = np.concatenate([self.means, uniq])
        all_w = np.concatenate([self.weights, counts.astype(np.float64)])
        self._compress(all_m, all_w)

    def merge(self, other: "TDigest") -> "TDigest":
        if self.delta != other.delta:
            raise ValueError(
                f"merge of incompatible t-digests (delta {self.delta} vs "
                f"{other.delta}) — accuracy budgets would silently mix")
        if other.n == 0:
            return self
        if self.n == 0:
            self.means = other.means.copy()
            self.weights = other.weights.copy()
            self.n = other.n
            return self
        self.n += other.n
        self._compress(np.concatenate([self.means, other.means]),
                       np.concatenate([self.weights, other.weights]))
        return self

    def quantile(self, q: float) -> float:
        if self.n == 0 or len(self.means) == 0:
            return float("nan")
        if len(self.means) == 1:
            return float(self.means[0])
        q = min(max(q, 0.0), 1.0)
        cum = np.cumsum(self.weights) - self.weights / 2.0
        target = q * self.weights.sum()
        if target <= cum[0]:
            return float(self.means[0])
        if target >= cum[-1]:
            return float(self.means[-1])
        i = np.searchsorted(cum, target) - 1
        f = (target - cum[i]) / (cum[i + 1] - cum[i])
        return float(self.means[i] + f * (self.means[i + 1] - self.means[i]))

    def serialize(self) -> bytes:
        header = json.dumps({"delta": self.delta, "n": self.n,
                             "size": len(self.means)}).encode()
        body = np.concatenate([self.means, self.weights]).tobytes()
        return len(header).to_bytes(4, "little") + header + body

    @classmethod
    def deserialize(cls, blob: bytes) -> "TDigest":
        hlen = int.from_bytes(blob[:4], "little")
        meta = json.loads(bytes(blob[4:4 + hlen]))
        flat = np.frombuffer(blob[4 + hlen:], dtype=np.float64)
        sz = meta["size"]
        return cls(delta=meta["delta"], means=flat[:sz].copy(),
                   weights=flat[sz:2 * sz].copy(), n=meta["n"])
