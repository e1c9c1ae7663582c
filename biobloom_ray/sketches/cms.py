"""Count-Min sketch — mergeable approximate frequency counter.

Graft addition per BASELINE.json north_rule (heavy-hitter shingles /
tokens).  Published bound (Cormode & Muthukrishnan 2005): with width
w = ceil(e/eps) and depth d = ceil(ln(1/delta)), the estimate
over-counts by at most eps * N with probability >= 1 - delta.

Merge = element-wise add → associative and commutative (bit-exact under
any merge order for integer counts).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from biobloom_ray.hashing import U64, splitmix64


@dataclass
class CountMinSketch:
    depth: int = 5
    width: int = 2048
    seed: int = 0xC0FFEE
    counts: np.ndarray = field(default=None, repr=False)  # int64[depth, width]
    n: int = 0  # total weight added

    def __post_init__(self):
        if self.counts is None:
            self.counts = np.zeros((self.depth, self.width), dtype=np.int64)
        self._row_seeds = splitmix64(
            np.arange(self.depth, dtype=U64) + U64(self.seed))

    @classmethod
    def for_error(cls, eps: float, delta: float, seed: int = 0xC0FFEE) -> "CountMinSketch":
        width = int(math.ceil(math.e / eps))
        depth = int(math.ceil(math.log(1.0 / delta)))
        return cls(depth=max(depth, 1), width=max(width, 16), seed=seed)

    def _indices(self, keys: np.ndarray, row: int) -> np.ndarray:
        with np.errstate(over="ignore"):
            return (splitmix64(keys ^ self._row_seeds[row])
                    % U64(self.width)).astype(np.int64)

    def update(self, keys: np.ndarray, weights: np.ndarray | int = 1) -> None:
        """Add pre-hashed 64-bit keys with optional per-key weights."""
        if len(keys) == 0:
            return
        if np.isscalar(weights):
            w = np.full(len(keys), weights, dtype=np.int64)
        else:
            w = np.asarray(weights, dtype=np.int64)
        for r in range(self.depth):
            np.add.at(self.counts[r], self._indices(keys, r), w)
        self.n += int(w.sum())

    def query(self, keys: np.ndarray) -> np.ndarray:
        """Point estimates (min over rows); upper bound on true count."""
        if len(keys) == 0:
            return np.empty(0, dtype=np.int64)
        est = self.counts[0][self._indices(keys, 0)].copy()
        for r in range(1, self.depth):
            np.minimum(est, self.counts[r][self._indices(keys, r)], out=est)
        return est

    def merge(self, other: "CountMinSketch") -> "CountMinSketch":
        if (self.depth, self.width, self.seed) != (other.depth, other.width, other.seed):
            raise ValueError("cannot merge incompatible CMS")
        self.counts += other.counts
        self.n += other.n
        return self

    def inner_product(self, other: "CountMinSketch") -> int:
        """Join-size / inner-product estimate  min_r Σ_j a[r,j]·b[r,j]
        (Cormode & Muthukrishnan 2005 §4.2): an UPPER bound on the true
        Σ_k f_a(k)·f_b(k), within ε·N_a·N_b of it w.p. ≥ 1−δ.  Both
        sketches must share (depth, width, seed)."""
        if (self.depth, self.width, self.seed) != (
                other.depth, other.width, other.seed):
            raise ValueError("cannot inner-product incompatible CMS")
        return int((self.counts.astype(np.object_)
                    * other.counts).sum(axis=1).min())

    @property
    def eps(self) -> float:
        return math.e / self.width

    @property
    def delta(self) -> float:
        return math.exp(-self.depth)

    def serialize(self) -> bytes:
        header = json.dumps({"depth": self.depth, "width": self.width,
                             "seed": self.seed, "n": self.n}).encode()
        return len(header).to_bytes(4, "little") + header + self.counts.tobytes()

    @classmethod
    def deserialize(cls, blob: bytes) -> "CountMinSketch":
        hlen = int.from_bytes(blob[:4], "little")
        meta = json.loads(bytes(blob[4:4 + hlen]))
        counts = np.frombuffer(blob[4 + hlen:], dtype=np.int64).reshape(
            meta["depth"], meta["width"]).copy()
        return cls(depth=meta["depth"], width=meta["width"], seed=meta["seed"],
                   counts=counts, n=meta["n"])
