"""KLL quantile sketch — mergeable approximate quantiles.

Graft addition per BASELINE.json north_rule (page-length quantiles).
Based on the published algorithm of Karnin, Lang, Liberty (FOCS 2016):
a hierarchy of compactors where level i items carry weight 2**i; a full
compactor sorts its buffer and promotes every other item (random parity)
to the level above.  Normalized rank error is O(1/k); for the default
k = 200 the (empirically validated) 99%-confidence single-quantile rank
error is well under 0.025, which the test suite asserts.

Merging concatenates compactor levels then re-compresses.  Like every
random-compaction sketch (and unlike Bloom/HLL/CMS whose merges are
bit-exact under reordering), KLL merge is associative *in distribution*,
not bit-for-bit; compaction parity here is drawn from a deterministic
splitmix64 counter so a fixed update/merge order reproduces exactly.
``sketches/fold.fold_partials`` fixes that order: it merges partials in
input order, whichever Ray task finishes first or is retried.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from biobloom_ray.hashing import U64, splitmix64

_C = 2.0 / 3.0  # capacity decay per level below the top
_MIN_CAP = 8


@dataclass
class KLL:
    k: int = 200
    seed: int = 0x5EED
    levels: list = field(default_factory=lambda: [np.empty(0, dtype=np.float64)])
    n: int = 0
    _coin_counter: int = 0

    def _capacity(self, level: int) -> int:
        depth_from_top = len(self.levels) - 1 - level
        return max(int(np.ceil(self.k * (_C ** depth_from_top))), _MIN_CAP)

    def _coin(self) -> int:
        v = splitmix64(np.array([self._coin_counter], dtype=U64)
                       + U64(self.seed))[0]
        self._coin_counter += 1
        return int(v & U64(1))

    def _total_capacity(self) -> int:
        return sum(self._capacity(l) for l in range(len(self.levels)))

    def _size(self) -> int:
        return sum(len(b) for b in self.levels)

    def _compress(self) -> None:
        while self._size() > self._total_capacity():
            for l in range(len(self.levels)):
                if len(self.levels[l]) > self._capacity(l):
                    self._compact_level(l)
                    break
            else:
                # all levels within cap but total over: compact the fullest
                l = int(np.argmax([len(b) for b in self.levels]))
                if len(self.levels[l]) < 2:
                    break
                self._compact_level(l)

    def _compact_level(self, l: int) -> None:
        buf = np.sort(self.levels[l])
        if len(buf) % 2 == 1:
            # keep one leftover item at this level
            keep_last = self._coin()
            if keep_last:
                leftover, buf = buf[-1:], buf[:-1]
            else:
                leftover, buf = buf[:1], buf[1:]
        else:
            leftover = np.empty(0, dtype=np.float64)
        offset = self._coin()
        promoted = buf[offset::2]
        self.levels[l] = leftover
        if l + 1 >= len(self.levels):
            self.levels.append(np.empty(0, dtype=np.float64))
        self.levels[l + 1] = np.concatenate([self.levels[l + 1], promoted])

    def update(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=np.float64)
        values = values[~np.isnan(values)]
        if len(values) == 0:
            return
        # ingest in capacity-sized chunks so level 0 never balloons
        chunk = max(self.k, _MIN_CAP)
        for i in range(0, len(values), chunk):
            self.levels[0] = np.concatenate([self.levels[0], values[i:i + chunk]])
            self.n += len(values[i:i + chunk])
            self._compress()

    def merge(self, other: "KLL") -> "KLL":
        if self.k != other.k:
            raise ValueError("cannot merge KLL sketches with different k")
        while len(self.levels) < len(other.levels):
            self.levels.append(np.empty(0, dtype=np.float64))
        for l, buf in enumerate(other.levels):
            if len(buf):
                self.levels[l] = np.concatenate([self.levels[l], buf])
        self.n += other.n
        # fold the other's coin stream position in so repeated merges of
        # distinct partials keep drawing fresh parities deterministically
        self._coin_counter += other._coin_counter + 1
        self._compress()
        return self

    def _weighted_items(self) -> tuple[np.ndarray, np.ndarray]:
        vals, wts = [], []
        for l, buf in enumerate(self.levels):
            if len(buf):
                vals.append(buf)
                wts.append(np.full(len(buf), 1 << l, dtype=np.int64))
        if not vals:
            return np.empty(0), np.empty(0, dtype=np.int64)
        v = np.concatenate(vals)
        w = np.concatenate(wts)
        order = np.argsort(v, kind="stable")
        return v[order], w[order]

    def quantile(self, q: float | np.ndarray) -> np.ndarray:
        """Approximate quantile(s) for q in [0, 1]."""
        qs = np.atleast_1d(np.asarray(q, dtype=np.float64))
        v, w = self._weighted_items()
        if len(v) == 0:
            empty = np.full(len(qs), np.nan)
            return empty if np.ndim(q) else float(empty[0])
        cum = np.cumsum(w)
        targets = np.clip(qs, 0.0, 1.0) * cum[-1]
        idx = np.searchsorted(cum, targets, side="left")
        idx = np.clip(idx, 0, len(v) - 1)
        out = v[idx]
        return out if np.ndim(q) else float(out[0])

    def rank(self, value: float) -> float:
        """Approximate normalized rank of ``value`` (fraction <= value)."""
        v, w = self._weighted_items()
        if len(v) == 0:
            return 0.0
        cum = np.cumsum(w)
        i = np.searchsorted(v, value, side="right")
        return float(cum[i - 1] / cum[-1]) if i > 0 else 0.0

    def serialize(self) -> bytes:
        meta = {"k": self.k, "seed": self.seed, "n": self.n,
                "coin": self._coin_counter,
                "sizes": [len(b) for b in self.levels]}
        header = json.dumps(meta).encode()
        body = np.concatenate(self.levels) if self._size() else np.empty(0)
        return (len(header).to_bytes(4, "little") + header
                + body.astype(np.float64).tobytes())

    @classmethod
    def deserialize(cls, blob: bytes) -> "KLL":
        hlen = int.from_bytes(blob[:4], "little")
        meta = json.loads(bytes(blob[4:4 + hlen]))
        flat = np.frombuffer(blob[4 + hlen:], dtype=np.float64)
        levels, pos = [], 0
        for s in meta["sizes"]:
            levels.append(flat[pos:pos + s].copy())
            pos += s
        if not levels:
            levels = [np.empty(0, dtype=np.float64)]
        return cls(k=meta["k"], seed=meta["seed"], levels=levels, n=meta["n"],
                   _coin_counter=meta["coin"])
