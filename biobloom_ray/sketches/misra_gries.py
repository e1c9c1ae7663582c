"""Misra–Gries heavy-hitters summary — the deterministic counter-based
frequent-items sketch (Misra & Gries 1982), in its MERGEABLE form
(Agarwal et al., "Mergeable Summaries", PODS 2012): summaries combine by
pointwise count addition over the key union followed by the same
truncate-and-subtract step a batch update uses, and the classic bound
survives any merge tree:

    true − N / (capacity + 1)  ≤  estimate  ≤  true

where N is the total weight seen across all merged inputs.  When
``capacity ≥`` the number of distinct keys, NO truncation ever fires and
every estimate is exactly the true count under ANY merge order — the
exact regime the SQL oracle pins (the same trick the repo's Bloom
`contains` tests use: prove the sketch path exact where an oracle can
exist, prove the bound where it can't).

The whole summary is two numpy arrays (uint64 keys, int64 counts); a
batch update is one concatenate + groupby-sum + one partial-sort — no
per-item Python.  Graft addition per BASELINE.json north_rule (same
merge-associative interface as HLL/CMS/KLL/t-digest/Bloom; reference
analogue: BioBloomMaker's redundant-counter summary, BioBloomMaker.cpp
insert-and-count loop).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np


@dataclass
class MisraGries:
    capacity: int = 1024
    keys: np.ndarray = field(default=None, repr=False)    # uint64
    counts: np.ndarray = field(default=None, repr=False)  # int64
    n: int = 0  # total weight observed (pre-truncation)

    def __post_init__(self):
        if self.keys is None:
            self.keys = np.empty(0, dtype=np.uint64)
        if self.counts is None:
            self.counts = np.empty(0, dtype=np.int64)

    # -- core ----------------------------------------------------------------

    def _combine(self, keys: np.ndarray, counts: np.ndarray) -> None:
        """Pointwise-add (key, count) pairs, then enforce capacity with
        the truncate-and-subtract step.  Deterministic for a given
        input MULTISET: the summary only depends on summed counts and
        the (capacity+1)-th largest value, never on arrival order."""
        k = np.concatenate([self.keys, keys.astype(np.uint64)])
        c = np.concatenate([self.counts, counts.astype(np.int64)])
        uk, inv = np.unique(k, return_inverse=True)
        uc = np.zeros(len(uk), dtype=np.int64)
        np.add.at(uc, inv, c)
        if len(uk) > self.capacity:
            # subtract the (capacity+1)-th largest count from everyone
            # and drop the non-positive survivors (Misra–Gries step)
            kth = np.partition(uc, len(uc) - self.capacity - 1)[
                len(uc) - self.capacity - 1]
            uc = uc - kth
            keep = uc > 0
            uk, uc = uk[keep], uc[keep]
        self.keys, self.counts = uk, uc

    def update(self, keys: np.ndarray, weights: np.ndarray | int = 1) -> None:
        """Add pre-hashed 64-bit keys with optional per-key weights."""
        if len(keys) == 0:
            return
        if np.isscalar(weights):
            w = np.full(len(keys), int(weights), dtype=np.int64)
        else:
            w = np.asarray(weights, dtype=np.int64)
        self.n += int(w.sum())
        self._combine(np.asarray(keys, dtype=np.uint64), w)

    def merge(self, other: "MisraGries") -> "MisraGries":
        assert self.capacity == other.capacity, "capacity mismatch"
        self.n += other.n
        self._combine(other.keys, other.counts)
        return self

    def query(self, keys: np.ndarray) -> np.ndarray:
        """Lower-bound estimates (0 for untracked keys)."""
        if len(self.keys) == 0:
            return np.zeros(len(keys), dtype=np.int64)
        order = np.argsort(self.keys)
        sk = self.keys[order]
        sc = self.counts[order]
        pos = np.searchsorted(sk, np.asarray(keys, dtype=np.uint64))
        pos_c = np.clip(pos, 0, len(sk) - 1)
        hit = sk[pos_c] == np.asarray(keys, dtype=np.uint64)
        return np.where(hit, sc[pos_c], 0).astype(np.int64)

    def error_bound(self) -> int:
        """Published bound: estimates under-count by at most
        floor(N / (capacity + 1))."""
        return self.n // (self.capacity + 1)

    # -- serialization ---------------------------------------------------------

    def serialize(self) -> bytes:
        head = json.dumps({"capacity": self.capacity, "n": self.n,
                           "m": len(self.keys)}).encode()
        return (len(head).to_bytes(4, "little") + head
                + self.keys.tobytes() + self.counts.tobytes())

    @classmethod
    def deserialize(cls, blob: bytes) -> "MisraGries":
        hlen = int.from_bytes(blob[:4], "little")
        meta = json.loads(bytes(blob[4:4 + hlen]))
        m = meta["m"]
        off = 4 + hlen
        keys = np.frombuffer(blob[off:off + 8 * m], dtype=np.uint64).copy()
        counts = np.frombuffer(blob[off + 8 * m:off + 16 * m],
                               dtype=np.int64).copy()
        return cls(capacity=meta["capacity"], keys=keys, counts=counts,
                   n=meta["n"])
