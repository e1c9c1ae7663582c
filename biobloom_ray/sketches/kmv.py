"""KMV (k minimum values / bottom-k) distinct sketch (Bar-Yossef et al.
2002): the k smallest distinct hash values seen.  Merge is
keep-k-smallest of the union — associative, commutative and idempotent,
so partials fold bit-for-bit under any merge order, and no partial
truncates anything the union would keep.

The state is a deterministic function of the input set, which is what
lets a SQL oracle replay it exactly (``kmv_distinct_userdays``,
``kmv_type_jaccard``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np


@dataclass
class KMV:
    k: int = 64
    hashes: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64), repr=False)

    def update(self, hashes: np.ndarray) -> None:
        """Add int64 hash values; keeps the sorted k smallest distinct."""
        self.hashes = np.union1d(self.hashes,
                                 np.asarray(hashes, np.int64))[:self.k]

    def merge(self, other: "KMV") -> "KMV":
        if self.k != other.k:
            raise ValueError("cannot merge KMV sketches with different k")
        self.update(other.hashes)
        return self

    def serialize(self) -> bytes:
        head = json.dumps({"k": self.k}).encode()
        return len(head).to_bytes(4, "little") + head + self.hashes.tobytes()

    @classmethod
    def deserialize(cls, blob: bytes) -> "KMV":
        hlen = int.from_bytes(blob[:4], "little")
        meta = json.loads(bytes(blob[4:4 + hlen]))
        return cls(k=meta["k"], hashes=np.frombuffer(
            blob[4 + hlen:], dtype=np.int64).copy())
