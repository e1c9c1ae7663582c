"""HyperLogLog sketch — mergeable approximate distinct counter.

Graft addition per BASELINE.json north_rule (distinct-shingle cardinality
per lang); plays the role the reference's Bloom-based ``num_entries``
lower bound plays in ``BloomFilterGenerator.h:171-178`` /
``README.md:190``, but with the published HLL error bound
1.04 / sqrt(2**p) (Flajolet, Fusy, Gandouet, Meunier 2007).

Merge = element-wise register max → associative, commutative, idempotent
(bit-exact under any merge order).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from biobloom_ray.hashing import U64

_ONE = U64(1)


def _popcount64(v: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        v = v - ((v >> _ONE) & U64(0x5555555555555555))
        v = (v & U64(0x3333333333333333)) + ((v >> U64(2)) & U64(0x3333333333333333))
        v = (v + (v >> U64(4))) & U64(0x0F0F0F0F0F0F0F0F)
        return (v * U64(0x0101010101010101)) >> U64(56)


def _bit_length64(v: np.ndarray) -> np.ndarray:
    """Per-element bit length of uint64 via smear + popcount (no float)."""
    v = v.copy()
    with np.errstate(over="ignore"):
        for s in (1, 2, 4, 8, 16, 32):
            v |= v >> U64(s)
    return _popcount64(v)


@dataclass
class HLL:
    """Dense HyperLogLog with 2**p uint8 registers."""

    p: int = 14
    registers: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if not (4 <= self.p <= 18):
            raise ValueError("p must be in [4, 18]")
        if self.registers is None:
            self.registers = np.zeros(1 << self.p, dtype=np.uint8)

    @property
    def m(self) -> int:
        return 1 << self.p

    def update(self, hashes: np.ndarray) -> None:
        """Add pre-hashed 64-bit values (vectorized)."""
        if len(hashes) == 0:
            return
        p = U64(self.p)
        idx = (hashes >> (U64(64) - p)).astype(np.int64)
        low_bits = hashes & ((_ONE << (U64(64) - p)) - _ONE)
        # rank = leading zeros within the (64-p)-bit window + 1
        rank = ((U64(64) - p) - _bit_length64(low_bits) + _ONE).astype(np.uint8)
        np.maximum.at(self.registers, idx, rank)

    def merge(self, other: "HLL") -> "HLL":
        if self.p != other.p:
            raise ValueError("cannot merge HLLs with different p")
        np.maximum(self.registers, other.registers, out=self.registers)
        return self

    def estimate(self) -> float:
        m = self.m
        if m >= 128:
            alpha = 0.7213 / (1.0 + 1.079 / m)
        elif m == 64:
            alpha = 0.709
        elif m == 32:
            alpha = 0.697
        else:
            alpha = 0.673
        inv = np.ldexp(1.0, -self.registers.astype(np.int64)).sum()
        e = alpha * m * m / inv
        if e <= 2.5 * m:
            zeros = int((self.registers == 0).sum())
            if zeros:
                return m * np.log(m / zeros)
        return float(e)

    @property
    def relative_error(self) -> float:
        return 1.04 / (self.m ** 0.5)

    def serialize(self) -> bytes:
        header = json.dumps({"p": self.p}).encode()
        return len(header).to_bytes(4, "little") + header + self.registers.tobytes()

    @classmethod
    def deserialize(cls, blob: bytes) -> "HLL":
        hlen = int.from_bytes(blob[:4], "little")
        meta = json.loads(bytes(blob[4:4 + hlen]))
        regs = np.frombuffer(blob[4 + hlen:], dtype=np.uint8).copy()
        if len(regs) != 1 << meta["p"]:
            raise ValueError(
                f"corrupt HLL blob: {len(regs)} registers for p={meta['p']} "
                f"(expected {1 << meta['p']})")
        return cls(p=meta["p"], registers=regs)
