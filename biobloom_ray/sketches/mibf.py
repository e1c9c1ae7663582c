"""Multi-index Bloom filter (miBF) — one filter, many reference IDs.

Re-expresses the reference's ``MIBloomFilter<ID>`` (reconstructed from
call sites; the btl_bloomfilter submodule is empty in the studied
checkout — SURVEY.md §2.0) as numpy state:

- a bit vector with interleaved rank information (here: the bit words +
  a cumulative-popcount array giving O(1) ``rank``), mirroring the
  sdsl interleaved vector (``Doc/MultiIndex.md:108-111``);
- a data array with ONE uint16 ID per set bit, indexed by rank
  (``<p>.bf`` payload, ``Doc/MultiIndex.md:112-114``), ID 0 = EMPTY,
  top bit 0x8000 = "saturated" (``Common/Options.h:11``); ≤ 32767
  usable IDs (``Doc/MultiIndex.md:165``);
- an ID ↔ name table (``<p>_ids.txt`` analogue).

Construction follows the reference's 3-phase shape
(``MIBFGen.hpp:132-309``) but replaces the sequential "random fair
ownership on collision" with a DETERMINISTIC, ORDER-FREE equivalent:
slot ownership goes to the candidate minimizing
``splitmix64(slot ⊕ id_salt)`` — a keyed random tie-break that is
associative under min-merge, so distributed partials combine in any
order to the same filter (the reference's own assignment is an RNG
draw, ``Doc/MultiIndex.md`` FAQ "randomly assigned"; ours is the same
distribution, just reproducible).  Saturation keeps the reference
semantics: a (frame, id) whose every slot was lost to other IDs marks
its slots saturated (``MIBFGen.hpp:252-258``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from biobloom_ray.hashing import DEFAULT_SEED, U64, splitmix64

_ONE = U64(1)
_SIX = U64(6)
_M63 = U64(63)
SATURATED = np.uint16(0x8000)
ID_MASK = np.uint16(0x7FFF)
MAX_IDS = 32767


def _popcount64(v: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        v = v - ((v >> _ONE) & U64(0x5555555555555555))
        v = (v & U64(0x3333333333333333)) + ((v >> U64(2)) & U64(0x3333333333333333))
        v = (v + (v >> U64(4))) & U64(0x0F0F0F0F0F0F0F0F)
        return (v * U64(0x0101010101010101)) >> U64(56)


@dataclass
class MIBloomFilter:
    """Query-ready multi-index Bloom filter."""

    m: int
    hash_num: int
    kmer_size: int
    seed: int = DEFAULT_SEED
    words: np.ndarray = None          # uint64[m/64] bit vector
    rank_acc: np.ndarray = None       # int64[m/64] popcount of words[<i]
    ids: np.ndarray = None            # uint16[popcount]
    id_names: list = field(default_factory=list)  # index 1..n -> name
    #: optional spaced seeds ('1'/'0' strings, all of kmer_size length);
    #: when set, probes hash only the care positions of each seed
    #: (stHashIterator mode) and hash_num == len(spaced_seeds)
    spaced_seeds: list = field(default_factory=list)

    def __post_init__(self):
        if self.m % 64 != 0:
            self.m += 64 - self.m % 64
        if self.words is None:
            self.words = np.zeros(self.m // 64, dtype=U64)
        if self.rank_acc is None:
            self.build_rank()

    # -- bit vector ------------------------------------------------------------
    def positions(self, h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
        """(n, hash_num) probe positions — preallocated, column writes
        in place (no np.stack copy; this is the classify hot kernel)."""
        out = np.empty((len(h1), self.hash_num), dtype=np.uint64)
        with np.errstate(over="ignore"):
            m = U64(self.m)
            np.mod(h1, m, out=out[:, 0])
            for i in range(1, self.hash_num):
                np.mod(h1 + U64(i) * h2, m, out=out[:, i])
        return out

    def set_bits(self, pos: np.ndarray) -> None:
        flat = pos.reshape(-1)
        np.bitwise_or.at(self.words, (flat >> _SIX).astype(np.int64),
                         _ONE << (flat & _M63))

    def build_rank(self) -> None:
        pc = _popcount64(self.words).astype(np.int64)
        self.rank_acc = np.zeros(len(self.words), dtype=np.int64)
        if len(pc) > 1:
            np.cumsum(pc[:-1], out=self.rank_acc[1:])
        self.n_slots = int(pc.sum())

    def contains(self, pos: np.ndarray) -> np.ndarray:
        flat = pos.reshape(-1)
        # uint64 fancy indexing is valid — no astype copy in the hot path
        w = self.words[flat >> _SIX]
        return (((w >> (flat & _M63)) & _ONE) == 1).reshape(pos.shape)

    def rank(self, pos: np.ndarray) -> np.ndarray:
        """Slot index of each SET position (rank of the bit). Caller must
        ensure the bits are set."""
        flat = pos.reshape(-1)
        widx = flat >> _SIX
        bit = flat & _M63
        with np.errstate(over="ignore"):
            below = self.words[widx] & ((_ONE << bit) - _ONE)
        return (self.rank_acc[widx] + _popcount64(below).astype(np.int64)
                ).reshape(pos.shape)

    # -- query -----------------------------------------------------------------
    def slot_ids(self, pos: np.ndarray) -> np.ndarray:
        """IDs at probe positions (0 where the bit itself is unset)."""
        present = self.contains(pos)
        out = np.zeros(pos.shape, dtype=np.uint16)
        if present.any():
            slots = self.rank(pos)
            out[present] = self.ids[slots[present]]
        return out

    def id_counts(self) -> np.ndarray:
        """Slots owned per ID (index by id value) — getIDCounts analogue
        (``MIBFGen.hpp:291-307``)."""
        vals = (self.ids & ID_MASK).astype(np.int64)
        return np.bincount(vals, minlength=MAX_IDS + 1)

    def frame_probs(self, allowed_miss: int = 0) -> np.ndarray:
        """Per-ID probability that a RANDOM (non-member) frame falsely
        supports the ID — calcFrameProbs analogue
        (``MIBFClassifier.hpp:87-89``).

        ``allowed_miss = 0`` (default): a frame only reports IDs when all
        h probes land on set bits (Bloom membership), then supports every
        ID owning one of those slots:
        p_id = occupancy^h · (1 − (1 − c_id/slots)^h).

        ``allowed_miss > 0`` (spaced-seed relaxation,
        ``MIBFClassifier.hpp:79-89`` — allowedMiss = hashNum −
        frameMatches): a frame reports when at least h − miss probes are
        set, and an ID is supported when it owns one of the SET slots, so
        p_id = Σ_{j=h−miss..h} C(h,j)·occ^j·(1−occ)^{h−j} ·
        (1 − (1 − c_id/slots)^j)."""
        if not hasattr(self, "n_slots"):
            self.build_rank()
        occ = self.n_slots / self.m
        c = self.id_counts().astype(np.float64)
        share_base = 1.0 - c / max(self.n_slots, 1)
        h = self.hash_num
        miss = int(allowed_miss)
        if miss <= 0:
            return (occ ** h) * (1.0 - np.power(share_base, float(h)))
        out = np.zeros_like(c)
        for j in range(max(h - miss, 0), h + 1):
            w = math.comb(h, j) * (occ ** j) * ((1.0 - occ) ** (h - j))
            out += w * (1.0 - np.power(share_base, float(j)))
        return out

    def pop_saturated(self) -> int:
        return int((self.ids & SATURATED).astype(bool).sum())

    # -- serialization -----------------------------------------------------------
    def frame_hashes(self, texts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(probe positions (total, hash_num), frames per row, per-frame
        content key) for a text column — k-mer double hashing by default,
        care-position-only hashing when ``spaced_seeds`` are set.  The
        content key identifies equal frames for distinct-counting."""
        if self.spaced_seeds:
            from biobloom_ray.hashing import spaced_seed_hashes

            h, nf = spaced_seed_hashes(texts, self.spaced_seeds, self.seed)
            with np.errstate(over="ignore"):
                key = h[:, 0].copy()
                for j in range(1, h.shape[1]):
                    key = splitmix64(key ^ h[:, j])
                return (h % U64(self.m)), nf, key
        from biobloom_ray.hashing import shingle_hashes

        h1, h2, nf = shingle_hashes(texts, self.kmer_size, self.seed)
        return self.positions(h1, h2), nf, h1

    def serialize(self) -> bytes:
        header = json.dumps({
            "m": self.m, "hash_num": self.hash_num, "kmer_size": self.kmer_size,
            "seed": self.seed, "id_names": self.id_names,
            "spaced_seeds": self.spaced_seeds,
        }).encode()
        return (len(header).to_bytes(4, "little") + header
                + self.words.tobytes() + self.ids.tobytes())

    @classmethod
    def deserialize(cls, blob: bytes) -> "MIBloomFilter":
        hlen = int.from_bytes(blob[:4], "little")
        meta = json.loads(bytes(blob[4:4 + hlen]))
        off = 4 + hlen
        nwords = meta["m"] // 64
        words = np.frombuffer(blob[off:off + nwords * 8], dtype=U64).copy()
        ids = np.frombuffer(blob[off + nwords * 8:], dtype=np.uint16).copy()
        out = cls(m=meta["m"], hash_num=meta["hash_num"],
                  kmer_size=meta["kmer_size"], seed=meta["seed"],
                  words=words, rank_acc=None, ids=ids,
                  id_names=meta["id_names"],
                  spaced_seeds=meta.get("spaced_seeds", []))
        return out


def ownership_key(slots: np.ndarray, id_values: np.ndarray,
                  seed: int = 0x0B1) -> np.ndarray:
    """Deterministic 'random fair ownership' key: smaller wins the slot.
    Keyed on (slot, id) so distribution looks uniform per slot; min is
    associative/commutative → order-free distributed assignment."""
    with np.errstate(over="ignore"):
        return splitmix64(slots.astype(U64) * U64(0x9E3779B97F4A7C15)
                          ^ splitmix64(id_values.astype(U64) + U64(seed)))
