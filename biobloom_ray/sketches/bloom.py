"""Mergeable Bloom filter sketch (numpy bit array).

Re-expresses the reference's ``btl_bloomfilter`` BloomFilter API (the
submodule is empty in the studied checkout; the API is reconstructed from
call sites — ``BioBloomMaker/BloomFilterGenerator.cpp:63,71,101``,
``Common/SeqEval.h:54``, ``Tests/BloomFilterTests.cpp:44-117``) as a
vectorized, *mergeable* sketch:

- ``insert(h1, h2)``           — set h bits per entry, batch-vectorized
                                  (``insertAndCheck``-style distinct /
                                  redundant counters come back from it,
                                  per ``BloomFilterGenerator.h:166-183``)
- ``contains(h1, h2)``         — batch membership with early-exit
- ``merge(other)``             — bitwise OR; associative + commutative,
                                  so partial filters built per Ray block
                                  combine in any order bit-for-bit
                                  (checked by compatibility of (m,h,k,seed)
                                  like ``BloomFilterGenerator.h:83-99``)
- ``to_bytes`` / ``from_bytes``— raw bit dump, byte length m/8 with
                                  m % 64 == 0 (size asserts in
                                  ``Tests/BloomFilterTests.cpp:73-78``)

Sizing and FPR formulas follow ``Common/BloomFilterInfo.h:57-76`` and
``Common/BloomFilterInfo.cpp:172-178``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from biobloom_ray.hashing import DEFAULT_SEED, U64

_ONE = U64(1)
_SIX = U64(6)
_M63 = U64(63)
#: probe/insert chunk: keeps per-probe temporaries (~6 arrays × 8 B) inside
#: the per-core cache instead of streaming them through DRAM, which every
#: worker of a node shares when each runs this kernel at once
_CHUNK = 1 << 15
#: bit writes per filter bit (n · hash_num / m) from which ``insert`` sets
#: its positions in an m-byte scratch and packs it, instead of
#: ``np.bitwise_or.at`` on the words: the byte path costs O(m) to pack, so
#: below this load a small batch into a big filter stays on ``or.at``
#: (BASELINE.md "Build insert kernel" has the crossover)
_BYTE_SCATTER_MIN_LOAD = 1 / 32
#: largest filter (bits) the byte path takes: its scratch is one byte per
#: bit, so this bounds it at 64 MiB per insert; a bigger filter stays on
#: ``or.at``, whose working set is one chunk of positions
_BYTE_SCATTER_MAX_BITS = 1 << 26


def calc_optimal_size(entries: int, fpr: float, hash_num: int) -> int:
    """m bits for n entries at target fpr with h hashes, rounded up to a
    multiple of 64 (``BloomFilterInfo.h:57-65``)."""
    if entries < 1:
        entries = 1
    non64 = int(
        -float(entries) * float(hash_num)
        / math.log(1.0 - math.pow(fpr, 1.0 / float(hash_num)))
    )
    return non64 + (64 - non64 % 64)


def calc_optimal_hash_num(fpr: float) -> int:
    """h = -log(fpr)/log(2), floored (``BloomFilterInfo.h:73-76``)."""
    return max(int(-math.log(fpr) / math.log(2)), 1)


def calc_approx_fpr(size: int, num_entries: int, hash_num: int) -> float:
    """(1 - (1 - 1/m)^{n h})^h (``BloomFilterInfo.cpp:172-178``)."""
    return math.pow(
        1.0 - math.pow(1.0 - 1.0 / float(size), float(num_entries) * hash_num),
        float(hash_num),
    )


def calc_redundancy_fpr(size: int, num_entries: int, hash_num: int) -> float:
    """Mean FPR over the insertion stream (``BloomFilterInfo.cpp:183-191``).

    The reference loops i = 1..n-1 summing calcApproxFPR(m, i, h); we
    vectorize it, and above 10**6 entries approximate the sum by sampling
    (the summand is smooth and monotone) — the value is reporting-only.
    """
    if num_entries <= 1:
        return calc_approx_fpr(size, 1, hash_num)
    n = num_entries
    if n <= 1_000_000:
        i = np.arange(1, n, dtype=np.float64)
        total = np.power(
            1.0 - np.power(1.0 - 1.0 / size, i * hash_num), float(hash_num)
        ).sum()
        return float(total) / n
    # trapezoid over a log-spaced sample of the same summand
    xs = np.unique(np.geomspace(1, n - 1, 4096).astype(np.int64))
    ys = np.power(1.0 - np.power(1.0 - 1.0 / size, xs * float(hash_num)), float(hash_num))
    total = np.trapz(ys, xs)
    return float(total) / n


@dataclass
class BloomFilter:
    """Fixed-size Bloom filter over 64-bit (h1, h2) double-hash pairs."""

    m: int  # number of bits; multiple of 64
    hash_num: int
    kmer_size: int
    seed: int = DEFAULT_SEED
    filter_id: str = ""
    words: np.ndarray = field(default=None, repr=False)  # uint64[m/64]
    n_inserted: int = 0      # total insert calls (entries streamed in)
    n_distinct: int = 0      # ``insertAndCheck`` returned not-present
    n_redundant: int = 0     # already present at insert time

    def __post_init__(self):
        if self.m % 64 != 0:
            self.m += 64 - self.m % 64
        if self.words is None:
            self.words = np.zeros(self.m // 64, dtype=U64)

    # -- construction helpers -------------------------------------------------
    @classmethod
    def for_entries(cls, entries: int, fpr: float, kmer_size: int,
                    hash_num: int | None = None, seed: int = DEFAULT_SEED,
                    filter_id: str = "") -> "BloomFilter":
        h = hash_num or calc_optimal_hash_num(fpr)
        m = calc_optimal_size(entries, fpr, h)
        return cls(m=m, hash_num=h, kmer_size=kmer_size, seed=seed,
                   filter_id=filter_id)

    # -- core ops --------------------------------------------------------------
    def _positions(self, h1: np.ndarray, h2: np.ndarray):
        """Yield every bit position of a batch: ``(h1 + i·h2) mod m``
        (the sum wraps mod 2**64, so it is kept as a running sum of h2)
        as one uint64 array per ``_CHUNK`` entries and hash i.  The
        array is a reused buffer that the caller may overwrite: the next
        one is computed from the running sum."""
        n = len(h1)
        mm = U64(self.m)
        sum_buf = np.empty(min(n, _CHUNK), dtype=U64)
        idx_buf = np.empty(min(n, _CHUNK), dtype=U64)
        for lo in range(0, n, _CHUNK):
            ch1 = h1[lo:lo + _CHUNK]
            ch2 = h2[lo:lo + _CHUNK]
            acc, ix = sum_buf[:len(ch1)], idx_buf[:len(ch1)]
            np.copyto(acc, ch1)
            for i in range(self.hash_num):
                if i:
                    np.add(acc, ch2, out=acc)
                # acc mod m as acc - (acc // m)·m (see _probe_slices)
                np.floor_divide(acc, mm, out=ix)
                np.multiply(ix, mm, out=ix)
                np.subtract(acc, ix, out=ix)
                yield ix

    def insert(self, h1: np.ndarray, h2: np.ndarray) -> tuple[int, int]:
        """Insert a batch; returns (distinct, redundant) counts.

        Mirrors ``insertAndCheck`` accounting
        (``BloomFilterGenerator.h:166-183``): an entry already fully
        present counts as redundant, otherwise distinct.  Within a batch,
        duplicates of the same hash pair count once as distinct and the
        rest as redundant (the sequential reference would see the bits
        already set).  Divergence from strict sequential order: a *new*
        entry whose bits happen to be fully covered by other new entries
        in the same batch is still counted distinct here; at default FPRs
        this is vanishingly rare and only affects the reported counters,
        never the bit array.

        Counters: an h1 is judged by the h2 of its first occurrence.  Into
        an empty filter (no inserts and no bit set — ``intersect`` and
        ``deserialize`` can give ``n_inserted == 0`` with bits set) no
        entry is present, so distinct is the number of distinct h1s, read
        off one sort; otherwise the first occurrences are probed with
        :meth:`contains`.

        Bits: from ``_BYTE_SCATTER_MIN_LOAD`` bit writes per filter bit,
        into a filter of at most ``_BYTE_SCATTER_MAX_BITS`` bits, the
        positions are set in an m-byte scratch that is packed and ORed
        into the words; otherwise they are ORed into the words with
        ``np.bitwise_or.at``, and no m-sized scratch is made.  Both give
        the same words.
        """
        n = len(h1)
        if n == 0:
            return (0, 0)
        if self.n_inserted == 0 and not self.words.any():
            srt = np.sort(h1)
            distinct = 1 + int(np.count_nonzero(srt[1:] != srt[:-1]))
        else:
            # distinct h1s and their first index, as np.unique(h1,
            # return_index=True) but with no stable sort: a run's least
            # index
            order = np.argsort(h1)
            srt = h1[order]
            starts = np.flatnonzero(
                np.concatenate(([True], srt[1:] != srt[:-1])))
            first_idx = np.minimum.reduceat(order, starts)
            pre = self.contains(srt[starts], h2[first_idx])
            distinct = int((~pre).sum())
        redundant = n - distinct
        if (n * self.hash_num >= _BYTE_SCATTER_MIN_LOAD * self.m
                and self.m <= _BYTE_SCATTER_MAX_BITS):
            self._scatter_bytes(h1, h2)
        else:
            self._scatter_words(h1, h2)
        self.n_inserted += n
        self.n_distinct += distinct
        self.n_redundant += redundant
        return distinct, redundant

    def _scatter_bytes(self, h1: np.ndarray, h2: np.ndarray) -> None:
        """Set the batch's positions to 1 in an m-byte scratch, pack it
        (little bit order: position p is bit p % 64 of word p // 64) and
        OR it into the words."""
        scratch = np.zeros(self.m, dtype=np.uint8)
        for ix in self._positions(h1, h2):
            scratch[ix.view(np.int64)] = 1  # positions < m < 2**63
        packed = np.packbits(scratch, bitorder="little")
        np.bitwise_or(self.words, packed.view("<u8"), out=self.words)

    def _scatter_words(self, h1: np.ndarray, h2: np.ndarray) -> None:
        """OR the batch's positions into the words with
        ``np.bitwise_or.at``."""
        bit_buf = np.empty(min(len(h1), _CHUNK), dtype=U64)
        for ix in self._positions(h1, h2):
            bits = bit_buf[:len(ix)]
            np.bitwise_and(ix, _M63, out=bits)
            np.left_shift(_ONE, bits, out=bits)
            np.right_shift(ix, _SIX, out=ix)
            np.bitwise_or.at(self.words, ix, bits)

    def contains(self, h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
        """Vectorized membership: AND over h bit probes, with a shrinking
        candidate set (early exit per probe round).  Processed in
        cache-sized chunks, and every per-round temporary is computed
        into two reused scratch buffers (``out=`` kernels) — per probe
        round only the word gather and one small bool allocate, so the
        L3/DRAM write traffic stays flat when 32 workers share a socket
        (the measured 8→32 limiter, BASELINE.md)."""
        n = len(h1)
        out = np.zeros(n, dtype=bool)
        if n == 0:
            return out
        mm = U64(self.m)
        idx_buf = np.empty(min(n, _CHUNK), dtype=U64)
        sh_buf = np.empty(min(n, _CHUNK), dtype=U64)
        with np.errstate(over="ignore"):
            for lo in range(0, n, _CHUNK):
                sl = slice(lo, min(lo + _CHUNK, n))
                ch1, ch2 = h1[sl], h2[sl]
                alive = np.arange(lo, sl.stop, dtype=np.int64)
                for i in range(self.hash_num):
                    k = len(ch1)
                    ix, s = idx_buf[:k], sh_buf[:k]
                    np.multiply(ch2, U64(i), out=ix)
                    np.add(ix, ch1, out=ix)
                    np.mod(ix, mm, out=ix)
                    np.bitwise_and(ix, _M63, out=s)     # bit offsets
                    np.right_shift(ix, _SIX, out=ix)    # word indices
                    hit = self.words[ix]
                    np.right_shift(hit, s, out=hit)
                    np.bitwise_and(hit, _ONE, out=hit)
                    keep = hit != 0
                    alive = alive[keep]
                    if len(alive) == 0:
                        break
                    ch1 = ch1[keep]
                    ch2 = ch2[keep]
                else:
                    out[alive] = True
                    continue
        return out

    # -- merge (the UDAF combine) ----------------------------------------------
    def compatible(self, other: "BloomFilter") -> bool:
        return (self.m == other.m and self.hash_num == other.hash_num
                and self.kmer_size == other.kmer_size
                and self.seed == other.seed)

    def merge(self, other: "BloomFilter") -> "BloomFilter":
        """Bitwise OR in place (associative + commutative).

        Compatibility check mirrors ``checkFilters``
        (``BloomFilterGenerator.h:83-99``).
        """
        if not self.compatible(other):
            raise ValueError(
                f"incompatible Bloom filters: "
                f"(m={self.m},h={self.hash_num},k={self.kmer_size},seed={self.seed}) vs "
                f"(m={other.m},h={other.hash_num},k={other.kmer_size},seed={other.seed})")
        np.bitwise_or(self.words, other.words, out=self.words)
        self.n_inserted += other.n_inserted
        self.n_distinct += other.n_distinct
        self.n_redundant += other.n_redundant
        return self

    def intersect(self, other: "BloomFilter") -> "BloomFilter":
        """Bitwise AND into a NEW filter — the standard approximate
        set intersection: contains every element of A∩B (no false
        negatives) plus coincidental bit overlaps, so any cardinality
        read off it OVER-estimates |A∩B|.  Same compatibility contract
        as merge; counters are invalidated (set to 0) because AND has
        no meaningful element count."""
        if not self.compatible(other):
            raise ValueError("incompatible Bloom filters for intersect")
        out = BloomFilter(m=self.m, hash_num=self.hash_num,
                          kmer_size=self.kmer_size, seed=self.seed,
                          filter_id=f"{self.filter_id}&{other.filter_id}",
                          words=np.bitwise_and(self.words, other.words))
        return out

    def estimate_cardinality(self) -> float:
        """Swamidass–Baldi estimate of the number of distinct inserted
        elements from the occupancy: n̂ = −(m/h)·ln(1 − t/m) with t the
        popcount (J. Chem. Inf. Model. 2007, eq. 4)."""
        t = self.popcount()
        if t >= self.m:
            return float("inf")
        import math

        return -(self.m / self.hash_num) * math.log(1.0 - t / self.m)

    # -- stats -------------------------------------------------------------------
    def popcount(self) -> int:
        # SWAR popcount per 64-bit word, vectorized
        v = self.words.copy()
        with np.errstate(over="ignore"):
            v = v - ((v >> _ONE) & U64(0x5555555555555555))
            v = (v & U64(0x3333333333333333)) + ((v >> U64(2)) & U64(0x3333333333333333))
            v = (v + (v >> U64(4))) & U64(0x0F0F0F0F0F0F0F0F)
            v = (v * U64(0x0101010101010101)) >> U64(56)
        return int(v.sum())

    def fpr_realized(self) -> float:
        """Occupancy-based actual FPR (getFPRPrecompute — used by binomial
        scoring, ``SeqEval.h:225``): (popcount/m)^h."""
        return (self.popcount() / self.m) ** self.hash_num

    def fpr_approx(self) -> float:
        return calc_approx_fpr(self.m, max(self.n_distinct, 1), self.hash_num)

    # -- serialization -------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Raw bit dump, exactly m/8 bytes (reference ``storeFilter``,
        size assert ``Tests/BloomFilterTests.cpp:73-78``)."""
        return self.words.tobytes()

    def info_dict(self, desired_fpr: float | None = None,
                  expected_entries: int | None = None,
                  sources: list[str] | None = None) -> dict:
        """JSON twin of the reference INI sidecar
        (``Common/BloomFilterInfo.cpp:93-112``)."""
        return {
            "user_input_options": {
                "filter_id": self.filter_id,
                "kmer_size": self.kmer_size,
                "desired_false_positve_rate": desired_fpr,
                "number_of_hash_functions": self.hash_num,
                "expected_num_entries": expected_entries,
                "source": sources or [],
                "hash_seed": self.seed,
            },
            "runtime_options": {
                "size": self.m,
                "num_entries": self.n_distinct,
                "approximate_false_positive_rate": self.fpr_approx(),
                "approximate_false_positive_rate_precompute": self.fpr_realized(),
                "redundant_sequences": self.n_redundant,
                "redundant_fpr": calc_redundancy_fpr(
                    self.m, max(self.n_distinct, 1), self.hash_num),
            },
        }

    def serialize(self) -> bytes:
        header = json.dumps({
            "m": self.m, "hash_num": self.hash_num, "kmer_size": self.kmer_size,
            "seed": self.seed, "filter_id": self.filter_id,
            "n_inserted": self.n_inserted, "n_distinct": self.n_distinct,
            "n_redundant": self.n_redundant,
        }).encode()
        return len(header).to_bytes(4, "little") + header + self.to_bytes()

    @classmethod
    def deserialize(cls, blob: bytes) -> "BloomFilter":
        hlen = int.from_bytes(blob[:4], "little")
        meta = json.loads(bytes(blob[4:4 + hlen]))
        words = np.frombuffer(blob[4 + hlen:], dtype=U64).copy()
        bf = cls(m=meta["m"], hash_num=meta["hash_num"],
                 kmer_size=meta["kmer_size"], seed=meta["seed"],
                 filter_id=meta["filter_id"], words=words,
                 n_inserted=meta["n_inserted"], n_distinct=meta["n_distinct"],
                 n_redundant=meta["n_redundant"])
        assert len(bf.words) * 64 == bf.m
        return bf


def _word_dtype(n_filters: int) -> np.dtype:
    """Narrowest unsigned word holding one bit per filter."""
    for dt in (np.uint8, np.uint16, np.uint32, np.uint64):
        if n_filters <= np.iinfo(dt).bits:
            return np.dtype(dt)
    raise ValueError("a filter bank holds at most 64 filters")


# words (64 bit positions each) of every filter unpacked per block while
# slicing, so the scratch beyond the slices is a few MB at any m
_SLICE_BLOCK = 1 << 14


def _bit_slices(group: list[BloomFilter]) -> np.ndarray:
    """Bit-sliced layout of filters sharing (m, hash_num): word p has bit
    j set iff bit p of ``group[j]`` is set."""
    dt = _word_dtype(len(group))
    n_words = group[0].m // 64
    out = np.zeros(group[0].m, dtype=dt)
    for lo in range(0, n_words, _SLICE_BLOCK):
        hi = min(lo + _SLICE_BLOCK, n_words)
        dst = out[lo * 64:hi * 64]
        for j, bf in enumerate(group):
            bits = np.unpackbits(
                bf.words[lo:hi].astype("<u8", copy=False).view(np.uint8),
                bitorder="little")
            dst |= bits.astype(dt, copy=False) << dt.type(j)
    return out


class FilterBank:
    """A categorize bank probed once per frame instead of once per filter.

    Filters with the same (m, hash_num) probe the same positions, so such
    a group is stored bit-sliced (the signature layout of BitFunnel,
    Goodwin et al., SIGIR 2017): one word per bit position, one bit per
    group member.  :meth:`probe` computes each round's positions once,
    gathers one word per position and ANDs the ``hash_num`` words, so a
    group of F filters costs one filter's probes — and gives exactly F
    ``contains`` results.  A one-filter group keeps
    :meth:`BloomFilter.contains`, so a bank whose filters all differ in
    (m, hash_num) probes exactly as many positions as F separate filters.

    Each group owns a contiguous run of bits of the probe word, so its
    word is ORed in with one shift; ``bit[i]`` is the bit of
    ``filters[i]``.  The bank is a snapshot that owns every bit it
    probes: the slices, and a private copy of a lone filter's words.  It
    keeps no reference to the packed words of a sliced filter.
    """

    def __init__(self, filters: list[BloomFilter]):
        self.dtype = _word_dtype(len(filters))
        groups: dict[tuple[int, int], list[int]] = {}
        for i, bf in enumerate(filters):
            groups.setdefault((bf.m, bf.hash_num), []).append(i)
        self.bit = [0] * len(filters)
        self._groups = []
        shift = 0
        for (m, hash_num), idx in groups.items():
            for j, i in enumerate(idx):
                self.bit[i] = shift + j
            if len(idx) == 1:
                bf = filters[idx[0]]
                src = replace(bf, words=np.array(bf.words, copy=True))
            else:
                src = _bit_slices([filters[i] for i in idx])
            self._groups.append((shift, m, hash_num, src))
            shift += len(idx)

    def probe(self, h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
        """Per-frame hit word: bit ``bit[i]`` is set iff
        ``filters[i].contains`` the frame."""
        word = np.zeros(len(h1), dtype=self.dtype)
        for shift, m, hash_num, src in self._groups:
            if isinstance(src, BloomFilter):
                gw = src.contains(h1, h2).view(np.uint8)
            else:
                gw = _probe_slices(src, m, hash_num, h1, h2)
            word |= gw.astype(self.dtype, copy=False) << self.dtype.type(shift)
        return word

    def unpack(self, word: np.ndarray) -> list[np.ndarray]:
        """Per-filter bool hit arrays of a :meth:`probe` word."""
        return [(word & self.dtype.type(1 << b)) != 0 for b in self.bit]


def _probe_slices(slices: np.ndarray, m: int, hash_num: int,
                  h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
    """AND of the ``hash_num`` gathered words per frame, in the cache-sized
    chunks of :meth:`BloomFilter.contains`.  Frames whose word is 0 are
    dropped from the loop once at most half of a chunk's frames are left
    (dropping costs more than probing a few dead frames), and a chunk
    stops as soon as every word is 0."""
    n = len(h1)
    out = np.zeros(n, dtype=slices.dtype)
    mm = U64(m)
    idx_buf = np.empty(min(n, _CHUNK), dtype=U64)
    quo_buf = np.empty(min(n, _CHUNK), dtype=U64)
    with np.errstate(over="ignore"):
        for lo in range(0, n, _CHUNK):
            hi = min(lo + _CHUNK, n)
            ch1, ch2 = h1[lo:hi], h2[lo:hi]
            alive = None
            acc = None
            for i in range(hash_num):
                k = len(ch1)
                ix, q = idx_buf[:k], quo_buf[:k]
                np.multiply(ch2, U64(i), out=ix)
                np.add(ix, ch1, out=ix)
                # ix mod m as ix - (ix // m)·m: numpy divides by a scalar
                # about twice as fast as it takes the remainder
                np.floor_divide(ix, mm, out=q)
                np.multiply(q, mm, out=q)
                np.subtract(ix, q, out=ix)
                w = slices.take(ix.view(np.int64))  # positions < m < 2**63
                if acc is None:
                    acc = w
                else:
                    np.bitwise_and(acc, w, out=acc)
                n_keep = np.count_nonzero(acc)
                if n_keep == 0:
                    acc = None
                    break
                if 2 * n_keep <= k:
                    keep = acc != 0
                    alive = (np.nonzero(keep)[0] if alive is None
                             else alive[keep])
                    acc = acc[keep]
                    ch1 = ch1[keep]
                    ch2 = ch2[keep]
            if acc is not None:
                if alive is None:
                    out[lo:hi] = acc
                else:
                    out[lo + alive] = acc
    return out
