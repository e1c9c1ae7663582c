"""Typed configuration (replaces the reference's CLI option namespaces,
``Common/Options.h`` / ``BioBloomCategorizer/Options.h``).

Defaults mirror the reference where one exists:
k = 25 (``Common/Options.cpp:31``), desired FPR 0.0078125 = 2⁻⁷
(``Common/Options.cpp:26``), score threshold 0.15
(``BioBloomCategorizer/Options.cpp:15``), streak threshold 3
(``Common/Options.cpp:9``).
"""

from __future__ import annotations

from dataclasses import dataclass

from biobloom_ray.hashing import DEFAULT_SEED


@dataclass(frozen=True)
class BuildConfig:
    """biobloommaker analogue (build a Bloom filter from reference docs)."""
    kmer_size: int = 25
    desired_fpr: float = 0.0078125
    hash_num: int | None = None      # None → calc_optimal_hash_num(fpr)
    seed: int = DEFAULT_SEED
    expected_entries: int | None = None  # None → pre-pass count (A1)
    batch_size: int = 2048


@dataclass(frozen=True)
class CategorizeConfig:
    """biobloomcategorizer analogue."""
    scoring_method: str = "simple"   # simple | harmonic | binomial | length
    score_threshold: float = 0.15
    mode: str = "std"                # std | ordered | besthit | scores
    inclusive: bool = False          # paired -i flag
    streak_threshold: int = 3
    batch_size: int = 1024
    concurrency: int | tuple | None = None  # None → task pool (elastic)
    with_scores: bool = False
    use_actors: bool = False  # tasks + worker-local cache by default
    #: SDUST analogue (M5): mask frames whose shingle repeats more than
    #: this many times within a document; None disables (like opt::dust)
    mask_repetition: int | None = None
    # DUST-style triplet-score masking threshold (reference T=20 at the
    # ×10 scale ⇒ 2.0); None disables — see stages/masking.dust_mask
    mask_dust: float | None = None
