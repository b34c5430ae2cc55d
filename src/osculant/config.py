"""Numerical tolerances shared across modules."""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Tolerances:
    """Relative thresholds used by rank decisions and root detection.

    Rank cutoffs are relative to the largest singular value and zero
    detection to the maximum of the tangency function over a period; merge
    is a distance between moments.
    """

    rank_rel: float = 1e-9      # singular values below rank_rel * s_max count as zero
    zero_rel: float = 1e-10     # |F(t)| below zero_rel * max|F| flags a tangency
    merge: float = 1e-7         # zeros closer than this merge into one tangency

    def with_overrides(self, **kw) -> "Tolerances":
        return replace(self, **kw)


DEFAULT = Tolerances()
