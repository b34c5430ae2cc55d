"""Numerical tolerances shared across modules."""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Tolerances:
    """Relative thresholds used by rank decisions and root detection.

    All thresholds are relative: rank cutoffs against the largest singular
    value, zero detection against the maximum of the tangency function over a
    period, derivative significance against the maximum of that derivative.
    """

    rank_rel: float = 1e-9      # singular values below rank_rel * s_max count as zero
    zero_rel: float = 1e-10     # |F(t)| below zero_rel * max|F| flags a tangency
    deriv_rel: float = 1e-6     # derivative counts as nonzero above deriv_rel * scale
    merge: float = 1e-7         # zeros closer than this merge into one tangency
    member_rel: float = 1e-6    # subspace membership residual, relative to |p|
    moment_sep: float = 1e-3    # min spacing (fraction of period) for sampled tuples

    def with_overrides(self, **kw) -> "Tolerances":
        return replace(self, **kw)


DEFAULT = Tolerances()
