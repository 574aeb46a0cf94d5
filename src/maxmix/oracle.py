"""Independent ground truth: exhaustive enumeration and seeded Monte Carlo.

`enumerate_expected_max` walks the full product space of member supports and
must agree with the jump-sum path exactly; the two computations
share no code beyond the distribution type, which is what makes the check
worth running.  `mc_expected_max` is a reproducible sampling estimate for
eyeballing and cross-language comparison.

The Monte Carlo stream is counter-based SplitMix64: draw c (0-based) for a
run with seed s is the (c+1)-th output of SplitMix64 started at s, mapped to
[0, 1) by its top 53 bits.  Sample t of member i uses counter t*n + i, so
any worker split by sample ranges reproduces the identical stream.  Member
values are drawn by inverse CDF with exact integer thresholds, so a draw
lands on atom j with probability exactly ceil-rounded to 2**-53.

numpy is imported by the sampling functions, not by this module, so that
the commands that never sample do not pay its start-up time and memory.
"""

from __future__ import annotations

import itertools
import math
import sys
from fractions import Fraction
from functools import reduce
from typing import TYPE_CHECKING, NamedTuple

from .dist import Assembly
from .errors import PreconditionError, ResourceCapExceeded

if TYPE_CHECKING:
    import numpy as np

DEFAULT_OUTCOME_CAP = 10**7

_GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1
_CHUNK = 1 << 20


class McEstimate(NamedTuple):
    """A seeded Monte Carlo estimate; identical inputs give identical bits."""

    mean: float
    stderr: float
    samples: int
    seed: int


def enumerate_expected_max(a: Assembly) -> Fraction:
    """Exact E[X_max] by brute force over all support combinations.

    Masses are scaled to per-member integer weights so the inner loop is
    integer arithmetic; outcomes are streamed, never materialized.  More
    than `DEFAULT_OUTCOME_CAP` (read at call time) are refused.
    """
    sizes = [len(d.atoms) for d in a.members]
    total_outcomes = reduce(lambda x, y: x * y, sizes, 1)
    if total_outcomes > DEFAULT_OUTCOME_CAP:
        raise ResourceCapExceeded(
            f"{total_outcomes} outcomes exceed the cap {DEFAULT_OUTCOME_CAP}"
        )
    pools = []
    denom = 1
    for d in a.members:
        scale = math.lcm(*(m.denominator for m in d.masses))
        denom *= scale
        pools.append([(v, int(m * scale)) for v, m in d.atoms])

    acc: dict[Fraction, int] = {}
    for combo in itertools.product(*pools):
        weight = 1
        top = combo[0][0]
        for v, w in combo:
            weight *= w
            if v > top:
                top = v
        acc[top] = acc.get(top, 0) + weight
    return sum((v * Fraction(w, denom) for v, w in acc.items()), Fraction(0))


def _splitmix_draws(seed: int, counters: np.ndarray) -> np.ndarray:
    """The (c+1)-th SplitMix64 outputs for each counter c, as uint64."""
    import numpy as np

    z = (np.uint64(seed) + (counters + np.uint64(1)) * np.uint64(_GOLDEN))
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _thresholds(d) -> np.ndarray:
    """Integer inverse-CDF thresholds: draw k picks the first j with k <= T[j].

    T[j] = ceil(cum_j * 2**53) - 1, computed exactly from the rational
    cumulative masses.
    """
    import numpy as np

    out = []
    cum = Fraction(0)
    for _, m in d.atoms:
        cum += m
        scaled = cum * (1 << 53)
        ceil = -((-scaled.numerator) // scaled.denominator)
        out.append(ceil - 1)
    return np.array(out, dtype=np.uint64)


def mc_expected_max(a: Assembly, samples: int, seed: int) -> McEstimate:
    """Seeded Monte Carlo estimate of E[X_max] with its standard error.

    Deterministic in (assembly, samples, seed): fixed counter layout, fixed
    chunking, fixed accumulation order.  stderr is the sample standard
    deviation over sqrt(samples).
    """
    import numpy as np

    if not isinstance(samples, int) or samples < 2:
        raise PreconditionError(f"need an integer samples >= 2, got {samples!r}")
    seed = int(seed)
    if not 0 <= seed <= _MASK:
        raise PreconditionError(f"seed must lie in [0, 2**64), got {seed}")
    n = a.n
    thresholds = [_thresholds(d) for d in a.members]
    try:
        values = [np.array([float(v) for v in d.values]) for d in a.members]
    except OverflowError:
        raise PreconditionError(
            "Monte Carlo needs every support value within float range"
        ) from None
    # the sum of squares is at most samples * max**2; past float range the
    # variance, and with it stderr, would come out as inf or nan
    if samples * a.support_max**2 > sys.float_info.max:
        raise PreconditionError(
            f"Monte Carlo needs samples * (largest value)**2 within float range; "
            f"{samples} samples of values up to {float(a.support_max):.3g} exceed it"
        )

    total = 0.0
    total_sq = 0.0
    for start in range(0, samples, _CHUNK):
        stop = min(start + _CHUNK, samples)
        t = np.arange(start, stop, dtype=np.uint64)
        block_max = None
        for i in range(n):
            draws = _splitmix_draws(seed, t * np.uint64(n) + np.uint64(i))
            k = draws >> np.uint64(11)
            idx = np.searchsorted(thresholds[i], k, side="left")
            col = values[i][idx]
            block_max = col if block_max is None else np.maximum(block_max, col)
        total += float(np.add.reduce(block_max))
        total_sq += float(np.add.reduce(block_max * block_max))

    mean = total / samples
    var = max(0.0, (total_sq - samples * mean * mean) / (samples - 1))
    stderr = math.sqrt(var / samples)
    return McEstimate(mean=mean, stderr=stderr, samples=samples, seed=seed)
