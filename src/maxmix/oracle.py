"""Independent ground truth: exhaustive enumeration and seeded Monte Carlo.

`enumerate_expected_max` walks the full product space of member supports and
must agree with the jump-sum path exactly; the two computations share no
code beyond the members' stored integer form, which is what makes the check
worth running.  `mc_expected_max` is a reproducible sampling estimate for
eyeballing and cross-language comparison.

The Monte Carlo stream is counter-based SplitMix64: draw c (0-based) for a
run with seed s is the (c+1)-th output of SplitMix64 started at s, mapped to
[0, 1) by its top 53 bits.  Sample t of member i uses counter t*n + i, so
any worker split by sample ranges reproduces the identical stream.  Member
values are drawn by inverse CDF with exact integer thresholds, so a draw
lands on atom j with probability exactly ceil-rounded to 2**-53.  The
atom is read from a per-member table over the top bits of the 53-bit key;
only keys in a bucket that a threshold splits are binary-searched, so the
index is exactly the one a search of every key would give.

numpy is imported by the sampling functions, not by this module, so that
the commands that never sample do not pay its start-up time and memory.
"""

from __future__ import annotations

import itertools
import math
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .dist import Assembly, IntegerForm, _check_count, _fields_repr, _shown, check_cap
from .errors import PreconditionError

if TYPE_CHECKING:
    import numpy as np

#: Upper bound on the work of one oracle call: outcomes enumerated, or Monte
#: Carlo draws (samples times members).  Read at call time.
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

    __repr__ = _fields_repr


def enumerate_expected_max(a: Assembly) -> Fraction:
    """Exact E[X_max] by brute force over all support combinations.

    Reads each member's integer form: values brought to the lcm of the value
    scales, masses over the member's own denominator, so the inner loop is
    integer arithmetic; outcomes are streamed, never materialized.  More
    than `DEFAULT_OUTCOME_CAP` (read at call time) are refused.
    """
    forms = [d.form for d in a.members]
    check_cap(math.prod(len(f.values) for f in forms), "outcome count", DEFAULT_OUTCOME_CAP)
    vscale = math.lcm(*(f.scale for f in forms))
    pools = [[(v * (vscale // f.scale), m) for v, m in zip(f.values, f.masses)]
             for f in forms]

    acc: dict[int, int] = {}
    for combo in itertools.product(*pools):
        weight = 1
        top = combo[0][0]
        for v, w in combo:
            weight *= w
            if v > top:
                top = v
        acc[top] = acc.get(top, 0) + weight
    return Fraction(sum(v * w for v, w in acc.items()), vscale * math.prod(f.den for f in forms))


def _splitmix_keys(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Finish SplitMix64 in place and keep the top 53 bits: the draw keys.

    ``z`` holds the states ``seed + (c + 1) * golden`` and is overwritten with
    the keys; ``tmp`` is scratch space of the same shape.
    """
    import numpy as np

    for shift, mul in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        np.right_shift(z, shift, out=tmp)
        z ^= tmp
        z *= mul
    np.right_shift(z, 31, out=tmp)
    z ^= tmp
    z >>= 11
    return z


def _thresholds(f: IntegerForm) -> np.ndarray:
    """Integer inverse-CDF thresholds: draw k picks the first j with k <= T[j].

    T[j] = ceil(cum_j * 2**53) - 1, which over the integer cumulative masses
    c_j is ((c_j << 53) - 1) // den.
    """
    import numpy as np

    return np.array([((c << 53) - 1) // f.den for c in itertools.accumulate(f.masses)],
                    dtype=np.uint64)


def _bucket_table(thresholds: np.ndarray) -> tuple[int, np.ndarray]:
    """The atom index of each bucket of keys, or -1 where a threshold splits it.

    Bucket b holds the keys that share their top B bits, ``[b << shift,
    (b + 1) << shift)`` with ``shift = 53 - B``; B is the bit length of the
    atom count plus 4, clamped to [8, 16], so most buckets hold no threshold.
    Returns ``(shift, table)``.
    """
    import numpy as np

    bits = min(max(len(thresholds).bit_length() + 4, 8), 16)
    shift = 53 - bits
    starts = np.arange(1 << bits, dtype=np.uint64) << shift
    table = np.searchsorted(thresholds, starts, side="left")
    split = table != np.searchsorted(thresholds, starts + ((1 << shift) - 1), side="left")
    table[split] = -1
    return shift, table


def _atom_index(thresholds: np.ndarray, buckets: tuple[int, np.ndarray],
                keys: np.ndarray) -> np.ndarray:
    """``np.searchsorted(thresholds, keys, side="left")``, read from `_bucket_table`.

    Only the keys in a bucket that a threshold splits are searched.
    """
    import numpy as np

    shift, table = buckets
    idx = table.take((keys >> shift).view(np.int64))
    split = idx < 0
    if split.any():
        idx[split] = np.searchsorted(thresholds, keys[split], side="left")
    return idx


def mc_expected_max(a: Assembly, samples: int, seed: int) -> McEstimate:
    """Seeded Monte Carlo estimate of E[X_max] with its standard error.

    Deterministic in (assembly, samples, seed): fixed counter layout, fixed
    chunking, fixed accumulation order.  stderr is the sample standard
    deviation over sqrt(samples).

    Refused before numpy loads: ``samples`` that is not an integer >= 2, a
    seed that is not an ``int`` in [0, 2**64) (never converted onto another
    seed's stream), more than `DEFAULT_OUTCOME_CAP` draws (samples times
    members), and ``samples * (largest value)**2`` beyond float range.
    """
    _check_count(samples, "samples", 2)
    if _check_count(seed, "seed", 0) > _MASK:
        raise PreconditionError(f"seed must lie in [0, 2**64), got {_shown(seed)}")
    n = a.n
    check_cap(samples * n, "Monte Carlo draw count (samples x members)", DEFAULT_OUTCOME_CAP)
    # the sum of squares is at most samples * max**2; past float range the
    # variance, and with it stderr, would come out as inf or nan.  Values are
    # non-negative, so every one of them then fits in a float as well.
    if samples * a.support_max**2 > sys.float_info.max:
        raise PreconditionError(
            f"Monte Carlo needs samples * (largest value)**2 within float range; "
            f"{samples} samples of values up to {_shown(a.support_max)} exceed it"
        )

    import numpy as np

    forms = [d.form for d in a.members]
    thresholds = [_thresholds(f) for f in forms]
    # integer true division rounds correctly, as float(Fraction) does
    values = [np.array([v / f.scale for v in f.values]) for f in forms]
    buckets = [_bucket_table(t) for t in thresholds]
    total = 0.0
    total_sq = 0.0
    for start in range(0, samples, _CHUNK):
        stop = min(start + _CHUNK, samples)
        # the state of counter t*n + i, seed + (t*n + i + 1)*golden, is
        # t*(n*golden) + (seed + (i + 1)*golden) modulo 2**64
        base = np.arange(start, stop, dtype=np.uint64)
        base *= n * _GOLDEN & _MASK
        z = np.empty_like(base)
        tmp = np.empty_like(base)
        block_max = None
        for i in range(n):
            np.add(base, (seed + (i + 1) * _GOLDEN) & _MASK, out=z)
            keys = _splitmix_keys(z, tmp)
            col = values[i].take(_atom_index(thresholds[i], buckets[i], keys))
            if block_max is None:
                block_max = col
            else:
                np.maximum(block_max, col, out=block_max)
        total += float(np.add.reduce(block_max))
        total_sq += float(np.add.reduce(block_max * block_max))

    mean = total / samples
    var = max(0.0, (total_sq - samples * mean * mean) / (samples - 1))
    stderr = math.sqrt(var / samples)
    return McEstimate(mean=mean, stderr=stderr, samples=samples, seed=seed)
