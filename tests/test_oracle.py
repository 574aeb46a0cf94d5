"""Tests for the enumeration and Monte Carlo oracles."""

import random
from fractions import Fraction as F

import pytest

from maxmix import (
    Assembly,
    FiniteDistribution,
    PreconditionError,
    ResourceCapExceeded,
    dist as dist_module,
    enumerate_expected_max,
    mc_expected_max,
    oracle,
)

from genutil import random_assembly, random_distribution


def dist(*pairs):
    return FiniteDistribution.from_pairs(pairs)


class TestEnumeration:
    def test_two_fair_bits(self):
        d = dist((0, F(1, 2)), (1, F(1, 2)))
        assert enumerate_expected_max(Assembly((d, d))) == F(3, 4)

    def test_constant_against_spread(self):
        a = Assembly((FiniteDistribution.point_mass(2),
                      dist((0, F(1, 2)), (3, F(1, 2)))))
        assert enumerate_expected_max(a) == F(5, 2)

    def test_single_member_is_its_mean(self):
        d = dist((0, F(1, 3)), (2, F(1, 3)), (7, F(1, 3)))
        assert enumerate_expected_max(Assembly((d,))) == d.expected_value()

    def test_agrees_with_survival_integral(self):
        rng = random.Random(51)
        for _ in range(60):
            a = random_assembly(rng, n_range=(2, 4))
            assert enumerate_expected_max(a) == a.expected_max()

    def test_validates_similar_max_mean(self):
        rng = random.Random(52)
        for _ in range(20):
            a = random_assembly(rng, n_range=(1, 1), max_atoms=4)
            d = a.members[0]
            for n in (2, 3):
                copies = Assembly.of_copies(d, n)
                assert enumerate_expected_max(copies) == d.similar_max_mean(n)

    def test_cap_is_enforced(self, monkeypatch):
        monkeypatch.setattr(oracle, "DEFAULT_OUTCOME_CAP", 15)
        d = dist((0, F(1, 2)), (1, F(1, 2)))
        with pytest.raises(ResourceCapExceeded):
            enumerate_expected_max(Assembly((d,) * 4))


class TestMonteCarlo:
    def test_point_masses_are_exact_with_zero_stderr(self):
        a = Assembly((FiniteDistribution.point_mass(F(5, 2)),
                      FiniteDistribution.point_mass(F(3, 2))))
        est = mc_expected_max(a, 1000, seed=1)
        assert est.mean == 2.5 and est.stderr == 0.0

    def test_deterministic_per_seed(self):
        d = dist((0, F(1, 2)), (1, F(1, 2)))
        a = Assembly((d, d))
        first = mc_expected_max(a, 50_000, seed=123)
        second = mc_expected_max(a, 50_000, seed=123)
        assert first == second
        other = mc_expected_max(a, 50_000, seed=124)
        assert other.mean != first.mean

    def test_close_to_the_exact_value(self):
        d = dist((0, F(1, 2)), (1, F(1, 2)))
        a = Assembly((d, d))
        exact = float(a.expected_max())
        for seed in (5, 6, 7):
            est = mc_expected_max(a, 100_000, seed=seed)
            assert abs(est.mean - exact) <= 4 * est.stderr

    def test_three_member_assembly(self):
        a = Assembly((
            dist((0, F(1, 4)), (1, F(1, 2)), (2, F(1, 4))),
            dist((0, F(2, 3)), (3, F(1, 3))),
            FiniteDistribution.point_mass(F(1, 2)),
        ))
        exact = float(a.expected_max())
        est = mc_expected_max(a, 100_000, seed=99)
        assert abs(est.mean - exact) <= 4 * est.stderr

    def test_hundred_seeds_on_one_assembly(self):
        d = dist((0, F(1, 3)), (1, F(1, 3)), (2, F(1, 3)))
        a = Assembly((d, FiniteDistribution.point_mass(F(1, 2))))
        exact = float(a.expected_max())
        hits = sum(
            abs(mc_expected_max(a, 20_000, seed=1_000 + s).mean - exact)
            <= 4 * mc_expected_max(a, 20_000, seed=1_000 + s).stderr
            for s in range(100)
        )
        assert hits >= 99

    def test_chunking_does_not_change_results(self):
        # crossing the internal chunk boundary keeps the stream identical
        d = dist((0, F(1, 2)), (1, F(1, 2)))
        a = Assembly((d, d))
        big = mc_expected_max(a, (1 << 20) + 17, seed=4)
        again = mc_expected_max(a, (1 << 20) + 17, seed=4)
        assert big == again

    def test_rejects_tiny_sample_counts(self):
        d = dist((0, F(1, 2)), (1, F(1, 2)))
        with pytest.raises(PreconditionError):
            mc_expected_max(Assembly((d, d)), 1, seed=0)

    def test_values_beyond_float_range_are_refused_with_a_short_message(self):
        a = Assembly((dist((0, F(1, 2)), (10**400, F(1, 2))), dist((1, F(1)),)))
        with pytest.raises(PreconditionError, match="float range") as info:
            mc_expected_max(a, 2, seed=0)
        assert len(str(info.value)) <= 200

    def test_seed_must_fit_in_64_bits(self):
        d = dist((0, F(1, 2)), (1, F(1, 2)))
        a = Assembly((d, d))
        # a seed that is not an int is refused, not converted onto another's stream
        for seed in (-1, 1 << 64, 1.9, True, "7"):
            with pytest.raises(PreconditionError, match="seed"):
                mc_expected_max(a, 100, seed=seed)
        assert mc_expected_max(a, 100, seed=(1 << 64) - 1).seed == (1 << 64) - 1


# ---------------------------------------------------------------------------
# pinned outputs: both oracles read each member's integer form, and these
# values were recorded when they still read its Fraction atoms


def _pinned_assemblies():
    rng = random.Random(2_201)
    return {
        "three": random_assembly(rng, n_range=(3, 3)),
        "wide": Assembly((random_distribution(rng, max_atoms=50, min_atoms=50),
                          random_distribution(rng), random_distribution(rng))),
        "scales": Assembly((dist((F(1, 7), F(2, 5)), (F(22, 3), F(3, 5))),
                            random_distribution(rng, max_den=97, min_atoms=4),
                            dist((0, F(4, 9)), (F(5, 11), F(1, 3)), (F(9, 2), F(2, 9))))),
        "four": random_assembly(rng, n_range=(4, 4), max_atoms=8),
    }


# name: (atoms per member, exact E[X_max], mean.hex(), stderr.hex()) at 20 000 samples, seed 22
PINNED = {
    "three": ([4, 5, 4], F(68179, 11718), "0x1.73d867c3ece2bp+2", "0x1.626cd7d6c15f2p-6"),
    "wide": ([50, 5, 1], F(301745, 31152), "0x1.358dfea27983dp+3", "0x1.509f73b392567p-5"),
    "scales": ([2, 4, 3], F(11261, 1350), "0x1.0b54c985f06f7p+3", "0x1.34206d69d0fa2p-6"),
    "four": ([4, 3, 1, 2], F(132157, 7488), "0x1.1961d37d7960cp+4", "0x1.1d3398a7a3952p-5"),
}
# "three" at (1 << 20) + 17 samples, seed 4: crosses the chunk boundary
PINNED_LONG = ("0x1.73f4b776a7bc9p+2", "0x1.892c2f3e8238fp-9")


def _check_pinned():
    for name, a in _pinned_assemblies().items():
        sizes, exact, mean, stderr = PINNED[name]
        assert [len(d.form.values) for d in a.members] == sizes, name
        assert enumerate_expected_max(a) == exact, name
        est = mc_expected_max(a, 20_000, seed=22)
        assert (est.mean.hex(), est.stderr.hex()) == (mean, stderr), name
    est = mc_expected_max(_pinned_assemblies()["three"], (1 << 20) + 17, seed=4)
    assert (est.mean.hex(), est.stderr.hex()) == PINNED_LONG


def test_oracles_return_the_pinned_values():
    _check_pinned()


def test_oracles_read_only_the_integer_form(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an oracle read a Fraction view or the CDF table")

    for name in ("atoms", "values", "masses"):
        monkeypatch.setattr(FiniteDistribution, name, property(refuse))
    monkeypatch.setattr(FiniteDistribution, "cdf", refuse)
    monkeypatch.setattr(dist_module.CdfTable, "of", refuse)
    monkeypatch.setattr(dist_module, "jump_weights", refuse)
    _check_pinned()


# ---------------------------------------------------------------------------
# the bucketed inverse-CDF lookup


def _lookup_members():
    rng = random.Random(2_301)
    eps = F(1, 2**20)
    return {
        "small": random_distribution(rng, max_atoms=7, min_atoms=7),
        "one atom": FiniteDistribution.point_mass(3),
        "wide": random_distribution(rng, max_atoms=50, min_atoms=50),
        # every threshold above 1 - 3 * 2**-20 lies in the top bucket
        "one bucket": dist((0, 1 - 3 * eps), (1, eps), (2, eps), (3, eps)),
        # over 2**53 the thresholds are the cumulative masses less one; with
        # shift 45 each is alone in its bucket, at the first key of bucket 0,
        # the last key less one of bucket 1, the first key of bucket 2 and the
        # last key of bucket 3
        "bucket edges": _cumulative(1, 2**46 - 1, 2**46 + 1, 2**47, 2**53),
        "5000 atoms": _many_atoms(rng, 5000),
    }


def _cumulative(*cum):
    """The distribution on 0, 1, 2, ... with cumulative masses ``cum / 2**53``."""
    return FiniteDistribution.from_pairs(
        (k, F(b - a, 2**53)) for k, (a, b) in enumerate(zip((0, *cum), cum)))


def _many_atoms(rng, size):
    weights = [rng.randint(1, 1000) for _ in range(size)]
    total = sum(weights)
    return FiniteDistribution.from_pairs((k, F(w, total)) for k, w in enumerate(weights))


@pytest.mark.parametrize("name", ["small", "one atom", "wide", "one bucket",
                                  "bucket edges", "5000 atoms"])
def test_bucketed_index_equals_searchsorted(name):
    import numpy as np

    d = _lookup_members()[name]
    t = oracle._thresholds(d.form)
    assert len(t) == len(d.form.values) and int(t[-1]) == 2**53 - 1
    shift, table = buckets = oracle._bucket_table(t)
    rng = np.random.default_rng(2_302)
    edges = np.arange(len(table), dtype=np.uint64) << shift
    keys = np.concatenate([
        np.array([0, 2**53 - 1], dtype=np.uint64),
        t, np.maximum(t, 1) - 1, np.minimum(t + 1, 2**53 - 1),  # each threshold, neighbours
        edges, np.maximum(edges, 1) - 1,  # the first and the last key of each bucket
        rng.integers(0, 2**53, 20_000, dtype=np.uint64),
    ])
    got = oracle._atom_index(t, buckets, keys)
    assert np.array_equal(got, np.searchsorted(t, keys, side="left"))
    if name == "one bucket":
        assert np.count_nonzero(table < 0) == 1
    if name == "bucket edges":
        assert t.tolist() == [0, 2**46 - 2, 2**46, 2**47 - 1, 2**53 - 1] and shift == 45
    if name == "5000 atoms":
        assert 53 - shift == 16
