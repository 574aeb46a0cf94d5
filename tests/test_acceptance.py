"""Acceptance suite: one test per release criterion, printed pass lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Tolerances are pinned here, not configurable: the rational
chain comparisons are exact (zero tolerance), root-based quantities carry
the stated enclosure budgets.
"""

import random
import time
from fractions import Fraction as F

import pytest

from maxmix import (
    Assembly,
    FiniteDistribution,
    coalesce,
    discretize,
    down_project,
    enumerate_expected_max,
    equality_diagnosis,
    full_report,
    gam_gap,
    gap,
    holder_lower,
    mc_expected_max,
    reduce_pair,
    mixture_lower,
)
from maxmix.cli import EXIT_OK, main, parse_assembly_text

from genutil import (
    perturb_one_mass,
    random_assembly,
    random_coalesce_case,
    random_down_case,
    random_identical_assembly,
    random_reduce_case,
    random_two_point_assembly,
)

N_CHAIN = 1000
CHAIN_BUDGET_SECONDS = 10.0


@pytest.fixture(scope="module")
def chain_assemblies():
    rng = random.Random(20_26)
    return [random_assembly(rng, n_range=(2, 6), max_atoms=6, max_den=64)
            for _ in range(N_CHAIN)]


def _passed(label):
    print(f"[PASS] {label}")


def test_c1_bound_chain_exact(chain_assemblies):
    """C1: mean(M) <= sen <= exact <= upper, exactly, on 1000 assemblies."""
    start = time.perf_counter()
    for a in chain_assemblies:
        n = a.n
        m_list = a.similar_means()
        m_bar = sum(m_list) / n
        upper = m_bar + F(n - 1, n) * max(m_list)
        sen = mixture_lower(a)
        exact = a.expected_max()
        assert m_bar <= sen, (a, m_bar, sen)
        assert sen <= exact, (a, sen, exact)
        assert exact <= upper, (a, exact, upper)
    elapsed = time.perf_counter() - start
    assert elapsed < CHAIN_BUDGET_SECONDS, f"chain run took {elapsed:.2f}s"
    _passed(f"criterion 1: exact bound chain on {N_CHAIN} assemblies "
            f"({elapsed:.2f}s)")


def test_c2_oracle_equivalence(chain_assemblies):
    """C2: survival integral == product-space enumeration, exactly."""
    for a in chain_assemblies:
        assert enumerate_expected_max(a) == a.expected_max(), a
    _passed(f"criterion 2: oracle equivalence on {N_CHAIN} assemblies")


def test_c3_sharpness_at_desk_scale(tmp_path):
    """C3: the extremal builder certifies theta within epsilon of 2 - 1/n."""
    for n, eps_str, eps in ((2, "1/1000", F(1, 1000)), (3, "1/100", F(1, 100))):
        out = tmp_path / f"ext{n}.txt"
        code = main(["extremal", "--n", str(n), "--equal", "1",
                     "--epsilon", eps_str, "--out", str(out)])
        assert code == EXIT_OK
        a = parse_assembly_text(out.read_text()).assembly
        assert a.similar_means() == (F(1),) * n
        theta = a.expected_max() / F(1)
        assert theta >= 2 - F(1, n) - eps, (n, theta)
    _passed("criterion 3: theta_2 >= 3/2 - 1e-3 and theta_3 >= 5/3 - 1e-2, exact")


def test_c4_transform_certificates():
    """C4: 200+ certified instances per transform."""
    rng = random.Random(4_001)
    tol = F(1, 10**9)
    for _ in range(200):
        d, a, b, companion, n = random_coalesce_case(rng)
        out = coalesce(d, a, b, companion, n)
        assert out.m_residual == 0
        assert out.e_delta >= 0
        assert len([v for v in out.result.values if a <= v <= b]) == 1

    merges = moves = 0
    for _ in range(200):
        d, l, r, companion, n = random_reduce_case(rng)
        out = reduce_pair(d, l, r, companion, n)
        assert out.m_residual == 0
        assert out.e_delta >= 0
        inside = [v for v in out.result.values if l < v < r]
        assert len(inside) <= 1
        merges += len(out.result.values) < len(d.values)
        moves += len(out.result.values) == len(d.values)
    assert merges and moves, "generator must hit both move and merge branches"

    for _ in range(200):
        a, lo, hi, = random_down_case(rng)
        out = down_project(a, lo, hi, tol=tol)
        assert all(abs(res) <= tol for res in out.m_residual)
        assert out.e_delta <= tol
        for m in out.result.members:
            assert not any(lo < v < hi for v in m.values)
    _passed("criterion 4: transform certificates, 200 instances each")


def test_c5_bounded_lower_bound():
    """C5: mean(M) - 1e-9 <= bounded lower bound <= exact + 1e-9; and it
    dominates the mixture bound on two-point assemblies."""
    rng = random.Random(5_001)
    slack = F(1, 10**9)
    for _ in range(200):
        a = random_assembly(rng, n_range=(2, 5), max_atoms=5)
        b = a.support_max
        if b == 0:
            continue
        m_list = a.similar_means()
        hl = holder_lower(m_list, b)
        m_bar = sum(m_list) / a.n
        assert m_bar - slack <= hl.midpoint <= a.expected_max() + slack

    for _ in range(200):
        a, b = random_two_point_assembly(rng)
        hl = holder_lower(a.similar_means(), b)
        assert hl.midpoint >= mixture_lower(a) - slack
    _passed("criterion 5: bounded lower bound within budget on 200+200 assemblies")


def test_c6_equality_condition():
    """C6: exact equality for identical members, strict once perturbed."""
    rng = random.Random(6_001)
    for _ in range(100):
        a = random_identical_assembly(rng)
        m_bar = sum(a.similar_means()) / a.n
        assert a.expected_max() == m_bar
        assert equality_diagnosis(a)

        perturbed = perturb_one_mass(rng, a, F(1, 1000))
        m_bar_p = sum(perturbed.similar_means()) / perturbed.n
        assert perturbed.expected_max() > m_bar_p
        assert not equality_diagnosis(perturbed)
    _passed("criterion 6: equality condition and strictness on 100 cases")


def test_c7_cdf_mean_gap():
    """C7: 0 <= gap <= (1 - 1/n) max(M), 1e-10; `gam_gap` raises unless the
    integral and mixture forms of the gap agree exactly."""
    rng = random.Random(7_001)
    slack = F(1, 10**10)
    for _ in range(100):
        a = random_assembly(rng, n_range=(2, 4), max_atoms=5)
        report = gam_gap(a)
        assert report.gap.hi >= -slack
        assert report.gap.lo <= report.bound + slack
    _passed("criterion 7: CDF mean gap enclosure on 100 assemblies")


MC_ASSEMBLIES = (
    Assembly((FiniteDistribution.from_pairs([(0, F(1, 2)), (1, F(1, 2))]),) * 2),
    Assembly((FiniteDistribution.point_mass(2),
              FiniteDistribution.from_pairs([(0, F(1, 2)), (3, F(1, 2))]))),
    Assembly((FiniteDistribution.from_pairs(
        [(0, F(1, 3)), (1, F(1, 3)), (2, F(1, 3))]),) * 2),
    Assembly((FiniteDistribution.point_mass(1),
              FiniteDistribution.from_pairs([(0, F(1, 2)), (2, F(1, 2))]))),
    Assembly((FiniteDistribution.point_mass(F(5, 2)),
              FiniteDistribution.point_mass(F(3, 2)))),
)


def test_c8_mc_oracle():
    """C8: 100 seeded runs at 1e5 samples, >= 99 within 4 stderr; bit-stable."""
    hits = 0
    for idx, a in enumerate(MC_ASSEMBLIES):
        exact = float(a.expected_max())
        for j in range(20):
            seed = 7_000 + 997 * idx + 13 * j
            est = mc_expected_max(a, 100_000, seed)
            if abs(est.mean - exact) <= 4 * est.stderr:
                hits += 1
        rerun = mc_expected_max(a, 100_000, 7_000 + 997 * idx)
        assert rerun == mc_expected_max(a, 100_000, 7_000 + 997 * idx)
    assert hits >= 99, f"only {hits}/100 runs within 4 stderr"
    _passed(f"criterion 8: MC oracle {hits}/100 within 4 stderr, bit-stable")


def test_c9_discretization():
    """C9: uniform[0,1] discretization mean climbs to 1/2, within 2^-m."""
    def uniform01(x, side="right"):
        return min(max(x, F(0)), F(1))

    prev = None
    for m in range(1, 9):
        mean = discretize(uniform01, m).expected_value()
        assert abs(mean - F(1, 2)) <= F(1, 2**m), (m, mean)
        if prev is not None:
            assert mean >= prev, (m, mean, prev)
        prev = mean
    _passed("criterion 9: dyadic discretization monotone and within 2^-m")


def test_full_reports_stay_consistent(chain_assemblies):
    """Bonus sweep: the assembled report agrees with its own invariants."""
    for a in chain_assemblies[:100]:
        r = full_report(a, b=a.support_max if a.support_max > 0 else None)
        assert r.chain.all_ok
        assert r.theta <= 2 - F(1, a.n)
        assert gap(a) == r.upper - r.exact_e
    _passed("consistency: full reports on 100 assemblies")
