import math
from dataclasses import replace

import numpy as np
import pytest

from ambclink import LNA, EstimationError, ModelValidityError
from ambclink.analysis import HypothesisMoments
from ambclink.estimation import (
    pilot_bits,
    pilot_statistics,
    relative_threshold_error,
)
from ambclink.frontend import generate_frame
from ambclink.montecarlo import run_pilot_sweep
from ambclink.oracles import grouped_mean_var


class TestPilotPlan:
    def test_alternating_balanced(self):
        assert list(pilot_bits(6)) == [0, 1, 0, 1, 0, 1]
        assert int(pilot_bits(6).sum()) == 3

    @pytest.mark.parametrize("bad", [0, 2, 3, 5, 7])
    def test_invalid_counts_rejected(self, bad):
        with pytest.raises(EstimationError):
            pilot_bits(bad)


class TestEstimateMoments:
    def test_arithmetic_by_hand(self):
        # pilot bits alternate 0,1,0,1: group 0 gets {1,3}, group 1 gets {2,4}
        d0, d1, v0, v1 = pilot_statistics(np.array([1.0, 2.0, 3.0, 4.0]), 4)
        assert d0 == pytest.approx(2.0, rel=1e-12)
        assert d1 == pytest.approx(3.0, rel=1e-12)
        assert v0 == pytest.approx(2.0, rel=1e-12)
        assert v1 == pytest.approx(2.0, rel=1e-12)

    def test_constant_energies_degenerate(self):
        # zero group variances: no Gaussian moments, so no threshold
        with pytest.raises(ModelValidityError):
            HypothesisMoments(*pilot_statistics(np.full(8, 3.0), 8))

    def test_too_few_energies(self):
        with pytest.raises(EstimationError):
            pilot_statistics(np.ones(3), 4)

    def test_within_group_permutation_invariance(self):
        e = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        swapped = np.array([3.0, 2.0, 1.0, 4.0, 5.0, 6.0])  # swap group-0 members
        a = pilot_statistics(e, 6)
        b = pilot_statistics(swapped, 6)
        assert (a[0], a[2]) == (b[0], b[2])

    @pytest.mark.parametrize("k_train", [4, 16, 40])
    def test_a_frames_estimate_does_not_depend_on_its_batch(self, k_train):
        # from 8 pilots a group on, numpy's sum of a contiguous row pairs its
        # terms, and a batch's strided rows add them in order
        energies = np.random.default_rng(4).gamma(75.0, 1e-9, size=(3, 4, 50))
        batch = pilot_statistics(energies, k_train)
        for i, j in np.ndindex(3, 4):
            alone = pilot_statistics(energies[i, j], k_train)
            assert tuple(float(x[i, j]) for x in batch) == tuple(alone)

    def test_equals_brute_force_grouping(self, paper_params, fixed_realization):
        p = replace(paper_params, k_symbols=100, pilot_fraction=0.4)
        rng = np.random.default_rng(41)
        bits = np.concatenate([pilot_bits(p.k_train),
                               rng.integers(0, 2, p.k_symbols - p.k_train)])
        energies = generate_frame(p, fixed_realization, bits, rng, LNA)
        d0, d1, v0, v1 = pilot_statistics(energies, p.k_train)
        oracle = grouped_mean_var(energies[: p.k_train], pilot_bits(p.k_train))
        assert d0 == pytest.approx(oracle[0][0], rel=1e-14, abs=0.0)
        assert v0 == pytest.approx(oracle[0][1], rel=1e-14, abs=0.0)
        assert d1 == pytest.approx(oracle[1][0], rel=1e-14, abs=0.0)
        assert v1 == pytest.approx(oracle[1][1], rel=1e-14, abs=0.0)

    def test_consistency_with_growing_pilots(self):
        # sample energies straight from the hypothesis Gaussians
        truth = HypothesisMoments(1.0, 1.5, 0.04, 0.09)
        rng = np.random.default_rng(43)
        k_train = 2000
        d_err = []
        for _ in range(300):
            e = np.where(pilot_bits(k_train) == 0,
                         rng.normal(truth.delta0, math.sqrt(truth.var0), k_train),
                         rng.normal(truth.delta1, math.sqrt(truth.var1), k_train))
            d0, d1, v0, v1 = pilot_statistics(e, k_train)
            d_err.append((d0 - truth.delta0, d1 - truth.delta1,
                          v0 - truth.var0, v1 - truth.var1))
        means = np.abs(np.mean(d_err, axis=0))
        # unbiased estimators: averaged error shrinks as 1/sqrt(reps * group size)
        group = k_train // 2
        assert means[0] < 4 * math.sqrt(truth.var0 / (group * 300))
        assert means[1] < 4 * math.sqrt(truth.var1 / (group * 300))
        assert means[2] < 0.01 * truth.var0
        assert means[3] < 0.01 * truth.var1


class TestRelativeThresholdError:
    def test_zero_when_equal(self):
        assert relative_threshold_error(2.5, 2.5) == 0.0

    def test_arithmetic(self):
        assert relative_threshold_error(1.1, 1.0) == pytest.approx(0.1, rel=1e-12)

    def test_zero_estimate_rejected(self):
        with pytest.raises(EstimationError):
            relative_threshold_error(1.0, 0.0)


class TestPilotSweepTrend:
    def test_median_error_non_increasing(self, paper_params):
        # fixed operating point, K=200 so a 5% fraction gives balanced pilots
        p = replace(paper_params, k_symbols=200)
        points = run_pilot_sweep(p, (0.05, 0.1, 0.2, 0.4), LNA,
                                 n_realizations=1, n_frames=150,
                                 master_seed=24, workers=1)
        medians = [pt.r_median for pt in points]
        assert all(a >= b for a, b in zip(medians, medians[1:]))
        assert all(pt.frames > 0 for pt in points)
