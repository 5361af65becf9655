"""Performance measures, leaderboard snapshot, RBV profile classifier, and
the checkpoint row."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from strategem import metrics
from strategem.metrics import (
    CHECKPOINT_FIELDS,
    RbvProfile,
    checkpoint_stats,
    classify_rbv,
    relative_diff,
    top_k_snapshot,
)
from strategem.model import Firm, ResourceBundle, Strategy


def make_firm(fid, strategy, total_perf=0.0, market=None, alive=True):
    firm = Firm(fid, strategy, 0.0, ResourceBundle())
    firm.total_perf = total_perf
    firm.market = market
    firm.alive = alive
    return firm


class TestRelativeDiff:
    def test_basic(self):
        assert relative_diff(110.0, 100.0) == pytest.approx(0.10)

    def test_equality(self):
        assert relative_diff(100.0, 100.0) == 0.0

    def test_sign_convention(self):
        assert relative_diff(86.0, 100.0) == pytest.approx(-0.14)

    def test_zero_rbv_value_reads_nan(self):
        assert math.isnan(relative_diff(1.0, 0.0))

    @given(st.floats(0.1, 1e3), st.floats(0.1, 1e3), st.floats(0.1, 100))
    def test_scale_invariance(self, io_v, rbv_v, scale):
        assert relative_diff(io_v * scale, rbv_v * scale) == pytest.approx(
            relative_diff(io_v, rbv_v), rel=1e-9
        )


class TestTopKSnapshot:
    def test_one_sided_population(self):
        firms = [make_firm(i, Strategy.IO, total_perf=i) for i in range(10)]
        snap = top_k_snapshot(firms)
        assert snap["io_in_top10"] == 10
        assert snap["rbv_in_top10"] == 0

    def test_tiny_ranked_list(self):
        # Fewer than 10 firms: all of them are the top 10.
        firms = [
            make_firm(0, Strategy.IO, 3.0),
            make_firm(1, Strategy.IO, 1.0),
            make_firm(2, Strategy.RBV, 2.0),
        ]
        snap = top_k_snapshot(firms)
        assert snap["io_in_top10"] == 2
        assert snap["rbv_in_top10"] == 1
        assert snap["best_io"] == 3.0
        assert snap["best_rbv"] == 2.0
        assert snap["best_is_rbv"] == 0.0

    def test_counts_sum_to_k(self):
        rng = np.random.Generator(np.random.PCG64(5))
        firms = [
            make_firm(i, Strategy.IO if i % 2 else Strategy.RBV, rng.normal())
            for i in range(200)
        ]
        snap = top_k_snapshot(firms)
        assert snap["io_in_top10"] + snap["rbv_in_top10"] == 10

    def test_matches_brute_force_sort(self):
        rng = np.random.Generator(np.random.PCG64(6))
        firms = [
            make_firm(
                i,
                Strategy.IO if rng.random() < 0.5 else Strategy.RBV,
                float(rng.normal()),
                alive=bool(rng.random() < 0.9),  # dead firms rank too
            )
            for i in range(200)
        ]
        snap = top_k_snapshot(firms)
        ranked = sorted(firms, key=lambda f: (-f.total_perf, f.id))
        assert snap["io_in_top10"] == sum(
            1 for f in ranked[:10] if f.strategy is Strategy.IO
        )
        assert snap["best_is_rbv"] == (1.0 if ranked[0].strategy is Strategy.RBV else 0.0)
        io = sorted(
            (f.total_perf for f in firms if f.strategy is Strategy.IO), reverse=True
        )
        rbv = sorted(
            (f.total_perf for f in firms if f.strategy is Strategy.RBV), reverse=True
        )
        assert snap["best_io"] == io[0]
        assert snap["best_rbv"] == rbv[0]
        assert snap["avg5_io"] == pytest.approx(sum(io[:5]) / 5)
        assert snap["avg10_rbv"] == pytest.approx(sum(rbv[:10]) / 10)
        assert snap["avg_all_io"] == pytest.approx(sum(io) / len(io))

    def test_averages_add_left_to_right(self, monkeypatch):
        # Compensated summation, which builtin sum() of floats does from
        # Python 3.12 on, reads 1/3 here; adding left to right reads 0.
        monkeypatch.setattr(metrics, "sum", math.fsum, raising=False)
        firms = [
            make_firm(0, Strategy.IO, 1e16),
            make_firm(1, Strategy.IO, 1.0),
            make_firm(2, Strategy.IO, -1e16),
        ]
        assert top_k_snapshot(firms)["avg_all_io"] == 0.0


class TestClassifyRbv:
    def test_wallflower(self):
        firm = make_firm(0, Strategy.RBV, market=None)
        assert classify_rbv(firm, [firm]) is RbvProfile.WALLFLOWER

    def test_all_rbv_market_is_convenience(self):
        firms = [
            make_firm(0, Strategy.RBV, 1.0, market=3),
            make_firm(1, Strategy.RBV, 2.0, market=3),
        ]
        assert classify_rbv(firms[0], firms) is RbvProfile.CONVENIENCE_MARRIAGE

    def test_mixed_market_above_io_mean_is_soul_mate(self):
        firms = [
            make_firm(0, Strategy.RBV, 5.0, market=3),
            make_firm(1, Strategy.IO, 2.0, market=3),
            make_firm(2, Strategy.IO, 4.0, market=3),
        ]
        assert classify_rbv(firms[0], firms) is RbvProfile.SOUL_MATE

    def test_mixed_market_below_io_mean_is_convenience(self):
        firms = [
            make_firm(0, Strategy.RBV, 1.0, market=3),
            make_firm(1, Strategy.IO, 2.0, market=3),
            make_firm(2, Strategy.IO, 4.0, market=3),
        ]
        assert classify_rbv(firms[0], firms) is RbvProfile.CONVENIENCE_MARRIAGE

    def test_rejects_io_firm(self):
        firm = make_firm(0, Strategy.IO)
        with pytest.raises(ValueError):
            classify_rbv(firm, [firm])

    def test_exhaustive_and_exclusive_over_random_populations(self):
        rng = np.random.Generator(np.random.PCG64(7))
        firms = [
            make_firm(
                i,
                Strategy.IO if rng.random() < 0.5 else Strategy.RBV,
                float(rng.normal()),
                market=int(rng.integers(0, 5)) if rng.random() < 0.7 else None,
                alive=bool(rng.random() < 0.9),
            )
            for i in range(100)
        ]
        bins = {profile: [] for profile in RbvProfile}
        for firm in firms:
            if firm.strategy is Strategy.RBV:
                bins[classify_rbv(firm, firms)].append(firm.total_perf)
        # The checkpoint row holds the same bins, dead and unplaced firms
        # included, with their means added left to right.
        stats = checkpoint_stats(firms)
        for profile, perfs in bins.items():
            assert stats[f"n_{profile.value}"] == len(perfs)
            mean = stats[f"perf_{profile.value}"]
            if perfs:
                assert mean == metrics._avg(perfs)
            else:
                assert math.isnan(mean)


class TestCheckpointStats:
    def test_zero_rbv_values_and_empty_profiles_read_nan(self):
        firms = [
            make_firm(0, Strategy.IO, 2.0, market=1),
            make_firm(1, Strategy.RBV, 0.0, market=None),
        ]
        stats = checkpoint_stats(firms)
        assert sorted(stats) == sorted(CHECKPOINT_FIELDS)
        assert stats["best_rbv"] == 0.0
        for name in ("rd_best", "rd_avg5", "rd_avg10", "rd_all"):
            assert math.isnan(stats[name])
        assert (stats["n_wallflower"], stats["perf_wallflower"]) == (1, 0.0)
        assert stats["n_convenience"] == stats["n_soul_mate"] == 0
        assert math.isnan(stats["perf_convenience"])
        assert math.isnan(stats["perf_soul_mate"])

    def test_profiles_are_classified_against_their_market(self):
        firms = [
            make_firm(0, Strategy.IO, 1.0, market=1),
            make_firm(1, Strategy.RBV, 3.0, market=1),  # above its rival: soul mate
            make_firm(2, Strategy.IO, 9.0, market=2),
            make_firm(3, Strategy.RBV, 4.0, market=2),  # below its rival: convenience
            make_firm(4, Strategy.RBV, 5.0, market=3),  # no IO rival: convenience
            make_firm(5, Strategy.IO, 1.0, market=3, alive=False),  # dead: not a rival of firm 4
        ]
        stats = checkpoint_stats(firms)
        assert stats["n_soul_mate"] == 1 and stats["perf_soul_mate"] == 3.0
        assert stats["n_convenience"] == 2 and stats["perf_convenience"] == 4.5
        assert stats["n_wallflower"] == 0
        assert stats["rd_best"] == (9.0 - 5.0) / 5.0
