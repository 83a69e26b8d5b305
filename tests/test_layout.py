"""Layout, rotation synthesis cost, algorithmic depth, and T totals."""

import math

import pytest

from ftqc_estimator.counts import LogicalCounts
from ftqc_estimator.errors import ConfigError, InvalidBudgetError
from ftqc_estimator.layout import (
    RotationSynthesisConstants,
    algorithmic_depth,
    estimate_algorithmic,
    layout_qubits,
    t_states_per_rotation,
    total_t_states,
)


class TestLayoutQubits:
    def test_zero(self):
        assert layout_qubits(0) == 0

    def test_one(self):
        assert layout_qubits(1) == 6

    def test_hundred(self):
        assert layout_qubits(100) == 230

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            layout_qubits(-1)

    def test_at_least_doubles(self):
        for q in (1, 2, 17, 1000, 10**6):
            assert layout_qubits(q) >= 2 * q

    @pytest.mark.parametrize("q", [1, 4, 100, 10**4])
    def test_boundary_term_scales_with_sqrt(self, q):
        boundary = layout_qubits(q) - 2 * q - 1
        assert boundary**2 >= 8 * q - 1e-9
        assert boundary**2 <= (math.sqrt(8 * q) + 1) ** 2

    def test_exact_at_perfect_squares(self):
        # 8 * 2 = 16 and 8 * 32 = 256 are perfect squares; ceil must not
        # round them up
        assert layout_qubits(2) == 4 + 4 + 1
        assert layout_qubits(32) == 64 + 16 + 1


class TestTStatesPerRotation:
    def test_large_workload(self):
        assert t_states_per_rotation(10000, 3.333e-5) == 21

    def test_single_rotation(self):
        assert t_states_per_rotation(1, 0.5) == 6

    def test_result_at_least_one(self):
        constants = RotationSynthesisConstants(a=0.01, b=-10.0)
        assert t_states_per_rotation(1, 0.9, constants) == 1

    def test_custom_constants(self):
        constants = RotationSynthesisConstants(a=1.0, b=0.0)
        assert t_states_per_rotation(8, 0.5) != t_states_per_rotation(8, 0.5, constants)
        assert t_states_per_rotation(8, 0.5, constants) == 4  # log2(16)

    @pytest.mark.parametrize("budget", [0.0, 1.0, -0.5, 2.0])
    def test_invalid_budget(self, budget):
        with pytest.raises(InvalidBudgetError):
            t_states_per_rotation(10, budget)

    def test_zero_rotations_rejected(self):
        with pytest.raises(ValueError):
            t_states_per_rotation(0, 0.1)

    def test_rotations_beyond_float_range_rejected(self):
        # an integer no float holds, as a 400-digit JSON rotationCount reads
        with pytest.raises(ConfigError, match="^rotationCount must stay within float range$"):
            t_states_per_rotation(10**400, 0.1)
        with pytest.raises(ConfigError, match="float range"):
            estimate_algorithmic(make_counts(rot=10**400), 1e-3)


def make_counts(meas=0, rot=0, t=0, ccz=0, ccix=0, depth=None, width=3):
    if depth is None:
        depth = min(rot, 1)
    return LogicalCounts(
        num_qubits=width,
        t_count=t,
        rotation_count=rot,
        rotation_depth=depth,
        ccz_count=ccz,
        ccix_count=ccix,
        measurement_count=meas,
    )


class TestAlgorithmicDepth:
    def test_itemized_sum(self):
        counts = make_counts(meas=2, rot=3, t=4, ccz=5, depth=2)
        assert algorithmic_depth(counts, 17) == 58

    def test_all_zero(self):
        assert algorithmic_depth(make_counts(), 0) == 0

    def test_single_t_gate(self):
        assert algorithmic_depth(make_counts(t=1), 0) == 1

    def test_multiplier_must_match_rotations(self):
        with pytest.raises(ValueError):
            algorithmic_depth(make_counts(rot=1, depth=1), 0)
        with pytest.raises(ValueError):
            algorithmic_depth(make_counts(t=1), 5)

    def test_negative_multiplier_rejected(self):
        with pytest.raises(ConfigError, match="t_per_rotation must be >= 0"):
            algorithmic_depth(LogicalCounts(), -1)


class TestTotalTStates:
    def test_itemized_sum(self):
        counts = make_counts(t=4, ccz=5, ccix=1, rot=3, depth=2)
        assert total_t_states(counts, 17) == 79

    def test_all_zero(self):
        assert total_t_states(make_counts(), 0) == 0

    def test_single_ccz_needs_four(self):
        assert total_t_states(make_counts(ccz=1), 0) == 4


class TestCouplingAndMonotonicity:
    def test_ccz_increments_depth_by_3_and_t_by_4(self):
        base = make_counts(meas=2, rot=3, t=4, ccz=5, depth=2)
        bumped = make_counts(meas=2, rot=3, t=4, ccz=6, depth=2)
        assert algorithmic_depth(bumped, 17) - algorithmic_depth(base, 17) == 3
        assert total_t_states(bumped, 17) - total_t_states(base, 17) == 4

    def test_monotone_in_every_counter(self):
        base = make_counts(meas=2, rot=3, t=4, ccz=5, ccix=1, depth=2)
        for field in ("measurement_count", "t_count", "ccz_count", "ccix_count"):
            bumped_kwargs = {
                "meas": base.measurement_count,
                "rot": base.rotation_count,
                "t": base.t_count,
                "ccz": base.ccz_count,
                "ccix": base.ccix_count,
                "depth": base.rotation_depth,
            }
            key = {
                "measurement_count": "meas",
                "t_count": "t",
                "ccz_count": "ccz",
                "ccix_count": "ccix",
            }[field]
            bumped_kwargs[key] += 1
            bumped = make_counts(**bumped_kwargs)
            assert algorithmic_depth(bumped, 17) >= algorithmic_depth(base, 17)
            assert total_t_states(bumped, 17) >= total_t_states(base, 17)
        assert layout_qubits(11) >= layout_qubits(10)


class TestEstimateAlgorithmic:
    def test_bundles_consistently(self):
        counts = make_counts(meas=10, rot=100, t=50, ccz=5, depth=40, width=20)
        result = estimate_algorithmic(counts, 1e-3)
        assert result.logical_qubits_post_layout == layout_qubits(20)
        multiplier = result.t_states_per_rotation
        assert multiplier == t_states_per_rotation(100, 1e-3)
        assert result.algorithmic_depth == algorithmic_depth(counts, multiplier)
        assert result.total_t_states == total_t_states(counts, multiplier)
        assert result.rotation_synthesis_error_budget == 1e-3

    def test_no_rotations_means_zero_multiplier(self):
        result = estimate_algorithmic(make_counts(t=3), 1e-3)
        assert result.t_states_per_rotation == 0
        assert result.total_t_states == 3
