"""QEC engine: distance selection, qubit profiles, and parameter validation."""

import inspect
import math
import pickle

import pytest

from ftqc_estimator.errors import (
    AboveThresholdError,
    ConfigError,
    DistanceExhaustedError,
    FormulaSyntaxError,
    UnboundVariableError,
)
from ftqc_estimator.formulas import DISTILLATION_VARIABLES, QEC_SCHEME_VARIABLES, parse_formula
from ftqc_estimator.qec import (
    _DISTANCE_VARIABLES,
    FLOQUET_CODE,
    SURFACE_CODE,
    InstructionSet,
    PhysicalQubitParams,
    QecScheme,
    compute_code_distance,
    effective_physical_error_rate,
    evaluate_scheme_formulas,
    get_scheme,
    logical_error_rate,
    logical_qubit_profile,
    required_logical_error_rate,
    _Rows,
    _distance_row,
)


def gate_params(**overrides):
    base = dict(
        instruction_set=InstructionSet.GATE_BASED,
        one_qubit_gate_time=50.0,
        two_qubit_gate_time=50.0,
        one_qubit_measurement_time=100.0,
        t_gate_time=50.0,
        clifford_error_rate=1e-4,
        readout_error_rate=1e-4,
        t_gate_error_rate=1e-4,
    )
    base.update(overrides)
    return PhysicalQubitParams(**base)


def majorana_params(**overrides):
    base = dict(
        instruction_set=InstructionSet.MAJORANA,
        one_qubit_measurement_time=100.0,
        two_qubit_measurement_time=100.0,
        t_gate_time=100.0,
        clifford_error_rate=1e-4,
        readout_error_rate=1e-4,
        t_gate_error_rate=0.05,
    )
    base.update(overrides)
    return PhysicalQubitParams(**base)


class TestPhysicalQubitParams:
    def test_gate_based_requires_gate_times(self):
        with pytest.raises(ConfigError):
            gate_params(one_qubit_gate_time=None)
        with pytest.raises(ConfigError):
            gate_params(two_qubit_gate_time=0.0)

    def test_infinite_time_rejected(self):
        with pytest.raises(ConfigError, match="twoQubitGateTime must be finite"):
            gate_params(two_qubit_gate_time=math.inf)

    def test_majorana_requires_measurement_times(self):
        with pytest.raises(ConfigError):
            majorana_params(two_qubit_measurement_time=None)

    def test_majorana_does_not_require_gate_times(self):
        params = majorana_params()
        assert params.one_qubit_gate_time is None

    def test_error_rates_must_be_probabilities(self):
        with pytest.raises(ConfigError):
            gate_params(clifford_error_rate=1.0)
        with pytest.raises(ConfigError):
            gate_params(readout_error_rate=-0.1)

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            PhysicalQubitParams.from_mapping(
                {"instructionSet": "majorana", "swapTime": 10}
            )

    def test_kept_time_bindings_stay_invisible(self):
        params, fresh = gate_params(), gate_params()
        evaluate_scheme_formulas(SURFACE_CODE, params, 3)  # keeps the bindings on params
        assert hasattr(params, "_times") and not hasattr(fresh, "_times")
        assert params == fresh and hash(params) == hash(fresh) and repr(params) == repr(fresh)
        assert params.as_mapping() == fresh.as_mapping()
        copy = pickle.loads(pickle.dumps(params))
        assert copy == params and not hasattr(copy, "_times")
        # time_variables() hands out a fresh dict, so changing it changes
        # no formula environment
        times = params.time_variables()
        times["cliffordErrorRate"] = 0.5
        assert params.time_variables() == fresh.time_variables()
        assert "cliffordErrorRate" not in params.time_variables()
        assert evaluate_scheme_formulas(SURFACE_CODE, params, 3) == evaluate_scheme_formulas(
            SURFACE_CODE, fresh, 3
        )


class TestEffectiveErrorRate:
    def test_max_of_clifford_and_readout(self):
        params = gate_params(clifford_error_rate=1e-4, readout_error_rate=5e-4)
        assert effective_physical_error_rate(params) == 5e-4

    def test_majorana_folds_in_idle(self):
        params = majorana_params(idle_error_rate=3e-3)
        assert effective_physical_error_rate(params) == 3e-3

    def test_gate_based_ignores_idle(self):
        params = gate_params(idle_error_rate=0.9e-1)
        assert effective_physical_error_rate(params) == 1e-4


class TestRequiredLogicalErrorRate:
    def test_direct_division(self):
        assert required_logical_error_rate(0.01, 10, 100) == 1e-5

    def test_workload_scale(self):
        rate = required_logical_error_rate(3.333e-5, 20597, int(5.44e6))
        assert rate == pytest.approx(2.97e-16, rel=1e-2)

    def test_unit_case(self):
        assert required_logical_error_rate(0.5, 1, 1) == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            required_logical_error_rate(0.0, 1, 1)
        with pytest.raises(ValueError):
            required_logical_error_rate(0.5, 0, 1)


class TestComputeCodeDistance:
    def test_reference_point(self):
        scheme = QecScheme.from_strings("t", 0.03, 0.01, "codeDistance", "codeDistance")
        assert compute_code_distance(scheme, 1e-4, 1e-10) == 9

    def test_workload_target_needs_distance_15(self):
        rate = required_logical_error_rate(1e-4 / 3, 20597, int(5.44e6))
        assert compute_code_distance(FLOQUET_CODE, 1e-4, rate) == 15

    def test_at_threshold_rejected(self):
        with pytest.raises(AboveThresholdError):
            compute_code_distance(SURFACE_CODE, 0.01, 1e-10)

    def test_above_threshold_rejected(self):
        with pytest.raises(AboveThresholdError):
            compute_code_distance(SURFACE_CODE, 0.5, 1e-10)

    def test_distance_exhausted(self):
        scheme = QecScheme.from_strings(
            "short", 0.03, 0.01, "codeDistance", "codeDistance", max_code_distance=5
        )
        with pytest.raises(DistanceExhaustedError):
            compute_code_distance(scheme, 9e-3, 1e-30)

    def test_necessity_and_sufficiency(self):
        for target in (1e-6, 1e-9, 1e-12, 1e-15):
            d = compute_code_distance(SURFACE_CODE, 1e-4, target)
            assert logical_error_rate(SURFACE_CODE, 1e-4, d) <= target
            if d > 3:
                assert logical_error_rate(SURFACE_CODE, 1e-4, d - 2) > target

    def test_monotone_in_target_and_rate(self):
        rates = [10**e for e in (-5, -4.5, -4, -3.5, -3)]
        targets = [10**e for e in range(-6, -19, -1)]
        for p in rates:
            previous = None
            for target in targets:
                d = compute_code_distance(SURFACE_CODE, p, target)
                if previous is not None:
                    assert d >= previous
                previous = d
        for target in targets:
            previous = None
            for p in rates:
                d = compute_code_distance(SURFACE_CODE, p, target)
                if previous is not None:
                    assert d >= previous
                previous = d


class TestLogicalQubitProfile:
    def test_surface_footprint(self):
        profile = logical_qubit_profile(SURFACE_CODE, gate_params(), 11)
        assert profile.physical_qubits_per_logical_qubit == 242
        assert profile.logical_cycle_time == 4400.0

    def test_floquet_footprint(self):
        profile = logical_qubit_profile(FLOQUET_CODE, majorana_params(), 15)
        assert profile.physical_qubits_per_logical_qubit == 1012

    def test_floquet_cycle_and_clock(self):
        profile = logical_qubit_profile(FLOQUET_CODE, majorana_params(), 15)
        assert profile.logical_cycle_time == 4500.0
        assert profile.logical_clock_speed == pytest.approx(2.22e5, rel=1e-2)

    def test_clock_is_inverse_cycle(self):
        for d in (3, 9, 25, 51):
            profile = logical_qubit_profile(FLOQUET_CODE, majorana_params(), d)
            seconds = profile.logical_cycle_time * 1e-9
            assert profile.logical_clock_speed * seconds == pytest.approx(1.0, rel=1e-12)

    def test_error_rate_matches_crossing_model(self):
        profile = logical_qubit_profile(SURFACE_CODE, gate_params(), 9)
        assert profile.logical_error_rate_per_cycle == 0.03 * (1e-4 / 0.01) ** 5

    def test_profile_meets_target_at_computed_distance(self):
        rate = required_logical_error_rate(1e-4 / 3, 20597, int(5.44e6))
        d = compute_code_distance(FLOQUET_CODE, 1e-4, rate)
        profile = logical_qubit_profile(FLOQUET_CODE, majorana_params(), d)
        assert profile.logical_error_rate_per_cycle <= rate

    def test_even_or_out_of_range_distance_rejected(self):
        with pytest.raises(ValueError):
            logical_qubit_profile(SURFACE_CODE, gate_params(), 8)
        with pytest.raises(ValueError):
            logical_qubit_profile(SURFACE_CODE, gate_params(), 1)
        with pytest.raises(ValueError):
            logical_qubit_profile(SURFACE_CODE, gate_params(), 53)

    @pytest.mark.parametrize(
        "cycle, footprint", [("1e300 * 1e300", "codeDistance"), ("codeDistance", "1e300 * 1e300")]
    )
    def test_overflowing_formula_is_config_error(self, cycle, footprint):
        scheme = QecScheme.from_strings("huge", 0.03, 0.01, cycle, footprint)
        with pytest.raises(ConfigError):
            evaluate_scheme_formulas(scheme, gate_params(), 3)

    def test_footprint_is_ceiling_of_formula(self):
        scheme = QecScheme.from_strings("frac", 0.03, 0.01, "codeDistance", "1.5 * codeDistance")
        _, footprint = evaluate_scheme_formulas(scheme, gate_params(), 3)
        assert footprint == 5


class TestSchemes:
    def test_builtin_lookup(self):
        assert get_scheme("surface_code") is SURFACE_CODE
        assert get_scheme("floquet_code") is FLOQUET_CODE
        assert get_scheme("hastings_haah") is FLOQUET_CODE

    def test_unknown_scheme(self):
        with pytest.raises(ConfigError):
            get_scheme("bacon_shor")

    def test_builtin_constants(self):
        assert SURFACE_CODE.crossing_prefactor == 0.03
        assert FLOQUET_CODE.crossing_prefactor == 0.07
        assert SURFACE_CODE.error_correction_threshold == 0.01
        assert FLOQUET_CODE.error_correction_threshold == 0.01
        assert SURFACE_CODE.max_code_distance == 51

    def test_custom_scheme_from_mapping(self):
        scheme = QecScheme.from_mapping(
            {
                "name": "custom",
                "crossingPrefactor": 0.05,
                "errorCorrectionThreshold": 0.005,
                "logicalCycleTime": "10 * codeDistance",
                "physicalQubitsPerLogicalQubit": "3 * codeDistance ^ 2",
                "maxCodeDistance": 25,
            }
        )
        assert scheme.max_code_distance == 25
        cycle, footprint = evaluate_scheme_formulas(scheme, gate_params(), 5)
        assert (cycle, footprint) == (50.0, 75)

    def test_mapping_round_trip(self):
        data = FLOQUET_CODE.as_mapping()
        clone = QecScheme.from_mapping(data)
        assert clone.as_mapping() == data

    def test_formulas_positive_over_distance_range(self):
        for scheme, params in (
            (SURFACE_CODE, gate_params()),
            (FLOQUET_CODE, majorana_params()),
        ):
            for d in range(3, scheme.max_code_distance + 1, 2):
                cycle, footprint = evaluate_scheme_formulas(scheme, params, d)
                assert cycle > 0 and footprint > 0

    def test_invalid_scheme_parameters(self):
        with pytest.raises(ConfigError):
            QecScheme.from_strings("bad", -1.0, 0.01, "1", "1")
        with pytest.raises(ConfigError):
            QecScheme.from_strings("bad", 0.03, 1.5, "1", "1")
        with pytest.raises(ConfigError):
            QecScheme.from_strings("bad", 0.03, 0.01, "1", "1", max_code_distance=10)

    def test_max_code_distance_is_capped_at_101(self):
        # the cap bounds the factory search, whose work grows with the distance
        widest = QecScheme.from_strings("wide", 0.03, 0.01, "1", "1", max_code_distance=101)
        assert widest.max_code_distance == 101
        with pytest.raises(ConfigError, match="maxCodeDistance must be at most 101, got 103"):
            QecScheme.from_strings("wide", 0.03, 0.01, "1", "1", max_code_distance=103)


class TestFromStrings:
    """``from_strings`` is the constructor with formula fields as source text."""

    ARGS = ("x", 0.03, 0.01, "3 * codeDistance", "2 * codeDistance ^ 2", 25)

    def test_formulas_are_parsed(self):
        scheme = QecScheme.from_strings(*self.ARGS)
        assert scheme == QecScheme(
            "x", 0.03, 0.01,
            parse_formula("3 * codeDistance"), parse_formula("2 * codeDistance ^ 2"), 25,
        )

    def test_non_string_formula_is_a_syntax_error_at_position_0(self):
        with pytest.raises(FormulaSyntaxError) as raised:
            QecScheme.from_strings("x", 0.03, 0.01, 5, "1")
        assert raised.value.position == 0
        assert str(raised.value) == "at position 0: expected a formula string, got 5"

    def test_syntax_error_beats_a_bad_value(self):
        # the prefactor is out of range too, but formulas are parsed first
        with pytest.raises(FormulaSyntaxError) as raised:
            QecScheme.from_strings("bad", -1.0, 0.01, "1 +", "1")
        assert raised.value.position == 3

    def test_keywords_equal_positions(self):
        names = QecScheme._field_names
        by_keyword = QecScheme.from_strings(**dict(zip(names, self.ARGS)))
        assert by_keyword == QecScheme.from_strings(*self.ARGS)

    def test_omitted_max_code_distance_takes_the_field_default(self):
        scheme = QecScheme.from_strings(*self.ARGS[:-1])
        default = inspect.signature(QecScheme).parameters["max_code_distance"].default
        assert scheme.max_code_distance == default == SURFACE_CODE.max_code_distance

    def test_missing_or_extra_arguments_are_type_errors(self):
        with pytest.raises(TypeError):
            QecScheme.from_strings(*self.ARGS[:4])
        with pytest.raises(TypeError):
            QecScheme.from_strings(*self.ARGS, 7)
        with pytest.raises(TypeError):
            QecScheme.from_strings(*self.ARGS, code_distance=7)

    @pytest.mark.parametrize("args, kwargs", [
        (("x", 0.03, 0.01, "1 +"), {}),  # physical_qubits_per_logical_qubit missing
        (("x", 0.03, 0.01, "1 +", "1", 25, 7), {}),  # one positional too many
        (("x", 0.03, 0.01, "1 +", "1"), {"code_distance": 7}),  # not a field
        (("x", 0.03, 0.01, "1 +", "1"), {"name": "y"}),  # given twice
    ])
    def test_argument_errors_come_before_formula_errors(self, args, kwargs):
        with pytest.raises(TypeError):
            QecScheme.from_strings(*args, **kwargs)


class TestFormulaRows:
    """The one builder of the rows every scheme and unit formula runs in."""

    def all_times(self):
        return gate_params(two_qubit_measurement_time=200.0)

    def test_a_row_plus_the_input_error_binds_the_distillation_variables(self):
        row = _distance_row(SURFACE_CODE, self.all_times(), 3)
        assert set(row) | {"inputErrorRate"} == DISTILLATION_VARIABLES
        assert set(_Rows(SURFACE_CODE, self.all_times())[None]) == set(row) - _DISTANCE_VARIABLES

    @pytest.mark.parametrize("which", ["cycle", "footprint"])
    @pytest.mark.parametrize(
        "name", sorted(DISTILLATION_VARIABLES - QEC_SCHEME_VARIABLES) + ["tGateTime"]
    )
    def test_scheme_formulas_see_only_the_scheme_variables(self, which, name):
        formulas = {"cycle": "codeDistance", "footprint": "codeDistance"}
        formulas[which] = f"{name} + codeDistance"
        scheme = QecScheme.from_strings("reads", 0.03, 0.01, formulas["cycle"], formulas["footprint"])
        with pytest.raises(UnboundVariableError):
            _distance_row(scheme, self.all_times(), 3)
        with pytest.raises(UnboundVariableError):
            evaluate_scheme_formulas(scheme, self.all_times(), 3)

    def test_only_the_distance_variables_change_with_the_distance(self):
        for scheme, params in ((SURFACE_CODE, self.all_times()), (FLOQUET_CODE, majorana_params())):
            low, high = (_distance_row(scheme, params, d) for d in (3, 5))
            assert set(low) == set(high)
            assert {name for name in low if low[name] != high[name]} == _DISTANCE_VARIABLES

    def test_evaluate_scheme_formulas_reads_the_row(self):
        row = _distance_row(FLOQUET_CODE, majorana_params(), 7)
        cycle, footprint = evaluate_scheme_formulas(FLOQUET_CODE, majorana_params(), 7)
        assert (cycle, footprint) == (row["logicalCycleTime"], row["physicalQubitsPerLogicalQubit"])
        assert type(footprint) is int
        assert _distance_row(FLOQUET_CODE, majorana_params(), 7) is not row  # each call's own
