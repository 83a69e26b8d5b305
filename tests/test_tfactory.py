"""T factory search and fleet sizing."""

import dataclasses
import itertools
import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftqc_estimator.errors import (
    ConfigError,
    DivisionByZeroError,
    FactoryConstraintInfeasibleError,
    FormulaDomainError,
    FormulaSyntaxError,
    NoFeasiblePipelineError,
    RuntimeTooShortError,
    UnboundVariableError,
)
from ftqc_estimator import formulas, tfactory
from ftqc_estimator.formulas import evaluate
from ftqc_estimator.qec import FLOQUET_CODE, QecScheme, evaluate_scheme_formulas
from ftqc_estimator.tfactory import (
    DEFAULT_15_TO_1,
    EMPTY_PLAN,
    Applicability,
    DistillationUnit,
    TFactoryConstraints,
    TFactoryPlan,
    required_t_state_error,
    search_pipeline,
    size_fleet,
)
from test_qec import majorana_params


class TestRequiredTStateError:
    def test_budget_over_demand(self):
        assert required_t_state_error(3.333e-5, 79) == pytest.approx(4.22e-7, rel=1e-2)

    def test_single_state(self):
        assert required_t_state_error(0.5, 1) == 0.5

    def test_heavy_demand(self):
        assert required_t_state_error(1e-4, 10**9) == 1e-13

    def test_validation(self):
        with pytest.raises(ValueError):
            required_t_state_error(0.0, 10)
        with pytest.raises(ValueError):
            required_t_state_error(0.1, 0)

    def test_demand_beyond_float_range_rejected(self):
        with pytest.raises(ConfigError, match="float range"):
            required_t_state_error(0.1, 10**400)


class TestUnitDefinition:
    def test_default_unit_shape(self):
        unit = DEFAULT_15_TO_1
        assert unit.num_input_ts == 15
        assert unit.num_output_ts == 1
        assert unit.applicability is Applicability.BOTH

    def test_output_error_cubes_input(self):
        env = {"inputErrorRate": 1e-4}
        assert evaluate(DEFAULT_15_TO_1.output_error_rate, env) == pytest.approx(3.5e-11)

    def test_must_concentrate(self):
        with pytest.raises(ConfigError):
            DistillationUnit.from_strings("bad", 5, 5, "0", "inputErrorRate", "1", "1")

    def test_allowed_distances(self):
        both = DEFAULT_15_TO_1.allowed_distances(7)
        assert both == (1, 3, 5, 7)
        physical = DistillationUnit.from_strings(
            "p", 15, 1, "0", "inputErrorRate / 2", "1", "1",
            applicability=Applicability.PHYSICAL_ONLY,
        )
        assert physical.allowed_distances(7) == (1,)
        logical = DistillationUnit.from_strings(
            "l", 15, 1, "0", "inputErrorRate / 2", "1", "1",
            applicability=Applicability.LOGICAL_ONLY,
        )
        assert logical.allowed_distances(7) == (3, 5, 7)



class TestFromStrings:
    """``from_strings`` is the constructor with formula fields as source text."""

    ARGS = ("u", 15, 1, "15 * inputErrorRate", "35 * inputErrorRate ^ 3", "31", "11")

    def test_formulas_are_parsed(self):
        unit = DistillationUnit.from_strings(*self.ARGS)
        assert unit == DistillationUnit(*self.ARGS[:3], *map(formulas.parse_formula, self.ARGS[3:]))
        assert DEFAULT_15_TO_1.output_error_rate == formulas.parse_formula("35 * inputErrorRate ^ 3")

    def test_non_string_formula_is_a_syntax_error_at_position_0(self):
        with pytest.raises(FormulaSyntaxError) as raised:
            DistillationUnit.from_strings(*self.ARGS[:6], 7)
        assert raised.value.position == 0
        assert str(raised.value) == "at position 0: expected a formula string, got 7"

    def test_formulas_are_parsed_in_field_order(self):
        with pytest.raises(FormulaSyntaxError) as raised:
            DistillationUnit.from_strings("u", 15, 1, "1 +", 5, "1", "1")
        assert raised.value.position == 3

    def test_syntax_error_beats_a_bad_value(self):
        # 5 -> 5 does not concentrate fidelity, but formulas are parsed first
        with pytest.raises(FormulaSyntaxError):
            DistillationUnit.from_strings("bad", 5, 5, "0", "(", "1", "1")

    def test_keywords_equal_positions(self):
        names = [f.name for f in dataclasses.fields(DistillationUnit)]
        by_keyword = DistillationUnit.from_strings(**dict(zip(names, self.ARGS)))
        assert by_keyword == DistillationUnit.from_strings(*self.ARGS)

    def test_omitted_applicability_takes_the_field_default(self):
        unit = DistillationUnit.from_strings(*self.ARGS)
        default = DistillationUnit.__dataclass_fields__["applicability"].default
        assert unit.applicability is default is Applicability.BOTH

    def test_missing_or_extra_arguments_are_type_errors(self):
        with pytest.raises(TypeError):
            DistillationUnit.from_strings(*self.ARGS[:6])
        with pytest.raises(TypeError):
            DistillationUnit.from_strings(*self.ARGS, Applicability.BOTH, 7)
        with pytest.raises(TypeError):
            DistillationUnit.from_strings(*self.ARGS, rounds=2)

    def test_record_without_formulas_is_its_constructor(self):
        assert TFactoryConstraints.from_strings(4, 2.5) == TFactoryConstraints(4, 2.5)
        assert TFactoryConstraints.from_strings(max_t_factory_copies=4) == TFactoryConstraints(4)


class TestSearchPipeline:
    def test_single_round_suffices(self):
        plan = search_pipeline(
            (DEFAULT_15_TO_1,), FLOQUET_CODE, majorana_params(), 1e-4, 1e-10
        )
        assert len(plan.rounds) == 1
        assert plan.output_error_rate == pytest.approx(3.5e-11)
        assert plan.output_error_rate <= 1e-10
        assert plan.t_states_per_run == 1

    def test_two_rounds_needed(self):
        plan = search_pipeline(
            (DEFAULT_15_TO_1,), FLOQUET_CODE, majorana_params(), 1e-4, 1e-12
        )
        assert len(plan.rounds) == 2
        assert plan.output_error_rate == pytest.approx(1.5e-30, rel=1e-2)
        # the first round must feed the second round's 15 inputs
        assert [r.num_parallel_units for r in plan.rounds] == [15, 1]

    def test_loose_target_still_runs_one_round(self):
        # target above the input error: a single round always improves it
        plan = search_pipeline(
            (DEFAULT_15_TO_1,), FLOQUET_CODE, majorana_params(), 1e-4, 5e-4
        )
        assert len(plan.rounds) == 1

    def test_no_feasible_pipeline(self):
        with pytest.raises(NoFeasiblePipelineError):
            search_pipeline(
                (DEFAULT_15_TO_1,), FLOQUET_CODE, majorana_params(), 1e-4, 1e-95
            )

    def test_failure_probability_at_or_above_one_invalidates_round(self):
        # 15 * 0.08 > 1: retries never succeed, so no chain exists
        hot = majorana_params(t_gate_error_rate=0.08)
        with pytest.raises(NoFeasiblePipelineError):
            search_pipeline((DEFAULT_15_TO_1,), FLOQUET_CODE, hot, 0.08, 1e-6)

    @pytest.mark.parametrize("field", ["physical_qubits", "duration"])
    def test_overflowing_cost_invalidates_round(self, field):
        huge = dataclasses.replace(
            DEFAULT_15_TO_1, name="huge", **{field: formulas.parse_formula("1e300 * 1e300")}
        )
        with pytest.raises(NoFeasiblePipelineError):
            search_pipeline((huge,), FLOQUET_CODE, majorana_params(), 1e-4, 1e-10)
        plan = search_pipeline(
            (huge, DEFAULT_15_TO_1), FLOQUET_CODE, majorana_params(), 1e-4, 1e-10
        )
        assert {r.unit_name for r in plan.rounds} == {"15-to-1"}

    def test_duration_includes_expected_retries(self):
        plan = search_pipeline(
            (DEFAULT_15_TO_1,), FLOQUET_CODE, majorana_params(), 1e-4, 1e-10
        )
        d = plan.rounds[0].code_distance
        cycle, _ = evaluate_scheme_formulas(FLOQUET_CODE, majorana_params(), d)
        failure = 15 * 1e-4
        assert plan.duration_per_run == pytest.approx(11 * cycle / (1 - failure))

    def test_round_durations_add_left_to_right(self, small_scheme):
        # three rounds of 1e16, 1.0001 and 1 ns: adding left to right rounds
        # twice, to 1e16 + 4, where a compensated sum (CPython 3.12's sum())
        # gives 1e16 + 2, and the report bytes would depend on the version
        unit = physical_unit("steep", 2, 1, "0", "inputErrorRate / 10", "1",
                             "1 + 1e76 * inputErrorRate ^ 20")
        params = majorana_params(t_gate_error_rate=1e-3)
        plan = search_pipeline((unit,), small_scheme, params, 1e-3, 2e-6)
        assert len(plan.rounds) == 3
        errors = [1e-3]
        for _ in range(2):
            errors.append(evaluate(unit.output_error_rate, {"inputErrorRate": errors[-1]}))
        durations = [evaluate(unit.duration, {"inputErrorRate": e}) for e in errors]
        assert plan.duration_per_run == (durations[0] + durations[1]) + durations[2]
        assert plan.duration_per_run != math.fsum(durations)

    def test_prefers_fewest_qubits(self):
        plan = search_pipeline(
            (DEFAULT_15_TO_1,), FLOQUET_CODE, majorana_params(), 1e-4, 1e-10
        )
        # one 15-to-1 unit at the cheapest allowed distance
        _, footprint = evaluate_scheme_formulas(
            FLOQUET_CODE, majorana_params(), plan.rounds[0].code_distance
        )
        assert plan.physical_qubits_per_copy == 31 * footprint
        cheapest = min(
            31 * evaluate_scheme_formulas(FLOQUET_CODE, majorana_params(), d)[1]
            for d in DEFAULT_15_TO_1.allowed_distances(FLOQUET_CODE.max_code_distance)
        )
        assert plan.physical_qubits_per_copy == cheapest

    def test_scheme_invalid_at_distance_one_disables_physical_rounds(self):
        # footprint goes non-positive at distance 1; the scheme only promises
        # positivity from distance 3 up, so physical-level rounds drop out
        scheme = QecScheme.from_strings(
            "gapped",
            0.07,
            0.01,
            "3 * codeDistance * oneQubitMeasurementTime",
            "2 * codeDistance ^ 2 - 4",
        )
        plan = search_pipeline((DEFAULT_15_TO_1,), scheme, majorana_params(), 1e-4, 1e-10)
        assert all(r.code_distance >= 3 for r in plan.rounds)

    def test_unbound_scheme_variable_raises_at_distance_one(self):
        # unlike a domain error or a division by zero, it does not just drop
        # the physical-level round: it fails at every distance
        scheme = QecScheme.from_strings(
            "unbound", 0.07, 0.01, "codeDistance * cycleTime", "4 * codeDistance ^ 2"
        )
        physical = dataclasses.replace(DEFAULT_15_TO_1, applicability=Applicability.PHYSICAL_ONLY)
        with pytest.raises(UnboundVariableError, match="cycleTime"):
            search_pipeline((physical,), scheme, majorana_params(), 1e-4, 1e-10)

    def test_more_than_eight_units_rejected(self):
        with pytest.raises(ConfigError, match="at most 8 distillation units"):
            search_pipeline((DEFAULT_15_TO_1,) * 9, FLOQUET_CODE, majorana_params(), 1e-4, 1e-10)

    def test_validation(self):
        with pytest.raises(ConfigError):
            search_pipeline((), FLOQUET_CODE, majorana_params(), 1e-4, 1e-10)
        with pytest.raises(ValueError):
            search_pipeline((DEFAULT_15_TO_1,), FLOQUET_CODE, majorana_params(), 0.0, 1e-10)
        with pytest.raises(ValueError):
            search_pipeline((DEFAULT_15_TO_1,), FLOQUET_CODE, majorana_params(), 1e-4, 0.0)


# ---------------------------------------------------------------------------
# exhaustive small-instance oracle

NINE_TO_TWO = DistillationUnit.from_strings(
    name="9-to-2",
    num_input_ts=9,
    num_output_ts=2,
    failure_probability="9 * inputErrorRate",
    output_error_rate="20 * inputErrorRate ^ 2",
    physical_qubits="12 * physicalQubitsPerLogicalQubit",
    duration="5 * logicalCycleTime",
)

DISTANCE_AWARE = DistillationUnit.from_strings(
    name="distance-aware",
    num_input_ts=11,
    num_output_ts=1,
    failure_probability="11 * inputErrorRate",
    output_error_rate="100 * inputErrorRate ^ 2 / codeDistance",
    physical_qubits="20 * physicalQubitsPerLogicalQubit",
    duration="7 * logicalCycleTime",
    applicability=Applicability.LOGICAL_ONLY,
)


LOGICAL_15_TO_1 = dataclasses.replace(
    DEFAULT_15_TO_1, name="15-to-1-logical", applicability=Applicability.LOGICAL_ONLY
)


def oracle_search(units, scheme, params, input_error, required_error, max_rounds=3):
    """Independent full enumeration over every (unit, distance) chain.

    Returns ``(qubits per copy, duration, rounds, chain)`` for the first
    minimal key in enumeration order, where ``chain`` lists the
    ``(unit name, code distance)`` of each round; None when infeasible.
    """
    base_env = params.time_variables()
    base_env["cliffordErrorRate"] = params.clifford_error_rate
    best = None
    best_chain = None

    def round_env(distance, error):
        cycle, footprint = evaluate_scheme_formulas(scheme, params, distance)
        env = dict(base_env)
        env.update(
            codeDistance=float(distance),
            physicalQubitsPerLogicalQubit=float(footprint),
            logicalCycleTime=cycle,
            inputErrorRate=error,
        )
        return env

    for length in range(1, max_rounds + 1):
        for sequence in itertools.product(units, repeat=length):
            distance_axes = [u.allowed_distances(scheme.max_code_distance) for u in sequence]
            for distances in itertools.product(*distance_axes):
                error = input_error
                rows = []
                valid = True
                for unit, distance in zip(sequence, distances):
                    env = round_env(distance, error)
                    failure = evaluate(unit.failure_probability, env)
                    output = evaluate(unit.output_error_rate, env)
                    if not (0 <= failure < 1 and 0 < output < 1):
                        valid = False
                        break
                    qubits = math.ceil(evaluate(unit.physical_qubits, env))
                    duration = evaluate(unit.duration, env) / (1 - failure)
                    rows.append((unit, qubits, duration))
                    error = output
                if not valid or error > required_error:
                    continue
                parallel = [1] * length
                for k in range(length - 2, -1, -1):
                    needed = parallel[k + 1] * sequence[k + 1].num_input_ts
                    parallel[k] = math.ceil(needed / sequence[k].num_output_ts)
                copy_qubits = max(m * q for m, (_, q, _) in zip(parallel, rows))
                total_duration = sum(d for _, _, d in rows)
                key = (copy_qubits, total_duration, length)
                if best is None or key < best:
                    best = key
                    best_chain = [(u.name, d) for u, d in zip(sequence, distances)]
    return None if best is None else (*best, best_chain)


def chosen_rounds(plan):
    return [(r.unit_name, r.code_distance) for r in plan.rounds]


@pytest.fixture
def small_scheme():
    data = FLOQUET_CODE.as_mapping()
    data["maxCodeDistance"] = 13
    return QecScheme.from_mapping(data)


class TestSearchMatchesOracle:
    @pytest.mark.parametrize("required", [1e-7, 1e-10, 1e-13, 1e-21])
    def test_distance_free_units(self, small_scheme, required):
        units = (DEFAULT_15_TO_1, NINE_TO_TWO)
        params = majorana_params(t_gate_error_rate=1e-3)
        expected = oracle_search(units, small_scheme, params, 1e-3, required)
        plan = search_pipeline(units, small_scheme, params, 1e-3, required)
        assert expected is not None
        assert plan.physical_qubits_per_copy == expected[0]
        assert plan.duration_per_run == pytest.approx(expected[1])
        assert len(plan.rounds) == expected[2]
        assert chosen_rounds(plan) == expected[3]

    @pytest.mark.parametrize("required", [1e-7, 1e-9, 1e-14])
    def test_distance_dependent_units(self, small_scheme, required):
        units = (DEFAULT_15_TO_1, NINE_TO_TWO, DISTANCE_AWARE)
        params = majorana_params(t_gate_error_rate=1e-3)
        expected = oracle_search(units, small_scheme, params, 1e-3, required)
        plan = search_pipeline(units, small_scheme, params, 1e-3, required)
        assert expected is not None
        assert plan.physical_qubits_per_copy == expected[0]
        assert plan.duration_per_run == pytest.approx(expected[1])
        assert len(plan.rounds) == expected[2]
        assert chosen_rounds(plan) == expected[3]

    @pytest.mark.parametrize("required", [1e-6, 1e-9, 1e-12, 1e-15])
    def test_logical_only_units(self, small_scheme, required):
        # no physical-level option: every round runs at a distance >= 3
        units = (LOGICAL_15_TO_1, DISTANCE_AWARE)
        params = majorana_params(t_gate_error_rate=1e-3)
        expected = oracle_search(units, small_scheme, params, 1e-3, required)
        plan = search_pipeline(units, small_scheme, params, 1e-3, required)
        assert expected is not None
        assert plan.physical_qubits_per_copy == expected[0]
        assert plan.duration_per_run == pytest.approx(expected[1])
        assert len(plan.rounds) == expected[2]
        assert chosen_rounds(plan) == expected[3]
        assert all(d >= 3 for _, d in chosen_rounds(plan))

    def test_distance_dependent_unit_skips_a_rejected_physical_level(self):
        # the footprint is non-positive at distance 1, so the unit's
        # distance-1 branch drops out; the oracle sees logical levels only
        scheme = QecScheme.from_strings(
            "gapped",
            0.07,
            0.01,
            "3 * codeDistance * oneQubitMeasurementTime",
            "2 * codeDistance ^ 2 - 8",
            max_code_distance=13,
        )
        unit = dataclasses.replace(DISTANCE_AWARE, applicability=Applicability.BOTH)
        assert 1 in unit.allowed_distances(scheme.max_code_distance)
        units = (DEFAULT_15_TO_1, unit)
        logical = [dataclasses.replace(u, applicability=Applicability.LOGICAL_ONLY) for u in units]
        params = majorana_params(t_gate_error_rate=1e-3)
        expected = oracle_search(logical, scheme, params, 1e-3, 1e-9)
        plan = search_pipeline(units, scheme, params, 1e-3, 1e-9)
        assert expected is not None
        assert plan.physical_qubits_per_copy == expected[0]
        assert plan.duration_per_run == pytest.approx(expected[1])
        assert len(plan.rounds) == expected[2]
        assert chosen_rounds(plan) == expected[3]

    def test_infeasible_agrees_with_oracle(self, small_scheme):
        units = (DEFAULT_15_TO_1,)
        params = majorana_params(t_gate_error_rate=1e-3)
        assert oracle_search(units, small_scheme, params, 1e-3, 1e-70) is None
        with pytest.raises(NoFeasiblePipelineError):
            search_pipeline(units, small_scheme, params, 1e-3, 1e-70)


def physical_unit(name, inputs, outputs, failure, output, qubits, duration):
    return DistillationUnit.from_strings(
        name, inputs, outputs, failure, output, qubits, duration, Applicability.PHYSICAL_ONLY
    )


# one round of it reaches 1e-7 from 1e-3 at 31 logical qubits' footprint
PHYSICAL_15_TO_1 = dataclasses.replace(
    DEFAULT_15_TO_1, name="15-to-1-physical", applicability=Applicability.PHYSICAL_ONLY
)


def nine_to_one(failure="9 * inputErrorRate"):
    # narrower than 15-to-1, but one round only reaches 1e-5, and any next
    # round needs at least 9 of them: 36 logical qubits' footprint
    return physical_unit(
        "9-to-1", 9, 1, failure, "10 * inputErrorRate ^ 2",
        "4 * physicalQubitsPerLogicalQubit", "5 * logicalCycleTime",
    )


def input_errors_seen(monkeypatch):
    """The inputErrorRate of every unit formula evaluation from now on."""
    seen = set()
    evaluate_once = formulas.evaluate

    def recording(expr, env):
        if "inputErrorRate" in env:  # not a scheme formula
            seen.add(env["inputErrorRate"])
        return evaluate_once(expr, env)

    monkeypatch.setattr(formulas, "evaluate", recording)
    return seen


class TestSearchBounds:
    def test_lookahead_cuts_a_wide_prefix(self, small_scheme, monkeypatch):
        units = (PHYSICAL_15_TO_1, nine_to_one())
        params = majorana_params(t_gate_error_rate=1e-3)
        expected = oracle_search(units, small_scheme, params, 1e-3, 1e-7)
        seen = input_errors_seen(monkeypatch)
        plan = search_pipeline(units, small_scheme, params, 1e-3, 1e-7)
        assert chosen_rounds(plan) == expected[3] == [("15-to-1-physical", 1)]
        assert plan.physical_qubits_per_copy == expected[0]
        # one 9-to-1 is narrower than the 15-to-1 chain, so it is a round of
        # its own, but the 9 it takes to feed a next round are wider: the
        # 9-to-1 prefix is never extended
        assert seen == {1e-3}

    def test_equal_cap_still_competes_on_duration(self, small_scheme):
        # one slow round at 30 qubits reaches the target; a fast prefix of 3
        # qubits has a lookahead bound of 10 * 3 = 30, equal to that cap, and
        # two fast rounds reach the target at cap 30 in a fiftieth of the time
        slow = physical_unit("slow", 15, 1, "15 * inputErrorRate",
                             "35 * inputErrorRate ^ 3", "30", "1000")
        fast = physical_unit("fast", 10, 1, "inputErrorRate", "inputErrorRate ^ 2", "3", "10")
        units = (slow, fast)
        params = majorana_params(t_gate_error_rate=1e-3)
        expected = oracle_search(units, small_scheme, params, 1e-3, 1e-7)
        plan = search_pipeline(units, small_scheme, params, 1e-3, 1e-7)
        assert chosen_rounds(plan) == expected[3] == [("fast", 1), ("fast", 1)]
        assert [r.num_parallel_units for r in plan.rounds] == [10, 1]
        assert plan.physical_qubits_per_copy == expected[0] == 30
        assert plan.duration_per_run == pytest.approx(expected[1])

    def test_equal_key_chain_earlier_in_unit_order_wins(self, small_scheme, monkeypatch):
        # 9-to-1 then 15-to-1 and 15-to-1 then 9-to-1 tie on (cap 45, 10 ns,
        # 2 rounds).  The 9-to-1 prefix has the lower lookahead bound (27
        # against 45), so it is extended first, yet the chain that comes
        # first in unit-list order wins, as in the oracle's enumeration
        wide = physical_unit("wide", 15, 1, "0", "10 * inputErrorRate ^ 3", "5", "7")
        narrow = physical_unit("narrow", 9, 1, "0", "inputErrorRate / 100", "3", "3")
        units = (wide, narrow)
        params = majorana_params(t_gate_error_rate=1e-2)
        expected = oracle_search(units, small_scheme, params, 1e-2, 5e-7)
        seen = []
        evaluate_once = formulas.evaluate

        def recording(expr, env):
            if "inputErrorRate" in env and env["inputErrorRate"] not in seen:
                seen.append(env["inputErrorRate"])
            return evaluate_once(expr, env)

        monkeypatch.setattr(formulas, "evaluate", recording)
        plan = search_pipeline(units, small_scheme, params, 1e-2, 5e-7)
        assert seen[:2] == [1e-2, evaluate(narrow.output_error_rate, {"inputErrorRate": 1e-2})]
        assert chosen_rounds(plan) == expected[3] == [("wide", 1), ("narrow", 1)]
        assert (plan.physical_qubits_per_copy, plan.duration_per_run) == expected[:2] == (45, 10.0)

    def test_costs_that_read_the_input_error_are_not_memoized(self, small_scheme):
        # both rounds use this unit; the second sees a far cleaner input, so
        # it is narrower and shorter than the first
        noisy = dataclasses.replace(
            PHYSICAL_15_TO_1,
            name="noisy-cost",
            physical_qubits=formulas.parse_formula(
                "31 * physicalQubitsPerLogicalQubit * (1 + 100 * inputErrorRate)"
            ),
            duration=formulas.parse_formula("11 * logicalCycleTime * (1 + 100 * inputErrorRate)"),
        )
        params = majorana_params(t_gate_error_rate=1e-3)
        expected = oracle_search((noisy,), small_scheme, params, 1e-3, 1e-12)
        plan = search_pipeline((noisy,), small_scheme, params, 1e-3, 1e-12)
        assert chosen_rounds(plan) == expected[3] == [("noisy-cost", 1)] * 2
        assert plan.physical_qubits_per_copy == expected[0]
        assert plan.duration_per_run == pytest.approx(expected[1])
        # a logical cycle at distance 1 takes 300 ns
        first_round = 11 * 300.0 * (1 + 100 * 1e-3) / (1 - 15 * 1e-3)
        assert plan.duration_per_run != pytest.approx(2 * first_round)


class TestSearchErrorOrder:
    def test_first_failing_cost_formula_in_distance_order(self, small_scheme):
        # a distance-free unit: its qubits formula fails at every distance
        # from 9 on and its duration divides by zero at 7; costs are
        # evaluated per ascending distance, so the division comes first
        unit = DistillationUnit.from_strings(
            "div-at-7", 15, 1, "15 * inputErrorRate", "35 * inputErrorRate ^ 3",
            "20 * physicalQubitsPerLogicalQubit * sqrt(7.5 - codeDistance)",
            "11 * logicalCycleTime / (codeDistance - 7)",
            Applicability.LOGICAL_ONLY,
        )
        params = majorana_params(t_gate_error_rate=1e-3)
        for units in ((PHYSICAL_15_TO_1, unit), (unit, PHYSICAL_15_TO_1)):
            with pytest.raises(DivisionByZeroError, match=r"^23100 / 0$"):
                search_pipeline(units, small_scheme, params, 1e-3, 1e-7)

    def test_formula_failing_only_in_a_cut_subtree_is_not_evaluated(self, small_scheme):
        # the 9-to-1's failure formula divides by zero for inputs below 1e-4,
        # i.e. in any round after its own.  An exhaustive search raises
        # DivisionByZeroError("1e-05 / 0") there; the lookahead bound never
        # extends the 9-to-1 prefix, so the search returns the 15-to-1 chain
        units = (PHYSICAL_15_TO_1, nine_to_one("inputErrorRate / floor(inputErrorRate * 1e4)"))
        params = majorana_params(t_gate_error_rate=1e-3)
        plan = search_pipeline(units, small_scheme, params, 1e-3, 1e-7)
        assert chosen_rounds(plan) == [("15-to-1-physical", 1)]

    def test_formula_error_met_only_out_of_unit_order_falls_back(self, small_scheme):
        # the narrow unit's failure formula takes the root of a negative
        # number for inputs in (5e-10, 5e-9), i.e. in a third narrow round.
        # Extending the narrower prefix first reaches that round; a search in
        # unit-list order has found wide x 2 at cap 150 by then and never
        # extends narrow, narrow, so the search returns that plan
        wide = physical_unit("wide", 15, 1, "15 * inputErrorRate",
                             "35 * inputErrorRate ^ 3", "10", "11")
        narrow = physical_unit(
            "narrow", 9, 1,
            "9 * inputErrorRate + 0 * sqrt((inputErrorRate - 5e-9) * (inputErrorRate - 5e-10))",
            "10 * inputErrorRate ^ 2", "2", "5",
        )
        with pytest.raises(FormulaDomainError):
            evaluate(narrow.failure_probability, {"inputErrorRate": 1e-9})
        params = majorana_params(t_gate_error_rate=1e-3)
        plan = search_pipeline((wide, narrow), small_scheme, params, 1e-3, 1e-14)
        assert chosen_rounds(plan) == [("wide", 1), ("wide", 1)]
        assert [r.num_parallel_units for r in plan.rounds] == [15, 1]
        assert plan.physical_qubits_per_copy == 150


# error formulas: distance-free, then distance-dependent (a 1/d factor, or
# an error floor that falls with the distance as in the crossing model)
_OUTPUT_ERRORS = (
    "{c} * inputErrorRate ^ {p}",
    "{c} * inputErrorRate ^ {p} / codeDistance",
    "{c} * inputErrorRate ^ {p} + 0.1 * (cliffordErrorRate / 0.01) ^ ((codeDistance + 1) / 2)",
)
# cost formulas with and without the input error
_QUBITS = (
    "{q} * physicalQubitsPerLogicalQubit",
    "{q} * physicalQubitsPerLogicalQubit * (1 + 100 * inputErrorRate)",
)
_DURATIONS = (
    "{t} * logicalCycleTime",
    "{t} * logicalCycleTime * (1 + 100 * inputErrorRate)",
)


@st.composite
def unit_sets(draw):
    units = []
    for index in range(draw(st.integers(1, 3))):
        if units and draw(st.booleans()):
            # a renamed copy: chains through either tie on every key
            copied = draw(st.sampled_from(units))
            units.append(dataclasses.replace(copied, name=f"unit-{index}"))
            continue
        outputs = draw(st.integers(1, 4))
        values = dict(
            c=draw(st.integers(1, 100)),
            p=draw(st.integers(2, 3)),
            q=draw(st.floats(5, 40)),
            t=draw(st.floats(3, 15)),
        )
        units.append(
            DistillationUnit.from_strings(
                name=f"unit-{index}",
                num_input_ts=outputs + draw(st.integers(1, 16)),
                num_output_ts=outputs,
                failure_probability=f"{draw(st.integers(1, 20))} * inputErrorRate",
                output_error_rate=draw(st.sampled_from(_OUTPUT_ERRORS)).format(**values),
                physical_qubits=draw(st.sampled_from(_QUBITS)).format(**values),
                duration=draw(st.sampled_from(_DURATIONS)).format(**values),
                applicability=draw(st.sampled_from(Applicability)),
            )
        )
    return tuple(units)


class TestSearchMatchesOracleOnRandomUnits:
    @settings(max_examples=100, deadline=None)
    @given(
        units=unit_sets(),
        max_code_distance=st.sampled_from((3, 5, 7, 9, 11, 13)),
        required=st.integers(-16, -4).map(lambda exponent: 10.0**exponent),
        max_rounds=st.integers(1, 3),
    )
    def test_same_chain_as_oracle(self, units, max_code_distance, required, max_rounds):
        data = FLOQUET_CODE.as_mapping()
        data["maxCodeDistance"] = max_code_distance
        scheme = QecScheme.from_mapping(data)
        params = majorana_params(t_gate_error_rate=1e-3)
        expected = oracle_search(units, scheme, params, 1e-3, required, max_rounds)
        with mock.patch.object(tfactory, "MAX_ROUNDS", max_rounds):
            if expected is None:
                with pytest.raises(NoFeasiblePipelineError):
                    search_pipeline(units, scheme, params, 1e-3, required)
                return
            plan = search_pipeline(units, scheme, params, 1e-3, required)
        assert plan.physical_qubits_per_copy == expected[0]
        assert plan.duration_per_run == pytest.approx(expected[1])
        assert len(plan.rounds) == expected[2]
        assert chosen_rounds(plan) == expected[3]


# ---------------------------------------------------------------------------
# fleet sizing


def flat_plan(duration=1e5, qubits=1000, per_run=1):
    return TFactoryPlan(
        rounds=(),
        output_error_rate=1e-12,
        duration_per_run=duration,
        physical_qubits_per_copy=qubits,
        t_states_per_run=per_run,
    )


class TestSizeFleet:
    def test_unconstrained(self):
        plan, slowdown = size_fleet(flat_plan(), 79, 1e6)
        assert plan.runs_per_copy == 10
        assert plan.num_copies == 8
        assert slowdown == 1.0
        assert plan.factory_physical_qubits == 8000

    @pytest.mark.parametrize(
        "limits", [{"max_t_factory_copies": 0}, {"max_logical_cycle_slowdown": math.nan}]
    )
    def test_constraints_are_checked_at_construction(self, limits):
        # unchecked, zero copies divide by zero in size_fleet and a NaN cap
        # compares false with every slowdown, which switches the cap off
        with pytest.raises(ConfigError):
            TFactoryConstraints(**limits)

    def test_negative_demand_rejected(self):
        with pytest.raises(ConfigError, match="total T states must be >= 0"):
            size_fleet(EMPTY_PLAN, -1, 1.0)

    def test_zero_demand(self):
        plan, slowdown = size_fleet(flat_plan(), 0, 1e6)
        assert plan.num_copies == 0
        assert plan.runs_per_copy == 0
        assert plan.factory_physical_qubits == 0
        assert slowdown == 1.0

    def test_copy_limit_triggers_slowdown(self):
        constraints = TFactoryConstraints(
            max_t_factory_copies=4, max_logical_cycle_slowdown=2.0
        )
        plan, slowdown = size_fleet(flat_plan(), 79, 1e6, constraints)
        assert plan.num_copies == 4
        assert plan.runs_per_copy == 20
        assert slowdown == pytest.approx(2.0)

    def test_copy_limit_without_slowdown_allowance(self):
        constraints = TFactoryConstraints(max_t_factory_copies=4)
        with pytest.raises(FactoryConstraintInfeasibleError):
            size_fleet(flat_plan(), 79, 1e6, constraints)

    def test_copy_limit_beyond_max_slowdown(self):
        constraints = TFactoryConstraints(
            max_t_factory_copies=1, max_logical_cycle_slowdown=2.0
        )
        with pytest.raises(FactoryConstraintInfeasibleError):
            size_fleet(flat_plan(), 79, 1e6, constraints)

    def test_runtime_too_short(self):
        with pytest.raises(RuntimeTooShortError):
            size_fleet(flat_plan(duration=2e6), 10, 1e6)

    def test_runtime_too_short_even_stretched(self):
        constraints = TFactoryConstraints(
            max_t_factory_copies=100, max_logical_cycle_slowdown=1.5
        )
        with pytest.raises(RuntimeTooShortError):
            size_fleet(flat_plan(duration=2e6), 10, 1e6, constraints)

    def test_stretch_can_rescue_short_runtime(self):
        constraints = TFactoryConstraints(
            max_t_factory_copies=10, max_logical_cycle_slowdown=4.0
        )
        plan, slowdown = size_fleet(flat_plan(duration=2e6), 10, 1e6, constraints)
        assert plan.num_copies <= 10
        assert plan.runs_per_copy >= 1
        assert 1.0 < slowdown <= 4.0

    def test_supply_covers_demand(self):
        for demand in (1, 7, 79, 1000, 123457):
            for runtime in (2e5, 1e6, 3.7e7):
                plan, _ = size_fleet(flat_plan(), demand, runtime)
                assert plan.num_copies * plan.runs_per_copy * plan.t_states_per_run >= demand

    def test_more_slowdown_never_more_copies(self):
        previous = None
        for stretch in (1.0, 1.5, 2.0, 4.0):
            plan, _ = size_fleet(flat_plan(), 12345, 1e6 * stretch)
            if previous is not None:
                assert plan.num_copies <= previous
            previous = plan.num_copies
