"""Full estimation pipeline: budget partitioning, reports, and frontiers."""

import importlib
import json
import pkgutil
import random
from pathlib import Path

import pytest

import ftqc_estimator
from ftqc_estimator import tfactory
from ftqc_estimator.counts import LogicalCounts
from ftqc_estimator.errors import (
    ConfigError,
    EstimationStageError,
    InvalidPartitionError,
    JsonRecord,
    NoFeasiblePipelineError,
)
from ftqc_estimator.jobs import load_job, run_job
from ftqc_estimator.layout import DEFAULT_SYNTHESIS
from ftqc_estimator.pipeline import (
    ErrorBudget,
    PostLayoutInput,
    estimate,
    frontier,
    partition_budget,
)
from ftqc_estimator.profiles import BUILTIN_PROFILE_NAMES, load_profile
from ftqc_estimator.qec import FLOQUET_CODE, SURFACE_CODE, QecScheme
from ftqc_estimator.tfactory import DEFAULT_15_TO_1, TFactoryConstraints
from test_qec import gate_params, majorana_params

ANCHOR_QUBITS = 20597
ANCHOR_DEPTH = int(5.44e6)

# a real job with custom units, and its report, for the records they hold;
# and a post-layout report, which has no pre-layout counts
GOLDEN = Path(__file__).parent / "golden"
JOB = load_job(GOLDEN / "distance_dependent_units.json")
REPORT = run_job(JOB)
POST_LAYOUT_REPORT = run_job(load_job(GOLDEN / "maj_ns_e6_post_layout.json"))

RECORDS = [
    SURFACE_CODE,
    FLOQUET_CODE,
    DEFAULT_15_TO_1,
    *(load_profile(name) for name in BUILTIN_PROFILE_NAMES),
    *(load_profile(name).qubit_params for name in BUILTIN_PROFILE_NAMES),
    DEFAULT_SYNTHESIS,
    ErrorBudget(1e-3, logical=5e-4, t_states=3e-4, rotations=2e-4),
    PostLayoutInput(100, 2000, 50000),
    TFactoryConstraints(max_t_factory_copies=4, max_logical_cycle_slowdown=2.5),
    TFactoryConstraints(),
    JOB,
    JOB.input,
    REPORT.pre_layout_logical_resources,
    REPORT.logical_qubit_parameters,
    REPORT.assumed_error_budget,
    REPORT.physical_resource_estimates,
    REPORT.resource_estimates_breakdown,
    REPORT.t_factory_parameters.rounds[0],
    REPORT.t_factory_parameters,
    REPORT,
    POST_LAYOUT_REPORT,
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: type(record).__name__)
def test_record_round_trips_through_its_mapping(record):
    assert type(record).from_mapping(record.as_mapping()) == record


def test_every_record_is_round_tripped():
    for module in pkgutil.iter_modules(ftqc_estimator.__path__):
        importlib.import_module(f"ftqc_estimator.{module.name}")
    records = {
        cls for cls in JsonRecord.__subclasses__() if cls.__module__.startswith("ftqc_estimator.")
    }
    assert records == {type(record) for record in RECORDS}
    # the writer writes every record from its fields
    assert all(cls.as_mapping is JsonRecord.as_mapping for cls in records)


def anchor_report(**overrides):
    kwargs = dict(
        post_layout=PostLayoutInput(ANCHOR_QUBITS, ANCHOR_DEPTH),
        qubit_params=majorana_params(),
        qec_scheme=FLOQUET_CODE,
        error_budget=1e-4,
    )
    kwargs.update(overrides)
    return estimate(**kwargs)


class TestPartitionBudget:
    def test_default_thirds(self):
        parts = partition_budget(ErrorBudget(1e-4), True, True)
        assert parts.logical == pytest.approx(3.333e-5, rel=1e-3)
        assert parts.t_states == pytest.approx(3.333e-5, rel=1e-3)
        assert parts.rotations == pytest.approx(3.333e-5, rel=1e-3)
        assert parts.logical + parts.t_states + parts.rotations == pytest.approx(
            1e-4, abs=1e-12
        )

    def test_absent_features_fold_into_logical(self):
        parts = partition_budget(ErrorBudget(0.01), False, False)
        assert (parts.logical, parts.t_states, parts.rotations) == (0.01, 0.0, 0.0)

    def test_t_only_workload(self):
        parts = partition_budget(ErrorBudget(0.03), False, True)
        assert parts.rotations == 0.0
        assert parts.t_states == 0.01
        assert parts.logical + parts.t_states == pytest.approx(0.03, abs=1e-12)

    def test_explicit_parts_pass_through(self):
        budget = ErrorBudget(1e-4, logical=0.5e-4, t_states=0.3e-4, rotations=0.2e-4)
        parts = partition_budget(budget, True, True)
        assert parts.logical == 0.5e-4
        assert parts.t_states == 0.3e-4
        assert parts.rotations == 0.2e-4

    def test_explicit_budget_is_returned_itself(self):
        budget = ErrorBudget(1e-4, logical=0.5e-4, t_states=0.3e-4, rotations=0.2e-4)
        assert partition_budget(budget, False, False) is budget

    def test_default_split_is_an_explicit_error_budget(self):
        parts = partition_budget(ErrorBudget(1e-4), True, False)
        assert type(parts) is ErrorBudget
        assert partition_budget(parts, True, False) is parts

    def test_explicit_parts_must_sum(self):
        budget = ErrorBudget(1e-4, logical=0.5e-4, t_states=0.3e-4, rotations=0.1e-4)
        with pytest.raises(InvalidPartitionError):
            partition_budget(budget, True, True)

    def test_partial_parts_rejected(self):
        with pytest.raises(InvalidPartitionError):
            ErrorBudget(1e-4, logical=0.5e-4)

    def test_total_range(self):
        with pytest.raises(ConfigError):
            ErrorBudget(0.0)
        with pytest.raises(ConfigError):
            ErrorBudget(1.0)


class TestMinimalPrograms:
    def test_one_measurement(self):
        counts = LogicalCounts(num_qubits=1, measurement_count=1)
        report = estimate(
            counts,
            qubit_params=majorana_params(),
            qec_scheme=FLOQUET_CODE,
            error_budget=0.01,
        )
        breakdown = report.resource_estimates_breakdown
        assert breakdown.algorithmic_depth == 1
        assert breakdown.num_t_states == 0
        assert breakdown.num_t_factory_copies == 0
        assert breakdown.t_factory_physical_qubits == 0
        profile = report.logical_qubit_parameters
        assert report.physical_resource_estimates.runtime == profile.logical_cycle_time
        # all logical qubits from the layout carry one footprint each
        assert report.physical_resource_estimates.physical_qubits == (
            breakdown.logical_qubits_post_layout * profile.physical_qubits_per_logical_qubit
        )
        assert breakdown.logical_qubits_post_layout == 6

    def test_input_mode_is_exclusive(self):
        counts = LogicalCounts(num_qubits=1, measurement_count=1)
        with pytest.raises(ConfigError):
            estimate(
                counts,
                post_layout=PostLayoutInput(10, 10),
                qubit_params=majorana_params(),
                qec_scheme=FLOQUET_CODE,
                error_budget=0.01,
            )
        with pytest.raises(ConfigError):
            estimate(
                qubit_params=majorana_params(),
                qec_scheme=FLOQUET_CODE,
                error_budget=0.01,
            )


class TestWorkloadAnchor:
    def test_code_distance_15(self):
        report = anchor_report()
        assert report.logical_qubit_parameters.code_distance == 15

    def test_explicit_thirds_give_the_same_distance(self):
        third = 1e-4 / 3
        report = anchor_report(
            error_budget={
                "total": 1e-4,
                "logical": third,
                "tStates": third,
                "rotations": 1e-4 - 2 * third,
            }
        )
        assert report.logical_qubit_parameters.code_distance == 15

    def test_rqops_value_and_range(self):
        report = anchor_report()
        rqops = report.physical_resource_estimates.rqops
        assert rqops == pytest.approx(ANCHOR_QUBITS * (1e9 / 4500.0))
        assert 1.37e6 <= rqops <= 9.1e9

    def test_rqops_runtime_product_matches_volume(self):
        report = anchor_report()
        phys = report.physical_resource_estimates
        volume = phys.rqops * (phys.runtime * 1e-9)
        assert volume == pytest.approx(ANCHOR_QUBITS * ANCHOR_DEPTH, rel=1e-9)


class TestReportInvariants:
    def workload(self, seed):
        rng = random.Random(seed)
        rotations = rng.choice((0, rng.randint(1, 500)))
        counts = LogicalCounts(
            num_qubits=rng.randint(1, 200),
            t_count=rng.randint(100, 50_000),
            rotation_count=rotations,
            rotation_depth=min(rotations, rng.randint(1, 100)) if rotations else 0,
            ccz_count=rng.randint(0, 10_000),
            ccix_count=rng.randint(0, 1_000),
            measurement_count=rng.randint(0, 5_000),
        )
        return estimate(
            counts,
            qubit_params=gate_params(),
            qec_scheme=SURFACE_CODE,
            error_budget=rng.choice((1e-2, 1e-3, 1e-4)),
            slowdown=rng.choice((1.0, 1.5, 2.0)),
        )

    def test_identities_hold_exactly(self):
        for seed in range(40):
            report = self.workload(seed)
            phys = report.physical_resource_estimates
            breakdown = report.resource_estimates_breakdown
            profile = report.logical_qubit_parameters
            assert phys.rqops == breakdown.logical_qubits_post_layout * profile.logical_clock_speed
            assert phys.runtime == (
                breakdown.algorithmic_depth
                * profile.logical_cycle_time
                * breakdown.slowdown_applied
            )
            assert phys.physical_qubits == (
                breakdown.algorithmic_physical_qubits + breakdown.t_factory_physical_qubits
            )

    def test_budget_conservation(self):
        for seed in range(20):
            budget = self.workload(seed).assumed_error_budget
            assert abs(
                budget.logical + budget.t_states + budget.rotations - budget.total
            ) <= 1e-12

    def test_budget_conservation_degenerate(self):
        for counts in (
            LogicalCounts(num_qubits=2, measurement_count=5),  # no T, no rotations
            LogicalCounts(num_qubits=2, t_count=100, measurement_count=1),  # no rotations
        ):
            report = estimate(
                counts,
                qubit_params=gate_params(),
                qec_scheme=SURFACE_CODE,
                error_budget=1e-3,
            )
            budget = report.assumed_error_budget
            assert abs(
                budget.logical + budget.t_states + budget.rotations - budget.total
            ) <= 1e-12

    def test_supply_covers_demand(self):
        for seed in range(20):
            report = self.workload(seed)
            plan = report.t_factory_parameters
            demand = report.resource_estimates_breakdown.num_t_states
            assert plan.num_copies * plan.runs_per_copy * plan.t_states_per_run >= demand

    def test_deterministic_reports(self):
        first = self.workload(7)
        second = self.workload(7)
        assert first.to_json() == second.to_json()

    def test_report_carries_all_eight_groups(self):
        report = self.workload(3)
        data = json.loads(report.to_json())
        assert list(data.keys()) == [
            "physicalResourceEstimates",
            "resourceEstimatesBreakdown",
            "logicalQubitParameters",
            "tFactoryParameters",
            "preLayoutLogicalResources",
            "assumedErrorBudget",
            "physicalQubitParameters",
            "assumptions",
        ]

    def test_t_free_report_keeps_factory_group(self):
        counts = LogicalCounts(num_qubits=1, measurement_count=1)
        report = estimate(
            counts,
            qubit_params=majorana_params(),
            qec_scheme=FLOQUET_CODE,
            error_budget=0.01,
        )
        data = json.loads(report.to_json())
        assert data["tFactoryParameters"]["rounds"] == []
        assert data["tFactoryParameters"]["numCopies"] == 0
        assert data["resourceEstimatesBreakdown"]["requiredTStateError"] is None

    def test_post_layout_mode_has_null_pre_layout_group(self):
        data = json.loads(anchor_report().to_json())
        assert data["preLayoutLogicalResources"] is None
        assert data["physicalQubitParameters"]["tGateTime"] == 100.0

    def test_stage_tagging(self):
        with pytest.raises(EstimationStageError) as excinfo:
            anchor_report(qubit_params=majorana_params(clifford_error_rate=0.5))
        assert excinfo.value.stage == "code-distance"
        with pytest.raises(EstimationStageError) as excinfo:
            estimate(
                LogicalCounts(num_qubits=4, t_count=10**11, measurement_count=1),
                qubit_params=majorana_params(),  # non-Clifford rate 0.05 distills slowly
                qec_scheme=FLOQUET_CODE,
                error_budget=1e-4,
            )
        assert excinfo.value.stage == "t-factory-pipeline"
        assert isinstance(excinfo.value.cause, NoFeasiblePipelineError)

    def test_scheme_failing_at_a_tabulated_distance_fails_the_factory_search(self):
        # the footprint turns negative only at 61, a distance the algorithm
        # does not need but the factory search tabulates
        scheme = QecScheme.from_strings(
            "shrinking",
            0.03,
            0.01,
            "(4 * twoQubitGateTime + 2 * oneQubitMeasurementTime) * codeDistance",
            "60 - codeDistance",
            max_code_distance=61,
        )
        with pytest.raises(EstimationStageError) as excinfo:
            estimate(
                LogicalCounts(num_qubits=4, t_count=1000, measurement_count=1),
                qubit_params=gate_params(),
                qec_scheme=scheme,
                error_budget=1e-3,
            )
        assert excinfo.value.stage == "t-factory-pipeline"
        assert isinstance(excinfo.value.cause, ConfigError)
        assert "at distance 61:" in str(excinfo.value.cause)

    def test_slowdown_below_one_rejected(self):
        with pytest.raises(ConfigError, match="slowdown must be >= 1"):
            anchor_report(slowdown=0.5)


class TestFrontier:
    def t_heavy(self, **kwargs):
        counts = LogicalCounts(num_qubits=50, t_count=200_000, measurement_count=100)
        defaults = dict(
            qubit_params=gate_params(),
            qec_scheme=SURFACE_CODE,
            error_budget=1e-3,
        )
        defaults.update(kwargs)
        return counts, defaults

    def test_single_point_grid_equals_plain_estimate(self):
        counts, kwargs = self.t_heavy()
        result = frontier(counts, slowdown_grid=[1.0], **kwargs)
        assert len(result.points) == 1
        assert result.points[0].report.to_json() == estimate(counts, **kwargs).to_json()

    def test_qubits_non_increasing_along_grid(self):
        counts, kwargs = self.t_heavy()
        result = frontier(counts, slowdown_grid=[1.0, 2.0, 4.0], **kwargs)
        assert not result.errors
        qubits = [p.physical_qubits for p in result.points]
        runtimes = [p.runtime for p in result.points]
        assert qubits == sorted(qubits, reverse=True)
        assert runtimes == sorted(runtimes)
        # direct recomputation at each grid point dominates the pruned curve
        direct = {
            s: estimate(counts, slowdown=s, **kwargs).physical_resource_estimates
            for s in (1.0, 2.0, 4.0)
        }
        assert direct[4.0].physical_qubits <= direct[2.0].physical_qubits
        assert direct[2.0].physical_qubits <= direct[1.0].physical_qubits

    def test_zero_t_workload_prunes_to_one_point(self):
        counts = LogicalCounts(num_qubits=10, measurement_count=50)
        result = frontier(
            counts,
            slowdown_grid=[1.0, 2.0, 4.0],
            qubit_params=gate_params(),
            qec_scheme=SURFACE_CODE,
            error_budget=1e-3,
        )
        assert len(result.points) == 1
        assert result.points[0].slowdown == 1.0

    def test_grid_validation(self):
        counts, kwargs = self.t_heavy()
        with pytest.raises(ConfigError):
            frontier(counts, slowdown_grid=[], **kwargs)
        with pytest.raises(ConfigError):
            frontier(counts, slowdown_grid=[2.0, 1.0], **kwargs)
        with pytest.raises(ConfigError):
            frontier(counts, slowdown_grid=[0.5, 1.0], **kwargs)

    def test_per_point_errors_are_reported(self):
        counts, kwargs = self.t_heavy(
            constraints=TFactoryConstraints(max_t_factory_copies=1)
        )
        result = frontier(counts, slowdown_grid=[1.0, 2.0], **kwargs)
        assert len(result.points) + len(result.errors) == 2


class TestEmptyUnitList:
    """An empty unit list is not the default unit: no unit, no T factory."""

    def kwargs(self):
        return dict(
            qubit_params=gate_params(),
            qec_scheme=SURFACE_CODE,
            error_budget=1e-3,
            distillation_units=[],
        )

    def assert_no_unit_error(self, error):
        assert isinstance(error, EstimationStageError)
        assert error.stage == "t-factory-pipeline"
        assert isinstance(error.cause, ConfigError)
        assert str(error.cause) == "at least one distillation unit is required"

    def test_estimate_with_t_states_raises(self):
        counts = LogicalCounts(num_qubits=10, t_count=1000)
        with pytest.raises(EstimationStageError) as raised:
            estimate(counts, **self.kwargs())
        self.assert_no_unit_error(raised.value)

    def test_frontier_reports_it_at_every_factor(self):
        counts = LogicalCounts(num_qubits=10, t_count=1000)
        result = frontier(counts, slowdown_grid=[1.0, 2.0], **self.kwargs())
        assert result.points == ()
        assert [factor for factor, _ in result.errors] == [1.0, 2.0]
        for _, error in result.errors:
            self.assert_no_unit_error(error)

    def test_t_free_job_runs_no_search(self):
        counts = LogicalCounts(num_qubits=10, measurement_count=50)
        report = estimate(counts, **self.kwargs())
        kwargs = dict(self.kwargs(), distillation_units=None)
        assert report.to_json() == estimate(counts, **kwargs).to_json()
        assert report.t_factory_parameters.rounds == ()


class TestFrontierPlansOnce:
    def test_factory_search_runs_once_per_frontier(self, monkeypatch):
        calls = []
        search = tfactory.search_pipeline

        def counted(*args, **kwargs):
            calls.append(1)
            return search(*args, **kwargs)

        monkeypatch.setattr(tfactory, "search_pipeline", counted)
        counts, kwargs = TestFrontier().t_heavy()
        result = frontier(counts, slowdown_grid=[1.0, 2.0, 4.0], **kwargs)
        assert result.points and not result.errors
        assert len(calls) == 1

    def test_points_equal_estimates_at_each_factor(self):
        # one copy and no slowdown allowed: the low factors fail at sizing
        counts, kwargs = TestFrontier().t_heavy(
            constraints=TFactoryConstraints(max_t_factory_copies=1, max_logical_cycle_slowdown=1.0)
        )
        result = frontier(counts, slowdown_grid=[1.0, 1.1, 1.2, 1.5, 2.0], **kwargs)
        assert result.points and result.errors
        for point in result.points:
            expected = estimate(counts, slowdown=point.slowdown, **kwargs)
            assert point.report.to_json() == expected.to_json()
            assert point.physical_qubits == expected.physical_resource_estimates.physical_qubits
            assert point.runtime == expected.physical_resource_estimates.runtime
        for factor, error in result.errors:
            with pytest.raises(EstimationStageError) as raised:
                estimate(counts, slowdown=factor, **kwargs)
            assert str(raised.value) == str(error)
            assert error.stage == "t-factory-sizing"

    def test_planning_failure_is_reported_for_every_factor(self):
        budget = {"total": 1e-3, "logical": 1e-3, "tStates": 0, "rotations": 0}
        counts, kwargs = TestFrontier().t_heavy(error_budget=budget)
        result = frontier(counts, slowdown_grid=[1.0, 2.0], **kwargs)
        assert result.points == ()
        assert [factor for factor, _ in result.errors] == [1.0, 2.0]
        for _, error in result.errors:
            assert isinstance(error.cause, InvalidPartitionError)
            assert error.stage == "t-state-target"
