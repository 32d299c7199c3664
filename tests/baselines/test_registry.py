"""The scheduling-policy registry: lookups, selection parsing, factories."""

import pytest

from repro.baselines import (
    DEFAULT_SCHEDULERS,
    DataDrivenScheduler,
    HikuScheduler,
    KrakenParameters,
    KrakenScheduler,
    SchedulerBuild,
    SfsScheduler,
    VanillaScheduler,
    build_scheduler,
    parse_scheduler_names,
    policy_info,
    register_policy,
    registered_policies,
    scheduler_labels,
)
from repro.baselines.registry import PolicyInfo
from repro.common.errors import ConfigurationError
from repro.core.scheduler import FaaSBatchScheduler


class TestRegistryContents:
    def test_six_policies_in_canonical_order(self):
        labels = [info.label for info in registered_policies()]
        assert labels == ["Vanilla", "SFS", "Kraken", "FaaSBatch",
                          "Hiku", "DataDriven"]

    def test_default_selection_is_the_papers_matrix(self):
        assert DEFAULT_SCHEDULERS == ("vanilla", "sfs", "kraken",
                                      "faasbatch")
        assert scheduler_labels(DEFAULT_SCHEDULERS) == \
            ("Vanilla", "SFS", "Kraken", "FaaSBatch")

    def test_lookup_is_case_blind_and_accepts_labels(self):
        assert policy_info("FaaSBatch").name == "faasbatch"
        assert policy_info("VANILLA").name == "vanilla"
        assert policy_info(" hiku ").name == "hiku"

    def test_only_kraken_needs_a_vanilla_profile(self):
        needy = [info.name for info in registered_policies()
                 if info.needs_vanilla_profile]
        assert needy == ["kraken"]

    def test_every_policy_has_a_description(self):
        for info in registered_policies():
            assert info.description

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            register_policy(PolicyInfo(
                name="vanilla", label="Vanilla",
                cpu_discipline=VanillaScheduler.cpu_discipline,
                factory=lambda build: VanillaScheduler()))

    def test_registry_keys_must_be_lowercase(self):
        with pytest.raises(ConfigurationError, match="lowercase"):
            PolicyInfo(name="Mixed", label="Mixed",
                       cpu_discipline=VanillaScheduler.cpu_discipline,
                       factory=lambda build: VanillaScheduler())


class TestUnknownScheduler:
    def test_one_line_error_lists_registered_policies(self):
        with pytest.raises(ConfigurationError) as excinfo:
            policy_info("bogus")
        message = str(excinfo.value)
        assert "\n" not in message
        assert "unknown scheduler 'bogus'" in message
        for name in ("vanilla", "sfs", "kraken", "faasbatch", "hiku",
                     "datadriven"):
            assert name in message


class TestSelectionParsing:
    def test_parses_and_canonicalises(self):
        assert parse_scheduler_names("Vanilla, faasbatch") == \
            ("vanilla", "faasbatch")

    def test_deduplicates_preserving_order(self):
        assert parse_scheduler_names("hiku,vanilla,hiku") == \
            ("hiku", "vanilla")

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError, match="unknown scheduler"):
            parse_scheduler_names("vanilla,nope")

    def test_empty_selection_raises(self):
        with pytest.raises(ConfigurationError, match="no schedulers"):
            parse_scheduler_names(" , ,")


class TestFactories:
    def test_builds_fresh_instances(self):
        first = build_scheduler("vanilla")
        second = build_scheduler("vanilla")
        assert isinstance(first, VanillaScheduler)
        assert first is not second

    def test_builds_every_self_contained_policy(self):
        expected = {"vanilla": VanillaScheduler, "sfs": SfsScheduler,
                    "faasbatch": FaaSBatchScheduler,
                    "hiku": HikuScheduler,
                    "datadriven": DataDrivenScheduler}
        for name, cls in expected.items():
            assert isinstance(build_scheduler(name), cls)

    def test_faasbatch_inherits_build_knobs(self):
        scheduler = build_scheduler("faasbatch",
                                    SchedulerBuild(window_ms=50.0))
        assert scheduler.config.window_ms == 50.0

    def test_kraken_without_parameters_raises(self):
        with pytest.raises(ConfigurationError,
                           match="Vanilla profiling run"):
            build_scheduler("kraken")

    def test_kraken_with_parameters_builds(self):
        params = KrakenParameters(slo_ms={"f": 100.0},
                                  mean_execution_ms={"f": 40.0})
        scheduler = build_scheduler("kraken", SchedulerBuild(
            window_ms=75.0, kraken_parameters=params))
        assert isinstance(scheduler, KrakenScheduler)
        assert scheduler.config.window_ms == 75.0
        assert scheduler.config.parameters is params
