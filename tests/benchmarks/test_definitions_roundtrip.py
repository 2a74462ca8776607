"""Every registered benchmark's definition must serialise, reload, validate, and
build a structurally valid WFD-net -- the suite's self-validation requirement
(paper Section 4.3)."""

import pytest

from repro.benchmarks import benchmark_names, get_benchmark
from repro.core import WorkflowDefinition


@pytest.mark.parametrize("name", benchmark_names("all"))
class TestDefinitionRoundtrip:
    def test_definition_serialises_and_reloads(self, name):
        benchmark = get_benchmark(name)
        restored = WorkflowDefinition.from_json(benchmark.definition.to_json(),
                                                name=benchmark.definition.name)
        assert restored.to_dict() == benchmark.definition.to_dict()
        assert restored.validate(known_functions=benchmark.functions) == []

    def test_model_builder_produces_valid_wfdnet(self, name):
        benchmark = get_benchmark(name)
        net = benchmark.model_builder().build_wfdnet()
        assert net.is_valid(), net.validate_structure()
        assert len(net.function_transitions()) >= 1

    def test_statistics_are_positive(self, name):
        stats = get_benchmark(name).statistics()
        assert stats.num_functions >= 1
        assert stats.max_parallelism >= 1
        assert stats.critical_path_length >= 1
