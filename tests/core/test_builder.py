"""Tests for the model builder: WFD-net construction and Table 4 statistics."""

import pytest

from repro.core.builder import DataItem, FunctionDataSpec, ModelBuilder, ResourceAnnotation
from repro.core.definition import WorkflowDefinition


def fig3_definition() -> WorkflowDefinition:
    return WorkflowDefinition.from_dict(
        {
            "root": "generate_phase",
            "states": {
                "generate_phase": {"type": "task", "func_name": "generate", "next": "map_phase"},
                "map_phase": {
                    "type": "map",
                    "array": "x",
                    "root": "map",
                    "next": "process_phase",
                    "states": {"map": {"type": "task", "func_name": "map"}},
                },
                "process_phase": {"type": "task", "func_name": "process"},
            },
        },
        name="fig3",
    )


def fig3_data_spec() -> dict:
    return {
        "generate": FunctionDataSpec(
            reads=[DataItem("input", ResourceAnnotation.PAYLOAD, 100)],
            writes=[DataItem("x", ResourceAnnotation.OBJECT_STORAGE, 2_000_000)],
        ),
        "map": FunctionDataSpec(
            reads=[DataItem("x", ResourceAnnotation.OBJECT_STORAGE, 2_000_000)],
            writes=[DataItem("y", ResourceAnnotation.TRANSPARENT, 1000)],
        ),
        "process": FunctionDataSpec(
            reads=[DataItem("y", ResourceAnnotation.TRANSPARENT, 1000)],
            writes=[DataItem("z", ResourceAnnotation.OBJECT_STORAGE, 500_000)],
        ),
    }


class TestPhaseNodes:
    def test_phase_nodes_in_order_with_widths(self):
        builder = ModelBuilder(fig3_definition(), fig3_data_spec(), {"x": 2})
        nodes = builder.phase_nodes()
        assert [node.name for node in nodes] == ["generate_phase", "map_phase", "process_phase"]
        assert [node.width for node in nodes] == [1, 2, 1]
        assert sum(node.total_invocations for node in nodes) == 4

    def test_default_array_size_is_one(self):
        builder = ModelBuilder(fig3_definition())
        map_node = builder.phase_nodes()[1]
        assert map_node.width == 1


class TestWFDNetConstruction:
    def test_generated_net_is_structurally_valid(self):
        builder = ModelBuilder(fig3_definition(), fig3_data_spec(), {"x": 2})
        net = builder.build_wfdnet()
        assert net.is_valid(), net.validate_structure()

    def test_generated_net_runs_to_completion(self):
        builder = ModelBuilder(fig3_definition(), fig3_data_spec(), {"x": 2})
        net = builder.build_wfdnet()
        fired = net.run_to_completion()
        assert any(name.startswith("generate") for name in fired)
        assert any(name.startswith("map") for name in fired)

    def test_function_and_coordinator_transitions_present(self):
        builder = ModelBuilder(fig3_definition(), fig3_data_spec(), {"x": 2})
        net = builder.build_wfdnet()
        functions = net.function_transitions()
        # Two map replicas for array size 2.
        assert sum(1 for f in functions if f.startswith("map")) == 2
        assert "c0" in net.coordinator_transitions()

    def test_parallel_map_has_coordinator_entry(self):
        builder = ModelBuilder(fig3_definition(), fig3_data_spec(), {"x": 3})
        net = builder.build_wfdnet()
        assert any(t.startswith("enter_map_phase") for t in net.coordinator_transitions())

    def test_data_annotations_attached(self):
        builder = ModelBuilder(fig3_definition(), fig3_data_spec(), {"x": 2})
        net = builder.build_wfdnet()
        assert net.writers_of("x_0") or net.writers_of("x")
        assert not net.validate_structure()


class TestStatistics:
    def test_statistics_match_inputs(self):
        builder = ModelBuilder(fig3_definition(), fig3_data_spec(), {"x": 2})
        stats = builder.statistics()
        assert stats.num_functions == 4
        assert stats.max_parallelism == 2
        assert stats.critical_path_length == 3
        assert stats.download_mb == pytest.approx(2.0, rel=0.01)
        assert stats.upload_mb == pytest.approx(2.5, rel=0.01)

    def test_statistics_row_shape(self):
        builder = ModelBuilder(fig3_definition(), fig3_data_spec(), {"x": 2})
        row = builder.statistics().as_row()
        assert set(row) == {
            "Benchmark", "#functions", "Parallelism", "Critical path",
            "Download [MB]", "Upload [MB]",
        }


class TestPaperTable4:
    """The benchmark statistics should approximate the paper's Table 4."""

    def test_benchmark_table4_shapes(self):
        from repro.benchmarks import get_benchmark

        expectations = {
            # name: (#functions, parallelism)
            "video_analysis": (4, 2),
            "mapreduce": (10, 5),
            "excamera": (16, 5),
            "ml": (3, 2),
            "genome_1000": (19, 12),
        }
        for name, (functions, parallelism) in expectations.items():
            stats = get_benchmark(name).statistics()
            assert stats.num_functions == functions, name
            assert stats.max_parallelism == parallelism, name

    def test_data_volumes_match_paper_scale(self):
        from repro.benchmarks import get_benchmark

        video = get_benchmark("video_analysis").statistics()
        assert 200 < video.download_mb < 280
        genome = get_benchmark("genome_1000").statistics()
        assert 250 < genome.download_mb < 300
        mapreduce = get_benchmark("mapreduce").statistics()
        assert mapreduce.download_mb < 1.0
