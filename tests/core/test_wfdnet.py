"""Tests for WFD-nets: data elements, resource annotations, consistency checks."""

import dataclasses
import importlib.util
import pathlib

import pytest

from repro.core.builder import DataItem, ModelBuilder
from repro.core.wfdnet import ResourceAnnotation, TransitionKind, WFDNet

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"


def example_module(name: str):
    spec = importlib.util.spec_from_file_location(name, EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def build_linear_net() -> WFDNet:
    """start -> c0 -> generate -> p1 -> process -> end with data x."""
    net = WFDNet()
    net.add_coordinator_transition("c0")
    net.add_function_transition("generate")
    net.add_function_transition("process")
    net.add_place("p0")
    net.add_place("p1")
    net.add_arc(net.source, "c0")
    net.add_arc("c0", "p0")
    net.add_arc("p0", "generate")
    net.add_arc("generate", "p1")
    net.add_arc("p1", "process")
    net.add_arc("process", net.sink)
    return net


class TestResourceAnnotation:
    def test_short_codes_roundtrip(self):
        for annotation in ResourceAnnotation:
            assert ResourceAnnotation.from_short(annotation.short) is annotation

    def test_unknown_short_code_rejected(self):
        with pytest.raises(ValueError):
            ResourceAnnotation.from_short("z")

    def test_all_five_annotations_exist(self):
        assert {a.short for a in ResourceAnnotation} == {"o", "n", "p", "t", "r"}


class TestTransitionKinds:
    def test_function_and_coordinator_partition(self):
        net = build_linear_net()
        assert net.function_transitions() == ["generate", "process"]
        assert net.coordinator_transitions() == ["c0"]
        assert net.transition_kind("c0") is TransitionKind.COORDINATOR
        assert net.transition_kind("generate") is TransitionKind.FUNCTION


class TestDataAccesses:
    def test_reads_writes_recorded(self):
        net = build_linear_net()
        net.add_write("generate", "x", ResourceAnnotation.OBJECT_STORAGE, 1000)
        net.add_read("process", "x", ResourceAnnotation.OBJECT_STORAGE, 1000)
        assert net.writers_of("x") == ["generate"]
        assert net.readers_of("x") == ["process"]
        assert net.reads("process")["x"].size_bytes == 1000
        assert "x" in net.data_elements

    def test_volume_accounting_by_channel(self):
        net = build_linear_net()
        net.add_write("generate", "x", ResourceAnnotation.OBJECT_STORAGE, 500)
        net.add_write("generate", "y", ResourceAnnotation.PAYLOAD, 50)
        net.add_read("process", "x", ResourceAnnotation.OBJECT_STORAGE, 500)
        assert net.total_write_bytes(ResourceAnnotation.OBJECT_STORAGE) == 500
        assert net.total_write_bytes(ResourceAnnotation.PAYLOAD) == 50
        assert net.total_write_bytes() == 550
        assert net.total_read_bytes(ResourceAnnotation.OBJECT_STORAGE) == 500

    def test_negative_size_rejected(self):
        net = build_linear_net()
        with pytest.raises(ValueError):
            net.add_read("process", "x", ResourceAnnotation.PAYLOAD, -1)

    def test_guard_assignment(self):
        net = build_linear_net()
        net.set_guard("process", "success == 0")
        assert net.guard("process") == "success == 0"
        assert net.guard("generate") is None


class TestConsistencyChecks:
    def test_consistent_net_has_no_issues(self):
        net = build_linear_net()
        net.add_read("generate", "input", ResourceAnnotation.PAYLOAD, 10)
        net.add_write("generate", "x", ResourceAnnotation.OBJECT_STORAGE, 100)
        net.add_read("process", "x", ResourceAnnotation.OBJECT_STORAGE, 100)
        net.add_write("process", "result", ResourceAnnotation.OBJECT_STORAGE, 10)
        assert net.check_consistency() == []

    def test_channel_mismatch_detected(self):
        net = build_linear_net()
        net.add_write("generate", "x", ResourceAnnotation.NOSQL, 100)
        net.add_read("process", "x", ResourceAnnotation.OBJECT_STORAGE, 100)
        issues = net.check_consistency()
        assert any(issue.kind == "channel-mismatch" for issue in issues)

    def test_transparent_channel_matches_anything(self):
        net = build_linear_net()
        net.add_write("generate", "x", ResourceAnnotation.TRANSPARENT, 100)
        net.add_read("process", "x", ResourceAnnotation.OBJECT_STORAGE, 100)
        issues = [i for i in net.check_consistency() if i.kind == "channel-mismatch"]
        assert issues == []

    def test_never_written_detected_for_non_entry_reader(self):
        net = build_linear_net()
        net.add_read("process", "ghost", ResourceAnnotation.NOSQL, 10)
        issues = net.check_consistency()
        assert any(issue.kind == "never-written" and issue.element == "ghost" for issue in issues)

    def test_entry_transition_inputs_are_exempt(self):
        net = build_linear_net()
        net.add_read("generate", "workflow_input", ResourceAnnotation.PAYLOAD, 10)
        issues = [i for i in net.check_consistency() if i.element == "workflow_input"]
        assert issues == []

    def test_never_read_detected_for_intermediate_writer(self):
        net = build_linear_net()
        net.add_write("generate", "unused", ResourceAnnotation.OBJECT_STORAGE, 10)
        issues = net.check_consistency()
        assert any(issue.kind == "never-read" and issue.element == "unused" for issue in issues)

    def test_workflow_output_is_exempt_from_never_read(self):
        net = build_linear_net()
        net.add_write("process", "final_result", ResourceAnnotation.OBJECT_STORAGE, 10)
        issues = [i for i in net.check_consistency() if i.element == "final_result"]
        assert issues == []

    def test_destroyed_then_read_detected(self):
        net = build_linear_net()
        net.add_write("generate", "x", ResourceAnnotation.OBJECT_STORAGE, 10)
        net.add_destroy("generate", "x")
        net.add_read("process", "x", ResourceAnnotation.OBJECT_STORAGE, 10)
        issues = net.check_consistency()
        assert any(issue.kind == "destroyed-then-read" for issue in issues)


class TestMapPhaseConsistency:
    """A map phase's replicas read and write their own slices of an array
    that the phases around the map write and read whole."""

    @staticmethod
    def etl_net(data_spec=None):
        etl = example_module("custom_workflow_analysis")
        builder = ModelBuilder(etl.DEFINITION, data_spec or etl.DATA_SPEC,
                               array_sizes={"batches": 8})
        return etl, builder.build_wfdnet()

    def test_the_example_etl_definition_is_consistent(self):
        _, net = self.etl_net()
        assert net.replica_of["batches_3"] == "batches"
        assert net.check_consistency() == []

    def test_a_replica_reading_an_element_nobody_writes_is_flagged(self):
        etl, _ = self.etl_net()
        clean = etl.DATA_SPEC["clean_batch"]
        planted = dataclasses.replace(clean, reads=[
            *clean.reads, DataItem("ghost", ResourceAnnotation.NOSQL, 10)])
        _, net = self.etl_net({**etl.DATA_SPEC, "clean_batch": planted})
        issues = net.check_consistency()
        assert {(issue.kind, issue.element) for issue in issues} == {("never-written", "ghost")}
        assert len(issues) == 8  # one per replica
