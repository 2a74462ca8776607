"""Property-based tests (hypothesis) for the core workflow model."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.definition import WorkflowDefinition
from repro.core.builder import ModelBuilder
from repro.core.critical_path import FunctionMeasurement, WorkflowMeasurement
from repro.core.petri import Marking, sequence_net
from repro.core.transcription import AWSTranscriber, GCPTranscriber

# ------------------------------------------------------------------ strategies
transition_names = st.lists(
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=8).filter(
        lambda name: name not in ("start", "end")  # reserved for the source/sink places
    ),
    min_size=1,
    max_size=8,
    unique=True,
)


@st.composite
def chain_definitions(draw):
    """Random task-chain definitions optionally ending in a map phase."""
    length = draw(st.integers(min_value=1, max_value=6))
    with_map = draw(st.booleans())
    array_size = draw(st.integers(min_value=1, max_value=8))
    states = {}
    for index in range(length):
        name = f"task_{index}"
        spec = {"type": "task", "func_name": f"fn_{index}"}
        if index < length - 1 or with_map:
            spec["next"] = f"task_{index + 1}" if index < length - 1 else "map_phase"
        states[name] = spec
    if with_map:
        states["map_phase"] = {
            "type": "map",
            "array": "items",
            "root": "body",
            "states": {"body": {"type": "task", "func_name": "map_fn"}},
        }
    definition = WorkflowDefinition.from_dict({"root": "task_0", "states": states})
    return definition, array_size, with_map, length


# ----------------------------------------------------------------------- petri
@given(transition_names)
@settings(max_examples=50, deadline=None)
def test_sequence_nets_are_always_sound(names):
    net = sequence_net(names)
    assert net.is_valid()
    assert net.run_to_completion() == list(names)


@given(st.dictionaries(st.text(min_size=1, max_size=4), st.integers(min_value=0, max_value=5),
                       max_size=6))
@settings(max_examples=50, deadline=None)
def test_marking_total_equals_sum_of_tokens(tokens):
    marking = Marking(tokens)
    assert marking.total() == sum(v for v in tokens.values() if v > 0)
    for place, count in tokens.items():
        if count > 0:
            assert marking.remove(place).total() == marking.total() - 1


# ------------------------------------------------------------------ definition
@given(chain_definitions())
@settings(max_examples=40, deadline=None)
def test_random_chain_definitions_validate_and_roundtrip(data):
    definition, _, _, _ = data
    assert definition.validate() == []
    restored = WorkflowDefinition.from_json(definition.to_json())
    assert restored.to_dict() == definition.to_dict()


@given(chain_definitions())
@settings(max_examples=40, deadline=None)
def test_builder_nets_are_valid_for_random_chains(data):
    definition, array_size, with_map, length = data
    builder = ModelBuilder(definition, array_sizes={"items": array_size})
    net = builder.build_wfdnet()
    assert net.is_valid(), net.validate_structure()
    stats = builder.statistics()
    expected_functions = length + (array_size if with_map else 0)
    assert stats.num_functions == expected_functions
    assert stats.max_parallelism == (array_size if with_map else 1)


@given(chain_definitions())
@settings(max_examples=30, deadline=None)
def test_transcribers_cover_random_chains(data):
    definition, array_size, _, _ = data
    aws = AWSTranscriber().transcribe(definition, {"items": array_size})
    gcp = GCPTranscriber().transcribe(definition, {"items": array_size})
    assert set(aws.document["States"]) == set(definition.states)
    assert aws.transition_estimate >= len(definition.states)
    assert gcp.transition_estimate >= aws.transition_estimate


# --------------------------------------------------------------- critical path
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["phase_a", "phase_b", "phase_c"]),
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            st.floats(min_value=0.01, max_value=50.0, allow_nan=False),
        ),
        min_size=1,
        max_size=20,
    )
)
@settings(max_examples=60, deadline=None)
def test_critical_path_never_exceeds_runtime_sum_invariants(entries):
    measurement = WorkflowMeasurement(workflow="wf", platform="aws", invocation_id="x")
    for index, (phase, start, duration) in enumerate(entries):
        measurement.add(
            FunctionMeasurement(f"fn{index}", phase, start=start, end=start + duration)
        )
    critical_path = measurement.critical_path()
    runtime = measurement.runtime
    # The critical path of sequentially-summed phase maxima is bounded by the
    # total busy time and is non-negative; overhead is clamped at zero.
    assert critical_path >= 0
    assert measurement.overhead() >= 0
    assert critical_path <= sum(f.duration for f in measurement.functions) + 1e-9
    assert runtime >= max(f.duration for f in measurement.functions) - 1e-9
