"""Tests for PlatformSpec, the override grammar, and the profile registry."""

import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.platforms import (
    Override,
    PlatformSpec,
    available_eras,
    available_platforms,
    available_scenarios,
    aws_profile,
    load_scenarios,
    register_era,
    register_platform,
    register_scenario,
    resolve_platform,
)
def same_profile(left, right) -> bool:
    """Field-wise profile equality (CPUModel instances lack __eq__)."""
    from dataclasses import replace

    return replace(left, cpu_model=None) == replace(right, cpu_model=None) and type(
        left.cpu_model
    ) is type(right.cpu_model)


# Registry isolation comes from the autouse isolated_platform_registry
# fixture in tests/conftest.py.


class TestParsing:
    def test_plain_name(self):
        spec = PlatformSpec.parse("aws")
        assert spec == PlatformSpec(base="aws")
        assert spec.is_plain
        assert spec.canonical() == "aws"
        assert spec.label == "aws"

    def test_era_pin(self):
        spec = PlatformSpec.parse("aws@2022")
        assert spec.era == "2022"
        assert spec.canonical() == "aws@2022"
        assert spec.label == "aws"  # the era is a separate table column

    def test_overrides_resolve_aliases_and_bare_names(self):
        spec = PlatformSpec.parse(
            "azure@2024:cold_start=x1.5,dispatch_base_s=0.08,region=eu-west"
        )
        assert spec.canonical() == (
            "azure@2024:orchestration.dispatch_base_s=0.08,"
            "region=eu-west,scaling.cold_start_median_s=x1.5"
        )

    def test_full_dotted_path(self):
        spec = PlatformSpec.parse("aws:scaling.cold_start_median_s=0.9")
        assert spec.overrides == (
            Override(path="scaling.cold_start_median_s", value=0.9, scale=False),
        )

    def test_unknown_platform_rejected(self):
        with pytest.raises(KeyError):
            PlatformSpec.parse("ibm")

    def test_unknown_override_field_named_in_error(self):
        with pytest.raises(KeyError, match="cold_stat"):
            PlatformSpec.parse("aws:cold_stat=x2")

    def test_ambiguous_bare_name_lists_candidates(self):
        with pytest.raises(ValueError, match="storage.jitter_sigma"):
            PlatformSpec.parse("aws:jitter_sigma=0.2")

    def test_group_name_alone_rejected(self):
        with pytest.raises(KeyError, match="nested profile"):
            PlatformSpec.parse("aws:scaling=1")

    def test_malformed_spec_rejected(self):
        with pytest.raises(ValueError):
            PlatformSpec.parse("aws@")
        with pytest.raises(ValueError):
            PlatformSpec.parse("aws:cold_start")
        with pytest.raises(ValueError):
            PlatformSpec(base="aws", overrides=(
                Override("region", "a"), Override("region", "b"),
            ))

    def test_coerce_accepts_spec_string_and_dict(self):
        spec = PlatformSpec.parse("aws@2022")
        assert PlatformSpec.coerce(spec) == spec
        assert PlatformSpec.coerce("aws@2022") == spec
        assert PlatformSpec.coerce(spec.to_dict()) == spec


class TestIdentity:
    def test_hashable_and_picklable(self):
        spec = PlatformSpec.parse("azure@2024:cold_start=x1.5")
        assert pickle.loads(pickle.dumps(spec)) == spec
        assert len({spec, PlatformSpec.parse("azure@2024:cold_start=x1.5")}) == 1

    def test_golden_fingerprints(self):
        """Pinned: spec fingerprints feed campaign cache keys and must not drift."""
        assert PlatformSpec.parse("aws").fingerprint() == (
            "bb2b4ddeec9e9d713992de86f7715b5d64c39ad29f00e4321916cd3d795a6a35"
        )
        assert PlatformSpec.parse("aws@2022").fingerprint() == (
            "32bb9a24704196957a8ba434ccac206ad283a6175ebce4695fd7e3fe9ee00141"
        )
        assert PlatformSpec.parse(
            "azure@2024:cold_start=x1.5,dispatch_base_s=0.08,region=eu-west"
        ).fingerprint() == (
            "5e473a5b59b7f96d65a078144e137334fcb1b34fb7d15a1a2f0c62b7a101168c"
        )

    def test_fingerprint_ignores_alias_spelling(self):
        aliased = PlatformSpec.parse("aws:cold_start=x2")
        explicit = PlatformSpec.parse("aws:scaling.cold_start_median_s=x2")
        assert aliased == explicit
        assert aliased.fingerprint() == explicit.fingerprint()


# Paths usable with arbitrary float values (no int/str constraints).
_FLOAT_PATHS = (
    "cpu_speed",
    "scaling.cold_start_median_s",
    "storage.request_latency_s",
    "orchestration.transition_latency_s",
)


@st.composite
def platform_specs(draw):
    base = draw(st.sampled_from(("aws", "gcp", "azure", "hpc")))
    era = draw(st.sampled_from((None, "2022", "2024")))
    paths = draw(
        st.lists(st.sampled_from(_FLOAT_PATHS), max_size=3, unique=True)
    )
    overrides = []
    for path in paths:
        # A scale factor must be finite and non-negative; a value need not be.
        scale = draw(st.booleans())
        low = 0 if scale else None
        value = draw(
            st.one_of(
                st.floats(min_value=low, allow_nan=False, allow_infinity=False, width=64),
                st.integers(min_value=0 if scale else -10**9, max_value=10**9),
            )
        )
        overrides.append(Override(path=path, value=value, scale=scale))
    return PlatformSpec(base=base, era=era, overrides=tuple(overrides))


class TestRoundTrips:
    @settings(max_examples=100, deadline=None)
    @given(platform_specs())
    def test_string_and_dict_round_trips_lossless(self, spec):
        assert PlatformSpec.parse(spec.canonical()) == spec
        assert PlatformSpec.from_dict(spec.to_dict()) == spec
        assert PlatformSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    def test_compact_mapping_form(self):
        spec = PlatformSpec.from_dict(
            {"base": "azure", "era": "2024",
             "overrides": {"cold_start": "x1.5", "region": "eu-west",
                           "orchestration.dispatch_base_s": 0.08}}
        )
        assert spec == PlatformSpec.parse(
            "azure@2024:cold_start=x1.5,region=eu-west,dispatch_base_s=0.08"
        )


class TestResolution:
    def test_plain_spec_matches_builtin_profile(self):
        assert same_profile(PlatformSpec.parse("aws").resolve(), aws_profile())

    def test_multiplicative_override(self):
        base = PlatformSpec.parse("azure").resolve()
        varied = PlatformSpec.parse("azure:cold_start=x1.5").resolve()
        assert varied.scaling.cold_start_median_s == pytest.approx(
            base.scaling.cold_start_median_s * 1.5
        )

    def test_absolute_and_string_overrides(self):
        profile = PlatformSpec.parse(
            "azure:dispatch_base_s=0.08,region=eu-west"
        ).resolve()
        assert profile.orchestration.dispatch_base_s == 0.08
        assert profile.region == "eu-west"

    def test_int_and_bool_fields(self):
        profile = PlatformSpec.parse(
            "aws:max_containers=x0.5,default_memory_mb=512,stage_storage_io=true"
        ).resolve()
        assert profile.scaling.max_containers == 500
        assert profile.default_memory_mb == 512
        assert profile.orchestration.stage_storage_io is True

    def test_scaling_a_string_field_rejected(self):
        with pytest.raises(ValueError, match="region"):
            PlatformSpec(
                base="aws", overrides=(Override("region", 2.0, scale=True),)
            ).resolve()

    @pytest.mark.parametrize("factor", ["-1", "-0.5", "nan", "inf", "-inf", "1e400"])
    def test_negative_or_non_finite_scale_factor_rejected(self, factor):
        with pytest.raises(ValueError, match="finite, non-negative factor"):
            PlatformSpec.parse(f"aws:cold_start=x{factor}")
        with pytest.raises(ValueError, match="cold_start_median_s"):
            Override("scaling.cold_start_median_s", float(factor), scale=True)

    def test_zero_scale_factor_allowed(self):
        profile = PlatformSpec.parse("aws:cold_start=x0").resolve()
        assert profile.scaling.cold_start_median_s == 0.0

    def test_type_mismatch_rejected(self):
        with pytest.raises(ValueError, match="region"):
            PlatformSpec(base="aws", overrides=(Override("region", 7),)).resolve()

    def test_unknown_era_rejected(self):
        with pytest.raises(KeyError, match="2030"):
            PlatformSpec(base="aws", era="2030").resolve()

    def test_default_era_conflicting_with_pinned_era_rejected(self):
        with pytest.raises(ValueError, match="era"):
            PlatformSpec.parse("aws@2022").with_default_era("2024")
        # Agreeing eras are fine; an era-less spec takes the given era.
        assert PlatformSpec.parse("aws@2022").with_default_era("2022").era == "2022"
        assert PlatformSpec.parse("aws").with_default_era("2022").era == "2022"

    def test_era_overrides_compose_with_spec_overrides(self):
        plain_2022 = PlatformSpec.parse("gcp@2022").resolve()
        varied = PlatformSpec.parse("gcp@2022:cold_start=x2").resolve()
        assert varied.region == plain_2022.region == "europe-west-1"
        assert varied.scaling.cold_start_median_s == pytest.approx(
            plain_2022.scaling.cold_start_median_s * 2
        )


class TestRegistry:
    def test_register_platform_and_era(self):
        register_era("2026")
        register_platform(
            "aws", lambda: aws_profile(region="mars-north-1"), era="2026"
        )
        assert "2026" in available_eras()
        profile = PlatformSpec.parse("aws@2026").resolve()
        assert profile.region == "mars-north-1"
        # Platforms without a 2026-specific factory fall back to the default.
        assert same_profile(
            PlatformSpec.parse("gcp@2026").resolve(), PlatformSpec.parse("gcp").resolve()
        )

    def test_register_custom_platform(self):
        register_platform("edge", lambda: aws_profile(region="edge-pop-1"))
        assert "edge" in available_platforms()
        assert PlatformSpec.parse("edge:cold_start=x0.1").resolve().region == "edge-pop-1"

    def test_duplicate_registration_rejected_without_overwrite(self):
        with pytest.raises(ValueError, match="already registered"):
            register_platform("aws", aws_profile)
        register_platform("aws", aws_profile, overwrite=True)

    def test_register_scenario_expands_at_parse_time(self):
        register_scenario("azure-fast", "azure:cold_start=x0.5")
        spec = PlatformSpec.parse("azure-fast")
        assert spec.base == "azure"  # self-contained: no registry needed later
        assert spec.overrides[0].path == "scaling.cold_start_median_s"
        assert "azure-fast" in available_scenarios()

    def test_scenario_reference_merges_era_and_overrides(self):
        register_scenario("azure-fast", "azure@2024:cold_start=x0.5,region=eu")
        spec = PlatformSpec.parse("azure-fast@2022:region=us")
        assert spec.era == "2022"  # the reference's explicit era wins
        rendered = {o.path: o for o in spec.overrides}
        assert rendered["region"].value == "us"  # per-path: explicit wins
        assert rendered["scaling.cold_start_median_s"].value == 0.5

    def test_scenario_name_collisions_rejected(self):
        with pytest.raises(ValueError, match="platform"):
            register_scenario("aws", "gcp")
        register_scenario("myscn", "aws")
        with pytest.raises(ValueError, match="scenario"):
            register_platform("myscn", aws_profile)

    def test_scenario_on_unknown_base_rejected(self):
        with pytest.raises(KeyError, match="ibm"):
            register_scenario("bad", {"base": "ibm"})

    def test_era_only_platform_reports_missing_eras(self):
        """A platform registered only for one era must explain which eras it
        exists in, not claim the name is unknown."""
        register_platform("edge", lambda: aws_profile(), era="2026")
        with pytest.raises(KeyError, match=r"not available in era '2024'.*2026"):
            PlatformSpec.parse("edge").resolve()
        assert PlatformSpec.parse("edge@2026").resolve().name == "aws"
        # available_platforms(era) only advertises resolvable names.
        assert "edge" not in available_platforms("2024")
        assert "edge" in available_platforms("2026")
        assert "edge" in available_platforms()

    def test_builtin_overwrite_marks_spec_as_runtime_local(self):
        """Overwriting a builtin factory makes its specs non-portable: pool
        workers hold the stock registry and would silently compute with it."""
        from repro.sim.platforms.spec import is_builtin_spec

        assert is_builtin_spec(PlatformSpec.parse("aws"))
        assert is_builtin_spec(PlatformSpec.parse("aws@2022"))
        register_platform("aws", lambda: aws_profile(region="custom"), overwrite=True)
        assert not is_builtin_spec(PlatformSpec.parse("aws"))
        # The 2022-era factory is untouched, so that spec stays portable.
        assert is_builtin_spec(PlatformSpec.parse("aws@2022"))


class TestScenarioFiles:
    def test_load_json_scenarios(self, tmp_path):
        path = tmp_path / "scenarios.json"
        path.write_text(json.dumps({
            "platforms": {
                "aws-slow": {"base": "aws", "era": "2022",
                             "overrides": {"cold_start": "x3"}},
                "gcp-eu": {"spec": "gcp:region=europe-west4"},
            }
        }))
        names = load_scenarios(path)
        assert sorted(names) == ["aws-slow", "gcp-eu"]
        profile = resolve_platform("aws-slow")
        assert profile.scaling.cold_start_median_s == pytest.approx(0.45 * 1.1 * 3)
        assert resolve_platform("gcp-eu").region == "europe-west4"

    def test_load_toml_scenarios(self, tmp_path):
        pytest.importorskip("tomllib")
        path = tmp_path / "scenarios.toml"
        path.write_text(
            '[platforms.azure-fast]\n'
            'base = "azure"\n'
            '[platforms.azure-fast.overrides]\n'
            'cold_start = "x0.5"\n'
            '"orchestration.dispatch_base_s" = 0.04\n'
        )
        assert load_scenarios(path) == ["azure-fast"]
        profile = resolve_platform("azure-fast")
        assert profile.scaling.cold_start_median_s == pytest.approx(1.25)
        assert profile.orchestration.dispatch_base_s == 0.04

    def test_committed_example_file_loads(self):
        pytest.importorskip("tomllib")
        names = load_scenarios("examples/scenarios.toml")
        assert "aws-durable-orchestration" in names
        profile = resolve_platform("aws-durable-orchestration")
        assert profile.orchestration.kind == "durable"
        assert profile.name == "aws"

    def test_reload_is_idempotent(self, tmp_path):
        path = tmp_path / "scenarios.json"
        path.write_text(json.dumps({"platforms": {"v": {"base": "aws"}}}))
        load_scenarios(path)
        load_scenarios(path)
        assert "v" in available_scenarios()

    def test_bad_scenario_file_rejected(self, tmp_path):
        path = tmp_path / "scenarios.json"
        path.write_text(json.dumps({"platforms": {"v": {"region": "nowhere"}}}))
        with pytest.raises(ValueError, match="'base' or 'spec'"):
            load_scenarios(path)
        path.write_text(json.dumps({"platforms": {}}))
        with pytest.raises(ValueError, match="no platforms"):
            load_scenarios(path)

    def test_scenario_typo_raises_named_keyerror(self, tmp_path):
        path = tmp_path / "scenarios.json"
        path.write_text(json.dumps({
            "platforms": {"typo": {"base": "aws",
                                   "overrides": {"cold_strat": "x2"}}}
        }))
        with pytest.raises(KeyError, match="cold_strat"):
            load_scenarios(path)


class TestRemovedShim:
    def test_get_profile_is_no_longer_exported(self):
        """resolve_platform("aws@2022") replaces the (platform, era) shim."""
        import repro.sim
        import repro.sim.platforms

        assert not hasattr(repro.sim, "get_profile")
        assert "get_profile" not in repro.sim.platforms.__all__
        assert not hasattr(repro.sim.platforms, "get_profile")
