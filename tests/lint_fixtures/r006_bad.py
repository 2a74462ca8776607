"""R006 positive fixture: internal call sites feeding CampaignSpec's deprecated pair."""

from repro.faas import CampaignSpec


def legacy_campaign():
    return CampaignSpec(benchmarks=("ml",), mode="burst", burst_size=30)


def legacy_warm_campaign():
    return CampaignSpec(benchmarks=("ml",), mode="warm")
