"""R006 negative fixture: the workload-sweep call style."""

from repro.faas.campaign import CampaignSpec
from repro.faas.workload import WorkloadSpec


def modern_campaign():
    return CampaignSpec(benchmarks=("ml",), workloads=("burst:burst_size=30",))


def unrelated_burst_size():
    # burst_size= on non-deprecated callees is a perfectly good parameter.
    return WorkloadSpec.burst(burst_size=30)
