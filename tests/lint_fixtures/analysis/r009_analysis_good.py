"""R009 fixture (under an ``analysis/`` path): render code that only reads."""

import numpy as np
from repro.faas.campaign import CampaignResult, NoiseProbe
from repro.sim.platforms.spec import resolve_platform
from repro.sim.resources import MEMORY_CONFIGURATIONS_MB


def curve(campaign: CampaignResult, probe: NoiseProbe):
    rows = campaign.probes[probe.fingerprint()]
    share = resolve_platform(probe.platform).cpu_model.suspension(MEMORY_CONFIGURATIONS_MB[0])
    return rows, np.float64(share)
