"""R009 fixture (under an ``analysis/`` path): render code that draws."""

import numpy.random
from numpy import random as npr
from repro.sim.noise import NoiseModel
from ..sim import rng


def curve(platform, cpu_model, seed):
    # Drawing at render time: the exact failure mode the import ban rules out.
    streams = rng.RandomStreams(seed)
    return NoiseModel(platform, cpu_model, streams).suspension_curve((256,)), npr, numpy
