"""R001 negative fixture: hash() uses that are stable or never leave the process."""

from repro.sim.rng import derive_stream_seed


def population_chunk(population):
    return derive_stream_seed(0, f"genome.population:{population}") % 97


def int_hashes(seed: int):
    # Ints hash to themselves under every PYTHONHASHSEED.
    return hash(7), hash(-3), hash(seed)


class Token:
    def __init__(self, tokens):
        self._tokens = dict(tokens)

    def __hash__(self):
        # The hashing protocol itself: the value never leaves the process.
        return hash(frozenset(self._tokens.items()))


def methods_named_hash(record):
    # Attribute calls are not the builtin.
    return record.hash("cell")
