"""R001 positive fixture: builtin hash() of values salted per process."""


def population_chunk(population):
    return hash(population) % 97


def labelled(name: str, seed: int):
    return hash(f"{name}:{seed}")


def composite(cell):
    return hash((cell.benchmark, cell.seed))


class Record:
    def key(self):
        return hash(self.name)
