import numpy as np
import pytest

from crnsim.model import Configuration, Crn, Reaction, SpeciesTable


def random_crn(rng, max_species=4, max_reactions=5, max_side_total=2,
               kinetics_compatible=False):
    """Small random network for property tests.

    Sides hold at most ``max_side_total`` molecules; with
    ``kinetics_compatible`` the reactant side has exactly one or two.
    """
    ns = int(rng.integers(1, max_species + 1))
    nr = int(rng.integers(1, max_reactions + 1))
    names = tuple(f"S{i}" for i in range(ns))
    reactions = []
    for _ in range(nr):
        while True:
            if kinetics_compatible:
                r_total = int(rng.integers(1, 3))
            else:
                r_total = int(rng.integers(0, max_side_total + 1))
            p_total = int(rng.integers(0, max_side_total + 1))
            r = [0] * ns
            p = [0] * ns
            for _ in range(r_total):
                r[int(rng.integers(ns))] += 1
            for _ in range(p_total):
                p[int(rng.integers(ns))] += 1
            if tuple(r) != tuple(p):
                break
        k = round(float(rng.uniform(0.5, 2.0)), 3)
        reactions.append(Reaction(tuple(r), tuple(p), k))
    return Crn(SpeciesTable(names), tuple(reactions))


def random_config(rng, crn, max_count=3, nonzero=True):
    while True:
        cfg = Configuration(rng.integers(0, max_count + 1, size=crn.n_species))
        if not nonzero or cfg.total > 0:
            return cfg


RNG_SEED = 20240817  # the seed of the ``rng`` fixture


@pytest.fixture
def rng():
    return np.random.default_rng(RNG_SEED)
