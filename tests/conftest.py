import random
from itertools import combinations

import pytest

from toricfan import catalog, star_subdivide


@pytest.fixture(scope="session")
def tower():
    """(P4, X, W, Y): the built-in chain of blow-ups of P^4."""
    return catalog.counterexample_tower()


@pytest.fixture(scope="session")
def catalog_fans():
    """All built-in fans keyed by catalog key."""
    return {e.key: e.fan for e in catalog.entries()}


def blowup_chain(seed, dim, steps):
    """P^dim star-subdivided ``steps`` times, each at a face of dimension
    at least 2 drawn with ``seed``."""
    rng = random.Random(seed)
    fan = catalog.projective_space(dim)
    for _ in range(steps):
        faces = sorted(
            {
                face
                for cone in fan.max_cones
                for r in range(2, dim + 1)
                for face in combinations(cone, r)
            }
        )
        fan = star_subdivide(fan, rng.choice(faces))
    return fan


@pytest.fixture(scope="session")
def seeded_chains():
    """Last fans of two seeded blow-up chains, one on P^3 and one on P^4."""
    return [blowup_chain(1, 3, 6), blowup_chain(2, 4, 4)]
