import random
from itertools import combinations

import pytest

from toricfan import birational, catalog, make_fan, mori, star_subdivide, validate_fan
from toricfan import fan as fan_module


@pytest.fixture(scope="session")
def tower():
    """(P4, X, W, Y): the built-in chain of blow-ups of P^4."""
    return catalog.counterexample_tower()


@pytest.fixture(scope="session")
def catalog_fans():
    """All built-in fans keyed by catalog key."""
    return {key: catalog.catalog_fan(key) for key in catalog.catalog_keys()}


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


def clear_package_caches():
    """Every cache a factorization reads; the Fano enumeration's are kept."""
    for module in (fan_module, mori, birational):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


@pytest.fixture(scope="session")
def seeded_chains():
    """Last fans of two seeded blow-up chains, one on P^3 and one on P^4."""
    return [blowup_chain(1, 3, 6), blowup_chain(2, 4, 4)]


def search_root(dim):
    """The complex the Fano search enters first: the standard cone alone,
    its unit vectors in lex order."""
    units = (tuple(int(i == j) for j in range(dim)) for i in range(dim))
    return frozenset([tuple(sorted(units))])


def chain_prefixes():
    """Every fan of the two ``seeded_chains``, from P^3 and P^4 on."""
    return [blowup_chain(1, 3, k) for k in range(7)] + [
        blowup_chain(2, 4, k) for k in range(5)
    ]


def factorization_pairs():
    """(fine, coarse) pairs of the tower (Y onto X and P^4, W onto X, X onto
    P^4) and of three seeded chains onto their base."""
    p4, x, w, y = catalog.counterexample_tower()
    return [(y, x), (y, p4), (w, x), (x, p4)] + [
        (blowup_chain(seed, dim, steps), catalog.projective_space(dim))
        for seed, dim, steps in ((1, 3, 6), (2, 4, 4), (2, 4, 8))
    ]


def factorization_fans():
    """Every fan on the exhaustive factorizations of ``factorization_pairs``,
    endpoints included, without repeats: the intermediates the search
    builds by contraction."""
    pairs = factorization_pairs()
    fans = [f for pair in pairs for f in pair]
    for fine, coarse in pairs:
        for path in birational.factor_morphism(fine, coarse, exhaustive=True):
            fans += [step.fan for step in path.steps]
    return list(dict.fromkeys(fans))


def carried_row_fans(catalog_fans):
    """The valid fans the carried dual rows are checked on: the catalog, the
    seeded chains, the Fano classes of dimensions 2 and 3 and every fan of
    ``factorization_fans``."""
    return list(
        dict.fromkeys(
            list(catalog_fans.values())
            + chain_prefixes()
            + catalog.enumerate_fano(2)
            + catalog.enumerate_fano(3)
            + factorization_fans()
        )
    )


def verdict_fans(catalog_fans, seeded_chains):
    """Every fan the wall verdicts and the Mori cone are checked on: P^1
    (one wall, the zero cone) is among the enumerations, the threefold is
    not projective."""
    return (
        list(catalog_fans.values())
        + [f for d in (1, 2, 3) for f in catalog.enumerate_fano(d)]
        + seeded_chains
        + chain_prefixes()
        + [twisted_threefold()]
    )


def cycle_fan(*vectors):
    """A 2-dimensional cone complex on the rays r_i = vectors[i] with the
    maximal cones r_i r_(i+1), indices cyclic."""
    k = len(vectors)
    return make_fan(
        2,
        [(f"r{i}", v) for i, v in enumerate(vectors)],
        [(i, (i + 1) % k) for i in range(k)],
    )


# Smooth, every ray in two cones, the cones of each ray on opposite sides of
# it, and the cycle winds twice around the origin: every point off the rays
# lies in two maximal cones.
TWICE_WINDING = cycle_fan(
    (1, 0), (-3, 1), (-1, 0), (-3, -1), (-2, -1),
    (-3, -2), (2, 1), (1, 1), (0, 1), (-1, -1),
)
# Smooth with every ray in two cones, but <r0,r1> folds back over the other
# four cones: the support is only part of the plane.
FOLDED_CYCLE = cycle_fan((1, 0), (-2, -1), (-1, -1), (-1, -2), (0, -1))
# Two P^2 fans on disjoint rays, (1,0),(0,1),(-1,-1) and (-1,0),(0,-1),(1,1):
# smooth, every wall in two cones on opposite sides, every point off the
# rays in two maximal cones, and the wall-adjacency graph has two components.
DOUBLE_P2 = make_fan(
    2,
    [
        ("a", (1, 0)), ("b", (0, 1)), ("c", (-1, -1)),
        ("d", (-1, 0)), ("e", (0, -1)), ("f", (1, 1)),
    ],
    [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)],
)
# Two cones overlap in their interiors: <a,c> contains b.
OVERLAPPING_TEXT = (
    "dim 2\nray a 1 0\nray b 1 1\nray c 0 1\nray d -1 -1\n"
    "maxcone a c\nmaxcone a b\nmaxcone b c\nmaxcone c d\nmaxcone d a\n"
)
# Smooth with every ray in two cones; <r3,r4> folds back over <r2,r3>, so
# the interior of <r2,r3> is covered three times and the rest of the plane
# once.
ZIGZAG_CYCLE = cycle_fan((1, 0), (0, -1), (-1, 0), (-1, -1), (0, 1))
# No cone is unimodular (determinants 2, 4, -2, 2). Its 6 pairs of cones
# make 6 overlap LPs, one of them feasible, since <a,b> contains <a,d>.
NON_SMOOTH_OVERLAP = make_fan(
    2,
    [("a", (1, 0)), ("b", (-1, 2)), ("c", (-1, -2)), ("d", (1, 2))],
    [(0, 1), (1, 2), (0, 2), (0, 3)],
)


def rejected_complexes(seed, count):
    """``count`` random cone complexes that ``validate_fan`` rejects: dimension
    2 or 3, dim+1 to dim+4 rays with coordinates in [-2, 2], and 1 to
    2 x rays maximal cones on random ray sets."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = rng.choice((2, 3))
        k = rng.randint(d + 1, d + 4)
        gens = [(f"r{i}", [rng.randint(-2, 2) for _ in range(d)]) for i in range(k)]
        cones = [rng.sample(range(k), d) for _ in range(rng.randint(1, 2 * k))]
        f = make_fan(d, gens, cones)
        if not validate_fan(f).ok:
            out.append(f)
    return out


def twisted_threefold():
    """A smooth complete non-projective toric threefold: the orthant
    <a1,b1,c1>, a ring of six cones twisted around it, and the cones over
    the outer triangle abc joined to d = (-1,-1,-1)."""
    rays = [
        ("a", (0, -1, -1)),
        ("b", (-1, 0, -1)),
        ("c", (-1, -1, 0)),
        ("a1", (1, 0, 0)),
        ("b1", (0, 1, 0)),
        ("c1", (0, 0, 1)),
        ("d", (-1, -1, -1)),
    ]
    a, b, c, a1, b1, c1, d = range(7)
    cones = [
        (a1, b1, c1),
        (a, b, a1), (b, a1, b1),
        (b, c, b1), (c, b1, c1),
        (c, a, c1), (a, c1, a1),
        (a, b, d), (b, c, d), (c, a, d),
    ]
    return make_fan(3, rays, cones)
