"""Built-in fans and enumeration of smooth toric Fano varieties.

The catalog holds projective spaces and a fixed tower of three blow-ups of
P^4 (keys paper-X, paper-W, paper-Y) that exhibits a Fano 4-fold admitting
no equivariant blow-down to a smooth Fano 4-fold; the tower drives most of
the golden tests. Enumeration of smooth toric Fano fans up to lattice
isomorphism covers dimensions 1-4 with one search, ``_fano3``'s advancing
front, and reproduces the published counts 1, 5, 18 and 124 (Batyrev,
J. Math. Sci. 94 (1999); Sato, Tohoku Math. J. 52 (2000)).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .errors import InvalidDimensionError, UnsupportedDimensionError
from .fan import Fan, make_fan, star_subdivide


def projective_space(n: int) -> Fan:
    """The fan of P^n: e1..en the standard basis, e0 their negated sum,
    maximal cones all n-subsets of the n+1 rays."""
    if type(n) is not int or n < 1:
        raise InvalidDimensionError(f"no projective space of dimension {n!r}")
    gens = [("e0", (-1,) * n)]
    for i in range(1, n + 1):
        gens.append((f"e{i}", tuple(1 if j == i - 1 else 0 for j in range(n))))
    cones = combinations(range(n + 1), n)
    return make_fan(n, gens, cones)


@lru_cache(maxsize=1)
def counterexample_tower() -> tuple[Fan, Fan, Fan, Fan]:
    """P^4 and the chain of three blow-ups used throughout the test suite.

    X blows up the line {e1,e2,e3}, W then the line {e2,e3,e4}, Y then the
    surface {e4,e5}. X and Y are Fano, W is not, and Y -> X factors through
    W only; no factorization has all-Fano intermediates.

    Products with P^1 carry the answer to every dimension n >= 4. The
    maximal cones of F x P^1 are sigma x (0, 1) and sigma x (0, -1) for the
    maximal cones sigma of F, so its primitive collections are those of F
    and {(0, 1), (0, -1)}. The latter sums to 0, which is no ray, so every
    blow-down of F x P^1 is a blow-down of F times P^1, and F x P^1 is Fano
    iff F is. So Y x (P^1)^k -> X x (P^1)^k factors only through
    W x (P^1)^k, which is not Fano.
    """
    p4 = projective_space(4)
    x = star_subdivide(p4, ("e1", "e2", "e3"), "e5")
    w = star_subdivide(x, ("e2", "e3", "e4"), "e6")
    y = star_subdivide(w, ("e4", "e5"), "e7")
    return p4, x, w, y


@lru_cache(maxsize=1)
def _fans() -> dict[str, Fan]:
    p4, x, w, y = counterexample_tower()
    return {
        "p1": projective_space(1),
        "p2": projective_space(2),
        "p3": projective_space(3),
        "p4": p4,
        "paper-X": x,
        "paper-W": w,
        "paper-Y": y,
    }


def catalog_keys() -> tuple[str, ...]:
    return tuple(_fans())


def catalog_fan(key: str) -> Fan:
    fans = _fans()
    if not isinstance(key, str) or key not in fans:
        raise KeyError(
            f"unknown catalog key {key!r}; available: {', '.join(fans)}"
        )
    return fans[key]


# ---------------------------------------------------------------------------
# enumeration of smooth toric Fano varieties up to lattice isomorphism


@lru_cache(maxsize=8)
def _enumerate_cached(dim: int) -> tuple[Fan, ...]:
    from ._fano3 import enumerate_fano_fans  # not on the CLI's start-up path

    return tuple(enumerate_fano_fans(dim))


def enumerate_fano(dim: int) -> list[Fan]:
    """All smooth complete Fano fans of the given dimension, one per
    lattice-isomorphism class, in canonical-key order. Each class is given
    as its canonical form: rays e0, e1, ... in lex order of their vectors,
    so its ``structural_key`` is its ``canonical_gl_key``, and the result
    depends on the classes alone, not on the order of the search.

    One advancing-front search serves dimensions 1 to 4 (see ``_fano3``);
    the result is cached per dimension. Dimensions 1 to 3 together take
    about 0.1 s of CPU (Python 3.11.7, 2 CPUs), nearly all in dimension 3;
    the 124 classes of dimension 4 take 24-28 s. Dimension 5 and above are
    refused. ``dim`` must be an ``int``: the cache would take 2.0 or True
    for 2 or 1.
    """
    if type(dim) is not int or not 1 <= dim <= 4:
        raise UnsupportedDimensionError(
            f"enumeration is implemented for dimensions 1-4, not {dim!r}"
        )
    return list(_enumerate_cached(dim))
