"""Built-in fans and enumeration of smooth toric Fano varieties.

The catalog holds projective spaces and a fixed tower of three blow-ups of
P^4 (keys paper-X, paper-W, paper-Y) that exhibits a Fano 4-fold admitting
no equivariant blow-down to a smooth Fano 4-fold; the tower drives most of
the golden tests. Enumeration of smooth toric Fano fans up to lattice
isomorphism covers dimensions 1-3 with one search, ``_fano3``'s advancing
front, and reproduces the published counts 1, 5 and 18 (Batyrev,
J. Math. Sci. 94 (1999)).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .errors import InvalidDimensionError, UnsupportedDimensionError
from .fan import Fan, make_fan, star_subdivide


@dataclass(frozen=True)
class CatalogEntry:
    key: str
    fan: Fan
    base: str  # construction recipe: base variety ...
    centers: tuple[tuple[str, ...], ...]  # ... plus blow-up centers, in order

    def describe(self) -> str:
        if not self.centers:
            return self.base
        steps = ", then ".join(
            "blow up {" + ",".join(c) + "}" for c in self.centers
        )
        return f"{self.base}; {steps}"


def projective_space(n: int) -> Fan:
    """The fan of P^n: e1..en the standard basis, e0 their negated sum,
    maximal cones all n-subsets of the n+1 rays."""
    if n < 1:
        raise InvalidDimensionError(f"no projective space of dimension {n}")
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
    """
    p4 = projective_space(4)
    x = star_subdivide(p4, ("e1", "e2", "e3"), "e5")
    w = star_subdivide(x, ("e2", "e3", "e4"), "e6")
    y = star_subdivide(w, ("e4", "e5"), "e7")
    return p4, x, w, y


@lru_cache(maxsize=1)
def entries() -> tuple[CatalogEntry, ...]:
    p4, x, w, y = counterexample_tower()
    return (
        CatalogEntry("p1", projective_space(1), "P^1", ()),
        CatalogEntry("p2", projective_space(2), "P^2", ()),
        CatalogEntry("p3", projective_space(3), "P^3", ()),
        CatalogEntry("p4", p4, "P^4", ()),
        CatalogEntry("paper-X", x, "P^4", (("e1", "e2", "e3"),)),
        CatalogEntry(
            "paper-W", w, "P^4", (("e1", "e2", "e3"), ("e2", "e3", "e4"))
        ),
        CatalogEntry(
            "paper-Y",
            y,
            "P^4",
            (("e1", "e2", "e3"), ("e2", "e3", "e4"), ("e4", "e5")),
        ),
    )


def catalog_keys() -> tuple[str, ...]:
    return tuple(e.key for e in entries())


def catalog_entry(key: str) -> CatalogEntry:
    for e in entries():
        if e.key == key:
            return e
    raise KeyError(
        f"unknown catalog key {key!r}; available: {', '.join(catalog_keys())}"
    )


def catalog_fan(key: str) -> Fan:
    return catalog_entry(key).fan


# ---------------------------------------------------------------------------
# enumeration of smooth toric Fano varieties up to lattice isomorphism


@lru_cache(maxsize=8)
def _enumerate_cached(dim: int) -> tuple[Fan, ...]:
    if not 1 <= dim <= 3:
        raise UnsupportedDimensionError(
            f"enumeration is implemented for dimensions 1-3, not {dim}"
        )
    from ._fano3 import enumerate_fano_fans  # not on the CLI's start-up path

    return tuple(enumerate_fano_fans(dim))


def enumerate_fano(dim: int) -> list[Fan]:
    """All smooth complete Fano fans of the given dimension, one per
    lattice-isomorphism class, in canonical-key order.

    One advancing-front search serves dimensions 1 to 3 (see ``_fano3``);
    the result is cached per dimension. Dimension 3 takes about half a
    minute, dimensions 1 and 2 well under a second.
    """
    return list(_enumerate_cached(dim))
