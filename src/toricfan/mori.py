"""Primitive collections and relations, curve classes, and the Mori cone.

A primitive collection is a minimal non-face of the fan: a generator set
spanning no cone all of whose one-element deletions span cones. Its
associated relation locates the sum of the collection's vectors in the
unique cone holding it in its relative interior; the resulting integer
relation among generators is a curve class. The classes of the primitive
relations generate the cone of effective curves, which makes extremality,
projectivity (strict convexity) and the Fano verdict finite, exact
computations.

``primitive_relations`` is the one cached relation table per fan; the Mori
cone, the Fano and projectivity verdicts, blow-downs and contractions all
read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Iterable

from . import lattice
from .errors import InternalInconsistencyError
from .fan import Cone, Fan, locate_relint, resolve_cone


@dataclass(frozen=True)
class PrimitiveRelation:
    """collection's vectors sum to sum(coefficients[i] * target[i] vectors)."""

    collection: Cone
    target: Cone
    coefficients: tuple[int, ...]
    degree: int


@dataclass(frozen=True)
class MoriClassInfo:
    relation: PrimitiveRelation
    curve_class: tuple[int, ...]
    extremal: bool
    # nonnegative combination over other primitive classes, as
    # (collection, coefficient) pairs; None exactly when extremal
    decomposition: tuple[tuple[Cone, Fraction], ...] | None


@dataclass(frozen=True)
class MoriConeSummary:
    relations: tuple[MoriClassInfo, ...]
    picard_number: int
    strictly_convex: bool


@lru_cache(maxsize=4096)
def primitive_collections(fan: Fan) -> tuple[Cone, ...]:
    """All minimal non-faces, in lexicographic order of sorted index tuples."""
    faces = set()
    for mc in fan.max_cones:
        for r in range(fan.dim + 1):
            for sub in combinations(mc, r):
                faces.add(sub)
    out = []
    # a collection of size h has all its (h-1)-subsets among the faces, and
    # faces have at most dim rays, so h <= dim + 1
    for h in range(2, fan.dim + 2):
        for cand in combinations(range(len(fan.generators)), h):
            if cand in faces:
                continue
            if all(
                cand[:i] + cand[i + 1 :] in faces for i in range(h)
            ):
                out.append(cand)
    return tuple(sorted(out))


def primitive_relation(fan: Fan, collection: Iterable[int | str]) -> PrimitiveRelation:
    """The relation attached to a primitive collection of the fan."""
    coll = resolve_cone(fan, collection)
    vecs = fan.cone_vectors(coll)
    total = tuple(sum(col) for col in zip(*vecs))
    try:
        target, coeffs = locate_relint(fan, total)
    except InternalInconsistencyError as exc:
        raise InternalInconsistencyError(
            f"sum of collection {fan.cone_names(coll)} lies in no cone: {exc}"
        ) from exc
    degree = len(coll) - sum(coeffs)
    return PrimitiveRelation(coll, target, coeffs, degree)


@lru_cache(maxsize=4096)
def primitive_relations(fan: Fan) -> tuple[PrimitiveRelation, ...]:
    """The relation of every primitive collection, in collection order."""
    return tuple(primitive_relation(fan, c) for c in primitive_collections(fan))


def curve_class(fan: Fan, relation: PrimitiveRelation) -> tuple[int, ...]:
    """Integer relation among generators: +1 on the collection, -a_i on the
    target rays, 0 elsewhere. The weighted sum of generator vectors is 0."""
    entries = [0] * len(fan.generators)
    for i in relation.collection:
        entries[i] += 1
    for i, a in zip(relation.target, relation.coefficients):
        entries[i] -= a
    return tuple(entries)


def anticanonical_degree(cls: Iterable[int]) -> int:
    """Intersection with the anticanonical divisor: the sum of the entries."""
    return sum(cls)


@lru_cache(maxsize=4096)
def mori_cone(fan: Fan) -> MoriConeSummary:
    """Classes of all primitive relations with extremality flags.

    A class is extremal when it is not a nonnegative rational combination
    of the other primitive classes (one LP per class against all others);
    the witnessing decomposition is stored otherwise. ``strictly_convex``
    is ``is_projective(fan)``, so the summary and the verdict share one
    Gordan LP. Cached per fan (``lru_cache``, 4096 fans).
    """
    rels = primitive_relations(fan)
    classes = [curve_class(fan, r) for r in rels]
    infos = []
    for k, rel in enumerate(rels):
        others = classes[:k] + classes[k + 1 :]
        sol = lattice.nonneg_rational_combination(others, classes[k])
        if sol is None:
            infos.append(MoriClassInfo(rel, classes[k], True, None))
        else:
            other_rels = rels[:k] + rels[k + 1 :]
            dec = tuple(
                (other_rels[j].collection, lam)
                for j, lam in enumerate(sol)
                if lam != 0
            )
            infos.append(MoriClassInfo(rel, classes[k], False, dec))
    return MoriConeSummary(
        tuple(infos),
        picard_number=len(fan.generators) - fan.dim,
        strictly_convex=is_projective(fan),
    )


@lru_cache(maxsize=4096)
def is_projective(fan: Fan) -> bool:
    """Kleiman: projective iff the cone of effective curves is strictly convex.

    The primitive classes (from the cached ``primitive_relations`` table)
    generate that cone, and Gordan's alternative decides its strict
    convexity with one LP: some functional is strictly positive on every
    class iff no convex combination of the classes (lam >= 0, sum lam = 1)
    vanishes. No extremality or decomposition is computed. Cached per fan
    (``lru_cache``, 4096 fans).
    """
    classes = [curve_class(fan, r) for r in primitive_relations(fan)]
    return (
        lattice.nonneg_rational_combination(
            [c + (1,) for c in classes], (0,) * len(fan.generators) + (1,)
        )
        is None
    )


def is_fano(fan: Fan) -> tuple[bool, tuple[Cone, ...]]:
    """Fano iff every primitive collection has strictly positive degree.

    Returns the verdict plus the witnesses: all collections of degree <= 0.
    """
    bad = tuple(r.collection for r in primitive_relations(fan) if r.degree <= 0)
    return (not bad, bad)
