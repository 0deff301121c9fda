"""Primitive collections and relations, curve classes, and the Mori cone.

A primitive collection is a minimal non-face of the fan: a generator set
spanning no cone all of whose one-element deletions span cones. Its
relation locates the sum of the collection's vectors in the unique cone
holding it in its relative interior; the resulting integer relation among
generators is a curve class. The primitive classes generate the cone of
effective curves, which makes extremality a finite, exact computation.

``primitive_relations`` is the one cached relation table per fan, read by
the Mori cone, the Fano witnesses and the reports' degree column. The
verdicts read ``wall_classes``, one curve class per wall, built by
``fan._walls`` in the pass that validates the fan, and raise on every fan
``validate_fan`` rejects: a divisor is ample iff it is positive on each
(Reid, "Decomposition of toric morphisms", 1983; Cox, Little and Schenck,
*Toric Varieties*, Thm 6.3.13).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Iterable

from . import lattice
from .errors import InternalInconsistencyError, InvalidArgumentError
from .fan import Cone, Fan, _walls, locate_relint, resolve_cone


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
    """All minimal non-faces, in lexicographic order of sorted index tuples.

    Every proper subset of a minimal non-face is a face, so each one of
    size h >= 2 is a nonempty face F plus one ray r > max(F), and arises
    once that way: the work is bounded by #faces x #rays.
    """
    faces = set()
    for mc in fan.max_cones:
        for r in range(1, fan.dim + 1):
            faces.update(combinations(mc, r))
    out = []
    for face in faces:
        for r in range(face[-1] + 1, len(fan.generators)):
            cand = face + (r,)
            if cand not in faces and all(
                cand[:i] + cand[i + 1 :] in faces for i in range(len(face))
            ):
                out.append(cand)
    return tuple(sorted(out))


def primitive_relation(fan: Fan, collection: Iterable[int | str]) -> PrimitiveRelation:
    """The relation attached to a primitive collection of the fan; any other
    ray set raises ``InvalidArgumentError``."""
    coll = resolve_cone(fan, collection)
    colls = primitive_collections(fan)  # sorted, so bisection finds coll
    i = bisect_left(colls, coll)
    if colls[i : i + 1] != (coll,):
        raise InvalidArgumentError(
            f"{{{','.join(fan.cone_names(coll))}}} is not a primitive collection"
        )
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


def wall_classes(fan: Fan) -> tuple[tuple[int, ...], ...]:
    """The curve class of every wall, without duplicates, sorted, from the
    cached pass of ``fan._walls``. A fan that ``validate_fan`` rejects,
    where such wall-local verdicts are unsound, raises
    ``InternalInconsistencyError``."""
    classes = _walls(fan)
    if classes is None:
        raise InternalInconsistencyError(f"{fan!r} fails validate_fan")
    return classes


@lru_cache(maxsize=4096)
def is_projective(fan: Fan) -> bool:
    """Kleiman: projective iff some divisor (a strictly convex support
    function) is positive on every class of ``wall_classes``.

    -K is such a divisor on a Fano fan. Otherwise Gordan's alternative
    decides it with one LP: some functional is strictly positive on every
    class iff no convex combination of the classes (lam >= 0, sum lam = 1)
    vanishes. Cached per fan (``lru_cache``, 4096 fans).
    """
    return is_fano_by_walls(fan) or (
        lattice.nonneg_rational_combination(
            [c + (1,) for c in wall_classes(fan)],
            (0,) * len(fan.generators) + (1,),
        )
        is None
    )


@lru_cache(maxsize=4096)
def is_fano_by_walls(fan: Fan) -> bool:
    """-K is ample iff every class of ``wall_classes`` has degree > 0.
    Cached per fan (``lru_cache``, 4096 fans)."""
    return all(anticanonical_degree(c) > 0 for c in wall_classes(fan))


def is_fano(fan: Fan) -> tuple[bool, tuple[Cone, ...]]:
    """The verdict of ``is_fano_by_walls`` plus the witnesses: all
    primitive collections of degree <= 0, which exist iff it is False
    (Batyrev). The relation table is read only to list them."""
    if is_fano_by_walls(fan):
        return (True, ())
    bad = tuple(r.collection for r in primitive_relations(fan) if r.degree <= 0)
    return (False, bad)
