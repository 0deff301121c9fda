"""Primitive collections and relations, curve classes, and the Mori cone.

A primitive collection is a minimal non-face of the fan: a generator set
spanning no cone all of whose one-element deletions span cones. Its
relation locates the sum of the collection's vectors in the unique cone
holding it in its relative interior; the resulting integer relation among
generators is a curve class. The primitive classes generate the cone of
effective curves, which makes extremality a finite, exact computation.

``primitive_relations`` is the one cached relation table per fan and the
only code that locates a relation: it places each collection's sum with
``fan.locate_relint``. The Mori cone and the Fano witnesses read the table,
and ``primitive_relation`` reads one entry of it, for the reports' degree
column and for callers naming a single collection. The verdicts read
``fan.wall_classes``, one curve class per wall, built in the pass that
validates the fan: a divisor is ample iff it is positive on each (Reid,
"Decomposition of toric morphisms", 1983; Cox, Little and Schenck, *Toric
Varieties*, Thm 6.3.13). The table and the verdicts start from
``wall_classes``, the package's one validity gate, and the single relation
from the table, so each raises ``InternalInconsistencyError`` on a fan that
``validate_fan`` rejects before it reads its arguments, locates a relation
or runs an LP.

The records are ``typing.NamedTuple`` classes, not dataclasses, so that a
cold start does not import ``dataclasses`` (see the ``fan`` docstring).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from operator import or_
from typing import Iterable, NamedTuple

from . import lattice
from .errors import InvalidArgumentError
from .fan import Cone, Fan, locate_relint, resolve_cone, wall_classes


class PrimitiveRelation(NamedTuple):
    """collection's vectors sum to sum(coefficients[i] * target[i] vectors)."""

    collection: Cone
    target: Cone
    coefficients: tuple[int, ...]
    degree: int


class MoriClassInfo(NamedTuple):
    relation: PrimitiveRelation
    curve_class: tuple[int, ...]
    extremal: bool
    # nonnegative combination over other primitive classes, as
    # (collection, coefficient) pairs; None exactly when extremal
    decomposition: tuple[tuple[Cone, Fraction], ...] | None


class MoriConeSummary(NamedTuple):
    relations: tuple[MoriClassInfo, ...]
    picard_number: int
    strictly_convex: bool


@lru_cache(maxsize=4096)
def primitive_collections(fan: Fan) -> tuple[Cone, ...]:
    """All minimal non-faces, in lexicographic order of sorted index tuples.

    Every proper subset of a minimal non-face is a face, so each one of
    size h >= 2 is a nonempty face F plus one ray r > max(F), and arises
    once that way. Each ray's neighbour mask, the OR of the maximal cones
    holding it, bounds the rays tried: for |F| >= 2 every pair of the
    collection is a face, so r is a neighbour of every ray of F, a bit of
    the AND of their masks; for |F| = 1 the pair is no face, so r is no
    neighbour of F's ray, though it lies in some cone. The work is bounded
    by #faces x #rays. Every face is a bitmask, bit i for ray i, built as
    the subsets of each maximal cone's mask: a candidate F + r and its
    deletions are ints to look up, and only the collections found become
    index tuples.
    """
    masks = [0] * len(fan.generators)
    faces = set()
    for mc in fan.max_cones:
        subsets = [0]
        for i in mc:
            bit = 1 << i
            subsets += [s | bit for s in subsets]
        for i in mc:
            masks[i] |= subsets[-1]
        faces.update(subsets[1:])
    used = reduce(or_, masks, 0)
    out = []
    for face in faces:
        low = face & -face
        if face == low:
            rays = used & ~masks[low.bit_length() - 1]
        else:  # the AND of the masks of the face's rays
            rays, rest = -1, face
            while rest:
                low = rest & -rest
                rays &= masks[low.bit_length() - 1]
                rest ^= low
        r = face.bit_length() - 1
        rays >>= r + 1
        while rays:
            skip = (rays & -rays).bit_length()
            rays >>= skip
            r += skip
            cand = face | 1 << r
            if cand not in faces:
                rest = face  # the rays of the face whose deletion is untested
                while rest and cand ^ (rest & -rest) in faces:
                    rest &= rest - 1
                if not rest:
                    out.append(cand)
    return tuple(sorted(map(_indices, out)))


def _indices(mask: int) -> Cone:
    """The positions of the set bits of ``mask``, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def primitive_relation(fan: Fan, collection: Iterable[int | str]) -> PrimitiveRelation:
    """The relation attached to a primitive collection of the fan: its entry
    in ``primitive_relations``, which is read first, so ``wall_classes``
    checks the fan before the collection is read. Any other ray set raises
    ``InvalidArgumentError``; nothing is located here."""
    table = primitive_relations(fan)
    coll = resolve_cone(fan, collection)
    for rel in table:
        if rel.collection == coll:
            return rel
    raise InvalidArgumentError(
        f"{{{','.join(fan.cone_names(coll))}}} is not a primitive collection"
    )


@lru_cache(maxsize=4096)
def primitive_relations(fan: Fan) -> tuple[PrimitiveRelation, ...]:
    """The relation of every primitive collection, in collection order: the
    one place relations are built. ``wall_classes`` checks the fan first,
    since a fan that ``validate_fan`` rejects may have no primitive
    collection; ``locate_relint`` then places each collection's sum, and the
    degree is |P| minus the sum of the coefficients."""
    wall_classes(fan)  # the check only; the classes are not read
    table = []
    for coll in primitive_collections(fan):
        total = tuple(map(sum, zip(*fan.cone_vectors(coll))))
        target, coeffs = locate_relint(fan, total)
        table.append(PrimitiveRelation(coll, target, coeffs, len(coll) - sum(coeffs)))
    return tuple(table)


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
    of the other primitive classes: one LP per class against all others,
    except where a coordinate separates it. When class k is the only class
    positive at ray i, e_i is a Farkas certificate (e_i . c_k > 0 and
    e_i . c_j <= 0 for every other class j), and so is -e_i when it is the
    only one negative there; either makes it extremal with no LP. The
    witnessing decomposition, the LP's vertex, is stored otherwise.
    The classes are transposed once per fan into one matrix with a row
    per ray; the LP of class k is that matrix with column k deleted and
    rhs c_k, the system ``lattice.nonneg_rational_combination(others,
    c_k)`` would build, so its pivots and vertex are the same.
    ``strictly_convex`` is ``is_projective(fan)``, so the summary and the
    verdict share one Gordan LP. Cached per fan (``lru_cache``, 4096 fans).
    """
    rels = primitive_relations(fan)
    classes = [curve_class(fan, r) for r in rels]
    matrix = list(zip(*classes))  # one row per ray, one column per class
    # per ray, how many classes are positive and how many negative there
    positive = [sum(x > 0 for x in row) for row in matrix]
    negative = [sum(x < 0 for x in row) for row in matrix]
    infos = []
    for k, rel in enumerate(rels):
        if any(
            (x > 0 and pos == 1) or (x < 0 and neg == 1)
            for x, pos, neg in zip(classes[k], positive, negative)
        ):
            sol = None
        else:
            sol = lattice.solve_eq_nonneg(
                [row[:k] + row[k + 1 :] for row in matrix], classes[k]
            )
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
