"""Seeded inputs, job lists and known-answer checks of the benchmark.

Imported only by ``worker.py``, after it has put the package under test on
``sys.path``. Jobs call the package through module attributes (``fan.X``,
``mori.X``, ...) so that the traced run sees the wrapped functions.

The program receives only the generated fans. Every check compares an
output with an answer that does not come from the code under test: a fact
of the construction (a chain of blow-ups is smooth, complete and
projective, and its own reversed steps are a factorization), a published
count (1, 5 and 18 Fano classes in dimensions 1 to 3, split by Picard
number), or an identity recomputed here in integers and rationals.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Any, Callable

from toricfan import birational, catalog, mori
from toricfan import fan as tf

# Chain shapes: (ambient dimension, blow-ups per chain, chains per pass).
ANALYZE_CHAINS = ((3, 5, 24), (4, 4, 24))
FACTOR_CHAINS = ((3, 5, 14), (4, 4, 32))
CLI_CHAINS = ((3, 4, 9), (4, 3, 9))

# Picard number -> number of Fano classes (Batyrev; Watanabe-Watanabe).
FANO_PICARD_COUNTS = {
    1: {1: 1},
    2: {1: 1, 2: 2, 3: 1, 4: 1},
    3: {1: 1, 2: 4, 3: 7, 4: 4, 5: 2},
}

# Y -> X as printed in the README: contract e7 via {e4,e5}, then e6.
README_Y_TO_X = (("e7", ("e4", "e5")), ("e6", ("e2", "e3", "e4")))


class CheckFailed(Exception):
    """An output differs from its known answer."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Job:
    """One unit of work: ``run`` is timed, ``check`` is not."""

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


@dataclass(frozen=True)
class Chain:
    """Fans base = fans[0], ..., fans[k]; fans[i] blows up centers[i-1]."""

    fans: tuple
    centers: tuple  # names of the subdivided cone at each step
    rays: tuple  # name of the ray each step adds


# ---------------------------------------------------------------------------
# inputs


def blowup_chain(rng: random.Random, dim: int, steps: int) -> Chain:
    """Start from P^dim; each step star-subdivides a face of the current
    maximal cones, drawn uniformly, with an automatic name.

    The face dimension cycles through 2..dim instead of being drawn too:
    chains then differ in where they blow up, not in whether they blow up
    only points or only curves, which narrows the spread between seeds.
    """
    current = catalog.projective_space(dim)
    fans, centers, rays = [current], [], []
    for step in range(steps):
        size = 2 + step % (dim - 1)
        faces = sorted(
            {
                face
                for cone in current.max_cones
                for face in combinations(cone, size)
            }
        )
        face = rng.choice(faces)
        names = current.cone_names(face)
        current = tf.star_subdivide(current, names)
        fans.append(current)
        centers.append(names)
        rays.append(current.generators[-1].name)
    return Chain(tuple(fans), tuple(centers), tuple(rays))


def chains(seed: int, workload: str, shapes) -> list[Chain]:
    rng = random.Random(f"{workload}:{seed}")
    out = []
    for dim, steps, count in shapes:
        out += [blowup_chain(rng, dim, steps) for _ in range(count)]
    return out


# ---------------------------------------------------------------------------
# helpers that do not use the code under test


def geometric_key(fan) -> tuple:
    """Fan as a set of cones, each a set of vectors: names and order ignored."""
    vecs = fan.vectors()
    return (
        fan.dim,
        frozenset(frozenset(vecs[i] for i in cone) for cone in fan.max_cones),
    )


def combine(dim: int, terms) -> tuple:
    """Sum of weight * vector over (weight, vector) pairs."""
    total = [0] * dim
    for w, v in terms:
        for j in range(dim):
            total[j] += w * v[j]
    return tuple(total)


def replay(path, coarse):
    """Rebuild the fine fan by undoing the path's contractions in reverse."""
    fans = [coarse]
    for step in reversed(path.steps):
        fans.append(tf.star_subdivide(fans[-1], step.center, step.ray))
    return fans


def step_names(path) -> tuple:
    return tuple((s.ray, tuple(sorted(s.center))) for s in path.steps)


# ---------------------------------------------------------------------------
# analyze-stream


def analyze(fan):
    """What ``toricfan analyze`` computes, without rendering."""
    return (
        tf.validate_fan(fan),
        mori.mori_cone(fan),
        mori.is_fano(fan),
        birational.blow_down_candidates(fan),
    )


def check_analysis(chain: Chain, i: int, out) -> None:
    fan, before = chain.fans[i], chain.fans[i - 1]
    report, summary, fano, cands = out
    expect(report.ok, "a chain fan does not validate")
    vecs = fan.vectors()
    m = len(vecs)
    expect(summary.picard_number == m - fan.dim, "Picard number != rays - dim")
    classes = {}
    for info in summary.relations:
        rel = info.relation
        lhs = combine(fan.dim, ((1, vecs[j]) for j in rel.collection))
        rhs = combine(
            fan.dim, zip(rel.coefficients, (vecs[j] for j in rel.target))
        )
        expect(lhs == rhs, f"relation of {rel.collection} fails in integers")
        cls = [0] * m
        for j in rel.collection:
            cls[j] += 1
        for j, a in zip(rel.target, rel.coefficients):
            cls[j] -= a
        expect(tuple(cls) == info.curve_class, "curve class differs")
        expect(
            rel.degree == len(rel.collection) - sum(rel.coefficients),
            "degree differs",
        )
        classes[rel.collection] = cls
    for info in summary.relations:
        if info.extremal:
            expect(info.decomposition is None, "extremal class decomposed")
            continue
        total = [Fraction(0)] * m
        for coll, lam in info.decomposition:
            expect(lam > 0, "decomposition weight is not positive")
            for j, c in enumerate(classes[coll]):
                total[j] += lam * c
        expect(
            total == classes[info.relation.collection],
            "decomposition does not replay",
        )
    expect(summary.strictly_convex, "a blow-up of P^n is not projective")
    extremal = sum(1 for info in summary.relations if info.extremal)
    expect(extremal >= summary.picard_number, "fewer extremal classes than rho")
    bad = tuple(
        info.relation.collection
        for info in summary.relations
        if len(info.relation.collection) - sum(info.relation.coefficients) <= 0
    )
    expect(fano == (not bad, bad), "Fano verdict differs from the degrees")
    center = tuple(sorted(chain.centers[i - 1]))
    expect(
        any(
            c.valid
            and c.ray_name(fan) == chain.rays[i - 1]
            and tuple(sorted(fan.cone_names(c.relation.collection))) == center
            and geometric_key(c.target) == geometric_key(before)
            for c in cands
        ),
        "the newest ray does not contract back to the predecessor",
    )


def analyze_stream(seed: int) -> list[Job]:
    jobs = []
    for ci, chain in enumerate(chains(seed, "analyze-stream", ANALYZE_CHAINS)):
        for i in range(1, len(chain.fans)):
            jobs.append(
                Job(
                    f"chain{ci}.{i}",
                    lambda f=chain.fans[i]: analyze(f),
                    lambda out, c=chain, i=i: check_analysis(c, i, out),
                )
            )
    return jobs


# ---------------------------------------------------------------------------
# factor-search


def check_paths(fine, coarse, paths, want=None) -> None:
    """Each path replays from coarse to fine; flags match the tower's facts."""
    coarse_key, fine_key = geometric_key(coarse), geometric_key(fine)
    p4, x, w, y = catalog.counterexample_tower()
    known = {geometric_key(x): True, geometric_key(w): False,
             geometric_key(y): True, geometric_key(p4): True}
    for path in paths:
        fans = replay(path, coarse)
        expect(geometric_key(fans[-1]) == fine_key, "path does not replay")
        for step, rebuilt in zip(path.steps, reversed(fans[:-1])):
            key = geometric_key(step.fan)
            expect(key == geometric_key(rebuilt), "step fan differs on replay")
            if key in known:
                expect(step.fano == known[key], "Fano flag of a tower fan")
                expect(step.projective, "tower fans are projective")
        if path.steps:
            expect(
                geometric_key(path.steps[-1].fan) == coarse_key,
                "path does not end at the coarse fan",
            )
    if want is not None:
        expect(bool(paths) and step_names(paths[0]) == want, "unexpected path")


def check_chain_paths(chain: Chain, i: int, paths, exhaustive: bool) -> None:
    expect(bool(paths), "a blow-up chain has no factorization")
    check_paths(chain.fans[i], chain.fans[0], paths)
    if exhaustive:
        own = tuple(
            (chain.rays[j], tuple(sorted(chain.centers[j])))
            for j in reversed(range(i))
        )
        expect(
            any(step_names(p) == own for p in paths),
            "the chain's own steps are missing from the exhaustive search",
        )


def check_y_to_x(paths) -> None:
    p4, x, w, y = catalog.counterexample_tower()
    check_paths(y, x, paths, README_Y_TO_X)
    for path in paths:
        expect(
            not all(step.fano for step in path.steps[:-1]),
            "Y -> X factors through Fano intermediates only",
        )


def check_y_blowdowns(cands) -> None:
    valid = [c for c in cands if c.valid]
    expect(len(valid) == 2, f"Y has {len(valid)} valid blow-downs, not 2")
    p4, x, w, y = catalog.counterexample_tower()
    expect(all(c.ray_name(y) == "e7" for c in valid), "Y contracts e7 only")


def fm(fine, coarse, **options):
    """Looked up at call time, so that the traced run sees the wrapper."""
    return birational.factor_morphism(fine, coarse, **options)


def factor_search(seed: int) -> list[Job]:
    jobs = []
    for ci, chain in enumerate(chains(seed, "factor-search", FACTOR_CHAINS)):
        base = chain.fans[0]
        # One-step prefixes are left out: each is a single 1-3 ms contraction,
        # and with them the median job fell into the gap between the P^3 and
        # the P^4 jobs, so it jumped from seed to seed.
        for i in range(2, len(chain.fans)):
            jobs.append(
                Job(
                    f"chain{ci}.{i}",
                    lambda f=chain.fans[i], b=base: fm(f, b),
                    lambda out, c=chain, i=i: check_chain_paths(c, i, out, False),
                )
            )
        k = len(chain.fans) - 1
        jobs.append(
            Job(
                f"chain{ci}.all",
                lambda f=chain.fans[k], b=base: fm(f, b, exhaustive=True),
                lambda out, c=chain, k=k: check_chain_paths(c, k, out, True),
            )
        )
    p4, x, w, y = catalog.counterexample_tower()
    jobs += [
        Job("Y->X all", lambda: fm(y, x, exhaustive=True), check_y_to_x),
        Job(
            "Y->X fano",
            lambda: fm(y, x, require_fano=True),
            lambda out: expect(out == (), "a Fano factorization of Y -> X"),
        ),
        Job("Y->P4", lambda: fm(y, p4), lambda out: check_paths(y, p4, out)),
        Job(
            "W->X",
            lambda: fm(w, x),
            lambda out: check_paths(w, x, out, (("e6", ("e2", "e3", "e4")),)),
        ),
        Job(
            "X->P4",
            lambda: fm(x, p4),
            lambda out: check_paths(x, p4, out, (("e5", ("e1", "e2", "e3")),)),
        ),
        Job(
            "Y blowdowns",
            lambda: birational.blow_down_candidates(y),
            check_y_blowdowns,
        ),
    ]
    return jobs


# ---------------------------------------------------------------------------
# classify


def check_classes(dim: int, fans) -> None:
    expect(
        len(fans) == sum(FANO_PICARD_COUNTS[dim].values()),
        f"{len(fans)} Fano classes in dimension {dim}",
    )
    picard: dict[int, int] = {}
    for fan in fans:
        rho = len(fan.generators) - dim
        picard[rho] = picard.get(rho, 0) + 1
        expect(tf.validate_fan(fan).ok, "an enumerated class is not valid")
        expect(mori.is_fano(fan)[0], "an enumerated class is not Fano")
    expect(picard == FANO_PICARD_COUNTS[dim], f"Picard numbers {picard}")
    keys = {tf.canonical_gl_key(fan) for fan in fans}
    expect(len(keys) == len(fans), "two classes share a canonical key")


def classify(seed: int) -> list[Job]:
    """The classification in dimensions 1 to 3 as one job.

    As three jobs, the median was the 1 s dimension-2 enumeration alone, far
    noisier than the whole; as one job, both percentiles read the whole
    classification.
    """
    del seed  # the enumeration has no input
    dims = (1, 2, 3)

    def check(out):
        for d, fans in zip(dims, out):
            check_classes(d, fans)

    return [Job("dims 1-3", lambda: [catalog.enumerate_fano(d) for d in dims], check)]


# ---------------------------------------------------------------------------
# cli-cold: fan files and the invocation mix; run.py runs and checks it


def unimodular_matrix(rng: random.Random, dim: int) -> list[list[int]]:
    """A random GL(dim, Z) matrix: signed permutation times shears."""
    m = [[0] * dim for _ in range(dim)]
    for i, j in enumerate(rng.sample(range(dim), dim)):
        m[i][j] = rng.choice((1, -1))
    for _ in range(dim + 2):
        i, j = rng.sample(range(dim), 2)
        c = rng.choice((1, -1))
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    return m


def transformed_copy(rng: random.Random, fan):
    """The fan moved by a random lattice automorphism, rays reordered."""
    m = unimodular_matrix(rng, fan.dim)
    order = rng.sample(range(len(fan.generators)), len(fan.generators))
    where = {old: new for new, old in enumerate(order)}
    gens = [
        (fan.generators[i].name,
         tuple(sum(r[j] * fan.generators[i].vector[j] for j in range(fan.dim))
               for r in m))
        for i in order
    ]
    cones = [[where[i] for i in cone] for cone in fan.max_cones]
    return tf.make_fan(fan.dim, gens, cones)


def cli_cold(seed: int, workdir) -> list[dict]:
    """Write the fan files and return the invocations, each with the exit
    code and output facts the README and the construction fix."""
    p4, x, w, y = catalog.counterexample_tower()

    def put(name, text):
        path = workdir / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    files = {k: put(f"{k}.fan", tf.serialize_fan(f))
             for k, f in (("p4", p4), ("x", x), ("w", w), ("y", y))}
    bad = put("bad.fan", "dim 3\nray e0 1 0\n")
    bad2 = put("bad2.fan", "dim 2\nbogus e0\n")
    invalid = put(
        "invalid.fan",
        "dim 2\nray e0 -1 -1\nray e1 1 0\nray e2 1 2\n"
        "maxcone e0 e1\nmaxcone e1 e2\nmaxcone e0 e2\n",
    )
    missing = str(workdir / "missing.fan")

    def job(label, argv, exit=0, contains=(), same_as=None, stdin_from=None,
            iso=None, rays=None):
        return {"label": label, "sub": argv[0], "argv": argv, "exit": exit,
                "contains": list(contains), "same_as": same_as,
                "stdin_from": stdin_from, "iso": iso, "rays": rays}

    jobs = []
    for key, dim, rays in (("p1", 1, 2), ("p2", 2, 3), ("p3", 3, 4),
                           ("p4", 4, 5), ("paper-X", 4, 6), ("paper-W", 4, 7),
                           ("paper-Y", 4, 8)):
        jobs.append(job(f"example {key}", ["example", key],
                        contains=[f"dim {dim}"], rays=rays))
    jobs += [
        job("example p4 | blowup", ["blowup", "-", "--center", "e1,e2,e3",
                                    "--name", "e5"],
            same_as="example paper-X", stdin_from="example p4"),
        job("blowup X", ["blowup", files["x"], "--center", "e2,e3,e4",
                         "--name", "e6"], same_as="example paper-W"),
        job("blowup W", ["blowup", files["w"], "--center", "e4,e5",
                         "--name", "e7"], same_as="example paper-Y"),
        job("blowup bad center", ["blowup", files["p4"], "--center", "e1"],
            exit=5),
        job("blowdown Y", ["blowdown", files["y"], "--ray", "e7", "--via",
                           "e4,e5"], same_as="example paper-W"),
        job("analyze Y", ["analyze", files["y"]],
            contains=["picard number: 4", "fano: yes"]),
        job("analyze W", ["analyze", files["w"]],
            contains=["picard number: 3",
                      "fano: no (witness {e1,e6}, degree 0)"]),
        job("analyze X", ["analyze", files["x"]],
            contains=["picard number: 2", "fano: yes"]),
        job("analyze P4", ["analyze", files["p4"]],
            contains=["picard number: 1", "fano: yes"]),
    ]
    for key, rho, fano in (("y", 4, "yes"), ("w", 3, "no"), ("x", 2, "yes"),
                           ("p4", 1, "yes")):
        jobs.append(job(f"analyze --compact {key}",
                        ["analyze", files[key], "--format", "compact"],
                        contains=["valid=yes", f"picard={rho}",
                                  f"fano={fano}"]))
    jobs += [
        job("blowdowns Y", ["blowdowns", files["y"]],
            contains=["  contract e7 via {e4,e5}: valid (target: fano=no,"
                      " projective=yes)"]),
        job("factor Y X --all", ["factor", files["y"], files["x"], "--all"],
            contains=["path 1 (2 steps):\n"
                      "  contract e7 (center {e4,e5}) -> rays=7 fano=no"
                      " projective=yes\n"
                      "  contract e6 (center {e2,e3,e4}) -> rays=6 fano=yes"
                      " projective=yes\n"]),
        job("factor Y X --require-fano",
            ["factor", files["y"], files["x"], "--require-fano"], exit=3,
            contains=["no factorization with Fano intermediates"]),
        job("factor Y P4", ["factor", files["y"], files["p4"]],
            contains=["factorization paths: 1", "path 1 (3 steps):"]),
        job("factor X Y", ["factor", files["x"], files["y"]], exit=4),
        job("factor X X", ["factor", files["x"], files["x"]],
            contains=["path 1 (0 steps): identity"]),
        job("isomorphic X W", ["isomorphic", files["x"], files["w"]],
            contains=["not isomorphic"]),
        job("analyze malformed", ["analyze", bad], exit=1),
        job("blowdowns malformed", ["blowdowns", bad2], exit=1),
        job("analyze missing", ["analyze", missing], exit=1),
        job("analyze invalid", ["analyze", invalid], exit=2,
            contains=["smooth: no"]),
    ]
    rng = random.Random(f"cli-cold:{seed}")
    for ci, chain in enumerate(chains(seed, "cli-cold", CLI_CHAINS)):
        end, base = chain.fans[-1], chain.fans[0]
        k = len(chain.fans) - 1
        rho = len(end.generators) - end.dim
        f_end = put(f"chain{ci}.fan", tf.serialize_fan(end))
        f_base = put(f"chain{ci}-base.fan", tf.serialize_fan(base))
        f_iso = put(f"chain{ci}-moved.fan",
                    tf.serialize_fan(transformed_copy(rng, end)))
        if ci % 2:
            jobs.append(job(f"analyze --compact chain{ci}",
                            ["analyze", f_end, "--format", "compact"],
                            contains=["valid=yes", f"picard={rho}",
                                      "projective=yes"]))
        else:
            jobs.append(job(f"analyze chain{ci}", ["analyze", f_end],
                            contains=["smooth: yes", f"picard number: {rho}",
                                      "projective: yes"]))
        center = ",".join(chain.centers[-1])
        jobs += [
            job(f"blowdowns chain{ci}", ["blowdowns", f_end],
                contains=[f"  contract {chain.rays[-1]} via {{{center}}}:"
                          " valid"]),
            job(f"factor chain{ci}", ["factor", f_end, f_base],
                contains=["factorization paths: 1", f"path 1 ({k} steps):"]),
            job(f"isomorphic chain{ci}", ["isomorphic", f_end, f_iso],
                contains=["isomorphic: yes"], iso=[f_end, f_iso]),
        ]
    return jobs


WORKLOADS = {
    "analyze-stream": analyze_stream,
    "factor-search": factor_search,
    "classify": classify,
}
