"""Seeded inputs and plain-Python oracles for the end-to-end benchmark.

Everything here is the benchmark's own code: it imports nothing from
``repro``, so a change to the engine (or to ``repro.workloads``) cannot
change what the benchmark feeds it or what it expects back.  The parent
process calls :func:`prepare` once per run; it writes every input file
before any child starts and returns, per job, the expected observation
the child must report (see ``bench/workloads.py`` for the child side).

The same ``(workload, seed, scale)`` always yields byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import random
from bisect import bisect_left
from itertools import accumulate
from pathlib import Path

FACTSTREAM_HEADER = "#repro-factstream v1 "
LEVELS = 3
FANOUT = 4
SKEW = 1.0
LEVEL_RELATIONS = tuple(f"L{k}" for k in range(LEVELS))

# Workload sizes at scale 1; ``--smoke`` divides fact and job counts
# by 50 (see ``scaled``).  ``rollup`` is the data-scale workload: one
# job is one 25,000-fact instance, so a pass is one job and the run
# reports throughput at that size.  The others hold 30 to 100 jobs per
# pass.  Every pass takes at most about 3 s of reference time, so a run
# holds a warm-up pass and three passes or more after it even while the
# machine runs at 2/3 of its speed; README.md gives the reasons for each
# size.
SIZES = {
    "rollup": {"facts": 25_000, "files": 1},
    "keys-egd": {"facts": 150, "files": 80},
    "rewrite-mix": {"sets": 100},
    "omqa-query": {"facts": 100_000, "cycles": 30},
}

ROLLUP_RULES = (
    "L0(x, y), L1(y, z) -> A0(x, z)\n"
    "L1(x, y), L2(y, z) -> A1(x, z)\n"
)
KEYS_RULES = (
    "L1(x, y) -> exists z . M1(y, z)\n"
    "L0(x, y) -> exists z . M0(y, z)\n"
    "L0(x, y), L1(y, w), M1(w, z) -> M0(y, z)\n"
    "M0(x, y), M0(x, z) -> y = z\n"
)
OMQA_ONTOLOGY = "".join(
    f"{rel}(x, y) -> Sub(x, y)\n" for rel in LEVEL_RELATIONS
) + "Sub(x, y) -> exists z . Sub(y, z)\n"
# One omqa-query job asks each template once, in this order; ``c`` is a
# placeholder variable the child replaces by a constant.
OMQA_TEMPLATES = {
    "point": "y <- Sub(c, y)",
    "two-hop": "z <- Sub(c, y), Sub(y, z)",
    "reach3": "Sub(c, y), Sub(y, z), Sub(z, w)",
    "hub-scan": "x <- L1(x, c)",
}
# A cycle asks the same four questions about other entities in each
# pass, taking these many sets of constants in turn.  The plan cache,
# whose keys hold the constants, then meets new queries in every pass,
# as it does for a client asking about ever new entities, and cannot
# hold a whole pass's plans.
OMQA_VARIANTS = 8

# Every workload's shapes are fixed by this seed: the layered data of
# each file and of the database, the queries' positions in it, and the
# rewrite-mix catalogue of rule sets.  A run's seed only renames and
# reorders, so every seed measures the same work.  The child gives the
# rewrite-mix relations fresh names again in every pass
# (``rewrite_text``), so no job meets entailment-memo entries of
# another, as distinct ontologies would not: every job costs what its
# shape costs, however many passes a run makes.
CATALOGUE_SEED = 2021
UNARY_LETTERS = "RPTQ"


def scaled(workload: str, smoke: bool) -> dict[str, int]:
    sizes = dict(SIZES[workload])
    if smoke:
        sizes = {key: max(2, value // 50) for key, value in sizes.items()}
    return sizes


def digest(lines) -> str:
    """A short stable digest of an iterable of text lines."""
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ----------------------------------------------------------------------
# Layered foreign-key data
# ----------------------------------------------------------------------


def level_sizes(facts: int) -> list[int]:
    """Entity counts per level: ``LEVELS`` child levels holding
    ``facts`` rows in total (each level ``FANOUT`` times smaller than
    the one below), plus the top level of parents."""
    weights = [FANOUT ** (LEVELS - 1 - k) for k in range(LEVELS)]
    sizes = [max(1, facts * w // sum(weights)) for w in weights]
    sizes.append(max(1, sizes[-1] // FANOUT))
    return sizes


def entity(level: int, index: int) -> str:
    return f"e{level}_{index}"


class Zipf:
    """Inverse-CDF sampler over ``range(n)`` with P(i) ~ 1/(i+1)^skew."""

    def __init__(self, n: int, skew: float = SKEW) -> None:
        self.cdf = list(accumulate(1.0 / (i + 1) ** skew for i in range(n)))

    def draw(self, rng: random.Random) -> int:
        return bisect_left(self.cdf, rng.random() * self.cdf[-1])


def layered_shape(rng: random.Random, facts: int) -> list[tuple[int, int, int]]:
    """``(k, child, parent)`` index triples of ``Lk`` rows: every level-k
    entity has exactly one level-(k+1) parent, drawn with Zipf skew so a
    few parents (the low indexes) are hubs."""
    sizes = level_sizes(facts)
    shape = []
    for k in range(LEVELS):
        parents = Zipf(sizes[k + 1])
        shape.extend((k, i, parents.draw(rng)) for i in range(sizes[k]))
    return shape


def renaming(rng: random.Random, facts: int) -> list[list[int]]:
    """A seeded permutation of each level's entity indexes."""
    names = []
    for size in level_sizes(facts):
        permutation = list(range(size))
        rng.shuffle(permutation)
        names.append(permutation)
    return names


def layered_rows(shape, names, rng: random.Random) -> list[tuple[str, str, str]]:
    """The shape's ``Lk(child, parent)`` rows with every entity renamed
    by ``names`` (see :func:`renaming`), in a seeded order."""
    rows = [
        (LEVEL_RELATIONS[k], entity(k, names[k][i]), entity(k + 1, names[k + 1][j]))
        for k, i, j in shape
    ]
    rng.shuffle(rows)
    return rows


def write_fact_stream(
    path: Path, schema: dict[str, int], rows
) -> None:
    """Write rows in the fact-stream v1 format: one JSON header line,
    then one tab-separated row per fact."""
    header = json.dumps({"schema": schema}, sort_keys=True)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(FACTSTREAM_HEADER + header + "\n")
        handle.writelines("\t".join(row) + "\n" for row in rows)


def parent_maps(rows) -> dict[str, dict[str, str]]:
    """relation -> {child: parent} (every child has one parent)."""
    maps: dict[str, dict[str, str]] = {rel: {} for rel in LEVEL_RELATIONS}
    for relation, child, parent in rows:
        maps[relation][child] = parent
    return maps


def rollup_expected(rows) -> str:
    """Digest of the ``A0``/``A1`` tuples ``Lk(x,y), Lk+1(y,z) -> Ak(x,z)``
    derives — what the chase result must contain."""
    up = parent_maps(rows)
    lines = []
    for k in range(LEVELS - 1):
        lower, upper = up[f"L{k}"], up[f"L{k + 1}"]
        tuples = sorted(
            (x, upper[y]) for x, y in lower.items() if y in upper
        )
        lines.extend(f"A{k}\t{x}\t{z}" for x, z in tuples)
    return digest(lines)


def keys_canonical(m1_pairs, m0_pairs) -> list[str]:
    """Canonical text of the ``M1``/``M0`` extents with their invented
    values renamed ``n0, n1, ...`` by first occurrence in key order.

    ``M0`` values that are no ``M1`` value read ``?``, so a missed egd
    merge, a non-functional key or a wrong key all change the text."""
    labels: dict[str, str] = {}
    lines = []
    for key, value in sorted(m1_pairs):
        label = labels.setdefault(value, f"n{len(labels)}")
        lines.append(f"M1\t{key}\t{label}")
    for key, value in sorted(m0_pairs):
        lines.append(f"M0\t{key}\t{labels.get(value, '?')}")
    return lines


def keys_expected(rows) -> str:
    """``M1`` holds one invented value per ``L1`` parent; ``M0`` is a
    function on the ``L0`` parents, and the key egd makes ``M0(y)`` the
    same value as ``M1(parent_L1(y))``."""
    up = parent_maps(rows)
    m1 = [(w, f"m1:{w}") for w in sorted(set(up["L1"].values()))]
    m0 = [(y, f"m1:{up['L1'][y]}") for y in sorted(set(up["L0"].values()))]
    return digest(keys_canonical(m1, m0))


# ----------------------------------------------------------------------
# Workload preparation
# ----------------------------------------------------------------------


def shape_rng(workload: str) -> random.Random:
    """The generator of a workload's fixed shapes, the same for every
    run seed."""
    return random.Random(f"{workload}:{CATALOGUE_SEED}")


def _prepare_chase(name, rng, sizes, workdir, expected_of):
    """One job per fact-stream file, every file of the same size.  The
    files' shapes are fixed; the seed renames their entities, orders
    their rows and orders the jobs."""
    schema = {rel: 2 for rel in LEVEL_RELATIONS}
    shapes = shape_rng(name)
    files, jobs = [], []
    facts = 0
    for index in range(sizes["files"]):
        shape = layered_shape(shapes, sizes["facts"])
        rows = layered_rows(shape, renaming(rng, sizes["facts"]), rng)
        facts += len(rows)
        path = workdir / f"{name}-{index}.facts"
        write_fact_stream(path, schema, rows)
        files.append(path)
        jobs.append({"file": index, "expect": expected_of(rows)})
    rng.shuffle(jobs)
    return files, jobs, {"facts_per_pass": facts}


def unary_rule(rng: random.Random, guarded: bool) -> str:
    """One unary rule over the letters ``RPTQ`` with at most two body
    atoms.  Guarded rules keep one body variable and may have an
    existential head; the others may use a second body variable but
    keep a full head (frontier-guarded, not always guarded)."""
    atoms = rng.randint(1, 2)
    variables = ["x"] * atoms
    if not guarded and atoms == 2:
        variables[1] = rng.choice("xy")
    body = ", ".join(f"{rng.choice(UNARY_LETTERS)}({v})" for v in variables)
    if guarded and rng.random() < 1 / 3:
        return f"{body} -> exists z . {rng.choice(UNARY_LETTERS)}(z)"
    return f"{body} -> {rng.choice(UNARY_LETTERS)}(x)"


def catalogue(sets: int) -> list[dict[str, object]]:
    """The fixed rewrite-mix catalogue: 2-rule unary sets alternating
    Algorithm 1 (guarded input) and Algorithm 2 (frontier-guarded
    input).  Binary relations are left out on purpose: single jobs over
    them take seconds, which would make a run's job count depend on
    which few such jobs it drew."""
    rng = random.Random(CATALOGUE_SEED)
    entries = []
    for index in range(sets):
        guarded = index % 2 == 0
        rules = [unary_rule(rng, guarded) for __ in range(2)]
        entries.append({
            "algorithm": "g2l" if guarded else "fg2g",
            "rules": rules,
        })
    return entries


def rewrite_text(job: dict[str, object], pass_number: int) -> str:
    """The rule text of a rewrite-mix job in one pass: the catalogue
    shape with each letter ``X`` of ``RPTQ`` renamed ``X<suffix>_<pass>``
    (the names end in a digit, so no renaming makes another letter's
    pattern)."""
    text = "\n".join(job["rules"])
    for letter in UNARY_LETTERS:
        text = text.replace(
            f"{letter}(", f"{letter}{job['suffix']}_{pass_number}("
        )
    return text + "\n"


def _prepare_rewrite(rng, sizes):
    """The whole catalogue in a seeded order, each shape with a seeded
    name suffix; the child renames per pass with :func:`rewrite_text`."""
    shapes = catalogue(sizes["sets"])
    prefix = f"{rng.getrandbits(16):04x}"
    order = list(range(len(shapes)))
    rng.shuffle(order)
    jobs = [
        {
            "algorithm": shapes[index]["algorithm"],
            "rules": shapes[index]["rules"],
            "suffix": f"{prefix}_{index}",
            "expect": PINNED_STATUSES[index],
        }
        for index in order
    ]
    return [], jobs, {}


def omqa_constants(rng: random.Random, template: str, level, hubs) -> tuple[int, list[int]]:
    """The level of one question's constant, and its index there in each
    of ``OMQA_VARIANTS`` passes: point lookups start anywhere below the
    top, two-hop joins two levels below it, reachability checks at any
    level, and hub scans pick level-2 parents by Zipf rank, so the
    biggest hubs recur."""
    if template == "hub-scan":
        return 2, [hubs.draw(rng) for __ in range(OMQA_VARIANTS)]
    levels = {"point": LEVELS, "two-hop": LEVELS - 1, "reach3": LEVELS + 1}
    k = rng.randrange(levels[template])
    return k, [rng.randrange(level[k]) for __ in range(OMQA_VARIANTS)]


def omqa_answers(query, up, down_l1, mentioned) -> set[tuple[str, ...]]:
    """Certain answers of one query over the ``Lk`` rows (given as the
    child->parents index ``up``, the ``L1`` parent->children index and
    the set of mentioned elements).

    ``Sub`` holds every ``Lk`` edge plus, through
    ``Sub(x,y) -> exists z . Sub(y,z)``, an invented successor of every
    element.  Answers may not mention invented values, so answer
    variables range over ``Lk`` edges only, while the Boolean chain
    ``Sub(c,y),Sub(y,z),Sub(z,w)`` holds exactly when ``c`` occurs in
    some ``Lk`` fact: its chain continues through invented values."""
    constant, template = query["constant"], query["template"]
    if template == "point":
        return {(y,) for y in up.get(constant, ())}
    if template == "two-hop":
        return {(z,) for y in up.get(constant, ()) for z in up.get(y, ())}
    if template == "reach3":
        return {()} if constant in mentioned else set()
    return {(x,) for x in down_l1.get(constant, ())}


def answers_digest(answers) -> str:
    return digest("\t".join(row) for row in sorted(answers))


def _prepare_omqa(rng, sizes, workdir):
    """The database's shape and the queries' constants, as positions in
    that shape, are fixed; the seed renames the entities, orders the
    database's rows and orders the jobs.  A job is one cycle over the
    templates, with its constants for each of ``OMQA_VARIANTS`` passes
    and the expected answers of each."""
    shapes = shape_rng("omqa-query")
    names = renaming(rng, sizes["facts"])
    rows = layered_rows(layered_shape(shapes, sizes["facts"]), names, rng)
    schema = {rel: 2 for rel in LEVEL_RELATIONS}
    # The ontology's relation is declared (empty) so queries over it
    # evaluate against the loaded instance as is.
    schema["Sub"] = 2
    path = workdir / "omqa-db.facts"
    write_fact_stream(path, schema, rows)
    up: dict[str, set[str]] = {}
    down_l1: dict[str, set[str]] = {}
    mentioned: set[str] = set()
    for rel, child, parent in rows:
        up.setdefault(child, set()).add(parent)
        mentioned.update((child, parent))
        if rel == "L1":
            down_l1.setdefault(parent, set()).add(child)
    level = level_sizes(sizes["facts"])
    hubs = Zipf(level[2])
    jobs = []
    for __ in range(sizes["cycles"]):
        variants: list[list[dict[str, str]]] = [[] for __ in range(OMQA_VARIANTS)]
        for template in OMQA_TEMPLATES:
            k, indexes = omqa_constants(shapes, template, level, hubs)
            for queries, index in zip(variants, indexes):
                queries.append(
                    {"template": template, "constant": entity(k, names[k][index])}
                )
        jobs.append({"variants": variants, "expect": [
            ",".join(
                answers_digest(omqa_answers(query, up, down_l1, mentioned))
                for query in queries
            )
            for queries in variants
        ]})
    rng.shuffle(jobs)
    return [path], jobs, {"db_facts": len(rows)}


def prepare(workload: str, seed: int, workdir: Path, smoke: bool = False):
    """Write the inputs of one run and return ``(files, jobs, info)``:
    the input paths; the jobs of one pass, which the child runs over and
    over; and facts about the workload such as the input facts per
    pass.  A job is a dict whose ``expect`` is the observation the child
    must report."""
    rng = random.Random(f"{workload}:{seed}")
    sizes = scaled(workload, smoke)
    if workload == "rollup":
        return _prepare_chase(workload, rng, sizes, workdir, rollup_expected)
    if workload == "keys-egd":
        return _prepare_chase(workload, rng, sizes, workdir, keys_expected)
    if workload == "rewrite-mix":
        return _prepare_rewrite(rng, sizes)
    if workload == "omqa-query":
        return _prepare_omqa(rng, sizes, workdir)
    raise ValueError(f"unknown workload {workload!r}")


# Expected status of each catalogue shape ("s" success, "f" failure),
# pinned from the implementation when the benchmark was defined (the
# same under every renaming of the relations): a status a later commit
# changes counts as a failed job.  The catalogue of ``n`` sets is the
# first ``n`` of a longer one, so smoke runs check the first statuses.
PINNED_STATUSES = (
    "fsfffssssssfssffsfsfssssfsfsfsssssssssfs"
    "sssssssfsfffssssssfssfsfssfsfsssssssffss"
    "ssssssfsfssssssssfsf"
)
