"""The four workloads as a child process runs them.

Each workload class does its set-up in ``__init__`` (parse the rules or
ontology; ``omqa-query`` also loads its database), then runs one job
per :meth:`run` call.  :meth:`prepare` turns a job of the pass list
into the argument of :meth:`run` for one pass, and :meth:`observe`
turns a job's result into the short text the parent compares with its
oracle; both run outside the timed region.

Every call goes through the public ``repro`` API with default engine
settings: no ``backend``, ``strategy``, ``plan`` or ``order`` argument
is ever passed, so the numbers are what a user of the defaults gets.
Calls are made through module attributes at call time (``repro.chase``,
not a name imported once), so the tracer's wrappers see them.
"""

from __future__ import annotations

from pathlib import Path

import repro
import repro.omqa

from gen import (
    KEYS_RULES,
    OMQA_ONTOLOGY,
    OMQA_TEMPLATES,
    ROLLUP_RULES,
    answers_digest,
    digest,
    keys_canonical,
    rewrite_text,
)


def _name(element: object) -> str:
    return getattr(element, "name", str(element))


def _extent(instance, relation: str) -> list[tuple[str, ...]]:
    return [tuple(_name(e) for e in row) for row in instance.tuples(relation)]


class Rollup:
    """Ingest one fact-stream file, chase the two full rollup tgds."""

    def __init__(self, spec: dict) -> None:
        self.files = [Path(p) for p in spec["files"]]
        self.rules = repro.parse_tgds(ROLLUP_RULES)

    def prepare(self, job: dict, pass_number: int) -> dict:
        return job

    def run(self, job: dict):
        instance = repro.Instance.from_stream(self.files[job["file"]])
        return repro.chase(instance, self.rules)

    def observe(self, job: dict, result) -> str:
        if result.stop_reason != "fixpoint":
            return f"stop:{result.stop_reason}"
        lines = []
        for relation in ("A0", "A1"):
            lines.extend(
                f"{relation}\t" + "\t".join(row)
                for row in sorted(_extent(result.instance, relation))
            )
        return digest(lines)


class KeysEgd(Rollup):
    """Ingest one file, chase existential rules plus a key egd."""

    def __init__(self, spec: dict) -> None:
        self.files = [Path(p) for p in spec["files"]]
        self.rules = [
            repro.parse_dependency(line)
            for line in KEYS_RULES.splitlines()
        ]

    def observe(self, job: dict, result) -> str:
        if result.stop_reason != "fixpoint":
            return f"stop:{result.stop_reason}"
        return digest(keys_canonical(
            _extent(result.instance, "M1"), _extent(result.instance, "M0")
        ))


def _is_linear(tgd) -> bool:
    return len(tgd.body) == 1


def _is_guarded(tgd) -> bool:
    variables = {a for atom in tgd.body for a in atom.args}
    return any(variables <= set(atom.args) for atom in tgd.body)


class RewriteMix:
    """Algorithm 1 or 2 on one small rule set.  Each job's rules are
    renamed for the pass and parsed just before the job; there is no
    shared ontology to set up."""

    ALGORITHMS = {
        "g2l": ("guarded_to_linear", _is_linear),
        "fg2g": ("frontier_guarded_to_guarded", _is_guarded),
    }

    def __init__(self, spec: dict) -> None:
        pass

    def prepare(self, job: dict, pass_number: int) -> dict:
        return {**job, "tgds": repro.parse_tgds(rewrite_text(job, pass_number))}

    def run(self, job: dict):
        algorithm = getattr(repro, self.ALGORITHMS[job["algorithm"]][0])
        return algorithm(job["tgds"])

    def observe(self, job: dict, result) -> str:
        status = {"success": "s", "failure": "f"}.get(
            result.status, result.status
        )
        in_target = self.ALGORITHMS[job["algorithm"]][1]
        if result.status == "success" and not all(
            in_target(tgd) for tgd in result.rewriting
        ):
            return f"{status}:not-in-target-class"
        return status


class OmqaQuery:
    """One cycle over the query templates: rewrite each query into a
    UCQ and evaluate it over the database."""

    def __init__(self, spec: dict) -> None:
        self.ontology = repro.parse_tgds(OMQA_ONTOLOGY)
        self.templates = {
            name: repro.CQ.parse(text)
            for name, text in OMQA_TEMPLATES.items()
        }
        self.database = repro.Instance.from_stream(Path(spec["files"][0]))
        self.placeholder = repro.Var("c")
        self.generated = 0
        self.subsumed = 0
        # Readiness includes the database's lazily built indexes: one
        # query per template before the first timed job.
        self.run({"queries": [
            {"template": name, "constant": "warm-up"}
            for name in self.templates
        ]})
        self.generated = self.subsumed = 0

    def prepare(self, job: dict, pass_number: int) -> dict:
        variants = job["variants"]
        return {"queries": variants[pass_number % len(variants)]}

    def run(self, job: dict):
        results = []
        for query in job["queries"]:
            cq = self.templates[query["template"]].substitute(
                {self.placeholder: repro.Const(query["constant"])}
            )
            rewriting = repro.rewrite_ucq(cq, self.ontology)
            self.generated += rewriting.generated
            self.subsumed += rewriting.subsumed
            results.append((rewriting, rewriting.ucq.evaluate(self.database)))
        return results

    def observe(self, job: dict, result) -> str:
        observed = []
        for rewriting, answers in result:
            if not rewriting.complete:
                return "incomplete-rewriting"
            observed.append(answers_digest(
                tuple(_name(e) for e in row) for row in answers
            ))
        return ",".join(observed)

    def counters(self) -> dict[str, int]:
        return {
            "omqa.disjuncts_generated": self.generated,
            "omqa.disjuncts_subsumed": self.subsumed,
        }


WORKLOADS = {
    "rollup": Rollup,
    "keys-egd": KeysEgd,
    "rewrite-mix": RewriteMix,
    "omqa-query": OmqaQuery,
}
