"""Correctness gate: an op counts as failed unless its report passes every check.

Seed-independent answers (lattices, census entries, verdicts and their
violations) are compared with digests frozen from a commit whose answers are
known to be right.  Work counters (tuples_examined, candidate_cliques),
tool_version and the runtime block stay out of the digests, because faster
algorithms may change them legitimately.  Seed-dependent answers (the lemma
suite) are checked by invariants instead.
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional, Sequence

import jsonschema
from cosetlab.report import validate_report

from workloads import LITERATURE_SUBGROUP_COUNTS, Op


def digest(value: object) -> str:
    body = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


class Gate:
    """Checks op outcomes against invariants and frozen digests.

    With ``frozen`` None nothing is compared and every answer is collected in
    ``answers``, ready to be frozen.
    """

    def __init__(self, frozen: Optional[dict[str, str]]):
        self.frozen = frozen
        self.answers: dict[str, str] = {}

    def _answer(self, key: str, value: object, problems: list[str]) -> None:
        got = digest(value)
        self.answers[key] = got
        if self.frozen is None:
            return
        want = self.frozen.get(key)
        if want is None:
            problems.append(f"{key}: no frozen digest")
        elif want != got:
            problems.append(f"{key}: differs from the frozen answer")

    def check(
        self,
        op: Op,
        rc: object,
        doc: Optional[dict],
        lattice: Optional[Sequence[Sequence[int]]],
    ) -> list[str]:
        """Every reason the op failed; empty when it passed."""
        problems: list[str] = []
        if rc != 0:
            problems.append(f"exit code {rc}, expected 0")
        if doc is None:
            return problems + ["no JSON report"]
        try:
            validate_report(doc)
        except jsonschema.ValidationError as exc:
            return problems + [f"report fails its schema: {exc.message}"]

        count = doc["group"].get("subgroup_count")
        literature = LITERATURE_SUBGROUP_COUNTS.get(op.group)
        if literature is not None and count != literature:
            problems.append(f"{count} subgroups, literature says {literature}")
        if lattice is None:
            problems.append("no cached lattice")
        else:
            if len(lattice) != count:
                problems.append(f"cached lattice has {len(lattice)} subgroups, report {count}")
            canon = sorted((len(s), list(s)) for s in lattice)
            self._answer(f"lattice {op.group}", canon, problems)

        if op.command == "verify":
            lo, hi = op.k_range
            ks = [v["k"] for v in doc.get("verifications", [])]
            if ks != list(range(lo, hi + 1)):
                problems.append(f"verdicts for k={ks}, asked for {op.k}")
            for v in doc.get("verifications", []):
                if v["k"] <= 4 and v["status"] != "confirmed":
                    problems.append(f"k={v['k']}: verdict {v['status']!r}")
                self._answer(
                    f"verdict {op.group} k={v['k']}",
                    {"status": v["status"], "violations": v["violations"]},
                    problems,
                )
        elif op.command == "census":
            if not doc.get("census"):
                problems.append("empty census")
            self._answer(f"census {op.group}", doc.get("census"), problems)
        elif op.command == "lemmas":
            lem = doc.get("lemmas")
            if lem is None:
                return problems + ["no lemmas block"]
            failed = {lid: st["failed"] for lid, st in lem["stats"].items() if st["failed"]}
            if failed or lem.get("failures", 0):
                problems.append(f"lemma checks failed: {failed}")
            if sum(st["checked"] for st in lem["stats"].values()) == 0:
                problems.append("no lemma checks ran")
            modes = set(lem["modes"].values())
            if modes != {op.lemma_mode}:
                problems.append(f"lemma modes {sorted(modes)}, expected {op.lemma_mode}")
        return problems
