"""Acceptance gate: one test per acceptance criterion, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from itertools import combinations_with_replacement
from pathlib import Path

import cosetlab as cl
from cosetlab.report import strip_volatile

from helpers import check_triple_inequalities, exists_disjoint_coset_pair, linear_perm_spec


@contextmanager
def verdict(label: str):
    state = {"detail": ""}
    try:
        yield state
    except BaseException as exc:
        print(f"FAIL {label} ({exc!r})")
        raise
    print(f"PASS {label}" + (f" ({state['detail']})" if state["detail"] else ""))


def _catalog_upto(max_order: int):
    for name in cl.catalog_names():
        g = cl.load_catalog_group(name)
        if g.n <= max_order:
            yield name, g


def test_acceptance_1_lemma_suite():
    with verdict("acceptance-1 counting-law suite") as state:
        t0 = time.perf_counter()
        failures = 0
        groups = 0
        for name, g in _catalog_upto(24):
            res = cl.run_lemma_suite(g, cl.enumerate_subgroups(g))
            assert res.pair_mode == "exhaustive", name
            assert res.triple_mode == "exhaustive", name
            failures += res.failures
            groups += 1
        exhaustive_elapsed = time.perf_counter() - t0
        assert failures == 0
        assert exhaustive_elapsed < 60.0

        samples = 0
        for name in cl.catalog_names():
            g = cl.load_catalog_group(name)
            if not 24 < g.n <= 120:
                continue
            res = cl.run_lemma_suite(g, cl.enumerate_subgroups(g), seed=0)
            failures += res.failures
            samples += res.samples
        assert failures == 0
        assert samples >= 10_000
        state["detail"] = (
            f"{groups} groups exhaustive in {exhaustive_elapsed:.1f}s,"
            f" {samples} sampled instances, 0 failures"
        )


def test_acceptance_2_verification_sweep():
    with verdict("acceptance-2 disjoint-family search k=2..4") as state:
        t0 = time.perf_counter()
        groups = cliques = tuples = 0
        for name, g in _catalog_upto(48):
            subs = cl.enumerate_subgroups(g)
            stats = cl.pair_table(g, subs)
            for k in (2, 3, 4):
                rep = cl.verify_group(g, k, subgroups=subs, pair_stats=stats)
                assert rep.confirmed, (name, k, rep.violations)
                cliques += rep.candidate_clique_count
                tuples += rep.tuples_examined
            groups += 1
        elapsed = time.perf_counter() - t0
        assert elapsed < 600.0
        state["detail"] = (
            f"{groups} groups, {cliques} cliques, {tuples} tuples,"
            f" all confirmed in {elapsed:.1f}s"
        )


def test_acceptance_3_census_exactness():
    with verdict("acceptance-3 closed forms equal enumeration") as state:
        triples = strict = 0
        for name, g in _catalog_upto(24):
            subs = cl.enumerate_subgroups(g)
            for i, j, k in combinations_with_replacement(range(len(subs)), 3):
                c = cl.census(subs[i], subs[j], subs[k])
                # census() recomputes total, s_pair, s_pair_pair and
                # meet_all by enumeration and raises on any mismatch with
                # the closed forms, so reaching here is the agreement proof
                assert c.enumerated, name
                assert c.s_triple is not None
                assert c.s_triple >= c.meet_all
                strict += c.s_triple > c.meet_all
                triples += 1
        state["detail"] = f"{triples} triples integer-exact, {strict} strictly slack"


def test_acceptance_4_strict_bound_arithmetic():
    with verdict("acceptance-4 strict upper bound values") as state:
        cases = {
            (1, 1, 1): 3,
            (1, 2, 1): 2,
            (1, 2, 2): 2,
            (2, 1, 2): 2,
            (2, 2, 1): 2,
            (2, 2, 2): 3,
            (3, 3, 3): 9,
        }
        for rs, want in cases.items():
            assert cl.r_strict_upper(3, *rs) == want, rs
        # the general-size form collapses correctly at other sizes
        assert cl.r_strict_upper(2, 1, 1, 1) == 1
        assert cl.r_strict_upper(4, 1, 1, 1) == 7
        state["detail"] = f"{len(cases)} frozen values plus size-2 and size-4 forms"


def test_acceptance_5_pivot_and_divisibility():
    with verdict("acceptance-5 pivot bounds and index divisibility") as state:
        checked = 0
        for name, g in _catalog_upto(24):
            subs = cl.enumerate_subgroups(g)
            for i, j, k in combinations_with_replacement(range(len(subs)), 3):
                diag = check_triple_inequalities(subs[i], subs[j], subs[k])
                assert diag.pivot_bounds_ok, (name, i, j, k)
                assert diag.divisibility_ok, (name, i, j, k)
                assert diag.scaled_divisibility_ok is not False, (name, i, j, k)
                checked += 1
        state["detail"] = f"{checked} subgroup triples, all bounds hold"


def test_acceptance_6_disjointable_oracle():
    with verdict("acceptance-6 disjointability formula vs coset scan") as state:
        pairs = 0
        for name, g in _catalog_upto(24):
            subs = cl.enumerate_subgroups(g)
            for h in subs:
                for k in subs:
                    assert cl.disjointable(h, k) == exists_disjoint_coset_pair(g, h, k)
                    pairs += 1
        state["detail"] = f"{pairs} ordered pairs agree"


def test_acceptance_7_report_determinism(tmp_path):
    with verdict("acceptance-7 byte-identical reports") as state:
        # the subprocesses import the same cosetlab package as this process,
        # installed or not
        env = dict(os.environ)
        package_root = str(Path(cl.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (package_root, env.get("PYTHONPATH")) if p
        )

        def run_cli(out_name: str, cache_dir: str) -> dict:
            out = tmp_path / out_name
            proc = subprocess.run(
                [
                    sys.executable, "-m", "cosetlab.cli",
                    "verify", "--group", "S4",
                    "--cache-dir", cache_dir,
                    "--report", str(out),
                ],
                capture_output=True,
                text=True,
                env=env,
            )
            assert proc.returncode == 0, proc.stderr
            return json.loads(out.read_text())

        cache = str(tmp_path / "cache")
        cold = run_cli("cold.json", cache)
        warm = run_cli("warm.json", cache)
        off = run_cli("off.json", "off")
        assert cold["runtime"]["cache_status"] == "cold"
        assert warm["runtime"]["cache_status"] == "warm"
        assert off["runtime"]["cache_status"] == "off"
        a, b, c = (
            json.dumps(strip_volatile(d), sort_keys=True) for d in (cold, warm, off)
        )
        assert a == b == c

        lem = []
        for out_name in ("lem1.json", "lem2.json"):
            out = tmp_path / out_name
            proc = subprocess.run(
                [
                    sys.executable, "-m", "cosetlab.cli",
                    "lemmas", "--group", "S4", "--seed", "0",
                    "--cache-dir", cache,
                    "--report", str(out),
                ],
                capture_output=True,
                text=True,
                env=env,
            )
            assert proc.returncode == 0, proc.stderr
            lem.append(json.dumps(strip_volatile(json.loads(out.read_text())), sort_keys=True))
        assert lem[0] == lem[1]
        state["detail"] = "verify cold==warm==off and lemmas seed-stable"


def test_acceptance_8_lattices_beyond_catalog():
    with verdict("acceptance-8 subgroup counts beyond the catalog") as state:
        want = {
            "A6": (cl.GroupSpec(kind="named", name="A6"), 501),
            "S6": (cl.GroupSpec(kind="named", name="S6"), 1455),
            "PSL(2,13)": (linear_perm_spec(13, projective=True), 942),
        }
        t0 = time.perf_counter()
        for name, (spec, count) in want.items():
            g = cl.load_group(spec)
            assert len(cl.enumerate_subgroups(g)) == count, name
        elapsed = time.perf_counter() - t0
        counts = ", ".join(f"{name} {count}" for name, (_, count) in want.items())
        state["detail"] = f"{counts} subgroups in {elapsed:.1f}s"
