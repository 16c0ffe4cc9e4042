from __future__ import annotations

import argparse
import hashlib
import json
import tracemalloc

import numpy as np
import pytest

import cosetlab as cl
from cosetlab import bitset, cli, errors
from cosetlab.cli import main
from cosetlab.report import canonical_json, strip_volatile, validate_report

NONASSOC_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_catalog_lists_groups(capsys, tmp_path):
    code, out, err = run(capsys, "catalog", "--cache-dir", str(tmp_path))
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["name", "order", "subgroups"]
    rows = {parts[0]: parts[1:] for parts in (ln.split() for ln in lines[1:])}
    assert rows["S4"] == ["24", "30"]
    assert rows["Q8"] == ["8", "6"]
    assert rows["S5"] == ["120", "156"]


def test_verify_s4_clean(capsys, tmp_path):
    code, out, err = run(
        capsys, "verify", "--group", "S4", "--cache-dir", str(tmp_path)
    )
    assert code == 0
    doc = json.loads(out)
    validate_report(doc)
    assert doc["group"] == {
        "label": "S4",
        "order": 24,
        "spec_hash": doc["group"]["spec_hash"],
        "subgroup_count": 30,
    }
    ks = [v["k"] for v in doc["verifications"]]
    assert ks == [2, 3, 4]
    assert all(v["status"] == "confirmed" for v in doc["verifications"])
    assert "confirmed" in err


def test_verify_k_flag_single_value(capsys, tmp_path):
    code, out, _ = run(
        capsys, "verify", "--group", "C6", "--k", "3", "--cache-dir", str(tmp_path)
    )
    assert code == 0
    doc = json.loads(out)
    assert [v["k"] for v in doc["verifications"]] == [3]
    assert doc["config"]["k_min"] == doc["config"]["k_max"] == 3


def test_verify_k_flag_open_range_note(capsys, tmp_path):
    code, out, _ = run(
        capsys, "verify", "--group", "C6", "--k", "5..6", "--cache-dir", str(tmp_path)
    )
    assert code == 0
    doc = json.loads(out)
    assert all("note" in v for v in doc["verifications"])
    validate_report(doc)


def test_bad_k_flag_exits_2(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--group", "C6", "--k", "7..9"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--group", "C6", "--k", "x"])
    assert exc.value.code == 2


def test_clique_cap_exits_3(capsys, tmp_path):
    code, out, err = run(
        capsys,
        "verify", "--group", "A5", "--max-cliques", "1", "--cache-dir", str(tmp_path),
    )
    assert code == 3
    assert "resource limit" in err


@pytest.mark.parametrize(
    "token", ["NoSuchThing", "", "{tmp}"], ids=["name", "empty", "directory"]
)
def test_unknown_group_exits_2(capsys, tmp_path, token):
    # an empty token or a directory is not a spec file
    token = token.format(tmp=tmp_path)
    code, _, err = run(capsys, "verify", "--group", token, "--cache-dir", str(tmp_path))
    assert code == 2
    assert err == (
        f"error: {token!r} is neither a catalog name, a family name, nor a spec file\n"
    )


def test_malformed_json_spec_exits_2(capsys, tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{ nope")
    code, _, err = run(capsys, "verify", "--group", str(p), "--cache-dir", str(tmp_path))
    assert code == 2
    assert "unreadable" in err


def test_invalid_spec_fields_exit_2(capsys, tmp_path):
    p = tmp_path / "fields.json"
    p.write_text(json.dumps({"format": "groupspec-v1", "kind": "cayley", "order": 2}))
    code, _, err = run(capsys, "verify", "--group", str(p), "--cache-dir", str(tmp_path))
    assert code == 2


@pytest.mark.parametrize(
    "fields",
    [
        {"kind": "cayley", "order": "2", "table": [[0, 1], [1, 0]]},
        {"kind": "cayley", "order": True, "table": [[0]]},
        {"kind": "perm", "degree": "3", "generators": [[1, 2, 0]]},
        {"kind": "perm", "degree": 3.0, "generators": [[1, 2, 0]]},
        {"kind": "named", "name": 5},
        {"kind": "cayley", "order": 2, "table": [[False, True], [True, False]]},
        {"kind": "perm", "degree": 2, "generators": [[True, False]]},
    ],
    ids=[
        "order-str",
        "order-bool",
        "degree-str",
        "degree-float",
        "name-int",
        "table-bool",
        "generator-bool",
    ],
)
def test_spec_field_of_wrong_type_exits_2(capsys, tmp_path, fields):
    p = tmp_path / "typed.json"
    p.write_text(json.dumps({"format": "groupspec-v1", **fields}))
    code, out, err = run(capsys, "subgroups", "--group", str(p), "--cache-dir", "off")
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_nongroup_table_exits_2(capsys, tmp_path):
    p = tmp_path / "loop.json"
    p.write_text(
        json.dumps(
            {"format": "groupspec-v1", "kind": "cayley", "order": 5, "table": NONASSOC_LOOP}
        )
    )
    code, _, err = run(capsys, "verify", "--group", str(p), "--cache-dir", str(tmp_path))
    assert code == 2


def test_spec_file_group_works(capsys, tmp_path):
    table = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    p = tmp_path / "c4.json"
    p.write_text(
        json.dumps({"format": "groupspec-v1", "kind": "cayley", "order": 4, "table": table})
    )
    code, out, _ = run(capsys, "subgroups", "--group", str(p), "--cache-dir", str(tmp_path))
    assert code == 0
    doc = json.loads(out)
    assert len(doc["subgroups"]) == 3


def test_family_string_beyond_catalog(capsys, tmp_path):
    code, out, _ = run(capsys, "subgroups", "--group", "C30", "--cache-dir", str(tmp_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["group"]["order"] == 30
    assert len(doc["subgroups"]) == 8  # divisors of 30


def test_product_token_beyond_catalog(capsys, tmp_path):
    code, out, _ = run(
        capsys, "subgroups", "--group", "C3xC3", "--cache-dir", str(tmp_path)
    )
    assert code == 0
    doc = json.loads(out)
    validate_report(doc)
    assert doc["group"]["order"] == 9
    assert len(doc["subgroups"]) == 6  # trivial, four of order 3, whole group


def test_cache_dir_off_writes_nothing(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "verify", "--group", "C6", "--cache-dir", "off")
    assert code == 0
    doc = json.loads(out)
    validate_report(doc)
    assert doc["runtime"]["cache_status"] == "off"
    assert not (tmp_path / "off").exists()
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag", ["--max-order", "--max-cliques", "--max-census"])
def test_non_positive_counts_exit_2(capsys, tmp_path, flag):
    command = "census" if flag == "--max-census" else "verify"
    for value in ("0", "-1"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--group", "C6", "--cache-dir", str(tmp_path), flag, value])
        assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["verify", "lemmas", "census", "subgroups"])
def test_negative_seed_exits_2(capsys, tmp_path, command):
    # above order 256 the seed drives the sampled associativity check
    with pytest.raises(SystemExit) as exc:
        main([command, "--group", "C300", "--cache-dir", str(tmp_path), "--seed", "-1"])
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "command, flag",
    [
        ("verify", "--jobs"),
        ("verify", "--max-census"),
        ("lemmas", "--jobs"),
        ("lemmas", "--max-cliques"),
        ("census", "--jobs"),
        ("census", "--max-cliques"),
        ("subgroups", "--jobs"),
        ("subgroups", "--max-cliques"),
        ("subgroups", "--max-census"),
    ],
)
def test_flag_the_command_does_not_read_exits_2(capsys, tmp_path, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, "--group", "S3", "--cache-dir", str(tmp_path), flag, "5"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 5" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "exc_type, code",
    [
        (errors.GroupSpecError, 2),
        (errors.UnknownFamily, 2),
        (errors.NotAGroup, 2),
        (errors.OrderCapExceeded, 3),
        (errors.SubgroupCountCapExceeded, 3),
        (errors.CliqueCapExceeded, 3),
        (errors.CensusCapExceeded, 3),
        (errors.CounterOverflow, 3),
    ],
    ids=lambda v: v.__name__ if isinstance(v, type) else str(v),
)
def test_mapped_errors_exit_codes(capsys, monkeypatch, exc_type, code):
    def fail(*args, **kwargs):
        raise exc_type("boom")

    monkeypatch.setattr(cli, "load_group", fail)
    got, out, err = run(capsys, "subgroups", "--group", "S3", "--cache-dir", "off")
    assert got == code
    assert out == ""
    assert err == {2: "error: boom\n", 3: "resource limit: boom\n"}[code]


def test_perm_generator_of_large_order_refused_before_closure(capsys, tmp_path):
    # a 5000-cycle has order 5000 > the default cap 2000; refusing it must
    # not store thousands of 5000-point permutations first
    p = tmp_path / "cycle.json"
    cycle = list(range(1, 5000)) + [0]
    doc = {"format": "groupspec-v1", "kind": "perm", "degree": 5000, "generators": [cycle]}
    p.write_text(json.dumps(doc))
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "verify", "--group", str(p), "--cache-dir", "off")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert out == ""
    assert err.startswith("resource limit: ")
    assert peak < 2_000_000


def test_census_c6(capsys, tmp_path):
    code, out, err = run(capsys, "census", "--group", "C6", "--cache-dir", str(tmp_path))
    assert code == 0
    doc = json.loads(out)
    validate_report(doc)
    assert len(doc["census"]) == 20  # C(4+2, 3) subgroup multisets
    assert all(e["enumerated"] for e in doc["census"])
    # an abelian group: every triple is its own conjugacy orbit
    assert "C6: 20 subgroup triples censused in 20 orbits, 20 enumerated exactly" in err


def test_census_cap_exits_3(capsys, tmp_path):
    code, _, err = run(
        capsys,
        "census", "--group", "C6", "--max-census", "5", "--cache-dir", str(tmp_path),
    )
    assert code == 3
    assert err == "resource limit: C6: 20 subgroup triples exceed --max-census 5\n"


def test_census_consistency_error_exits_1(capsys, monkeypatch, tmp_path):
    # one wrong count in the enumeration of one orbit representative: the
    # census fails its check at that triple, before any byte of the report
    # is written, and the CLI names the triple
    g = cl.load_catalog_group("S4")
    subs = cl.enumerate_subgroups(g)
    orbits = cl.triple_orbits(subs)
    reps = np.flatnonzero(orbits == np.arange(len(orbits)))
    bad = cl.counting._triples(len(subs))[reps[len(reps) // 2]]
    named = f"consistency: census triple {tuple(bad.tolist())} meet_all: "
    real = cl.counting._enumerate_rows

    def enumerate_rows(labels, index, rows):
        counts = real(labels, index, rows)
        counts["meet_all"][(rows == bad).all(axis=1)] += 1
        return counts

    monkeypatch.setattr(cl.counting, "_enumerate_rows", enumerate_rows)
    target = tmp_path / "s4.json"
    code, out, err = run(
        capsys, "census", "--group", "S4", "--cache-dir", "off", "--report", str(target)
    )
    assert code == 1
    assert out == ""
    assert not target.exists()
    assert len(err.splitlines()) == 1
    assert err.startswith(named + "closed form ")
    code, out, err = run(capsys, "census", "--group", "S4", "--cache-dir", "off")
    assert (code, out) == (1, "")
    assert err.startswith(named)


def _without_runtime(text):
    """A report's text less its runtime block, which holds timings and the
    report path."""
    head, rest = text.split('\n  "runtime": {\n', 1)
    return head + rest.split("\n  }", 1)[1]


def test_census_report_file_peak_and_bytes(capsys, tmp_path):
    # the census is written from whole arrays, a block of entries at a
    # time: no dict per triple and no report held as one string (64 MB
    # traced when it was), and the file holds the bytes stdout gets
    target = tmp_path / "a5.json"
    tracemalloc.start()
    try:
        code, out, _ = run(
            capsys, "census", "--group", "A5", "--cache-dir", "off", "--report", str(target)
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (0, "")
    assert peak < 25_000_000
    code, out, _ = run(capsys, "census", "--group", "A5", "--cache-dir", "off")
    assert code == 0
    assert _without_runtime(target.read_text()) == _without_runtime(out)


def test_subgroups_q8(capsys, tmp_path):
    code, out, _ = run(capsys, "subgroups", "--group", "Q8", "--cache-dir", str(tmp_path))
    assert code == 0
    doc = json.loads(out)
    validate_report(doc)
    assert doc["subgroups"][0] == [0]
    assert len(doc["subgroups"]) == 6


def test_lemmas_c12(capsys, tmp_path):
    code, out, err = run(capsys, "lemmas", "--group", "C12", "--cache-dir", str(tmp_path))
    assert code == 0
    doc = json.loads(out)
    validate_report(doc)
    assert doc["lemmas"]["failures"] == 0
    assert "0 failures" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--group", "S3", "--k", "2..3"],
        ["lemmas", "--group", "C12"],
        ["census", "--group", "C6"],
        ["subgroups", "--group", "Q8"],
    ],
)
def test_runtime_phases(capsys, tmp_path, argv):
    # seconds for loading the group, the lattice and the command's work:
    # none negative, together no more than the whole run (up to float
    # rounding of six-decimal values)
    code, out, _ = run(capsys, *argv, "--cache-dir", str(tmp_path))
    assert code == 0
    doc = json.loads(out)
    validate_report(doc)
    runtime = doc["runtime"]
    phases = runtime["phases"]
    assert set(phases) == {"load", "lattice", argv[0]}
    assert min(phases.values()) >= 0
    assert sum(phases.values()) <= runtime["elapsed_seconds"] + 1e-9


def test_report_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "out.json"
    code, out, err = run(
        capsys,
        "verify", "--group", "C6", "--cache-dir", str(tmp_path),
        "--report", str(target),
    )
    assert code == 0
    assert out == ""
    assert str(target) in err
    doc = json.loads(target.read_text())
    validate_report(doc)
    assert doc["runtime"]["report_path"] == str(target)


def test_unwritable_report_path_exits_2(capsys, tmp_path):
    target = tmp_path / "missing" / "out.json"
    code, out, err = run(
        capsys,
        "verify", "--group", "C6", "--cache-dir", str(tmp_path / "cache"),
        "--report", str(target),
    )
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ") and str(target) in lines[0]
    # checked before the group is built: no cache was written either
    assert list(tmp_path.iterdir()) == []


def test_cache_dir_naming_a_file_exits_2(capsys, tmp_path):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("keep")
    for cache_dir in (blocker, blocker / "sub"):
        code, out, err = run(capsys, "verify", "--group", "C6", "--cache-dir", str(cache_dir))
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ") and str(cache_dir) in lines[0]
    assert blocker.read_text() == "keep"


@pytest.mark.parametrize("flag", ["--cache-dir", "--report"])
def test_path_the_system_refuses_exits_2(capsys, tmp_path, flag):
    # a 300-byte name passes the directory checks, but no file system takes it
    long_name = str(tmp_path / ("x" * 300))
    if flag == "--cache-dir":
        argv = ["--cache-dir", long_name]
    else:
        argv = ["--cache-dir", str(tmp_path / "cache"), "--report", long_name]
    code, out, err = run(capsys, "verify", "--group", "S3", *argv)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ") and "too long" in lines[0]


def test_reports_identical_across_cache_states(capsys, tmp_path):
    def stripped(*argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        return strip_volatile(json.loads(out))

    base = ["verify", "--group", "S3xC2", "--cache-dir"]
    cold = stripped(*base, str(tmp_path))
    warm = stripped(*base, str(tmp_path))
    off = stripped(*base, "off")
    assert cold == warm == off


PINNED_REPORTS = {
    "census --group S4": "742a848ffa3323f0fdb4b64b6438e08e05b5033d2f53b06996dd21caae6c9e71",
    "census --group D12": "10c83f65c16b116b837d08589e93a3f47973b5fcaa95aad696c1fd85cfb39eab",
    "census --group A5": "60eda24506c7451b87638282be59d754bfa9008eb730adc51ef04de00ccc9f4f",
    # 12 of the 20 triples are enumerated, 8 capped
    "census --group C6 --max-census 20": "47b0a5b34cc3e395fd17c66f8489aa808c5775b338dc2ce94ac899f93cdaaa48",
    "lemmas --group S4 --seed 0": "369a50c02753cb6b5a1a086ef7debbcc78c7382024043ed26ce7403ac4380074",
    # exhaustive triples with most censuses above the cap
    "lemmas --group S4 --seed 0 --max-census 100": "fecf8f5137f61a0e54ad5f35859523752146accf90bc76218ff508d4f83c1ce4",
    # 7,140 exhaustive triples, near the 8,000 limit
    "lemmas --group D12 --seed 0": "4a615ee9b51482c9a94d24131001abf46221af1a8602f87f6200cf1cfa6e780a",
    "lemmas --group S5 --seed 0": "90b51eb97e1eda775c08881348304647b6e5c58b9f3b4f2c0f29ddea7fcd64c6",
    "lemmas --group A5 --seed 3": "3958ea3f36d3300bb36ebef1d251164eb5cdf109a5f8ff5b1c7f0745c4fb17fc",
    # the largest sampled lattice pinned: 501 positions, 1,588 nested quadruples kept
    "lemmas --group A6 --seed 1": "8b81fb0b8b3d2887cd00de1068e0fb78da95fd53f6897277b2fae877b15431ec",
    # tuples_examined depends on the slot order among subgroups of equal order,
    # and on which clique represents each conjugacy orbit
    "verify --group A4xA4 --k 2..5": "f624473f323cb9ed71776c2b35ce1e5e70a759a06d1f7079d64b10eea70caf0b",
    "verify --group D30 --k 2..6": "e3ffcca41e05eeabfc04d0a673659c5f53804aa0cec483f84e37480663c04fa6",
}

# the same verify reports without their work counters, tuples_examined and
# clique_orbits: frozen before the search was reduced to one clique per
# conjugacy orbit, and unchanged by it
PINNED_ANSWERS = {
    "verify --group A4xA4 --k 2..5": "2c4df10ee5cabe34a4dbe9fe23989db725fffc1ec2925e9e1e1c955229f41623",
    "verify --group D30 --k 2..6": "20ddaddb060d4326bca13985e3d38346546ec0ec11314fcb406751f122b251a3",
}


@pytest.mark.parametrize("command", list(PINNED_REPORTS))
def test_report_answers_pinned(capsys, command):
    # sha256 of the canonical report without its runtime block: a rewrite
    # of the counting, lemma or search layers must not change a single answer
    code, out, _ = run(capsys, *command.split(), "--cache-dir", "off")
    assert code == 0
    text = canonical_json(strip_volatile(json.loads(out)))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == PINNED_REPORTS[command]


@pytest.mark.parametrize("command", list(PINNED_ANSWERS))
def test_verify_answers_pinned(capsys, command):
    code, out, _ = run(capsys, *command.split(), "--cache-dir", "off")
    assert code == 0
    doc = strip_volatile(json.loads(out))
    for v in doc["verifications"]:
        del v["tuples_examined"], v["clique_orbits"]
    text = canonical_json(doc)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == PINNED_ANSWERS[command]


# a few rows' worth of entries: most blocks of every batched loop hold one
# row, or a handful
SMALL_BUDGET = 256
# the clique and coset searches and the pair rows; the census's closed forms,
# enumeration, checks and entry blocks; the lemma families, exhaustive on
# S4, with most triples above the enumeration cap, and sampled on S5; the
# label gathers of all of them
BUDGET_COMMANDS = [
    "verify --group S3xS3xC2 --k 2..5",
    "census --group S4",
    "lemmas --group S4",
    "lemmas --group S4 --max-census 100",
    "lemmas --group S5",
]


@pytest.mark.parametrize("command", BUDGET_COMMANDS)
def test_reports_do_not_depend_on_the_block_budget(capsys, monkeypatch, command):
    code, out, _ = run(capsys, *command.split(), "--cache-dir", "off")
    monkeypatch.setattr(bitset, "BLOCK_ENTRIES", SMALL_BUDGET)
    small_code, small, _ = run(capsys, *command.split(), "--cache-dir", "off")
    assert code == small_code == 0
    want = canonical_json(strip_volatile(json.loads(out)))
    assert canonical_json(strip_volatile(json.loads(small))) == want


def test_capped_census_does_not_depend_on_the_block_budget(lattice, monkeypatch):
    # the census command refuses S4's 4,960 triples at --max-census 500, so
    # the library gives the census that mixes enumerated and capped triples
    _, subs = lattice("S4")
    want, errors = cl.lattice_census(subs, max_census=500)
    assert errors == {} and 0 < np.count_nonzero(want["enumerated"]) < len(want["total"])
    monkeypatch.setattr(bitset, "BLOCK_ENTRIES", SMALL_BUDGET)
    got, errors = cl.lattice_census(subs, max_census=500)
    assert errors == {} and got.keys() == want.keys()
    for key, v in got.items():
        assert np.array_equal(v, want[key]), key


def _subcommands():
    parser = cli.build_parser()
    [choices] = [a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return choices


def test_parser_built_once_per_process(capsys, monkeypatch):
    # two main calls with different commands build one parser, and each
    # report equals the one a freshly built parser gives
    commands = [["verify", "--group", "S3", "--k", "2..4"], ["census", "--group", "S3"]]
    cli.build_parser.cache_clear()
    shared = [run(capsys, *argv, "--cache-dir", "off") for argv in commands]
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = [run(capsys, *argv, "--cache-dir", "off") for argv in commands]
    for (code, out, _), (want_code, want, _) in zip(shared, fresh):
        assert code == want_code == 0
        assert strip_volatile(json.loads(out)) == strip_volatile(json.loads(want))


def test_every_option_of_every_subcommand_has_help_text():
    missing = [
        f"{name} {action.option_strings[-1]}"
        for name, sp in _subcommands().items()
        for action in sp._actions
        if action.option_strings and not action.help
    ]
    assert missing == []


def test_max_census_help_names_what_it_caps():
    # census refuses more subgroup triples and enumerates no coset triples
    # past it; the lemma suite only caps the enumeration
    helps = {
        name: sp._option_string_actions["--max-census"].help
        for name, sp in _subcommands().items()
        if "--max-census" in sp._option_string_actions
    }
    assert set(helps) == {"census", "lemmas"}
    assert "most subgroup triples" in helps["census"] and "exit 3" in helps["census"]
    assert "most subgroup triples" not in helps["lemmas"] and "exit 3" not in helps["lemmas"]
    for text in helps.values():
        assert "coset triples enumerated" in text
