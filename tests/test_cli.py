import hashlib
import itertools
import json
import os
import random
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from isotemporal import (
    Beachball,
    EdgePermutationGroup,
    Star,
    TemporalNetwork,
    classes,
    cli,
    enumerate_family_specs,
    generate,
    iso,
    parse_family_spec,
    parse_network,
    paths,
    serialize_network,
)
from isotemporal.cli import EXIT_ERROR, EXIT_OK, run, verify
from isotemporal.core import GRAPH_TABLE_SIZE, VERTEX_LIMIT, _file_graph
from reference_classes import altered_swap_route, blocks_of, forget_graphs, split_largest_class
from reference_transfer import check_transfer_conditions

FIXTURES = Path(__file__).parent / "fixtures"
SRC = str(Path(__file__).parent.parent / "src")


def run_capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_formula_prints_value(capsys):
    code, out, _ = run_capture(capsys, ["count", "--family", "diaster:4,7", "--method", "formula"])
    assert code == EXIT_OK
    assert out == "40\n"
    # the other spellings argparse took: NAME=VALUE, a unique prefix, a repeated option (the last wins)
    for argv in (
        ["count", "--family=star:3", "--method", "formula"],
        ["count", "--fam", "star:3", "--meth=formula"],
        ["count", "--family", "diaster:4,7", "--family", "star:3", "--method", "formula"],
    ):
        assert run_capture(capsys, argv) == (EXIT_OK, "1\n", ""), argv


def test_count_all_agrees(capsys):
    code, out, _ = run_capture(capsys, ["count", "--family", "diaster:1,2", "--method", "all"])
    assert code == EXIT_OK
    assert "formula: 6" in out
    assert "lattice: 6" in out
    assert "brute: 6" in out
    assert "swap: 6" in out
    assert "verdict: AGREE" in out


def test_count_not_covered(capsys):
    code, out, _ = run_capture(capsys, ["count", "--family", "stem:star:2/daisy:2", "--method", "formula"])
    assert code == EXIT_OK
    assert out == "not-covered\n"


def test_count_json(capsys):
    code, out, _ = run_capture(
        capsys, ["count", "--family", "beachball:3", "--method", "all", "--format", "json"]
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["family"] == "beachball:3"
    assert payload["counts"]["formula"] == 1
    assert payload["counts"]["brute"] == 1
    assert payload["verdict"] == "AGREE"


def test_bad_family_spec_exits_one(capsys):
    code, _, err = run_capture(capsys, ["count", "--family", "widget:4", "--method", "formula"])
    assert code == EXIT_ERROR
    assert "error" in err


def test_classes_of_an_empty_family_spec_exits_one(capsys):
    code, out, err = run_capture(capsys, ["classes", "--family", ""])
    assert (code, out) == (EXIT_ERROR, "")
    assert err == "error: bad family spec '': unknown family kind\n"


def test_unknown_flag_exits_one_with_usage(capsys):
    code, _, err = run_capture(capsys, ["count", "--family", "star:1", "--wat"])
    assert code == EXIT_ERROR
    assert "usage" in err


COMMANDS = ("count", "classes", "iso", "paths", "swapscript", "verify", "generate")
COMMAND_CHOICES = ", ".join(map(repr, COMMANDS))


@pytest.mark.parametrize(
    "argv, reason",
    [
        ([], "the following arguments are required: command"),
        (["counts"], f"argument command: invalid choice: 'counts' (choose from {COMMAND_CHOICES})"),
        (["count", "--family", "star:1", "--wat", "x"], "unrecognized arguments: --wat x"),
        (["count", "--method", "formula"], "the following arguments are required: --family"),
        (["count", "--family", "star:1", "--method", "exact"],
         "argument --method: invalid choice: 'exact' (choose from 'formula', 'lattice', 'brute', 'swap', 'all')"),
        (["count", "--method", "formula", "--family"], "argument --family: expected one argument"),
        (["generate", "--family", "star:1", "-o"], "argument -o/--output: expected one argument"),
        (["count", "--f", "star:1"], "ambiguous option: --f could match --family, --format"),
        (["classes", "--family", "star:1", "--graph", "g"], "argument --graph: not allowed with argument --family"),
        (["classes", "--method", "brute"], "one of the arguments --family --graph is required"),
        (["iso", "a.net"], "the following arguments are required: file_b"),
        (["paths", "a.net", "b.net"], "unrecognized arguments: b.net"),
        (["verify", "--no-timing=yes"], "argument --no-timing: ignored explicit argument 'yes'"),
    ],
)
def test_usage_errors_keep_argparse_texts(capsys, argv, reason):
    # each text as argparse gave it, then the usage of every command
    code, out, err = run_capture(capsys, argv)
    assert (code, out) == (EXIT_ERROR, "")
    first, usage = err.split("\n", 1)
    assert first == f"usage error: {reason}"
    assert usage.startswith("usage: isotemporal count --family FAMILY [--method {formula,lattice,brute,swap,all}]")


@pytest.mark.parametrize("flag", ["-h", "--help"])
@pytest.mark.parametrize("command", [[], *([c] for c in COMMANDS)])
def test_help_prints_the_usage_and_exits_zero(capsys, command, flag):
    code, out, err = run_capture(capsys, [*command, flag])
    assert (code, err) == (EXIT_OK, "")
    assert out.startswith("usage: isotemporal count ") and "isotemporal generate --family FAMILY" in out


def test_every_readme_cli_example_parses():
    # parsed only, not run: the README's examples and the parser stay in step
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = readme.split("```sh\n")[1:]
    lines = [line for block in blocks for line in block.split("```")[0].splitlines()]
    examples = [line for line in lines if line.startswith("isotemporal ")]
    assert len(examples) >= 9
    for line in examples:
        argv = shlex.split(line, comments=True)[1:]
        parsed = cli._parse(argv)  # raises UsageError on a list the CLI refuses
        assert parsed is None or parsed[0] is cli.COMMANDS[argv[0]][0], line


def test_limit_exceeded_exits_one(capsys):
    code, _, err = run_capture(capsys, ["count", "--family", "diaster:4,5", "--method", "brute"])
    assert code == EXIT_ERROR
    assert "error" in err


@pytest.mark.parametrize("argv", [["count", "--method", "all"], ["classes"]])
def test_limit_is_checked_before_the_family_graph_is_built(capsys, monkeypatch, argv):
    def build(spec):
        raise AssertionError("a graph past the limit was built")

    monkeypatch.setattr(cli, "generate", build)
    code, out, err = run_capture(capsys, [argv[0], "--family", "star:10000000", *argv[1:]])
    assert (code, out) == (EXIT_ERROR, "")
    assert err == "error: graph has 10000000 edges, enumeration limit is 8\n"


def test_classes_both_text(capsys):
    code, out, _ = run_capture(
        capsys, ["classes", "--family", "diaster:1,2", "--method", "both", "--representatives"]
    )
    assert code == EXIT_OK
    assert "classes: 6" in out
    assert "equal: yes" in out
    assert out.count("representative:") == 12  # six per method


def test_classes_json_sizes_sum(capsys):
    code, out, _ = run_capture(
        capsys, ["classes", "--family", "diaster:1,2", "--method", "brute", "--format", "json"]
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    (partition,) = payload["partitions"]
    assert partition["count"] == 6
    assert sum(partition["sizes"]) == 12


def test_classes_from_graph_file(tmp_path, capsys):
    code, out, _ = run_capture(capsys, ["generate", "--family", "daisy:3", "-o", str(tmp_path / "d3.net")])
    assert code == EXIT_OK
    code, out, _ = run_capture(capsys, ["classes", "--graph", str(tmp_path / "d3.net"), "--method", "brute"])
    assert code == EXIT_OK
    assert "classes: 1" in out


def test_iso_fixture_pair(capsys):
    code, out, _ = run_capture(
        capsys, ["iso", str(FIXTURES / "cycle5_a.net"), str(FIXTURES / "cycle5_b.net")]
    )
    assert code == EXIT_OK
    assert "label-isomorphic: no" in out
    assert "temporally-isomorphic: yes" in out
    assert "edge-bijection:" in out


def test_iso_non_isomorphic_graphs(tmp_path, capsys):
    run_capture(capsys, ["generate", "--family", "star:3", "-o", str(tmp_path / "a.net")])
    run_capture(capsys, ["generate", "--family", "daisy:3", "-o", str(tmp_path / "b.net")])
    code, out, _ = run_capture(capsys, ["iso", str(tmp_path / "a.net"), str(tmp_path / "b.net")])
    assert code == EXIT_OK
    assert "label-isomorphic: no" in out
    assert "temporally-isomorphic: no" in out


def test_paths_output_format(tmp_path, capsys):
    run_capture(capsys, ["generate", "--family", "daisy:2", "-o", str(tmp_path / "d2.net")])
    code, out, _ = run_capture(capsys, ["paths", str(tmp_path / "d2.net")])
    assert code == EXIT_OK
    assert out.splitlines() == ["1 | 0 0", "1 2 | 0 0 0", "2 | 0 0"]


def test_swapscript_isomorphic_pair(tmp_path, capsys):
    a = tmp_path / "a.net"
    b = tmp_path / "b.net"
    a.write_text("vertices: 5\nedges: 4\n0 0 1 3\n1 0 2 1\n2 1 3 2\n3 1 4 4\n", encoding="utf-8")
    b.write_text("vertices: 5\nedges: 4\n0 0 1 3\n1 0 2 2\n2 1 3 1\n3 1 4 4\n", encoding="utf-8")
    code, out, _ = run_capture(capsys, ["swapscript", str(a), str(b)])
    assert code == EXIT_OK
    assert out.splitlines()[0] == "steps: 1"
    assert "swap labels 1 2" in out


def test_swapscript_on_the_five_cycle_fixtures(capsys):
    code, out, err = run_capture(
        capsys, ["swapscript", str(FIXTURES / "cycle5_a.net"), str(FIXTURES / "cycle5_b.net")]
    )
    assert (code, out, err) == (EXIT_OK, "steps: 1\nswap labels 1 2 : edges 0 2\n", "")


def test_swapscript_keeps_its_output_contract(tmp_path, capsys):
    # swapscripts.json holds the output of swapscript, captured before scripts
    # followed the temporal witness, on four seeded pairs per two-sided spec
    # of at most 7 edges: random, swaps then an automorphism, two of equal signature.
    # Its 13 label-isomorphic pairs that had steps read steps: 0 since scripts
    # follow a label isomorphism when there is one
    a, b = tmp_path / "a.net", tmp_path / "b.net"
    for case in json.loads((FIXTURES / "swapscripts.json").read_text(encoding="utf-8")):
        g = generate(parse_family_spec(case["family"]))
        a.write_text(serialize_network(TemporalNetwork(g, tuple(case["a"]))), encoding="utf-8")
        b.write_text(serialize_network(TemporalNetwork(g, tuple(case["b"]))), encoding="utf-8")
        code, out, err = run_capture(capsys, ["swapscript", str(a), str(b)])
        assert (code, out, err) == (EXIT_OK, case["output"], ""), case


def test_swapscript_not_isomorphic(tmp_path, capsys):
    a = tmp_path / "a.net"
    b = tmp_path / "b.net"
    a.write_text("vertices: 5\nedges: 4\n0 0 1 1\n1 0 2 2\n2 1 3 3\n3 1 4 4\n", encoding="utf-8")
    b.write_text("vertices: 5\nedges: 4\n0 0 1 2\n1 0 2 1\n2 1 3 3\n3 1 4 4\n", encoding="utf-8")
    code, out, _ = run_capture(capsys, ["swapscript", str(a), str(b)])
    assert code == EXIT_OK
    assert out.strip() == "NOT-ISOMORPHIC"


def test_generate_round_trips_through_paths(tmp_path, capsys):
    target = tmp_path / "c5.net"
    code, _, _ = run_capture(capsys, ["generate", "--family", "cycle:5", "-o", str(target)])
    assert code == EXIT_OK
    code, out, _ = run_capture(capsys, ["paths", str(target)])
    assert code == EXIT_OK
    assert "1 2 3 4 5 | 0 1 2 3 4 0" in out


def test_verify_small_grid(capsys):
    code, out, _ = run_capture(capsys, ["verify", "--max-edges", "4", "--format", "json", "--no-timing"])
    assert code == EXIT_OK
    rows = {row["family"]: row for row in json.loads(out)}
    d12 = rows["diaster:1,2"]
    assert (d12["formula"], d12["lattice"], d12["brute"], d12["swap"]) == (6, 6, 6, 6)
    assert d12["verdict"] == "AGREE"
    d3 = rows["daisy:3"]
    assert (d3["formula"], d3["brute"], d3["swap"]) == (1, 1, 1)
    assert d3["lattice"] is None
    assert d3["verdict"] == "AGREE"
    assert "elapsed" not in d12


def test_verify_reports_partial_agreement_for_uncovered_stems(capsys):
    code, out, _ = run_capture(capsys, ["verify", "--max-edges", "5", "--format", "json", "--no-timing"])
    assert code == EXIT_OK
    rows = {row["family"]: row for row in json.loads(out)}
    mixed = rows["stem:star:2/daisy:2"]
    assert mixed["formula"] is None
    assert mixed["brute"] == mixed["swap"]
    assert mixed["verdict"] == "AGREE-partial"


def test_verify_output_is_deterministic(capsys):
    argv = ["verify", "--max-edges", "4", "--format", "json", "--no-timing"]
    _, first, _ = run_capture(capsys, argv)
    _, second, _ = run_capture(capsys, argv)
    assert first == second


def test_verify_rejects_max_edges_above_cap(capsys):
    code, _, err = run_capture(capsys, ["verify", "--max-edges", "11"])
    assert code == EXIT_ERROR
    assert "hard cap" in err


def test_cli_entry_point_via_interpreter():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "isotemporal", "count", "--family", "diaster:4,7", "--method", "lattice"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == EXIT_OK
    assert proc.stdout == "40\n"


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # each costs start-up time on every command, and argparse also builds a parser on the first run;
    # -S keeps site's own imports out of the count
    code = "import sys, isotemporal.cli; print(sorted({'argparse', 'dataclasses', 'inspect'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout == "[]\n"


def test_verify_function_contract():
    rows = verify(4)
    assert all(row.verdict in ("AGREE", "AGREE-partial") for row in rows)
    families = [row.family for row in rows]
    assert families == sorted(families)
    with pytest.raises(Exception):
        verify(99)


def replay_classes8(capsys, cases):
    # classes8.json holds `classes --method both --representatives --format json`
    # for every spec of at most 8 edges, cycles included, captured before both
    # routes shared one grouping loop; the two partitions were equal, so one is kept
    for case in cases:
        argv = ["classes", "--family", case["graph"], "--method", "both", "--representatives", "--format", "json"]
        code, out, err = run_capture(capsys, argv)
        assert (code, err) == (EXIT_OK, ""), case["graph"]
        partition = {"count": len(case["sizes"]), "sizes": case["sizes"], "representatives": case["representatives"]}
        expected = {
            "graph": case["graph"],
            "partitions": [{"method": m, **partition} for m in ("temporal-isomorphism", "swap-closure")],
            "equal": case["equal"],
        }
        assert out == json.dumps(expected, indent=2) + "\n", case["graph"]


def test_classes_keeps_its_output_contract(capsys):
    replay_classes8(capsys, json.loads((FIXTURES / "classes8.json").read_text(encoding="utf-8")))


def test_classes_keeps_its_output_contract_in_a_shuffled_order(capsys):
    # from no graphs most specs meet a graph isomorphic to an earlier one (diaster:a,b and
    # diaster:b,a, stems that are diasters), so most answers are carried partitions
    cases = json.loads((FIXTURES / "classes8.json").read_text(encoding="utf-8"))
    random.Random(1717).shuffle(cases)
    forget_graphs()
    replay_classes8(capsys, cases)


def test_disagreeing_counts_exit_two(capsys, monkeypatch):
    # force a wrong closed-form value to confirm CI fails loudly
    import isotemporal.cli as cli
    from isotemporal.formulas import CountResult

    monkeypatch.setattr(cli.formulas, "family_count", lambda spec: CountResult(999, "closed-form-unequal"))
    code = run(["verify", "--max-edges", "3"])
    capsys.readouterr()
    assert code == 2
    code = run(["count", "--family", "diaster:1,1", "--method", "all"])
    capsys.readouterr()
    assert code == 2


def test_repeated_runs_in_one_process_match_fresh_processes(capsys):
    # the parser is built once per process; no call may leave state behind
    env = dict(os.environ, PYTHONPATH=SRC)
    calls = [
        ["count", "--family", "star:1", "--wat"],
        ["count", "--family", "diaster:1,2", "--method", "all"],
        ["classes", "--family", "cycle:5", "--method", "both"],
        ["verify", "--max-edges", "4", "--no-timing"],
    ]
    for argv in calls:
        in_process = run_capture(capsys, argv)
        fresh = subprocess.run(
            [sys.executable, "-m", "isotemporal", *argv], capture_output=True, text=True, env=env
        )
        assert in_process == (fresh.returncode, fresh.stdout, fresh.stderr), argv


def test_verify_nine_keeps_its_output_contract(capsys):
    # the output at 9 edges before the brute-force sweep shared states by path set
    code, out, err = run_capture(capsys, ["verify", "--max-edges", "9", "--format", "json", "--no-timing"])
    assert (code, err) == (EXIT_OK, "")
    assert hashlib.md5(out.encode()).hexdigest() == "f8b467c81d28eeb0db0589be1dcd680d"


def test_verify_ten_keeps_its_output_contract(capsys):
    # the output at the hard cap before the routes walked prefix states instead of labelings
    code, out, err = run_capture(capsys, ["verify", "--max-edges", "10", "--format", "json", "--no-timing"])
    assert (code, err) == (EXIT_OK, "")
    assert hashlib.md5(out.encode()).hexdigest() == "e2537c724cfc08c6b64c899ac32f4544"


@pytest.mark.parametrize(
    "spec, digest",
    [("cycle:10", "e15a80a4c98405e2498bad90341918ea"), ("stem:daisy:4/daisy:5", "a7adae5a45bb99186a3f23c1f313e37c")],
)
def test_classes_above_eight_edges_keep_their_output(capsys, spec, digest):
    # representatives and class sizes past classes8.json, as both routes gave them with
    # container states; they read each class's arrows back from its final state
    argv = ["classes", "--family", spec, "--method", "both", "--representatives", "--format", "json", "--limit", "10"]
    code, out, err = run_capture(capsys, argv)
    assert (code, err) == (EXIT_OK, "")
    assert hashlib.md5(out.encode()).hexdigest() == digest


def test_count_hands_both_routes_one_graph_object(capsys, monkeypatch):
    seen = []
    for name in ("brute_force_classes", "swap_closure_classes"):
        route = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda g, limit, route=route: seen.append(g) or route(g, limit))
    code, out, err = run_capture(capsys, ["count", "--family", "diaster:3,4", "--method", "all"])
    assert (code, err) == (EXIT_OK, "") and "verdict: AGREE" in out
    assert len(seen) == 2 and seen[0] is seen[1]


def test_verify_keeps_the_graph_table_within_its_bound(capsys):
    # verify at the hard cap meets 306 distinct graphs, more than the table keeps
    forget_graphs()
    code, out, err = run_capture(capsys, ["verify", "--max-edges", "10", "--format", "json", "--no-timing"])
    assert (code, err) == (EXIT_OK, "") and len(json.loads(out)) == 374
    info = _file_graph.cache_info()
    assert info.maxsize == GRAPH_TABLE_SIZE and 0 < info.currsize <= GRAPH_TABLE_SIZE < info.misses


def test_brute_route_refuses_a_state_past_the_path_limit(capsys, monkeypatch):
    monkeypatch.setattr(paths, "PATH_LIMIT", 12)
    forget_graphs()
    code, out, err = run_capture(capsys, ["count", "--family", "cycle:6", "--method", "brute"])
    assert (code, out) == (EXIT_ERROR, "")
    assert err == "error: more than 12 temporal paths\n"


def test_an_isomorphism_class_is_walked_once_per_route(capsys, monkeypatch):
    walks = []
    monkeypatch.setattr(classes, "_walk", lambda *args, walk=classes._walk: walks.append(args[0]) or walk(*args))
    forget_graphs()
    for family, walked in (("diaster:3,4", 2), ("diaster:4,3", 2), ("stem:star:3/star:4", 2)):
        code, out, err = run_capture(capsys, ["count", "--family", family, "--method", "all"])
        assert (code, err) == (EXIT_OK, ""), family
        assert "brute: 20" in out and "swap: 20" in out and "verdict: AGREE" in out, family
        assert len(walks) == walked, family
    forget_graphs()
    assert run_capture(capsys, ["count", "--family", "diaster:4,3", "--method", "all"])[0] == EXIT_OK
    assert len(walks) == 4
    # the limit is checked before the graph's partition is read: a kept 6-edge partition is still refused
    six = generate(parse_family_spec("diaster:2,3"))
    for route in (classes.brute_force_classes, classes.swap_closure_classes):
        assert route(six, 8).class_count == 12
        with pytest.raises(classes.LimitExceededError):
            route(six, 5)
        with pytest.raises(classes.LimitExceededError):
            route(generate(parse_family_spec("diaster:3,2")), 5)
    # a new cycle:6 graph is walked again after forgetting the graphs, and the walk still refuses
    assert run_capture(capsys, ["count", "--family", "cycle:6", "--method", "brute"])[:2] == (EXIT_OK, "8\n")
    monkeypatch.setattr(paths, "PATH_LIMIT", 12)
    forget_graphs()
    assert run_capture(capsys, ["count", "--family", "cycle:6", "--method", "brute"]) == (
        EXIT_ERROR,
        "",
        "error: more than 12 temporal paths\n",
    )


def test_no_route_enumerates_canonical_labelings(capsys, monkeypatch):
    # both routes walk prefix states, and a partition holds its classes, not their labelings
    def enumerate_labelings(graph):
        raise AssertionError("canonical labelings were enumerated")

    five = generate(parse_family_spec("cycle:5"))
    block = max(blocks_of(classes.brute_force_classes(five)), key=len)
    original = iso.canonical_label_vectors
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "isotemporal" and getattr(module, "canonical_label_vectors", None) is original:
            monkeypatch.setattr(module, "canonical_label_vectors", enumerate_labelings)
    forget_graphs()
    for family, count in (("cycle:9", 29), ("diaster:4,5", 30)):
        argv = ["count", "--family", family, "--method", "all", "--limit", "10", "--format", "json"]
        code, out, err = run_capture(capsys, argv)
        assert (code, err) == (EXIT_OK, ""), family
        assert json.loads(out)["verdict"] == "AGREE" and json.loads(out)["counts"]["brute"] == count, family
    code, out, err = run_capture(capsys, ["verify", "--max-edges", "6", "--format", "json", "--no-timing"])
    assert (code, err) == (EXIT_OK, "")
    assert out == (FIXTURES / "verify6.json").read_text(encoding="utf-8")
    argv = ["classes", "--family", "cycle:9", "--method", "both", "--representatives", "--limit", "10", "--format", "json"]
    code, out, err = run_capture(capsys, argv)
    assert (code, err) == (EXIT_OK, "")
    payload = json.loads(out)
    assert payload["equal"] is True
    assert [(p["count"], len(p["representatives"])) for p in payload["partitions"]] == [(29, 29), (29, 29)]
    # the witness of a split class comes from representatives alone
    altered_swap_route(monkeypatch, split_largest_class)
    report = classes.compare_partitions(five)
    assert report.equal is False
    assert report.witness == (block[0], block[2])


def test_count_and_verify_keep_their_output_contract(capsys):
    # verify8.json is the output of verify before orbits were indexed over
    # the transversal alone (md5 2c2085892a9a1056a182f392d98166e7)
    code, out, err = run_capture(capsys, ["verify", "--max-edges", "8", "--format", "json", "--no-timing"])
    assert (code, err) == (EXIT_OK, "")
    assert out == (FIXTURES / "verify8.json").read_text(encoding="utf-8")

    def count_json(family, method):
        code, out, _ = run_capture(capsys, ["count", "--family", family, "--method", method, "--format", "json"])
        assert code == EXIT_OK
        return json.loads(out)

    assert count_json("diaster:1,2", "all") == {
        "family": "diaster:1,2",
        "counts": {"formula": 6, "lattice": 6, "brute": 6, "swap": 6},
        "verdict": "AGREE",
    }
    assert count_json("star:3", "all") == {
        "family": "star:3",
        "counts": {"formula": 1, "brute": 1, "swap": 1},
        "verdict": "AGREE",
    }
    assert count_json("cycle:5", "all") == {
        "family": "cycle:5",
        "counts": {"formula": None, "brute": 3, "swap": 3},
        "verdict": "AGREE",
    }
    assert count_json("star:3", "lattice") == {"family": "star:3", "counts": {"lattice": None}}
    assert run_capture(capsys, ["count", "--family", "star:3", "--method", "lattice"]) == (
        EXIT_OK,
        "not-covered\n",
        "",
    )


def test_no_command_expands_the_automorphism_group(capsys, monkeypatch):
    # orbits are indexed over the transversal and the transfer check
    # conjugates generators, so no path builds the group's element list
    def expand(group):
        raise AssertionError("the automorphism group was expanded")

    monkeypatch.setattr(EdgePermutationGroup, "elements", property(expand))
    forget_graphs()
    for family in ("diaster:1,8", "stem:star:8/beachball:1"):
        argv = ["count", "--family", family, "--method", "all", "--limit", "10", "--format", "json"]
        code, out, err = run_capture(capsys, argv)
        assert (code, err) == (EXIT_OK, ""), family
        payload = json.loads(out)
        assert payload["verdict"] == "AGREE" and set(payload["counts"].values()) == {18}, family
    argv = ["classes", "--method", "both", "--family", "diaster:4,5", "--limit", "10"]
    assert run_capture(capsys, argv)[0] == EXIT_OK
    code, out, err = run_capture(capsys, ["verify", "--max-edges", "6", "--format", "json", "--no-timing"])
    assert (code, err) == (EXIT_OK, "")
    assert out == (FIXTURES / "verify6.json").read_text(encoding="utf-8")
    report = check_transfer_conditions(generate(Star(9)), generate(Beachball(9)))
    assert (report.holds, report.witness, report.failed_condition) == (True, tuple(range(9)), None)


def test_one_sided_diasters_agree_on_one_class(capsys):
    # D(0, b) is a star: one class by every route, and no lattice route
    for family in ("diaster:0,5", "diaster:3,0"):
        code, out, _ = run_capture(capsys, ["count", "--family", family, "--method", "all", "--format", "json"])
        assert code == EXIT_OK
        assert json.loads(out) == {
            "family": family,
            "counts": {"formula": 1, "brute": 1, "swap": 1},
            "verdict": "AGREE",
        }
        assert run_capture(capsys, ["count", "--family", family, "--method", "lattice"]) == (
            EXIT_OK,
            "not-covered\n",
            "",
        )


def test_bounds_below_one_are_usage_errors(capsys):
    for argv in (
        ["verify", "--max-edges", "0"],
        ["verify", "--max-edges", "-1", "--format", "json"],
        ["count", "--family", "diaster:1,2", "--limit", "-3"],
        ["count", "--family", "diaster:1,2", "--method", "formula", "--limit", "0"],
        ["classes", "--family", "cycle:5", "--limit", "0"],
    ):
        code, out, err = run_capture(capsys, argv)
        assert (code, out) == (EXIT_ERROR, ""), argv
        assert err.startswith("usage error: argument ") and "must be at least 1" in err, argv
    code, _, err = run_capture(capsys, ["verify", "--max-edges", "x"])
    assert code == EXIT_ERROR
    assert "argument --max-edges: invalid int value: 'x'" in err


def test_paths_of_generated_stem_with_loops_and_parallel_edges(tmp_path, capsys):
    # stem:daisy:2/beachball:2: two loops at 0, central edge 0-1, two parallel
    # edges 1-2; outputs captured from the enumerator that tracked traces
    net = tmp_path / "stem.net"
    run_capture(capsys, ["generate", "--family", "stem:daisy:2/beachball:2", "-o", str(net)])
    code, out, _ = run_capture(capsys, ["paths", str(net)])
    assert code == EXIT_OK
    assert out.splitlines() == [
        "1 | 0 1", "1 2 | 1 0 0", "1 2 3 | 1 0 0 0", "1 3 | 1 0 0", "1 4 | 0 1 2", "1 4 5 | 0 1 2 1",
        "1 5 | 0 1 2", "2 | 0 0", "2 3 | 0 0 0", "3 | 0 0", "4 | 1 2", "4 5 | 1 2 1", "5 | 1 2",
    ]
    # relabeled so that some traces must start at the larger endpoint
    net.write_text("vertices: 3\nedges: 5\n0 0 1 3\n1 0 0 4\n2 0 0 5\n3 1 2 1\n4 1 2 2\n", encoding="utf-8")
    code, out, _ = run_capture(capsys, ["paths", str(net)])
    assert code == EXIT_OK
    assert out.splitlines() == [
        "1 | 1 2", "1 2 | 1 2 1", "1 2 3 | 1 2 1 0", "1 2 3 4 | 1 2 1 0 0", "1 2 3 4 5 | 1 2 1 0 0 0",
        "1 2 3 5 | 1 2 1 0 0", "1 3 | 2 1 0", "1 3 4 | 2 1 0 0", "1 3 4 5 | 2 1 0 0 0", "1 3 5 | 2 1 0 0",
        "2 | 1 2", "2 3 | 2 1 0", "2 3 4 | 2 1 0 0", "2 3 4 5 | 2 1 0 0 0", "2 3 5 | 2 1 0 0",
        "3 | 0 1", "3 4 | 1 0 0", "3 4 5 | 1 0 0 0", "3 5 | 1 0 0", "4 | 0 0", "4 5 | 0 0 0", "5 | 0 0",
    ]


def test_huge_vertex_count_is_a_parse_error(tmp_path, capsys):
    net = tmp_path / "huge.net"
    net.write_text("vertices: 100000000\nedges: 1\n0 0 1 1\n", encoding="utf-8")
    for command in ("paths", "classes --graph"):
        code, out, err = run_capture(capsys, command.split() + [str(net)])
        assert (code, out) == (EXIT_ERROR, ""), command
        assert err.startswith("error: line 1: 'vertices' count 100000000 exceeds the limit"), command
        assert "Traceback" not in err


def test_eleven_vertex_specs_at_the_cap_answer(capsys):
    # 11 vertices (star, diaster) or 10 edges on 1 and 2 vertices: each has a
    # twin-class automorphism group, so no n! search stands in the way
    for family, classes in (("star:10", 1), ("daisy:10", 1), ("beachball:10", 1), ("diaster:4,5", 30)):
        argv = ["count", "--family", family, "--method", "all", "--format", "json", "--limit", "10"]
        code, out, err = run_capture(capsys, argv)
        assert (code, err) == (EXIT_OK, ""), family
        payload = json.loads(out)
        assert payload["verdict"] == "AGREE", family
        assert set(payload["counts"].values()) == {classes}, family


def _write_network(path, vertices, pairs, labels):
    lines = [f"vertices: {vertices}", f"edges: {len(pairs)}"]
    lines += [f"{e} {u} {v} {lab}" for e, ((u, v), lab) in enumerate(zip(pairs, labels))]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_iso_answers_eleven_vertex_networks(tmp_path, capsys):
    # 11 vertices: more than 10! vertex bijections, yet a small edge-driven search
    for family in ("star:10", "diaster:4,5"):
        net = tmp_path / "net.net"
        run_capture(capsys, ["generate", "--family", family, "-o", str(net)])
        code, out, err = run_capture(capsys, ["iso", str(net), str(net)])
        assert (code, err) == (EXIT_OK, ""), family
        identity = " ".join(f"{e}->{e}" for e in range(10))
        assert out == f"label-isomorphic: yes\ntemporally-isomorphic: yes\nedge-bijection: {identity}\n", family


def test_iso_ignores_declared_but_unused_vertices(tmp_path, capsys):
    a, b = tmp_path / "a.net", tmp_path / "b.net"
    _write_network(a, 10_000, [(0, 1), (1, 2)], [1, 2])
    _write_network(b, 10_000, [(7, 9_999), (5, 7)], [1, 2])
    code, out, err = run_capture(capsys, ["iso", str(a), str(b)])
    assert (code, err) == (EXIT_OK, "")
    assert out == "label-isomorphic: yes\ntemporally-isomorphic: yes\nedge-bijection: 0->0 1->1\n"


def test_iso_on_many_parallel_edges_finishes(tmp_path, capsys):
    # 2 * 12! vertex and edge bijections; the search needs only the label order
    a, b = tmp_path / "a.net", tmp_path / "b.net"
    _write_network(a, 2, [(0, 1)] * 12, range(1, 13))
    _write_network(b, 2, [(0, 1)] * 12, range(12, 0, -1))
    start = time.perf_counter()
    code, out, err = run_capture(capsys, ["iso", str(a), str(b)])
    assert time.perf_counter() - start < 10
    assert (code, err) == (EXIT_OK, "")
    reversal = " ".join(f"{e}->{11 - e}" for e in range(12))
    assert out == f"label-isomorphic: yes\ntemporally-isomorphic: yes\nedge-bijection: {reversal}\n"


def test_iso_on_thirty_parallel_edges_reads_no_path_set(tmp_path, capsys):
    # 2^30 - 1 temporal paths each; keeping the label order of adjacent edges decides it
    a, b = tmp_path / "a.net", tmp_path / "b.net"
    _write_network(a, 2, [(0, 1)] * 30, range(1, 31))
    _write_network(b, 2, [(0, 1)] * 30, range(30, 0, -1))
    code, out, err = run_capture(capsys, ["iso", str(a), str(b)])
    assert (code, err) == (EXIT_OK, "")
    reversal = " ".join(f"{e}->{29 - e}" for e in range(30))
    assert out == f"label-isomorphic: yes\ntemporally-isomorphic: yes\nedge-bijection: {reversal}\n"


def test_iso_on_a_long_path_needs_no_deep_recursion(tmp_path, capsys):
    # 1 200 edges: a search that recursed once per edge would overflow the stack
    rng = random.Random(3)
    labels = list(range(1, 1201))
    rng.shuffle(labels)
    pairs = [(i, i + 1) for i in range(1200)]
    a, b = tmp_path / "a.net", tmp_path / "b.net"
    _write_network(a, 1201, pairs, labels)
    _write_network(b, 1201, pairs, labels[::-1])
    code, out, err = run_capture(capsys, ["iso", str(a), str(b)])
    assert (code, err) == (EXIT_OK, "")
    reversal = " ".join(f"{e}->{1199 - e}" for e in range(1200))
    assert out == f"label-isomorphic: yes\ntemporally-isomorphic: yes\nedge-bijection: {reversal}\n"


def test_paths_ignores_declared_but_unused_vertices(tmp_path, capsys):
    # output captured from the stack-DFS enumerator
    net = tmp_path / "sparse.net"
    _write_network(net, 10_000, [(9_999, 0), (0, 5_000), (9_999, 9_999)], [2, 3, 1])
    code, out, err = run_capture(capsys, ["paths", str(net)])
    assert (code, err) == (EXIT_OK, "")
    assert out.splitlines() == [
        "1 | 9999 9999", "1 2 | 9999 9999 0", "1 2 3 | 9999 9999 0 5000",
        "2 | 0 9999", "2 3 | 9999 0 5000", "3 | 0 5000",
    ]


def test_paths_on_a_long_path(tmp_path, capsys):
    # 1 200 edges, labels low on even edges and high on odd ones, so every
    # temporal path is one edge or two adjacent edges
    lows, highs = iter(range(1, 601)), iter(range(601, 1201))
    labels = [next(highs if e % 2 else lows) for e in range(1200)]
    net = tmp_path / "long.net"
    _write_network(net, 1201, [(i, i + 1) for i in range(1200)], labels)
    start = time.perf_counter()
    code, out, err = run_capture(capsys, ["paths", str(net)])
    assert time.perf_counter() - start < 10
    assert (code, err) == (EXIT_OK, "")
    lines = out.splitlines()
    assert len(lines) == 1200 + 1199
    assert lines[:3] == ["1 | 0 1", "1 601 | 0 1 2", "2 | 2 3"]


def test_paths_on_an_edgeless_network_prints_nothing(tmp_path, capsys):
    net = tmp_path / "empty.net"
    net.write_text("vertices: 3\nedges: 0\n", encoding="utf-8")
    assert run_capture(capsys, ["paths", str(net)]) == (EXIT_OK, "", "")


def test_paths_keeps_its_output_contract(tmp_path, capsys):
    # md5 of the output, captured from the enumerator that printed one line per write: a seeded
    # labeling of every family spec of at most 9 edges, then every labeling of a graph with two
    # loops and two parallel edges, numbered so that some traces start at the larger endpoint
    rng, digest, net = random.Random(20), hashlib.md5(), tmp_path / "n.net"
    for spec in enumerate_family_specs(9, include_cycles=True):
        g = generate(spec)
        labels = list(range(1, g.edge_count + 1))
        rng.shuffle(labels)
        _write_network(net, g.vertex_count, [pair for _, pair in g.edges], labels)
        code, out, err = run_capture(capsys, ["paths", str(net)])
        assert (code, err) == (EXIT_OK, ""), spec
        digest.update(out.encode())
    for labels in itertools.permutations(range(1, 6)):
        _write_network(net, 3, [(0, 1), (0, 0), (0, 0), (1, 2), (1, 2)], labels)
        code, out, err = run_capture(capsys, ["paths", str(net)])
        assert (code, err) == (EXIT_OK, "")
        digest.update(out.encode())
    assert digest.hexdigest() == "42d45490a143c49a8a35691adba26e2b"


def test_non_utf8_network_file_is_an_error(tmp_path, capsys):
    net = tmp_path / "latin1.net"
    net.write_bytes("# café\nvertices: 2\nedges: 1\n0 0 1 1\n".encode("latin-1"))
    for command in ("paths", "classes --graph", "iso", "swapscript"):
        argv = command.split() + [str(net)] * (2 if command in ("iso", "swapscript") else 1)
        code, out, err = run_capture(capsys, argv)
        assert (code, out) == (EXIT_ERROR, ""), command
        assert err.startswith(f"error: cannot read {net}: 'utf-8' codec can't decode"), command


def test_generated_file_below_the_vertex_limit_parses_back(tmp_path, capsys):
    target = tmp_path / "s.net"
    code, _, _ = run_capture(capsys, ["generate", "--family", "star:9999", "-o", str(target)])
    assert code == EXIT_OK
    assert parse_network(target.read_text(encoding="utf-8")).graph.vertex_count == VERTEX_LIMIT


@pytest.mark.parametrize("k", [VERTEX_LIMIT, 30_000_000])
def test_generate_refuses_a_graph_past_the_vertex_limit(tmp_path, capsys, monkeypatch, k):
    def build(spec):
        raise AssertionError("a graph past the vertex limit was built")

    monkeypatch.setattr(cli, "generate", build)
    target = tmp_path / "s.net"
    code, out, err = run_capture(capsys, ["generate", "--family", f"star:{k}", "-o", str(target)])
    assert (code, out) == (EXIT_ERROR, "")
    assert err == f"error: graph has {k + 1} vertices, file limit is {VERTEX_LIMIT}\n"
    assert not target.exists()


def test_running_out_of_memory_exits_1_with_a_reason(tmp_path, capsys, monkeypatch):
    def build(spec):
        raise MemoryError

    monkeypatch.setattr(cli, "generate", build)
    target = tmp_path / "d.net"
    code, out, err = run_capture(capsys, ["generate", "--family", "daisy:3", "-o", str(target)])
    assert (code, out, err) == (EXIT_ERROR, "", "error: out of memory\n")
    assert not target.exists()


def test_generate_into_a_missing_directory_is_an_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.net"
    code, out, err = run_capture(capsys, ["generate", "--family", "star:3", "-o", str(target)])
    assert (code, out) == (EXIT_ERROR, "")
    assert err.startswith(f"error: cannot write {target}: ")
