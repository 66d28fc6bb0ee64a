"""Tests of the benchmark itself: the checker, the generator and the tracer.

    python3 -m pytest perfbench/tests
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

from check import check_pass  # noqa: E402

# a 4-cycle, and the same graph with labels 1 and 2 swapped (non-adjacent)
CYCLE4_A = "vertices: 4\nedges: 4\n0 0 1 1\n1 1 2 3\n2 2 3 2\n3 0 3 4\n"
CYCLE4_B = "vertices: 4\nedges: 4\n0 0 1 2\n1 1 2 3\n2 2 3 1\n3 0 3 4\n"
# diaster:1,1 with the two pendant labels exchanged by the mirror
DIASTER_A = "vertices: 4\nedges: 3\n0 0 1 2\n1 0 2 1\n2 1 3 3\n"
DIASTER_B = "vertices: 4\nedges: 3\n0 0 1 2\n1 0 2 3\n2 1 3 1\n"

OPS = [
    {"kind": "count", "spec": "cycle:5", "argv": ["count", "--family", "cycle:5", "--method", "all", "--format", "json"]},
    {"kind": "iso", "pair": 0, "constructed": True, "argv": ["iso", "a.net", "b.net"]},
    {"kind": "paths", "argv": ["paths", "a.net"]},
    {"kind": "iso", "pair": 1, "constructed": True, "argv": ["iso", "d.net", "e.net"]},
    {"kind": "swapscript", "pair": 1, "argv": ["swapscript", "d.net", "e.net"]},
]


def run_ops(inputs: Path, ops) -> list[list]:
    sys.path.insert(0, str(HERE.parent / "src"))
    import contextlib
    import io

    from isotemporal.cli import run

    results = []
    for op in ops:
        out = io.StringIO()
        argv = [str(inputs / a) if a.endswith(".net") else a for a in op["argv"]]
        with contextlib.redirect_stdout(out):
            code = run(argv)
        results.append([0.0, code, out.getvalue(), ""])
    return results


@pytest.fixture()
def inputs(tmp_path):
    for name, text in {"a.net": CYCLE4_A, "b.net": CYCLE4_B, "d.net": DIASTER_A, "e.net": DIASTER_B}.items():
        (tmp_path / name).write_text(text)
    return tmp_path


def test_checker_accepts_the_program_answers(inputs):
    assert check_pass(OPS, run_ops(inputs, OPS), inputs) == {}


@pytest.mark.parametrize(
    "index, wrong",
    [
        (0, '{"family": "cycle:5", "counts": {"formula": null, "brute": 3, "swap": 2}, "verdict": "AGREE"}'),
        (0, '{"family": "cycle:5", "counts": {"formula": null, "brute": 4, "swap": 4}, "verdict": "AGREE"}'),
        (0, '{"family": "cycle:5", "counts": {"formula": 6, "brute": 3, "swap": 3}, "verdict": "DISAGREE"}'),
        (1, "label-isomorphic: no\ntemporally-isomorphic: no\n"),
        (1, "label-isomorphic: no\ntemporally-isomorphic: yes\nedge-bijection: 0->1 1->0 2->2 3->3\n"),
        (1, "label-isomorphic: yes\ntemporally-isomorphic: no\n"),
        (2, "1 | 0 1\n2 | 2 3\n3 | 1 2\n4 | 0 3\n1 3 | 0 1 2\n2 3 | 3 2 1\n3 2 | 1 2 3\n"),
        (2, "1 | 0 1\n2 | 2 3\n3 | 1 2\n4 | 0 3\n"),
        (4, "NOT-ISOMORPHIC\n"),
    ],
)
def test_checker_flags_a_wrong_answer(inputs, index, wrong):
    results = run_ops(inputs, OPS)
    results[index][2] = wrong
    assert index in check_pass(OPS, results, inputs)


def test_checker_flags_a_failed_exit(inputs):
    results = run_ops(inputs, OPS)
    results[0][1] = 2
    assert set(check_pass(OPS, results, inputs)) == {0}


def test_checker_flags_a_script_without_isomorphism(inputs):
    results = run_ops(inputs, OPS)
    results[3][2] = "label-isomorphic: no\ntemporally-isomorphic: no\n"
    assert set(check_pass(OPS, results, inputs)) == {3, 4}


def generate(workload: str, seed: int, out: Path) -> dict[str, bytes]:
    gen = [sys.executable, str(HERE / "gen.py"), "--workload", workload, "--seed", str(seed), "--out", str(out)]
    subprocess.run(gen, check=True, timeout=120)
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", ["corpus", "requests"])
def test_one_seed_regenerates_identical_inputs(tmp_path, workload):
    first = generate(workload, 5, tmp_path / "first")
    assert first == generate(workload, 5, tmp_path / "second")
    assert first != generate(workload, 6, tmp_path / "other")


def child_pass(inputs: Path, out: Path, traced: bool) -> dict:
    argv = [sys.executable, str(HERE / "child.py"), str(inputs), "ops/0.json", str(out / "result.json"), str(time.monotonic())]
    if traced:
        argv.append(str(out / "spans.json"))
    subprocess.run(argv, check=True, timeout=120)
    return json.loads((out / "result.json").read_text())


def test_traced_outputs_match_untraced(tmp_path):
    inputs = tmp_path / "inputs"
    generate("requests", 3, inputs)
    (tmp_path / "plain").mkdir()
    (tmp_path / "traced").mkdir()
    plain = child_pass(inputs, tmp_path / "plain", traced=False)
    traced = child_pass(inputs, tmp_path / "traced", traced=True)
    assert [r[1:] for r in plain["ops"]] == [r[1:] for r in traced["ops"]]
    assert all(r[1] == 0 for r in plain["ops"])
    trace = json.loads((tmp_path / "traced" / "spans.json").read_text())
    assert trace["missing"] == []
    names = {span[0] for span in trace["spans"]}
    assert {"cli.run", "core.parse_network", "iso.temporal_isomorphism_witness", "paths.temporal_paths"} <= names


def test_peak_rss_is_that_of_the_measured_process(inputs):
    # ru_maxrss of a child starts at its parent's peak; the child must not report that
    (inputs / "ops").mkdir()
    (inputs / "ops" / "0.json").write_text(json.dumps({"ops": OPS[:1]}))
    ballast = b"x" * (128 << 20)
    result = child_pass(inputs, inputs, traced=False)
    assert len(ballast) and result["peak_rss_mb"] < 100


@pytest.mark.xfail(strict=True, reason="count --method all prints DISAGREE on one-sided diasters (formula 6, brute 1)")
def test_one_sided_diaster_count_passes_the_checker(inputs):
    # Known defect, so diaster:0,b is not in the requests stream, where every
    # op must succeed.  Once this passes, add those specs to gen.count_specs.
    ops = [{"kind": "count", "spec": "diaster:0,5", "argv": ["count", "--family", "diaster:0,5", "--method", "all", "--format", "json"]}]
    assert check_pass(ops, run_ops(inputs, ops), inputs) == {}
