"""The command-line surface: outputs, formats, exit codes."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from connsets import cycle_to_tadpole, subtree_to_star
from connsets.cli import main
from connsets.counting import oracle_count, oracle_count_pair, oracle_count_rooted
from connsets.families import KINDS, build, closed_form, parse_family_spec
from connsets.graphs import MAX_VERTICES, Graph, from_graph6, mask_of, to_graph6

from conftest import drop_last_core

ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_graph6(capsys):
    code, out, _ = run(capsys, "count", "--graph6", "Bw")
    assert code == 0 and out == "7\n"


def test_count_rooted_and_pair(capsys):
    code, out, _ = run(capsys, "count", "--graph6", "Bw", "--root", "0")
    assert code == 0 and out == "4\n"
    code, out, _ = run(capsys, "count", "--family", "A:4", "--pair", "0,1")
    assert code == 0 and out == "4\n"


def test_count_methods_agree(capsys):
    # The block pass counts every graph, with --cap bounding each block
    # that is not a cycle.
    expected = {
        ("L:9",): 60,
        ("theta:10,10,10", "--cap", "30"): 5563,
        ("path:60",): 1830,
        ("B:40",): 40 + 2 + 2**39,
        ("B:100",): 100 + 2 + 2**99,
        ("star:24", "--cap", "10"): 2**23 + 23,
    }
    for (spec, *cap), total in expected.items():
        code, out, err = run(capsys, "count", "--family", spec, *cap)
        assert (code, out, err) == (0, f"{total}\n", ""), spec
    code, out, _ = run(capsys, "family", "B:100", "--count")
    assert code == 0 and out.splitlines()[1] == str(100 + 2 + 2**99)
    code, out, _ = run(capsys, "family", "dumbbell:30,30,2", "--count")
    assert code == 0 and out.splitlines()[1] == "191838"


def test_count_cap_bounds_each_block_past_the_graph(capsys):
    # theta:10,10,10 is one 26-vertex block; a pendant vertex makes 27.
    theta = build(parse_family_spec("theta:10,10,10"))
    g = Graph.from_edges(27, theta.edges() + [(0, 26)])
    code, out, _ = run(capsys, "count", "--graph6", to_graph6(g), "--cap", "26")
    assert (code, out) == (0, f"{oracle_count(g, 27).total}\n")
    code, out, err = run(capsys, "count", "--graph6", to_graph6(g))
    assert (code, out) == (4, "") and "over 26 vertices exceeds the cap of 24" in err
    code, out, _ = run(capsys, "family", "theta:10,10,10", "--count", "--cap", "26")
    assert code == 0 and out.splitlines()[1] == "5563"
    # --root and --pair count with the same blocks, under the same cap.
    for flags, expected in (
        (("--root", "0"), oracle_count_rooted(g, 0, 27).value),
        (("--pair", "0,26"), oracle_count_pair(g, 0, 26, 27)),
    ):
        code, out, err = run(capsys, "count", "--graph6", to_graph6(g), *flags)
        assert (code, out) == (4, "") and "exceeds the cap of 24" in err, flags
        code, out, _ = run(capsys, "count", "--graph6", to_graph6(g), *flags, "--cap", "26")
        assert (code, out) == (0, f"{expected}\n"), flags


def test_count_root_and_pair_past_the_oracle_cap(capsys):
    for argv, expected in (
        (("--family", "path:2000", "--root", "0"), 2000),
        (("--family", "path:2000", "--pair", "0,1999"), 1),
        (("--family", "star:30", "--root", "0"), 2**29),
    ):
        assert run(capsys, "count", *argv) == (0, f"{expected}\n", ""), argv


def test_count_at_the_vertex_ceiling(capsys):
    n = MAX_VERTICES
    code, out, _ = run(capsys, "count", "--family", f"path:{n}")
    assert (code, out) == (0, f"{n * (n + 1) // 2}\n")
    spec = f"dumbbell:3,3,{n - 4}"
    code, out, _ = run(capsys, "family", spec, "--count")
    assert code == 0 and from_graph6(out.split()[0]) == build(parse_family_spec(spec))
    code, _, err = run(capsys, "count", "--family", f"path:{n + 1}")
    assert code == 3 and f"1..{n}" in err


def test_count_out_writes_the_stdout_bytes(tmp_path, capsys):
    target = tmp_path / "count.txt"
    for argv in (
        ("count", "--family", "L:9"),
        ("count", "--family", "path:30"),
        ("count", "--graph6", "Bw", "--root", "0"),
        ("family", "L:9", "--count"),
        ("enumerate", "--n", "6", "--format", "csv"),
        ("transform", "part-to-q", "--family", "typeII:3,5", "--cycle", "0,1,2", "--anchor", "0"),
        ("verify", "min", "--n", "5", "--format", "csv"),
    ):
        _, expected, _ = run(capsys, *argv)
        code, out, _ = run(capsys, *argv, "--out", str(target))
        assert code == 0 and out == "" and target.read_bytes() == expected.encode(), argv


def test_enumerate_out_holds_each_row_before_the_next_is_counted(tmp_path, capsys, monkeypatch):
    import connsets.counting as counting

    target = tmp_path / "rows.csv"
    real = counting.smart_count
    lines_written = []

    def count(g):
        lines_written.append(len(target.read_text().splitlines()))
        return real(g)

    monkeypatch.setattr(counting, "smart_count", count)
    code, out, _ = run(capsys, "enumerate", "--n", "6", "--format", "csv", "--out", str(target))
    assert (code, out) == (0, "")
    assert lines_written == list(range(1, 20))


# sha256 of stdout, pinned so that simplifications keep the same bytes.
_PINNED_STDOUT = {
    ("verify", "all"): "471d2f1869298bb21f9ee7ae76e4facaf535e04ad3e16a4e51d587be83c3deb2",
    ("verify", "all", "--format", "csv"): (
        "bdb77a0fd60d999f1e7370fa8b8df98edf2c527793ee2cbffbe811da9761b42c"
    ),
    ("enumerate", "--n", "8", "--format", "csv"): (
        "91759a82af1d525b08eb50b73158ae4f6dc8dd3e9f5cb96e0ed17809b314954e"
    ),
    # The keyed sweeps above n = 8; ``verify all`` reaches only n = 10.
    ("verify", "min", "--n", "11"): (
        "0bca3b84d62c7c5a4897ac0666bc84d8d88a63358f9e1ecb509829133621c3a7"
    ),
    ("verify", "max", "--n", "11"): (
        "28c2e0cadc34ebbd37b1060345070cfe9d5a8a0b174486c77ab8c9c9d2eb7be4"
    ),
    ("verify", "max", "--n", "12", "--cap", "12"): (
        "57240e65b211412ec6421956a5b2dca2e1dba95979b8fb701a0f690518fc2f44"
    ),
    # B13 and R13 each carry a 10-vertex star, so this sweep reads the
    # tree rows of 10 vertices, in the keyed counts and in graph_from_key.
    ("verify", "max", "--n", "13", "--cap", "13"): (
        "d2d5020b5ecbe0f4ed81f0b6dd4cb77b33b3c52774f04f760696ce156f106466"
    ),
    # The one bicyclic route above the labelled guard that ``verify all``
    # does not reach: it stops the vertex bound at n = 9.
    ("verify", "vertex-bound", "--n", "10", "--cap", "10"): (
        "d086960fc172baf08a50b39f4e177fb9eb9e67f71d4d824902d09e30dacb53f0"
    ),
    ("verify", "tree-bound", "--n", "10"): (
        "b2c0ddf5bb20b206a2434b448240e72af83df34a8e9a39f275b671085a1a5118"
    ),
    ("count", "--family", "theta:5,6,7", "--root", "4"): (
        "34f14f95d628a20e72158dab1a62b8761eee7573423dd87e317d917bf6ba29b1"
    ),
    ("count", "--family", "B:12", "--pair", "0,5"): (
        "4f71bb761ace37c88826cd8cc1c948e1cf5b5d0cd153dc651a6efdb3dfb9f2b1"
    ),
    # A 5-cycle at 2 and a tailed triangle at 3 on theta(3,3,4) at 0 and 4.
    (
        "transform", "branch-shift",
        "--left", "Dhc", "--left-vertex", "2",
        "--mid", "E]`G", "--mid-u", "0", "--mid-v", "4",
        "--right", "C{", "--right-vertex", "3",
    ): "890fb0e0b81c8471f9a077381a84113d4900bdab9d9a86c7e418e8cac5d21d0a",
    # Results that annotate_family names as R28 and B40: the canonical
    # search on these used to take seconds to minutes.
    ("transform", "part-to-q", "--family", "typeII:3,26", "--cycle", "0,1,2", "--anchor", "0"): (
        "d1cadea5a5c5e30d4a0f72c8930e501b73645c4bb6ce3f609e1b164c15a15252"
    ),
    ("transform", "subtree-to-star", "--family", "B:40", "--root", "0"): (
        "c10c2b38eac09de73d4335da5a22835602db0e534cc8f2e7da7a709166772e48"
    ),
}


@pytest.mark.parametrize("argv", list(_PINNED_STDOUT))
def test_pinned_commands_print_the_same_bytes(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, _PINNED_STDOUT[argv])


# sha256 of the help text at 80 columns, pinned so that loading each layer
# on demand keeps the same bytes, the cap's default among them.
_PINNED_HELP = {
    ("--help",): "7110153d6562cb757f4b18d31d47853af616c772f6c09a75d2495c2aca533c4b",
    ("count", "--help"): "9741339e2f32ee3706288d7e4ad23f3351c4a9777d86565c8e733e5eb92710be",
    ("verify", "--help"): "dbe509f12a056bc8ae287907bfa36715bcbd7a132638fee1f6b29ef1877f7a05",
}


@pytest.mark.parametrize("argv", list(_PINNED_HELP))
def test_help_prints_the_same_bytes(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as excinfo:
        main(list(argv))
    out = capsys.readouterr().out
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert (excinfo.value.code, digest) == (0, _PINNED_HELP[argv])
    if argv[0] == "count":
        assert "(default 24)" in out


def test_family_build_and_count(capsys):
    code, out, _ = run(capsys, "family", "L:9", "--count")
    assert code == 0
    g6, total = out.strip().splitlines()
    assert total == "60"
    assert from_graph6(g6).n == 9


# One spec per kind at a small order and one at the vertex ceiling.
_FAMILY_SPECS = {
    "path": ("path:6", "path:2000"),
    "cycle": ("cycle:6", "cycle:2000"),
    "star": ("star:6", "star:2000"),
    "tadpole": ("tadpole:6", "tadpole:2000"),
    "dumbbell": ("dumbbell:3,4,2", "dumbbell:999,999,4"),
    "typeII": ("typeII:3,4", "typeII:1000,1001"),
    "theta": ("theta:2,3,4", "theta:2,3,1999"),
    "L": ("L:6", "L:2000"),
    "A": ("A:6", "A:2000"),
    "B": ("B:6", "B:2000"),
    "R": ("R:6", "R:2000"),
    "Q": ("Q:6", "Q:2000"),
}


def test_family_count_prints_what_count_prints(capsys):
    assert set(_FAMILY_SPECS) == set(KINDS)
    cases = [(spec,) for specs in _FAMILY_SPECS.values() for spec in specs]
    cases += [("A:9", "--cap", "3"), ("E8", "--cap", "5")]
    # A 2-connected block above the cap exits 4 on both commands.
    refused = {("theta:2,3,1999",), ("A:9", "--cap", "3"), ("E8", "--cap", "5")}
    for spec, *cap in cases:
        code, out, _ = run(capsys, "family", spec, "--count", *cap)
        count_code, count_out, _ = run(capsys, "count", "--family", spec, *cap)
        assert (code, count_code) == ((4, 4) if (spec, *cap) in refused else (0, 0)), spec
        graph6 = to_graph6(build(parse_family_spec(spec))) + "\n" if code == 0 else ""
        assert out == graph6 + count_out, spec
    for kind, (_, spec) in _FAMILY_SPECS.items():
        parsed = parse_family_spec(spec)
        if closed_form(parsed) is not None:
            _, out, _ = run(capsys, "family", spec, "--count")
            assert out.splitlines()[1] == str(closed_form(parsed)), kind


def test_benchmark_workloads_print_the_pinned_bytes(capsys):
    # perfbench/expected.json pins each workload's stdout by sha256.
    workloads = {
        "min-n6": ("min", "--n", "6"),
        "min-n8-guarded": ("min", "--n", "8"),
        "max-n10": ("max", "--n", "10"),
    }
    pinned = json.loads((ROOT / "perfbench" / "expected.json").read_text())
    for name, argv in workloads.items():
        code, out, _ = run(capsys, "verify", *argv)
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert (code, digest) == (0, pinned["stdout_sha256"][name]), name


def test_verify_runs_no_labelled_backtracker(capsys, monkeypatch):
    # The n <= 8 guard is the orbit-mass check on the generated classes; the
    # labelled backtracker is only the tests' reference.  The uncached sweep
    # makes any call to it reach the patched backtracker.
    from connsets import crosscheck

    def refuse(n):
        raise AssertionError("verify ran the labelled backtracker")

    monkeypatch.setattr(crosscheck, "_connected_sweep", refuse)
    monkeypatch.setattr(crosscheck, "_swept_classes", crosscheck._swept_classes.__wrapped__)
    pinned = json.loads((ROOT / "perfbench" / "expected.json").read_text())
    code, out, _ = run(capsys, "verify", "min", "--n", "8")
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert (code, digest) == (0, pinned["stdout_sha256"]["min-n8-guarded"])


def test_graph6_help_names_file_for_graphs_past_the_argument_limit(capsys, monkeypatch):
    # Linux takes at most 131071 bytes in one argument; graph6 passes that
    # from 1255 vertices on.
    assert len(to_graph6(build(parse_family_spec("cycle:1254")))) < 131072
    assert len(to_graph6(build(parse_family_spec("cycle:1255")))) >= 131072
    monkeypatch.setenv("COLUMNS", "1000")
    with pytest.raises(SystemExit) as excinfo:
        main(["count", "--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    (line,) = [ln for ln in out.splitlines() if ln.lstrip().startswith("--graph6")]
    assert "128 KiB" in line and "1254 vertices" in line and "--file" in line


def test_exactly_one_input_source(capsys):
    code, _, err = run(capsys, "count", "--graph6", "Bw", "--family", "L:9")
    assert code == 3 and "one input source" in err
    code, _, err = run(capsys, "count")
    assert code == 3


def test_enumerate_stream_and_summary(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "# complete n=5 classes=5"
    counts = sorted(int(line.split()[1]) for line in lines[:-1])
    assert counts == [22, 22, 23, 24, 26]
    for line in lines[:-1]:
        assert from_graph6(line.split()[0]).n == 5


def test_enumerate_counts_each_row_with_the_block_pass(capsys, monkeypatch):
    import connsets.counting as counting
    import connsets.verify as verify_mod

    def refuse(*args, **kwargs):
        raise AssertionError("enumerate counted with the oracle")

    monkeypatch.setattr(verify_mod, "count_stream", refuse)
    monkeypatch.setattr(verify_mod, "oracle_count", refuse)
    monkeypatch.setattr(counting, "oracle_count", refuse)
    code, out, _ = run(capsys, "enumerate", "--n", "9")
    lines = out.splitlines()
    assert code == 0 and lines[-1] == "# complete n=9 classes=797"
    assert len(lines) == 798
    for line in lines[:-1]:
        text, count = line.split()
        assert int(count) == oracle_count(from_graph6(text)).total, text


def test_enumerate_with_a_core_missing_exits_3_and_writes_no_rows(capsys, monkeypatch):
    # The class count is checked when the generator's stream ends, before
    # the first row.
    drop_last_core(monkeypatch)
    code, out, err = run(capsys, "enumerate", "--n", "9")
    assert (code, out) == (3, "") and "OEIS A001429 has 797" in err


def test_enumerate_csv(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "4", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "graph6,certificate,connected_sets,core_kind"
    assert lines[1].endswith(",14,III")
    assert lines[-1].startswith("# complete")


def test_enumerate_deterministic(capsys):
    _, first, _ = run(capsys, "enumerate", "--n", "6")
    _, second, _ = run(capsys, "enumerate", "--n", "6")
    assert first == second


def test_workers_out_of_range_rejected_before_any_work(capsys, monkeypatch):
    # No command takes --workers: every value is a usage error.
    import connsets.enumeration as enumeration
    import connsets.verify as verify_mod

    def refuse(*args, **kwargs):
        raise AssertionError("work started before --workers was rejected")

    monkeypatch.setattr(enumeration, "enumerate_bicyclic", refuse)
    monkeypatch.setattr(verify_mod, "enumerate_bicyclic", refuse)
    monkeypatch.setattr(verify_mod, "generate_bicyclic", refuse)
    monkeypatch.setattr(verify_mod, "generate_counted_keys", refuse)
    monkeypatch.setattr(verify_mod, "count_stream", refuse)
    for command in (("verify", "min"), ("enumerate",)):
        for workers in ("0", "-1", "2", str(os.cpu_count() + 1)):
            with pytest.raises(SystemExit) as excinfo:
                main([*command, "--n", "5", "--workers", workers])
            assert excinfo.value.code == 2, (command, workers)
            out, err = capsys.readouterr()
            assert out == "" and "--workers" in err, (command, workers)


def test_nonpositive_cap_rejected_before_any_work(capsys, monkeypatch):
    import connsets.cli as cli
    import connsets.enumeration as enumeration
    import connsets.families as families
    import connsets.verify as verify_mod

    def refuse(*args, **kwargs):
        raise AssertionError("work started before --cap was validated")

    for module, name in (
        (cli, "_load_graph"),
        (families, "build"),
        (enumeration, "enumerate_bicyclic"),
    ):
        monkeypatch.setattr(module, name, refuse)
    stages = ("enumerate_bicyclic", "generate_bicyclic", "generate_counted_keys", "count_stream")
    for name in stages:
        monkeypatch.setattr(verify_mod, name, refuse)
    for bad in ("0", "-1", "-5"):
        for argv in (
            ("count", "--graph6", "Bw"),
            ("family", "theta:2,3,4", "--count"),
            ("family", "L:9", "--count"),
            ("enumerate", "--n", "6"),
            ("verify", "min", "--n", "6"),
            ("verify", "max", "--n", "9"),
        ):
            code, out, err = run(capsys, *argv, "--cap", bad)
            assert code == 3 and out == "" and "--cap must be at least 1" in err, (argv, bad)


def test_unwritable_out_rejected_before_any_work(tmp_path, capsys, monkeypatch):
    import connsets.enumeration as enumeration
    import connsets.verify as verify_mod

    def refuse(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    monkeypatch.setattr(enumeration, "enumerate_bicyclic", refuse)
    stages = ("enumerate_bicyclic", "generate_bicyclic", "generate_counted_keys", "count_stream")
    for name in stages:
        monkeypatch.setattr(verify_mod, name, refuse)
    for argv, out in (
        (("verify", "min", "--n", "12", "--cap", "12"), tmp_path),
        (("enumerate", "--n", "11"), tmp_path / "missing" / "x"),
    ):
        code, stdout, err = run(capsys, *argv, "--out", str(out))
        assert (code, stdout) == (5, "") and err.startswith("file error:"), argv
    monkeypatch.undo()
    # A sweep that stops on a cap leaves no file behind.
    target = tmp_path / "report.json"
    code, _, _ = run(capsys, "verify", "tree-bound", "--n", "9", "--cap", "8", "--out", str(target))
    assert code == 4 and not target.exists()


def test_verify_output_does_not_depend_on_generation_order(capsys, monkeypatch):
    # Past the labelled sweep the corpus comes in generation order;
    # attainers and equality cases are reported in certificate order.
    import connsets.verify as verify_mod

    real = verify_mod.generate_bicyclic
    real_keys = verify_mod.generate_counted_keys
    claims = ("min", "max", "vertex-bound")
    forward = [run(capsys, "verify", claim, "--n", "9") for claim in claims]
    monkeypatch.setattr(
        verify_mod, "generate_bicyclic", lambda n, cap=None: reversed(list(real(n, cap)))
    )
    monkeypatch.setattr(
        verify_mod,
        "generate_counted_keys",
        lambda n, cap=None: reversed(list(real_keys(n, cap))),
    )
    backward = [run(capsys, "verify", claim, "--n", "9") for claim in claims]
    assert [code for code, _, _ in forward] == [0, 0, 0]
    assert backward == forward


def test_verify_rejects_nonpositive_order_before_any_work(capsys, monkeypatch):
    import connsets.verify as verify_mod

    def refuse(*args, **kwargs):
        raise AssertionError("work started before --n was validated")

    monkeypatch.setattr(verify_mod, "verify_tree_bound", refuse)
    monkeypatch.setattr(verify_mod, "verify_closed_forms", refuse)
    for claim in ("tree-bound", "closed-forms"):
        for bad in ("-3", "0"):
            code, out, err = run(capsys, "verify", claim, "--n", bad)
            assert code == 3 and out == "" and "--n" in err, (claim, bad)


def test_verify_cap_reaches_tree_and_closed_form_sweeps(capsys):
    code, out, err = run(capsys, "verify", "tree-bound", "--n", "9", "--cap", "8")
    assert code == 4 and out == "" and "n <= 8" in err
    code, out, err = run(capsys, "verify", "closed-forms", "--n", "12", "--cap", "10")
    assert code == 4 and out == "" and "cap of 10" in err
    # Raising the cap lifts the tree sweep past its default of n <= 10.
    code, out, _ = run(capsys, "verify", "tree-bound", "--n", "11", "--cap", "11")
    assert code == 0 and json.loads(out)["status"] == "pass"


def test_transform_subcommand(capsys):
    code, out, _ = run(
        capsys,
        "transform",
        "part-to-q",
        "--family",
        "typeII:3,5",
        "--cycle",
        "0,1,2",
        "--anchor",
        "0",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["family"] == "R7"
    assert from_graph6(payload["result_graph6"]).n == 7


def test_transform_json_equals_the_library_call(capsys):
    # The two surgeries of the walkthrough demo, through the CLI.
    def payload(outcome):
        return {
            "result_graph6": to_graph6(outcome.result),
            "predicted_delta": outcome.predicted_delta,
            "applied": outcome.applied,
            "family": outcome.family_name,
        }

    g = build(parse_family_spec("typeII:4,4"))
    code, out, _ = run(
        capsys, "transform", "cycle-to-tadpole", "--family", "typeII:4,4",
        "--cycle", "0,4,5,6", "--anchor", "0",
    )
    assert code == 0
    assert json.loads(out) == payload(cycle_to_tadpole(g, mask_of([0, 4, 5, 6]), 0))
    g = Graph.from_edges(
        8, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4), (4, 5), (5, 6), (6, 7)]
    )
    code, out, _ = run(
        capsys, "transform", "subtree-to-star", "--graph6", to_graph6(g), "--root", "4"
    )
    assert code == 0 and json.loads(out) == payload(subtree_to_star(g, 4))


def test_transform_needs_site(capsys):
    code, _, err = run(capsys, "transform", "cycle-to-tadpole", "--family", "typeII:3,4")
    assert code == 3 and "--cycle" in err


def test_transform_branch_shift(capsys):
    code, out, _ = run(
        capsys,
        "transform",
        "branch-shift",
        "--left", "A_", "--left-vertex", "0",
        "--mid", "Bg", "--mid-u", "0", "--mid-v", "2",
        "--right", "A_", "--right-vertex", "0",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["delta_left"] == 2
    assert from_graph6(payload["apart_graph6"]).n == 5


def test_transform_branch_shift_past_the_oracle_cap(capsys):
    # A 30-vertex path as the left part: the deltas are oracle differences
    # taken with the cap raised to the glued order.
    left, middle, right = Graph.from_edges(30, [(i, i + 1) for i in range(29)]), "Bg", "A_"
    code, out, _ = run(
        capsys,
        "transform",
        "branch-shift",
        "--left", to_graph6(left), "--left-vertex", "3",
        "--mid", middle, "--mid-u", "0", "--mid-v", "2",
        "--right", right, "--right-vertex", "0",
    )
    assert code == 0
    payload = json.loads(out)
    n = 30 + 3 + 2 - 2
    base = oracle_count(from_graph6(payload["apart_graph6"]), n).total
    for side in ("left", "right"):
        glued = from_graph6(payload[f"{side}_graph6"])
        assert payload[f"delta_{side}"] == oracle_count(glued, n).total - base, side


def test_verify_json_and_exit(capsys):
    code, out, _ = run(capsys, "verify", "min", "--n", "5")
    assert code == 0
    payload = json.loads(out.strip())
    assert payload["status"] == "pass" and payload["observed"]["min"] == 22


def test_verify_csv(capsys):
    code, out, _ = run(capsys, "verify", "closed-forms", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("claim,")
    assert lines[1].startswith("closed_forms,")


def test_files_round_trip(tmp_path, capsys):
    target = tmp_path / "graphs.txt"
    code, _, _ = run(capsys, "enumerate", "--n", "5", "--out", str(target))
    assert code == 0
    lines = target.read_text().strip().splitlines()
    assert lines[-1].startswith("# complete")
    first_graph6 = lines[0].split()[0]
    code, out, _ = run(capsys, "count", "--graph6", first_graph6)
    assert code == 0 and int(out) > 0

    edge_file = tmp_path / "tri.txt"
    edge_file.write_text("3 3\n0 1\n1 2\n0 2\n")
    code, out, _ = run(capsys, "count", "--file", str(edge_file))
    assert code == 0 and out == "7\n"

    g6_file = tmp_path / "g.g6"
    g6_file.write_text("Bw\n")
    code, out, _ = run(capsys, "count", "--file", str(g6_file))
    assert code == 0 and out == "7\n"


def test_exit_codes(tmp_path, capsys):
    assert main(["family", "L:4"]) == 3
    assert main(["count", "--family", "theta:10,10,10"]) == 4
    # Out-of-range surgery sites are contract violations, not tracebacks.
    for surgery, family, cycle, anchor in (
        ("cycle-to-tadpole", "cycle:5", "0,1,2,3,4,5", "0"),
        ("part-to-q", "typeII:3,6", "0,1,2,9", "0"),
        ("cycle-to-tadpole", "cycle:5", "0,1,2,3,4", "-1"),
    ):
        args = ["transform", surgery, "--family", family, "--cycle", cycle]
        assert main([*args, "--anchor", anchor]) == 3
    # A negative --cycle id is out of range too; only a non-integer is malformed.
    args = ("transform", "cycle-to-tadpole", "--family", "cycle:5", "--anchor", "0")
    code, _, err = run(capsys, *args, "--cycle=-1,0,1,2,3")
    assert code == 3 and "vertex -1 out of range for n=5" in err
    assert run(capsys, *args, "--cycle", "0,1,x")[0] == 5
    assert main(["count", "--graph6", "####"]) == 5
    assert main(["count", "--family", "A:4", "--pair", "0"]) == 5
    assert main(["count", "--file", "/nonexistent/path"]) == 5
    # File errors are malformed input, never a failed verification.
    not_utf8 = tmp_path / "latin1.g6"
    not_utf8.write_bytes(b"B\xe9\n")
    assert main(["count", "--file", str(not_utf8)]) == 5
    assert main(["count", "--file", str(tmp_path)]) == 5
    assert main(["verify", "min", "--n", "5", "--out", str(tmp_path)]) == 5
    assert main(["enumerate", "--n", "5", "--out", str(tmp_path)]) == 5
    with pytest.raises(SystemExit) as excinfo:
        main(["count", "--graph6", "Bw", "--unknown-flag"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["nonsense"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["count", "--family", "L:9", "--method", "smart"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        ("family Q:2", "Q needs n >= 3, got n=2"),
        ("family theta:3,2,2", "theta needs 2 <= a <= b <= c, got (3, 2, 2)"),
        ("family theta:2,3", "theta takes 3 parameter(s), got 2"),
        ("count --family cycle:3 --cap 0", "--cap must be at least 1, got 0"),
        ("verify min --n 0", "--n must be at least 1, got 0"),
        (
            "transform cycle-to-tadpole --family cycle:3 --cycle 0,1,2 --anchor 0",
            "cycle must have at least 4 vertices, got 3",
        ),
        (
            "transform part-to-q --family typeII:3,3 --cycle 0,1,2 --anchor 0",
            "the replaced part must have at least 5 vertices, got 3",
        ),
    ],
)
def test_parameter_bounds_are_invalid_requests(capsys, argv, message):
    # Each bound on a family, surgery or flag parameter exits 3 with one
    # stderr line and nothing on stdout.
    assert run(capsys, *argv.split()) == (3, "", f"invalid request: {message}\n")


def test_oversized_family_spec_is_refused_before_the_graph_is_built(capsys):
    # No parameter exceeds the order it builds, so the spec itself refuses
    # one above MAX_VERTICES, with no edge listed.
    from connsets import ContractViolationError
    from connsets.families import FamilySpec

    with pytest.raises(ContractViolationError, match=f"path needs n in 1..{MAX_VERTICES}"):
        FamilySpec("path", (3_000_000,))
    code, out, err = run(capsys, "family", "star:3000000")
    assert (code, out) == (3, "") and f"star needs n in 1..{MAX_VERTICES}" in err


def test_repeated_edge_in_a_file_is_malformed(tmp_path, capsys):
    edge_file = tmp_path / "twice.txt"
    edge_file.write_text("2 2\n0 1\n1 0\n")
    code, out, err = run(capsys, "count", "--file", str(edge_file))
    assert (code, out) == (5, "") and "repeated edge line '1 0'" in err


def test_failed_verify_exits_1_and_names_the_claim(capsys, monkeypatch):
    # The runner-up lowered by one, as in the report-level test.
    import connsets.verify as verify_mod

    real = verify_mod._checked_counts

    def lowered(n, cap):
        classes, groups = real(n, cap)
        second = sorted(groups)[-2]
        groups[second - 1] = groups.pop(second)
        return classes, groups

    monkeypatch.setattr(verify_mod, "_checked_counts", lowered)
    code, out, err = run(capsys, "verify", "max", "--n", "8")
    assert code == 1 and json.loads(out)["status"] == "fail"
    assert "FAILED: maximum at n=8" in err


def test_identical_invocations_identical_bytes(capsys):
    _, first, _ = run(capsys, "verify", "min", "--n", "6")
    _, second, _ = run(capsys, "verify", "min", "--n", "6")
    assert first == second


def test_cli_import_keeps_numpy_out():
    # The benchmark's setup time is this import and ``build_parser()``, which
    # load no layer (see tests/test_package.py) and so no numpy.
    probe = "import sys, connsets.cli; sys.exit('numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True)
    assert proc.returncode == 0, proc.stderr


def test_verify_above_the_guard_keeps_numpy_out():
    # Above LABELLED_GUARD_N the labelled guard does not run, so neither it
    # nor numpy is imported, on any route through the generator.
    probe = (
        "import contextlib, io, sys\n"
        "from connsets.cli import main\n"
        "commands = (['verify', 'max', '--n', '9'], ['verify', 'vertex-bound', '--n', '9'],\n"
        "            ['enumerate', '--n', '9'])\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(argv) for argv in commands]\n"
        "print(codes, sorted({'numpy', 'connsets.crosscheck'} & set(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[0, 0, 0] []\n"


def test_labelled_guard_runs_without_numpy():
    # At n = 8 the labelled guard runs, in pure Python.
    probe = (
        "import contextlib, io, sys\n"
        "from connsets.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['verify', 'min', '--n', '8'])\n"
        "print(code, sorted({'numpy', 'connsets.crosscheck'} & set(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 ['connsets.crosscheck']\n"
