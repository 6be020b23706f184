"""The command-line surface: outputs, formats, exit codes."""

import json
import os

import pytest

from connsets.cli import main
from connsets.graphs import from_graph6


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
    _, oracle_out, _ = run(capsys, "count", "--family", "L:9")
    _, smart_out, _ = run(capsys, "count", "--family", "L:9", "--method", "smart")
    assert oracle_out == smart_out == "60\n"
    # Past the default oracle cap, both methods honour an explicit --cap.
    big = ("count", "--family", "theta:10,10,10", "--cap", "30")
    _, oracle_out, _ = run(capsys, *big)
    code, smart_out, _ = run(capsys, *big, "--method", "smart")
    assert code == 0 and oracle_out == smart_out == "5563\n"


def test_family_build_and_count(capsys):
    code, out, _ = run(capsys, "family", "L:9", "--count")
    assert code == 0
    g6, total = out.strip().splitlines()
    assert total == "60"
    assert from_graph6(g6).n == 9


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


def test_enumerate_csv(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "4", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "graph6,certificate,connected_sets,core_kind"
    assert lines[1].endswith(",14,III")
    assert lines[-1].startswith("# complete")


def test_enumerate_deterministic(capsys):
    _, first, _ = run(capsys, "enumerate", "--n", "6")
    _, second, _ = run(capsys, "enumerate", "--n", "6", "--workers", "2")
    assert first == second


def test_workers_out_of_range_rejected_before_any_work(capsys, monkeypatch):
    import connsets.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("work started before --workers was validated")

    monkeypatch.setattr(cli, "enumerate_bicyclic", refuse)
    monkeypatch.setattr(cli.verify_mod, "enumerate_bicyclic", refuse)
    monkeypatch.setattr(cli.verify_mod, "generate_bicyclic", refuse)
    monkeypatch.setattr(cli.verify_mod, "count_stream", refuse)
    for bad in ("0", "-1", str(os.cpu_count() + 1)):
        for argv in (("enumerate", "--n", "5"), ("verify", "min", "--n", "5")):
            code, out, err = run(capsys, *argv, "--workers", bad)
            assert code == 3 and out == "" and "--workers" in err, (argv, bad)


def test_nonpositive_cap_rejected_before_any_work(capsys, monkeypatch):
    import connsets.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("work started before --cap was validated")

    for name in ("_load_graph", "enumerate_bicyclic"):
        monkeypatch.setattr(cli, name, refuse)
    for name in ("enumerate_bicyclic", "generate_bicyclic", "count_stream"):
        monkeypatch.setattr(cli.verify_mod, name, refuse)
    for bad in ("0", "-5"):
        for argv in (
            ("count", "--graph6", "Bw"),
            ("enumerate", "--n", "6"),
            ("verify", "min", "--n", "6"),
            ("verify", "max", "--n", "9"),
        ):
            code, out, err = run(capsys, *argv, "--cap", bad)
            assert code == 3 and out == "" and "--cap" in err, (argv, bad)


def test_verify_output_does_not_depend_on_generation_order(capsys, monkeypatch):
    # Past the labelled sweep the corpus comes in generation order;
    # attainers and equality cases are reported in certificate order.
    import connsets.cli as cli

    real = cli.verify_mod.generate_bicyclic
    claims = ("min", "max", "vertex-bound")
    forward = [run(capsys, "verify", claim, "--n", "9") for claim in claims]
    monkeypatch.setattr(
        cli.verify_mod, "generate_bicyclic", lambda n, cap=None: reversed(list(real(n, cap)))
    )
    backward = [run(capsys, "verify", claim, "--n", "9") for claim in claims]
    assert [code for code, _, _ in forward] == [0, 0, 0]
    assert backward == forward


def test_verify_rejects_nonpositive_order_before_any_work(capsys, monkeypatch):
    import connsets.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("work started before --n was validated")

    monkeypatch.setattr(cli.verify_mod, "verify_tree_bound", refuse)
    monkeypatch.setattr(cli.verify_mod, "verify_closed_forms", refuse)
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


def test_exit_codes():
    assert main(["family", "L:4"]) == 3
    assert main(["count", "--family", "path:30"]) == 4
    assert main(["count", "--graph6", "####"]) == 5
    assert main(["count", "--file", "/nonexistent/path"]) == 5
    with pytest.raises(SystemExit) as excinfo:
        main(["count", "--graph6", "Bw", "--unknown-flag"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["nonsense"])
    assert excinfo.value.code == 2


def test_identical_invocations_identical_bytes(capsys):
    _, first, _ = run(capsys, "verify", "min", "--n", "6")
    _, second, _ = run(capsys, "verify", "min", "--n", "6")
    assert first == second
