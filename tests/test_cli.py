"""Edge-list parsing, JSON output, exit codes, and the reduce emitter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import subcomp
import subcomp.cli as cli
from subcomp.cli import (
    MAX_VERTICES,
    GraphParseError,
    main,
    parse_graph,
    write_graph,
)
from subcomp.families import cycle, gnp, path, star
from subcomp.graph import Graph
from subcomp.oracle import SolveOutcome


class TestParse:
    def test_path(self):
        assert parse_graph("3 2\n0 1\n1 2\n") == path(3)

    def test_normalizes_endpoints(self):
        g = parse_graph("2 1\n1 0\n")
        assert g.edges() == [(0, 1)]

    def test_out_of_range_names_line(self):
        with pytest.raises(GraphParseError, match="line 2"):
            parse_graph("2 1\n0 2\n")

    def test_comments_and_blanks_ignored(self):
        text = "# generated\n\n3 1\n# the only edge\n0 2\n\n"
        assert parse_graph(text) == Graph(3, [(0, 2)])

    def test_malformed_header(self):
        with pytest.raises(GraphParseError, match="line 1"):
            parse_graph("3\n")
        with pytest.raises(GraphParseError, match="line 1"):
            parse_graph("a b\n0 1\n")

    def test_missing_header(self):
        with pytest.raises(GraphParseError, match="header"):
            parse_graph("# nothing here\n")

    def test_self_loop(self):
        with pytest.raises(GraphParseError, match="self-loop"):
            parse_graph("3 1\n1 1\n")

    def test_duplicate_edge(self):
        with pytest.raises(GraphParseError, match="duplicate"):
            parse_graph("3 2\n0 1\n1 0\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(GraphParseError, match="declared 2"):
            parse_graph("3 2\n0 1\n")
        with pytest.raises(GraphParseError, match="more than"):
            parse_graph("3 1\n0 1\n1 2\n")

    def test_negative_header(self):
        with pytest.raises(GraphParseError, match="non-negative"):
            parse_graph("-1 0\n")

    def test_vertex_limit(self):
        assert parse_graph(f"{MAX_VERTICES} 0\n").n == MAX_VERTICES
        with pytest.raises(GraphParseError, match="line 1: .* exceed the limit"):
            parse_graph(f"{MAX_VERTICES + 1} 0\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("3\n", "line 1: expected header 'n m', got '3'"),
            ("# c\n3 x\n", "line 2: expected header 'n m', got '3 x'"),
            ("-1 0\n", "line 1: header values must be non-negative"),
            ("3 -2\n", "line 1: header values must be non-negative"),
            (
                f"{MAX_VERTICES + 1} 0\n",
                f"line 1: {MAX_VERTICES + 1} vertices exceed the limit of "
                f"{MAX_VERTICES}",
            ),
            ("3 1\n0 1 2\n", "line 2: expected edge 'u v', got '0 1 2'"),
            ("3 1\n0 b\n", "line 2: expected edge 'u v', got '0 b'"),
            ("3 1\n1 1\n", "line 2: self-loop at vertex 1"),
            ("3 1\n0 3\n", "line 2: endpoint out of range 0..2"),
            ("3 1\n-1 2\n", "line 2: endpoint out of range 0..2"),
            ("3 2\n0 1\n\n1 0\n", "line 4: duplicate edge 0 1"),
            ("4 3\n2 3\n1 3\n3 2\n", "line 4: duplicate edge 2 3"),
            ("3 1\n0 1\n1 2\n", "line 3: more than the declared 1 edges"),
            ("3 2\n0 1\n# end\n", "line 3: declared 2 edges but found 1"),
            ("3 1 2\n", "line 1: expected header 'n m', got '3 1 2'"),
            ("3 1\n0\n", "line 2: expected edge 'u v', got '0'"),
            # The edge count is checked before the line's grammar.
            ("3 1\n0 1\nx\n", "line 3: more than the declared 1 edges"),
            ("0 0\n0 1\n", "line 2: more than the declared 0 edges"),
            ("", "line 1: missing header 'n m'"),
            ("# nothing\n\n", "line 1: missing header 'n m'"),
        ],
    )
    def test_error_messages(self, text, message):
        # The full texts, line numbers included, as the parser gave them
        # when it still collected an edge list and a set of seen pairs.
        with pytest.raises(GraphParseError) as info:
            parse_graph(text)
        assert str(info.value) == message

    def test_survives_a_plain_function_as_graph(self, monkeypatch, c5_file):
        # The benchmark tracer replaces subcomp.cli.Graph with a plain
        # function; parsing must not reach the class through that name.
        monkeypatch.setattr("subcomp.cli.Graph", lambda *a, **kw: Graph(*a, **kw))
        assert parse_graph("3 2\n0 1\n1 2\n") == path(3)
        assert main(["regular", "--k", "2", c5_file]) == 0


class TestWrite:
    def test_path(self):
        assert write_graph(path(3)) == "3 2\n0 1\n1 2\n"

    def test_empty(self):
        assert write_graph(Graph(4, [])) == "4 0\n"

    def test_roundtrip_large(self):
        n = 2000
        g = Graph(n, [(v, (v + d) % n) for v in range(n) for d in (1, 2)])
        assert g.degrees() == (4,) * n
        back = parse_graph(write_graph(g))
        assert back == g
        assert back.m == g.m == 2 * n

    def test_roundtrip_random(self):
        for seed in range(100):
            g = gnp(9, (seed % 3 + 1) * 0.25, seed=seed)
            text = write_graph(g)
            assert parse_graph(text) == g
            assert write_graph(parse_graph(text)) == text


def run_cli(capsys, argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(argv)
    out = capsys.readouterr()
    payload = json.loads(out.out) if out.out.strip() else None
    return code, payload, out.err


@pytest.fixture
def c5_file(tmp_path):
    target = tmp_path / "c5.graph"
    target.write_text(write_graph(cycle(5)))
    return str(target)


class TestSubcommands:
    def test_regular_yes(self, capsys, c5_file):
        code, payload, _ = run_cli(capsys, ["regular", "--k", "2", c5_file])
        assert code == 0
        assert payload == {
            "answer": "yes",
            "target": {"k": 2, "kind": "regular"},
            "witness": [],
        }

    def test_maxdeg_no_with_stats(self, capsys, c5_file):
        code, payload, _ = run_cli(
            capsys, ["maxdeg", "--k", "1", "--stats", c5_file]
        )
        assert code == 1
        assert payload["answer"] == "no"
        assert payload["witness"] is None
        assert payload["stats"]["nodes"] >= 1

    def test_mindeg(self, capsys, c5_file):
        code, payload, _ = run_cli(capsys, ["mindeg", "--k", "3", c5_file])
        assert payload["target"] == {"k": 3, "kind": "mindeg"}
        assert (code == 0) == (payload["answer"] == "yes")
        assert "stats" not in payload

    @pytest.mark.parametrize("k", [0, 3, 4, 8])
    def test_mindeg_stats_match_dual_maxdeg(self, capsys, tmp_path, k):
        # k = 0 and k > n - 1 are answered without a search, at one node
        g = gnp(8, 0.5, 4)
        own, dual = tmp_path / "g.graph", tmp_path / "co.graph"
        own.write_text(write_graph(g))
        dual.write_text(write_graph(g.complement()))
        code, payload, _ = run_cli(
            capsys, ["mindeg", "--k", str(k), "--stats", str(own)]
        )
        if 0 < k <= g.n - 1:
            twin = run_cli(
                capsys, ["maxdeg", "--k", str(g.n - 1 - k), "--stats", str(dual)]
            )
            assert code == twin[0]
            assert payload["witness"] == twin[1]["witness"]
            assert payload["stats"] == twin[1]["stats"]
        else:
            assert payload["stats"] == {
                "max_depth": 0,
                "nodes": 1,
                "pruned_by_maxdeg": 0,
                "pruned_by_size": 0,
                "pruned_by_slack": 0,
            }

    def test_stdin_default(self, capsys, monkeypatch):
        code, payload, _ = run_cli(
            capsys,
            ["regular", "--k", "2"],
            stdin_text=write_graph(cycle(5)),
            monkeypatch=monkeypatch,
        )
        assert code == 0 and payload["answer"] == "yes"

    def test_approx(self, capsys, c5_file):
        # no single complementation lowers the max degree of this cycle, so
        # the sweep falls back to the empty set at the first k with 3k >= 2
        code, payload, _ = run_cli(capsys, ["approx-maxdeg", c5_file])
        assert code == 0
        assert payload == {
            "achieved_max_degree": 2,
            "lower_bound_k": 1,
            "witness": [],
        }

    def test_approx_bytes(self, capsys, c5_file):
        assert main(["approx-maxdeg", c5_file]) == 0
        assert capsys.readouterr().out == (
            '{"achieved_max_degree": 2, "lower_bound_k": 1, "witness": []}\n'
        )

    def test_brute_and_cap(self, capsys, c5_file):
        code, payload, _ = run_cli(
            capsys, ["brute", "--target", "regular", "--k", "2", c5_file]
        )
        assert code == 0 and payload["witness"] == []
        code, payload, err = run_cli(
            capsys,
            ["brute", "--target", "regular", "--k", "2", "--cap", "3", c5_file],
        )
        assert code == 3
        assert payload is None
        assert "capacity" in err

    def test_verify(self, capsys, c5_file):
        code, payload, _ = run_cli(
            capsys,
            ["verify", "--target", "regular", "--k", "2", "--set", "", c5_file],
        )
        assert code == 0 and payload["witness"] == []
        code, payload, _ = run_cli(
            capsys,
            ["verify", "--target", "maxdeg", "--k", "1", "--set", "0,1", c5_file],
        )
        assert code == 1 and payload["answer"] == "no"

    def test_verify_accepts_solver_witness(self, capsys, tmp_path):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (0, 3)])
        target = tmp_path / "g.graph"
        target.write_text(write_graph(g))
        code, payload, _ = run_cli(capsys, ["regular", "--k", "2", str(target)])
        assert code == 0
        witness = ",".join(str(v) for v in payload["witness"])
        code, payload, _ = run_cli(
            capsys,
            ["verify", "--target", "regular", "--k", "2", "--set", witness,
             str(target)],
        )
        assert code == 0

    def test_exit_code_matches_answer(self, capsys, c5_file):
        for k, expected in (("2", 0), ("1", 1)):
            code, payload, _ = run_cli(capsys, ["maxdeg", "--k", k, c5_file])
            assert code == expected
            assert (payload["answer"] == "yes") == (code == 0)

    def test_determinism(self, capsys, c5_file):
        outputs = set()
        for _ in range(3):
            main(["regular", "--k", "2", "--stats", c5_file])
            outputs.add(capsys.readouterr().out)
        assert len(outputs) == 1


class TestParserReuse:
    @pytest.mark.parametrize(
        "which, code", [(0, 2), (1, 0), (2, 0)], ids=["usage-error", "help", "valid"]
    )
    def test_third_call_matches_first(self, capsys, c5_file, which, code):
        calls = [["maxdeg", c5_file], ["--help"], ["regular", "--k", "2", c5_file]]
        cli._parser.cache_clear()  # the next call builds the parser anew
        first = (main(calls[which]), capsys.readouterr())
        assert first[0] == code
        for argv in calls[:which] + calls[which + 1 :]:
            main(argv)
        capsys.readouterr()
        assert (main(calls[which]), capsys.readouterr()) == first

    def test_solver_patch_after_first_call(self, capsys, c5_file, monkeypatch):
        assert main(["regular", "--k", "2", c5_file]) == 0
        capsys.readouterr()
        monkeypatch.setattr(
            "subcomp.cli.solve_k_regular",
            lambda g, k: SolveOutcome(False, None, 1),
        )
        code, payload, _ = run_cli(capsys, ["regular", "--k", "2", c5_file])
        assert code == 1 and payload["answer"] == "no"


class TestErrors:
    def test_missing_file(self, capsys):
        code, payload, err = run_cli(capsys, ["maxdeg", "--k", "1", "/no/such"])
        assert code == 2 and "error" in err

    def test_malformed_input(self, capsys, tmp_path):
        bad = tmp_path / "bad.graph"
        bad.write_text("2 1\n0 2\n")
        code, _, err = run_cli(capsys, ["maxdeg", "--k", "1", str(bad)])
        assert code == 2 and "line 2" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["maxdeg", "--k", "1"],
            ["brute", "--target", "maxdeg", "--k", "1"],
            ["approx-maxdeg"],
            ["reduce", "--k", "2", "--out", "gadget"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_undecodable_file(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)  # reduce would write its gadget here
        Path("bad.graph").write_bytes(b"3 1\n0 1\n\xff\n")
        code = main(argv + ["bad.graph"])
        out = capsys.readouterr()
        assert code == 2 and out.out == "" and out.err.startswith("error:")

    def test_header_over_vertex_limit(self, capsys, tmp_path):
        big = tmp_path / "big.graph"
        big.write_text(f"{MAX_VERTICES + 1} 0\n")
        code, payload, err = run_cli(capsys, ["maxdeg", "--k", "1", str(big)])
        assert code == 2 and payload is None and "line 1" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["maxdeg"],
            ["mindeg"],
            ["regular"],
            ["brute", "--target", "maxdeg"],
            ["verify", "--target", "maxdeg", "--set", "0"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_negative_k(self, capsys, c5_file, argv):
        code, payload, err = run_cli(capsys, argv + ["--k", "-1", c5_file])
        assert code == 2 and payload is None and "non-negative" in err

    def test_bad_set(self, capsys, c5_file):
        code, _, err = run_cli(
            capsys,
            ["verify", "--target", "maxdeg", "--k", "1", "--set", "0,x", c5_file],
        )
        assert code == 2 and "--set" in err

    def test_usage_error(self, capsys, c5_file):
        assert main(["maxdeg", c5_file]) == 2  # --k missing
        capsys.readouterr()

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "solver, command",
        [
            ("solve_max_deg_le", "maxdeg"),
            ("solve_min_deg_ge", "mindeg"),
            ("solve_k_regular", "regular"),
        ],
    )
    def test_internal_error_is_not_no(
        self, capsys, c5_file, monkeypatch, solver, command
    ):
        # The CLI must look its solvers up when called: a table captured at
        # import would miss this patch and answer instead of exiting 4.
        def crash(g, k):
            raise RuntimeError("solver bug")

        monkeypatch.setattr(f"subcomp.cli.{solver}", crash)
        code, payload, err = run_cli(capsys, [command, "--k", "1", c5_file])
        assert code == 4 and payload is None
        assert "internal error" in err and "solver bug" in err


# The sidecar of `reduce --k 2` on C4, byte for byte.
SIDECAR_C4_K2 = """\
{
  "blocks": {
    "Ka:4": [
      11,
      14
    ],
    "Ka:5": [
      14,
      17
    ],
    "Ka:6": [
      17,
      20
    ],
    "Kb:10": [
      29,
      32
    ],
    "Kb:7": [
      20,
      23
    ],
    "Kb:8": [
      23,
      26
    ],
    "Kb:9": [
      26,
      29
    ],
    "Ks": [
      7,
      11
    ],
    "Kt": [
      4,
      7
    ],
    "source": [
      0,
      4
    ]
  },
  "k_prime": 5,
  "params": {
    "a": 3,
    "b": 3,
    "k": 2,
    "n": 4,
    "r": 2,
    "s": 4,
    "t": 3
  }
}
"""


class TestReduce:
    def test_writes_gadget(self, capsys, tmp_path):
        src = tmp_path / "c4.graph"
        src.write_text(write_graph(cycle(4)))
        prefix = str(tmp_path / "out")
        code, payload, _ = run_cli(
            capsys, ["reduce", "--k", "2", "--out", prefix, str(src)]
        )
        assert code == 0
        assert payload["k_prime"] == 5 and payload["vertices"] == 32
        gadget = parse_graph((tmp_path / "out.graph").read_text())
        assert gadget.n == 32
        sidecar = json.loads((tmp_path / "out.blocks.json").read_text())
        assert sidecar["k_prime"] == 5
        assert sidecar["blocks"]["source"] == [0, 4]
        assert sidecar["params"]["t"] == 3
        spans = sorted(tuple(v) for v in sidecar["blocks"].values())
        covered = sorted(x for lo, hi in spans for x in range(lo, hi))
        assert covered == list(range(32))

    def test_sidecar_bytes(self, capsys, tmp_path):
        src = tmp_path / "c4.graph"
        src.write_text(write_graph(cycle(4)))
        prefix = str(tmp_path / "out")
        assert main(["reduce", "--k", "2", "--out", prefix, str(src)]) == 0
        assert (tmp_path / "out.blocks.json").read_text() == SIDECAR_C4_K2

    def test_trivially_no(self, capsys, tmp_path):
        src = tmp_path / "c5.graph"
        src.write_text(write_graph(cycle(5)))
        code, payload, _ = run_cli(
            capsys, ["reduce", "--k", "4", "--out", str(tmp_path / "x"), str(src)]
        )
        assert code == 1 and payload["answer"] == "no"
        assert not (tmp_path / "x.graph").exists()

    def test_irregular_source(self, capsys, tmp_path):
        src = tmp_path / "star.graph"
        src.write_text(write_graph(star(3)))
        code, _, err = run_cli(
            capsys, ["reduce", "--k", "2", "--out", str(tmp_path / "x"), str(src)]
        )
        assert code == 2 and "not regular" in err

    def test_gadget_over_vertex_limit(self, capsys, tmp_path):
        src = tmp_path / "c180.graph"
        src.write_text(write_graph(cycle(180)))
        code, payload, err = run_cli(
            capsys, ["reduce", "--k", "3", "--out", str(tmp_path / "x"), str(src)]
        )
        assert code == 2 and payload is None
        assert f"more than {MAX_VERTICES}" in err
        assert not (tmp_path / "x.graph").exists()


def test_console_script_smoke(tmp_path):
    target = tmp_path / "c5.graph"
    target.write_text(write_graph(cycle(5)))
    # the child imports the same package as this process, installed or not
    src = str(Path(subcomp.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "subcomp", "regular", "--k", "2", str(target)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["answer"] == "yes"
