"""Command-line surface: routing, exit codes, formats, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from stardecomp.cli import _build_parser, dispatch
from stardecomp.graph import read_graph, reject_to_simple, write_graph


@pytest.fixture
def cubic_graph_file(tmp_path):
    path = tmp_path / "g.txt"
    write_graph(path, reject_to_simple(8, 3, seed=0))
    return str(path)


def run(capsys, argv):
    code = dispatch(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRouting:
    def test_usage_error_exit_2(self, capsys, monkeypatch):
        code, _, _ = run(capsys, ["no-such-command"])
        assert code == 2
        code, _, _ = run(capsys, ["strong"])  # missing required flags
        assert code == 2
        # no subcommand takes --threads
        code, _, _ = run(capsys, ["strong", "--d", "20", "--k", "6", "--threads", "2"])
        assert code == 2
        code, _, _ = run(capsys, ["ksc", "--d", "16", "--threads", "2"])
        assert code == 2
        # trial counts that cannot give an estimate
        for fmt in ("text", "json"):
            code, _, err = run(capsys, ["trials", "--d", "4", "--k", "2", "--n", "10",
                                        "--trials", "0", "--format", fmt])
            assert code == 2 and "--trials >= 1" in err
        # only gen and trials take --seed; pmr is exact and takes no
        # --trials; only ksc, weak-cert and bounds-curve write csv; gen
        # writes its graph format only
        pmr = ["pmr", "--n", "4", "--d", "3", "--m", "2", "--inside", "1"]
        for argv in (["strong", "--d", "20", "--k", "6", "--seed", "1"],
                     pmr + ["--seed", "1"], pmr + ["--trials", "5"],
                     ["strong", "--d", "20", "--k", "6", "--format", "csv"],
                     ["gen", "--n", "6", "--d", "3", "--format", "json"]):
            code, _, _ = run(capsys, argv)
            assert code == 2, argv
        # an invalid STARDECOMP_SEED is a usage error where a seed is read
        monkeypatch.setenv("STARDECOMP_SEED", "abc")
        code, _, err = run(capsys, ["gen", "--n", "6", "--d", "3"])
        assert code == 2 and "invalid int value: 'abc'" in err
        code, _, _ = run(capsys, ["strong", "--d", "20", "--k", "6"])
        assert code == 0

    def test_messages_match_full_parser(self, capsys):
        # dispatch builds only the named subparser; help and usage errors
        # must read as those of the parser of every subcommand.
        for argv in ([], ["--help"], ["-h"], ["no-such-command"], ["ksc", "--help"],
                     ["ksc"], ["ksc", "--d", "16", "--bogus"], ["gen", "--n", "x", "--d", "3"],
                     ["strong", "--d", "20", "--k", "6", "--format", "csv"],
                     ["trials", "--help"], ["weak-cert", "--d", "20", "extra"]):
            code, out, err = run(capsys, argv)
            with pytest.raises(SystemExit) as exc:
                _build_parser().parse_args(argv)
            full = capsys.readouterr()
            assert (code, out, err) == (int(exc.value.code or 0), full.out, full.err), argv
        _, _, err = run(capsys, ["ksc", "--d", "16", "--bogus"])
        assert "{gen,decompose,verify," in err and err.endswith("arguments: --bogus\n")

    def test_seed_env_read_per_call(self, capsys, monkeypatch):
        outs = []
        for seed in ("1", "2"):
            monkeypatch.setenv("STARDECOMP_SEED", seed)
            code, out, _ = run(capsys, ["gen", "--n", "12", "--d", "3"])
            assert code == 0
            assert out == run(capsys, ["gen", "--n", "12", "--d", "3", "--seed", seed])[1]
            outs.append(out)
        assert outs[0] != outs[1]

    def test_domain_error_exit_1(self, capsys):
        code, _, err = run(capsys, ["strong", "--d", "10", "--k", "6"])
        assert code == 1
        assert "error" in err


class TestGenDecomposeVerify:
    def test_round_trip(self, tmp_path, capsys):
        g = str(tmp_path / "g.txt")
        dec = str(tmp_path / "dec.txt")
        assert dispatch(["gen", "--n", "10", "--d", "4", "--seed", "7", "-o", g]) == 0
        G = read_graph(g)
        assert (G.N, G.d) == (10, 4)
        assert dispatch(["decompose", "--graph", g, "--k", "2", "-o", dec]) == 0
        code, out, _ = run(capsys, ["verify", "--graph", g, "--k", "2",
                                    "--decomposition", dec])
        assert code == 0
        assert "valid" in out

    def test_gen_deterministic(self, tmp_path):
        a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
        dispatch(["gen", "--n", "12", "--d", "3", "--seed", "9", "-o", a])
        dispatch(["gen", "--n", "12", "--d", "3", "--seed", "9", "-o", b])
        assert read_graph(a).edges == read_graph(b).edges

    def test_gen_stdout_is_the_file_format(self, tmp_path, capsys):
        g = tmp_path / "g.txt"
        for sampler, d, seed in (("reject", 3, 1), ("restart", 10, 2)):
            argv = ["gen", "--n", "12", "--d", str(d), "--seed", str(seed), "--sampler", sampler]
            code, out, _ = run(capsys, argv)
            assert code == 0 and dispatch(argv + ["-o", str(g)]) == 0
            assert out.encode() == g.read_bytes()

    def test_gen_nonpositive_degree_exit_1(self, tmp_path, capsys):
        g = tmp_path / "g.txt"
        for d in ("-2", "-1", "0"):
            code, _, err = run(capsys, ["gen", "--n", "6", "--d", d, "--sampler", "restart",
                                        "-o", str(g)])
            assert code == 1
            assert "need N > d >= 1" in err
        assert not g.exists()

    def test_verify_rejects_corrupted(self, tmp_path, capsys):
        g = str(tmp_path / "g.txt")
        dec = str(tmp_path / "dec.txt")
        dispatch(["gen", "--n", "10", "--d", "4", "--seed", "7", "-o", g])
        dispatch(["decompose", "--graph", g, "--k", "2", "-o", dec])
        lines = open(dec).read().splitlines()
        open(dec, "w").write("\n".join(lines[1:]) + "\n")  # drop one star
        code, out, _ = run(capsys, ["verify", "--graph", g, "--k", "2",
                                    "--decomposition", dec])
        assert code == 1
        assert "invalid" in out

    def test_verify_center_out_of_range(self, tmp_path, capsys):
        g = str(tmp_path / "g.txt")
        dec = tmp_path / "dec.txt"
        dispatch(["gen", "--n", "10", "--d", "4", "--seed", "7", "-o", g])
        dispatch(["decompose", "--graph", g, "--k", "2", "-o", str(dec)])
        lines = dec.read_text().splitlines()
        for center in ("0", "11"):  # 1-based ids
            dec.write_text("\n".join([center + lines[0][lines[0].index(":"):]] + lines[1:]))
            code, out, _ = run(capsys, ["verify", "--graph", g, "--k", "2",
                                        "--decomposition", str(dec)])
            assert (code, out) == (1, "invalid: star center out of range\n")
        dec.write_text("1: 1 99999999999999999999\n")
        code, _, err = run(capsys, ["verify", "--graph", g, "--k", "2", "--decomposition", str(dec)])
        assert code == 1 and "64 bits" in err

    def test_default_A_is_first_vertices(self, tmp_path, capsys):
        # d = 10, k = 3: s = 1, r = 4, so A is the first 60*4/6 = 40 vertices
        g = str(tmp_path / "g.txt")
        a = str(tmp_path / "a.txt")
        dispatch(["gen", "--n", "60", "--d", "10", "--seed", "4", "-o", g])
        open(a, "w").write("".join(f"{v}\n" for v in range(1, 41)))
        code, default, _ = run(capsys, ["decompose", "--graph", g, "--k", "3"])
        assert code == 0
        code, explicit, _ = run(capsys, ["decompose", "--graph", g, "--k", "3", "--A", a])
        assert code == 0
        assert default == explicit
        assert sum(1 for line in default.splitlines() if line.startswith("1:")) == 2

    def test_decompose_witness_exit_1(self, tmp_path, capsys):
        # C6 with k=3 and the single star forced onto vertex 1
        g = str(tmp_path / "g.txt")
        a = str(tmp_path / "a.txt")
        open(g, "w").write("6 2\n1 2\n2 3\n3 4\n4 5\n5 6\n1 6\n")
        open(a, "w").write("1\n2\n")
        code, out, _ = run(capsys, ["decompose", "--graph", g, "--k", "3", "--A", a])
        assert code == 1
        assert "witness" in out


class TestConditionCommands:
    def test_cond_check(self, cubic_graph_file, tmp_path, capsys):
        a = str(tmp_path / "a.txt")
        open(a, "w").write("".join(f"{v}\n" for v in range(1, 7)))
        code, out, _ = run(capsys, [
            "cond-check", "--graph", cubic_graph_file, "--k", "2",
            "--U", "1,2,3", "--A", a,
        ])
        assert code in (0, 1)
        assert "holds_U" in out

    def test_brute_check_json(self, cubic_graph_file, tmp_path, capsys):
        a = str(tmp_path / "a.txt")
        open(a, "w").write("".join(f"{v}\n" for v in range(1, 7)))
        code, out, _ = run(capsys, [
            "brute-check", "--graph", cubic_graph_file, "--k", "2",
            "--A", a, "--format", "json",
        ])
        payload = json.loads(out)
        assert code == (0 if payload["holds"] else 1)

    def test_strong_json(self, capsys):
        code, out, _ = run(capsys, ["strong", "--d", "20", "--k", "6",
                                    "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["holds"] and payload["margin"] < 0

    def test_ksc_single(self, capsys):
        code, out, _ = run(capsys, ["ksc", "--d", "16"])
        assert code == 0
        assert out.strip() == "16\t4"

    def test_ksc_csv(self, capsys):
        code, out, _ = run(capsys, ["ksc", "--d", "16", "--format", "csv"])
        assert code == 0
        assert out.splitlines() == ["d,k_sc", "16,4"]

    def test_weak_cert_csv(self, capsys):
        code, out, _ = run(capsys, ["weak-cert", "--d", "23", "--k", "8",
                                    "--format", "csv"])
        assert code == 0
        header, *rows = out.splitlines()
        assert header == "case,x,value"
        cases = [row.split(",")[0] for row in rows]
        assert set(cases) == {"1", "2"} and cases == sorted(cases)
        assert all(len(row.split(",")) == 3 for row in rows)

    def test_gamma(self, capsys):
        code, out, _ = run(capsys, ["gamma", "--beta", "0.5", "--format", "json"])
        assert code == 0
        assert json.loads(out)["gamma"] == pytest.approx(-0.040852, abs=1e-5)

    def test_quarter_scan(self, capsys):
        code, out, _ = run(capsys, ["quarter-scan", "--grid", "2000"])
        assert code == 0

    def test_weak_cert_exit_codes(self, capsys):
        code, out, _ = run(capsys, ["weak-cert", "--d", "23", "--k", "8",
                                    "--format", "json"])
        assert code == 0 and json.loads(out)["verdict"]
        code, out, _ = run(capsys, ["weak-cert", "--d", "98", "--k", "48",
                                    "--format", "json"])
        assert code == 1 and not json.loads(out)["verdict"]


class TestDataCommands:
    def test_bounds_curve(self, tmp_path):
        path = str(tmp_path / "c.csv")
        code = dispatch(["bounds-curve", "--kind", "gamma", "--grid", "100",
                         "-o", path])
        assert code == 0
        lines = open(path).read().splitlines()
        assert lines[0] == "x,value" and len(lines) == 101

    def test_bounds_curve_json(self, capsys):
        code, out, _ = run(capsys, ["bounds-curve", "--kind", "gamma", "--grid", "50",
                                    "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "gamma" and len(payload["points"]) == 50
        assert all(len(pt) == 2 and pt[1] < 0 for pt in payload["points"])

    def test_bounds_curve_writes_no_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, ["bounds-curve", "--kind", "gamma", "--grid", "10"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "x,value" and len(lines) == 11
        assert list(tmp_path.iterdir()) == []

    def test_pmr(self, capsys):
        code, out, _ = run(capsys, ["pmr", "--n", "4", "--d", "3", "--m", "2",
                                    "--inside", "1", "--format", "json"])
        assert code == 0
        assert json.loads(out)["P"] == pytest.approx(40 / 77, rel=1e-9)

    def test_pmr_requires_count(self, capsys):
        code, _, err = run(capsys, ["pmr", "--n", "4", "--d", "3", "--m", "2"])
        assert code == 2

    def test_trials_json(self, capsys):
        code, out, _ = run(capsys, [
            "trials", "--d", "4", "--k", "2", "--n", "10", "--trials", "5",
            "--seed", "3", "--format", "json",
        ])
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == 1 and payload["trials"] == 5

    def test_seed_env_fallback(self, tmp_path, monkeypatch):
        import importlib

        monkeypatch.setenv("STARDECOMP_SEED", "123")
        import stardecomp.cli as cli

        importlib.reload(cli)
        a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
        cli.dispatch(["gen", "--n", "10", "--d", "3", "-o", a])
        cli.dispatch(["gen", "--n", "10", "--d", "3", "--seed", "123", "-o", b])
        assert read_graph(a).edges == read_graph(b).edges
        monkeypatch.delenv("STARDECOMP_SEED")
        importlib.reload(cli)


def _src_env() -> dict:
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


class TestModuleEntryPoint:
    def test_python_m_stardecomp(self):
        proc = subprocess.run(
            [sys.executable, "-m", "stardecomp", "ksc", "--d-max", "20", "--format", "json"],
            capture_output=True, text=True, env=_src_env(), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        rows = json.loads(proc.stdout)["rows"]
        assert [row["d"] for row in rows] == list(range(13, 21))

    def test_python_m_stardecomp_csv(self):
        def ksc(fmt):
            proc = subprocess.run(
                [sys.executable, "-m", "stardecomp", "ksc", "--d-max", "20", "--format", fmt],
                capture_output=True, text=True, env=_src_env(), timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            return proc.stdout

        header, *rows = ksc("csv").splitlines()
        assert header == "d,k_sc" and len(rows) == 8
        assert rows == [f"{row['d']},{row['k_sc']}" for row in json.loads(ksc("json"))["rows"]]

    def test_import_leaves_scipy_out(self):
        # scipy and mpmath are installed alongside numpy but are not
        # dependencies (mpmath is a test oracle only); importing either would
        # add its load time and memory to every command.
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, stardecomp, stardecomp.cli; "
             "print([m for m in ('scipy', 'mpmath') if m in sys.modules])"],
            capture_output=True, text=True, env=_src_env(), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
