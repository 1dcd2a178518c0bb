"""Tests for the ``python -m repro.fuzz`` command-line driver."""

import json

import pytest

from repro.fuzz.cli import main
from repro.fuzz.gen import generate


class TestGen:
    def test_prints_the_seeded_program(self, capsys):
        assert main(["gen", "--seed", "7"]) == 0
        assert capsys.readouterr().out == generate(7).source


class TestRun:
    def test_clean_sweep_exits_zero(self, tmp_path, capsys):
        code = main(["run", "--seeds", "3", "--workers", "0",
                     "--corpus", str(tmp_path / "corpus"),
                     "--capacities", "none,16", "--no-checked"])
        assert code == 0
        assert "0 divergence(s)" in capsys.readouterr().out
        assert not (tmp_path / "corpus").exists()

    def test_fault_run_saves_minimized_reproducers(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        artifacts = tmp_path / "artifacts"
        code = main(["run", "--seeds", "1", "--start", "4", "--workers", "0",
                     "--inject-fault", "cloop-reload-off-by-one",
                     "--corpus", str(corpus),
                     "--artifacts", str(artifacts)])
        assert code == 1
        out = capsys.readouterr().out
        assert "DIVERGENCE seed=4" in out
        saved = list(corpus.glob("*.json"))
        assert len(saved) == 1
        entry = json.loads(saved[0].read_text())
        assert entry["fault"] == "cloop-reload-off-by-one"
        assert len(entry["source"].splitlines()) <= 15  # minimized
        summary = json.loads((artifacts / "summary.json").read_text())
        assert summary["divergences"] == 1
        assert (artifacts / f"{entry['id']}.mkc").exists()

    def test_json_summary(self, tmp_path, capsys):
        out_file = tmp_path / "result.json"
        main(["run", "--seeds", "2", "--workers", "0", "--quiet",
              "--corpus", str(tmp_path / "corpus"),
              "--capacities", "none", "--no-checked",
              "--json", str(out_file)])
        payload = json.loads(out_file.read_text())
        assert payload["seeds"] == 2
        assert payload["divergences"] == 0


class TestCapacities:
    """Both CLIs parse ``--capacities`` with the runner's parser."""

    def test_zero_and_none_disable_the_buffer(self):
        from repro.fuzz.cli import build_parser
        from repro.runner.cli import build_parser as runner_parser

        value = "none,0,00,off,16"
        fuzz = build_parser().parse_args(["run", "--capacities", value])
        runner = runner_parser().parse_args(["--capacities", value])
        assert fuzz.capacities == runner.capacities == [None] * 4 + [16]

    @pytest.mark.parametrize("value", ["-4", "16,-1", "1.5", "big"])
    def test_malformed_capacities_exit_2(self, value, capsys):
        from repro.runner.cli import main as runner_main

        for entry, argv in ((main, ["run", "--capacities", value]),
                            (runner_main, ["--capacities", value])):
            with pytest.raises(SystemExit) as excinfo:
                entry(argv)
            assert excinfo.value.code == 2
            assert "capacity must be" in capsys.readouterr().err


class TestReplay:
    def test_empty_corpus_ok(self, tmp_path, capsys):
        code = main(["replay", "--corpus", str(tmp_path / "nothing")])
        assert code == 0
        assert "no entries" in capsys.readouterr().out

    def test_roundtrip_through_run(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        main(["run", "--seeds", "1", "--start", "4", "--workers", "0",
              "--inject-fault", "cloop-reload-off-by-one",
              "--corpus", str(corpus), "--no-minimize"])
        capsys.readouterr()
        # without the fault the saved reproducer must replay green
        code = main(["replay", "--corpus", str(corpus), "--workers", "0"])
        assert code == 0
        assert "0 regression(s)" in capsys.readouterr().out


class TestMinimize:
    def test_requires_seed(self, capsys):
        assert main(["minimize"]) == 2

    def test_reports_clean_seed(self, capsys):
        code = main(["minimize", "--seed", "3",
                     "--capacities", "none", "--no-checked"])
        assert code == 0
        assert "no divergence" in capsys.readouterr().out

    def test_prints_minimized_reproducer(self, capsys):
        code = main(["minimize", "--seed", "4",
                     "--inject-fault", "cloop-reload-off-by-one"])
        assert code == 1
        out = capsys.readouterr().out
        assert "# seed 4:" in out
        assert "int main()" in out


class TestParsing:
    def test_unknown_fault_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--inject-fault", "bogus"])

    def test_capacity_list_parses_none(self, capsys, tmp_path):
        code = main(["run", "--seeds", "1", "--workers", "0", "--quiet",
                     "--corpus", str(tmp_path / "corpus"),
                     "--capacities", "None,32", "--no-checked"])
        assert code == 0
