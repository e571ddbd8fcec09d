"""Ingestion, planted generation, bench harness and CLI round trips."""

import csv
import io
import json
import re

import numpy as np
import pytest

from centerstring import (
    InstanceFile,
    Seq,
    StringInstance,
    SubstringInstance,
    cost_substring,
    exact_closest_substring,
    generate_planted,
    run_bench,
)
from centerstring.errors import AlphabetMismatch, DomainError
from centerstring import io_cli
from centerstring.io_cli import main, planted_instance_file


class TestJsonFormat:
    def test_parse_emit_round_trip(self):
        f = InstanceFile("01", ("0101", "1100"), 3, None)
        assert InstanceFile.parse_json(f.emit_json()) == f

    def test_round_trip_with_planted(self):
        f = planted_instance_file("01", 3, 8, 5, 1, 42)
        assert InstanceFile.parse_json(f.emit_json()) == f

    def test_window_selects_instance_type(self):
        f = InstanceFile.parse_json('{"alphabet":"01","strings":["01","10"]}')
        assert isinstance(f.to_instance(), StringInstance)
        f = InstanceFile.parse_json('{"alphabet":"01","strings":["01","10"],"L":1}')
        assert isinstance(f.to_instance(), SubstringInstance)

    def test_alphabet_inferred_when_absent(self):
        f = InstanceFile.parse_json('{"strings":["ba","ab"]}')
        assert f.alphabet == "ab"

    def test_missing_strings_rejected(self):
        with pytest.raises(DomainError):
            InstanceFile.parse_json('{"alphabet":"01"}')

    @pytest.mark.parametrize("text", [
        '{"alphabet":"01","strings":"0101"}',  # not a list: once four 1-char strings
        '{"alphabet":"01","strings":["0101",1]}',
        '{"alphabet":1,"strings":["0101","1100"]}',
        '{"alphabet":"01","strings":["0101","1100"],"L":2.7}',  # once truncated to 2
        '{"alphabet":"01","strings":["0101","1100"],"L":true}',  # once read as 1
        '{"alphabet":"01","strings":["0101","1100"],"L":2,"planted":{"d":0,"offsets":[0,0]}}',
        '{"alphabet":"01","strings":["0101"]',
    ], ids=["strings-text", "string-entry", "alphabet", "L-float", "L-bool", "planted-center", "syntax"])
    def test_malformed_input_rejected(self, text, tmp_path, capsys):
        with pytest.raises(DomainError):
            InstanceFile.parse_json(text)
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main(["solve-substring", str(path), "--L", "2"]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestFastaFormat:
    def test_parse_records(self):
        text = ">one\nACGT\nACGT\n>two desc\nTTTT\nACGT\n"
        f = InstanceFile.parse_fasta(text)
        assert f.strings == ("ACGTACGT", "TTTTACGT")
        assert f.alphabet == "ACGT"

    def test_lower_case_normalized(self):
        f = InstanceFile.parse_fasta(">x\nacgt\n")
        assert f.strings == ("ACGT",)

    def test_undeclared_symbol_rejected(self):
        f = InstanceFile.parse_fasta(">x\nACGN\n", alphabet="ACGT")
        with pytest.raises(AlphabetMismatch):
            f.to_instance()

    def test_fasta_and_json_solve_identically(self, tmp_path):
        strings = ["ACGTACG", "TACGTAC", "GACGTAA"]
        fasta = tmp_path / "inst.fa"
        fasta.write_text("".join(f">s{i}\n{s}\n" for i, s in enumerate(strings)))
        jsonf = tmp_path / "inst.json"
        jsonf.write_text(json.dumps({"alphabet": "ACGT", "strings": strings, "L": 4}))
        a = InstanceFile.load(fasta, alphabet="ACGT")
        b = InstanceFile.load(jsonf)
        ia = SubstringInstance.from_texts(a.to_instance().alphabet, a.strings, 4)
        ib = b.to_instance()
        assert exact_closest_substring(ia) == exact_closest_substring(ib)


class TestGeneratePlanted:
    def test_d_zero_plants_verbatim(self):
        inst, meta = generate_planted("01", 4, 10, 5, 0, 7)
        center = meta.center
        for s, off in zip(inst.strings, meta.offsets):
            assert Seq(inst.alphabet, s[off:off + 5]).text == center
        assert exact_closest_substring(inst).radius == 0

    def test_window_equal_length_is_string_case(self):
        inst, meta = generate_planted("01", 3, 6, 6, 1, 9)
        assert meta.offsets == (0, 0, 0)
        assert all(len(s) == 6 for s in inst.strings)

    def test_planted_distance_is_exact(self):
        inst, meta = generate_planted("ACGT", 5, 12, 6, 2, 13)
        center = Seq.from_text(inst.alphabet, meta.center)
        for s, off in zip(inst.strings, meta.offsets):
            assert int((center.arr != s[off:off + 6]).sum()) == 2

    def test_oracle_bounded_by_d(self):
        for seed in range(5):
            inst, meta = generate_planted("01", 3, 8, 5, 1, seed)
            assert exact_closest_substring(inst).radius <= 1

    def test_deterministic_per_seed(self):
        def planted(seed):
            inst, meta = generate_planted("01", 3, 8, 5, 1, seed)
            return [s.tolist() for s in inst.strings], meta

        assert planted(4) == planted(4)
        assert planted(4)[0] != planted(5)[0]

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            generate_planted("01", 3, 4, 5, 0, 0)  # L > m
        with pytest.raises(DomainError):
            generate_planted("01", 3, 8, 5, 6, 0)  # d > L


class TestBench:
    def suite(self, count=3):
        return [
            (f"p{seed}", planted_instance_file("01", 3, 8, 5, seed % 2, seed))
            for seed in range(count)
        ]

    def test_empty_suite(self):
        report = run_bench([], ["exact"], timing=False)
        assert report.to_csv() == "instance,seed,algo,r,epsilon,radius,oracle,ratio,ms,status\n"

    def test_planted_zero_gives_unit_ratios(self):
        # L = m so the whole-string algorithm applies as well
        suite = [("z", planted_instance_file("01", 3, 8, 8, 0, 1))]
        report = run_bench(suite, ["exact", "string", "small", "sampling"], timing=False)
        assert all(row.status == "ok" for row in report.rows)
        assert all(row.ratio == "1.0000" for row in report.rows)
        assert report.bounds_ok

    def test_rows_keep_suite_order_under_parallel(self):
        suite = self.suite(4)
        serial = run_bench(suite, ["exact", "small"], timing=False)
        parallel = run_bench(suite, ["exact", "small"], timing=False, parallel=True)
        assert serial.to_csv() == parallel.to_csv()

    def test_error_rows_do_not_abort(self):
        bad = InstanceFile("01", ("0101", "1100"), None, None)  # unequal use below
        suite = [
            ("good", planted_instance_file("01", 3, 8, 5, 0, 1)),
            ("huge", InstanceFile("01", ("0" * 40, "1" * 40), 30, None)),
        ]
        report = run_bench(suite, ["small"], timing=False, oracle_budget=1 << 12)
        statuses = [row.status for row in report.rows]
        assert statuses[0] == "ok"
        assert statuses[1].startswith("error")

    def test_unknown_algorithm_rejected_before_any_work(self, monkeypatch):
        def fail(*args):
            raise AssertionError("work started")

        monkeypatch.setattr(io_cli, "_oracle", fail)
        with pytest.raises(DomainError, match="unknown algorithm 'bogus'"):
            run_bench(self.suite(1), ["small", "bogus"])

    def test_oracle_runs_once_per_instance(self, monkeypatch):
        calls = []

        def counting(solver):
            def wrapper(inst, **kwargs):
                calls.append(solver.__name__)
                return solver(inst, **kwargs)
            return wrapper

        for name in ("exact_closest_string", "exact_closest_substring"):
            monkeypatch.setattr(io_cli, name, counting(getattr(io_cli, name)))
        suite = [
            ("sub", planted_instance_file("01", 3, 8, 5, 1, 2)),
            ("whole", InstanceFile("ACGT", ("ACGTAC", "ACGAAC", "TCGTAG"))),
            ("over", InstanceFile("01", ("0" * 13, "1" * 13))),
        ]
        report = run_bench(suite, ["exact", "small"], timing=False, oracle_budget=1 << 12)
        assert calls == ["exact_closest_substring", "exact_closest_string", "exact_closest_string"]
        exact_rows = [row for row in report.rows if row.algo == "exact"]
        assert [row.radius for row in exact_rows] == [row.oracle for row in exact_rows]
        assert exact_rows[2].status == "error: 2^13 = 8192 candidates exceed budget 4096"
        assert exact_rows[2].oracle is None and report.rows[5].status == "ok"

    def test_unequal_lengths_without_window_rejected_by_every_algorithm(self):
        # without an L every algorithm reads whole strings (L = m), so
        # unequal lengths are refused, not solved at the first string's length
        report = run_bench([("u", InstanceFile("01", ("01", "0110"), None))], io_cli.ALGOS)
        assert [row.status for row in report.rows] == ["error: all strings must have equal length"] * 4

    def test_table_cells_equal_csv_cells(self):
        # a name holding a line separator that the CSV leaves unquoted
        suite = self.suite(2) + [("odd\u2028name, \"quoted\"", InstanceFile("01", ("01", "0110")))]
        report = run_bench(suite, io_cli.ALGOS, timing=False)
        header, *lines = report.to_table().split("\n")
        starts = [match.start() for match in re.finditer(r"\S+", header)]
        table = [
            [line[a:b].rstrip() for a, b in zip(starts, starts[1:] + [None])]
            for line in [header, *lines]
        ]
        assert table == list(csv.reader(io.StringIO(report.to_csv())))
        assert len(table) == 1 + 4 * 3

    def test_byte_identical_with_fixed_seed(self):
        suite = self.suite()
        a = run_bench(suite, ["exact", "string", "small", "sampling"], seed=5, timing=False)
        b = run_bench(suite, ["exact", "string", "small", "sampling"], seed=5, timing=False)
        assert a.to_csv() == b.to_csv()


class TestCli:
    def test_gen_solve_round_trip(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        assert main(["gen", "--n", "3", "--m", "8", "--L", "5", "--d", "1",
                     "--seed", "3", "--out", str(out)]) == 0
        assert main(["solve-substring", str(out), "--mode", "small_d"]) == 0
        result = json.loads(capsys.readouterr().out)
        f = InstanceFile.load(out)
        inst = f.to_instance()
        radius, _ = cost_substring(
            inst, Seq.from_text(inst.alphabet, result["center"])
        )
        assert radius == result["radius"]

    def test_exact_subcommand(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text('{"alphabet":"01","strings":["000","111"]}')
        assert main(["exact", str(path)]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["center"] == "001" and result["radius"] == 2

    def test_exact_branch_and_bound_long_strings(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"alphabet": "01", "strings": ["0" * 1200] * 2}))
        assert main(["exact", str(path), "--branch-and-bound"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["center"] == "0" * 1200 and result["radius"] == 0

    def test_exact_branch_and_bound_reads_whole_strings(self, tmp_path, capsys):
        # with L = m the search runs on the whole strings, past a budget the
        # plain sweep would refuse; with a shorter L it is refused instead of
        # falling back to the budgeted substring sweep
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"alphabet": "01", "strings": ["01" * 6, "10" * 6], "L": 12}))
        assert main(["exact", str(path), "--branch-and-bound", "--budget", "16"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert (result["center"], result["radius"]) == ("0" * 12, 6)
        strings = ["01" * 11, "10" * 11]
        path.write_text(json.dumps({"alphabet": "01", "strings": strings, "L": 21}))
        assert main(["exact", str(path), "--branch-and-bound", "--budget", "1024"]) == 2
        assert "needs L equal to every string length" in capsys.readouterr().err

    def test_bench_writes_csv(self, tmp_path, capsys):
        inst = tmp_path / "i.json"
        main(["gen", "--n", "3", "--m", "8", "--L", "5", "--d", "0",
              "--seed", "1", "--out", str(inst)])
        csv_out = tmp_path / "report.csv"
        code = main(["bench", str(inst), "--algos", "exact,small",
                     "--no-timing", "--out", str(csv_out)])
        assert code == 0
        lines = csv_out.read_text().splitlines()
        assert lines[0] == "instance,seed,algo,r,epsilon,radius,oracle,ratio,ms,status"
        assert len(lines) == 3
        # --out adds the CSV file; the table still goes to stdout, as the help says
        table = capsys.readouterr().out.splitlines()
        assert table[0].split() == lines[0].split(",") and len(table) == 3
        with pytest.raises(SystemExit):
            main(["bench", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "--out OUT also write the report as CSV here; the table still goes to stdout" in help_text

    def test_exact_params_name_only_the_cap_that_applied(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text('{"alphabet":"01","strings":["000","111"]}')
        assert main(["exact", str(path), "--budget", "64"]) == 0
        assert json.loads(capsys.readouterr().out)["params"] == {"budget": 64}
        # the prefix search has no candidate cap, so no budget is reported
        for extra in ([], ["--budget", "64"]):
            assert main(["exact", str(path), "--branch-and-bound", *extra]) == 0
            result = json.loads(capsys.readouterr().out)
            assert result["params"] == {"branch_and_bound": True}
            assert (result["center"], result["radius"]) == ("001", 2)

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_solve_string_refuses_budget_below_one(self, budget, tmp_path, capsys):
        # identical strings give a subset with |P| = 0; the others never
        # reached the sweep and went to the LP silently
        path = tmp_path / "s.json"
        for strings in ('["0110","0110"]', '["0110","1001","0011"]'):
            path.write_text('{"alphabet":"01","strings":%s}' % strings)
            assert main(["solve-string", str(path), "--budget", budget]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: enum_budget must be >= 1\n"

    def test_solve_string_rejects_substring_file_with_short_window(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text('{"alphabet":"01","strings":["0000","1111"],"L":2}')
        # solve-string and bench --algos string apply the same rule
        assert main(["solve-string", str(path)]) == 2
        assert "needs L equal to every string length" in capsys.readouterr().err
        report = run_bench([("s", InstanceFile.load(path))], ["string"], timing=False)
        assert report.rows[0].status.startswith("error")
        path.write_text('{"alphabet":"01","strings":["0000","1111"],"L":4}')
        assert main(["solve-string", str(path)]) == 0

    def test_exact_help_describes_io_flags(self, capsys):
        with pytest.raises(SystemExit):
            main(["exact", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        for flag, phrase in (
            ("--format {auto,json,fasta}", "input format"),
            ("--alphabet ALPHABET", "explicit alphabet override"),
            ("--L L", "window length"),
            ("--out OUT", "write the result here instead of stdout"),
        ):
            assert f"{flag} {phrase}" in text

    def test_budget_help_names_what_it_caps(self, capsys):
        for command, text in (("solve-string", "patch-sweep cap"), ("bench", "oracle's candidate cap")):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            assert text in " ".join(capsys.readouterr().out.split())

    @pytest.mark.parametrize("flag", ["--budget", "--epsilon-prime"])
    def test_solve_substring_has_no_dead_flags(self, flag, tmp_path, capsys):
        # the substring solvers read neither the sweep budget of the
        # whole-string solver nor epsilon' (their LP stage runs at epsilon)
        path = tmp_path / "s.json"
        path.write_text('{"alphabet":"01","strings":["0000","1111"],"L":2}')
        with pytest.raises(SystemExit) as exc:
            main(["solve-substring", str(path), flag, "1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err

    def test_cli_error_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"alphabet":"01","strings":["01","0"]}')
        assert main(["solve-string", str(path)]) == 2
