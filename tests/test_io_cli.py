"""Ingestion, planted generation, bench harness and CLI round trips."""

import argparse
import csv
import inspect
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from centerstring import (
    CenterSolution,
    ClosestStringConfig,
    InstanceFile,
    RoundingConfig,
    Seq,
    StringInstance,
    SubstringConfig,
    SubstringInstance,
    cost_substring,
    exact_closest_substring,
    generate_planted,
    run_bench,
)
from centerstring.errors import AlphabetMismatch, DomainError
from centerstring import io_cli, lp_round
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
        '{"alphabet":"01","strings":["0101","1100"],"L":2,"planted":{"center":10,"d":0,"offsets":[0,0]}}',
        '{"alphabet":"01","strings":["0101","1100"],"L":2,"planted":{"center":"10","d":0,"offsets":0}}',
        '{"alphabet":"01","strings":["0101"]',
    ], ids=["strings-text", "string-entry", "alphabet", "L-float", "L-bool", "planted-center",
            "planted-center-type", "planted-offsets-type", "syntax"])
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

    LOWER = ">a\nacgtac\n>b\nacgaac\n>c\nccgtac\n"

    def test_declared_alphabet_upper_cased_with_the_records(self):
        f = InstanceFile.parse_fasta(self.LOWER, alphabet="acgt")
        assert f == InstanceFile("ACGT", ("ACGTAC", "ACGAAC", "CCGTAC"))
        inst, inferred = f.to_instance(), InstanceFile.parse_fasta(self.LOWER).to_instance()
        assert inst.alphabet == inferred.alphabet
        assert np.array_equal(inst.matrix, inferred.matrix)

    @pytest.mark.parametrize("command", [
        ["exact"], ["exact", "--L", "3"], ["solve-string"], ["bench", "--no-timing"],
    ])
    def test_lower_case_alphabet_solves(self, command, tmp_path, capsys):
        path = tmp_path / "low.fa"
        path.write_text(self.LOWER)
        assert main([command[0], str(path), "--alphabet", "acgt", *command[1:]]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        if command[0] == "bench":
            assert captured.out.count(" ok") == 3
        else:
            assert json.loads(captured.out)["radius"] == 1

    def test_alphabet_collapsing_under_upper_case_refused(self, tmp_path, capsys):
        f = InstanceFile.parse_fasta(">x\naAAa\n", alphabet="aA")
        with pytest.raises(DomainError, match="^alphabet symbols must be distinct$"):
            f.to_instance()
        path = tmp_path / "x.fa"
        path.write_text(">x\naAAa\n>y\nAAAA\n")
        assert main(["exact", str(path), "--alphabet", "aA"]) == 2
        assert capsys.readouterr().err == "error: alphabet symbols must be distinct\n"

    def test_undeclared_symbol_under_lower_case_alphabet_rejected(self):
        f = InstanceFile.parse_fasta(">x\nACGN\n", alphabet="acgt")
        with pytest.raises(AlphabetMismatch, match="^symbol 'N' not in alphabet 'ACGT'$"):
            f.to_instance()

    def test_blank_lines_and_headerless_body(self):
        f = InstanceFile.parse_fasta("\n>one\n\nAC\n  \nGT\n\n>two\nTTGA\n")
        assert f.strings == ("ACGT", "TTGA")
        # a body before any header is one record
        f = InstanceFile.parse_fasta("acgt\nac\n>two\nTTTTTT\n")
        assert f.strings == ("ACGTAC", "TTTTTT")

    @pytest.mark.parametrize("text, message", [
        ("", "no sequences found in FASTA input"),
        ("\n  \n", "no sequences found in FASTA input"),
        # a header opens a record, so this one is an empty string
        (">only a header\n", "strings must be nonempty"),
    ])
    def test_no_sequence_rejected(self, text, message, tmp_path, capsys):
        path = tmp_path / "empty.fa"
        path.write_text(text)
        assert main(["exact", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_format_follows_name_or_first_symbol(self, tmp_path):
        # JSON for a .json name or a '{' start, else FASTA; no switch overrides it
        text = '{"alphabet":"01","strings":["0101","1100"]}'
        for name in ("a.json", "a.txt"):
            (tmp_path / name).write_text("  \n" + text)
            assert InstanceFile.load(tmp_path / name) == InstanceFile("01", ("0101", "1100"))
        (tmp_path / "b.txt").write_text(">x\n0101\n>y\n1100\n")
        assert InstanceFile.load(tmp_path / "b.txt") == InstanceFile("01", ("0101", "1100"))
        (tmp_path / "c.json").write_text(">x\n0101\n")
        with pytest.raises(DomainError, match="invalid JSON"):
            InstanceFile.load(tmp_path / "c.json")

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
        for n, m, l in [(0, 8, 5), (3, 0, 1), (3, 8, 0)]:
            with pytest.raises(DomainError, match="n, m, L must all be >= 1"):
                generate_planted("01", n, m, l, 0, 0)
        with pytest.raises(DomainError, match="seed=-1 must be >= 0"):
            generate_planted("01", 3, 8, 5, 0, -1)


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
        report = run_bench(suite, ["exact", "string", "substring"], timing=False)
        assert all(row.status == "ok" for row in report.rows)
        assert all(row.ratio == "1.0000" for row in report.rows)
        assert report.bounds_ok

    def test_rows_keep_suite_order_under_parallel(self):
        suite = self.suite(4)
        serial = run_bench(suite, ["exact", "substring"], timing=False)
        parallel = run_bench(suite, ["exact", "substring"], timing=False, parallel=True)
        assert serial.to_csv() == parallel.to_csv()

    def test_parallel_lp_solves_match_serial(self, monkeypatch):
        # planted DNA 12x200 sends most subsets through the LP, so the
        # worker threads solve LPs side by side, each on its own HiGHS solver;
        # past the 4^200 sweep the oracle's column-type programs certify
        # every instance at the planted d = 20, in the threads as well
        suite = [(f"p{s}", planted_instance_file("ACGT", 12, 200, 200, 20, s)) for s in range(12)]
        lps = []
        solve_lp = lp_round.solve_lp

        def counted(p):
            lps.append(p)
            return solve_lp(p)

        monkeypatch.setattr(lp_round, "solve_lp", counted)
        serial = run_bench(suite, ["exact", "string"], epsilon_prime=1.0, timing=False)
        reached = len(lps)
        parallel = run_bench(suite, ["exact", "string"], epsilon_prime=1.0, timing=False, parallel=True)
        assert serial.to_csv() == parallel.to_csv()
        assert reached > 100 and len(lps) == 2 * reached
        assert all(row.status == "ok" and row.oracle == 20 for row in serial.rows)
        assert serial.bounds_ok

    def test_error_rows_do_not_abort(self):
        bad = InstanceFile("01", ("0101", "1100"), None, None)  # unequal use below
        suite = [
            ("good", planted_instance_file("01", 3, 8, 5, 0, 1)),
            ("huge", InstanceFile("01", ("0" * 40, "1" * 40), 30, None)),
        ]
        report = run_bench(suite, ["substring"], timing=False, oracle_budget=1 << 12)
        statuses = [row.status for row in report.rows]
        assert statuses[0] == "ok"
        assert statuses[1].startswith("error")

    def test_unknown_algorithm_rejected_before_any_work(self, monkeypatch):
        def fail(*args):
            raise AssertionError("work started")

        monkeypatch.setattr(io_cli, "_oracle", fail)
        with pytest.raises(DomainError, match="unknown algorithm 'bogus'"):
            run_bench(self.suite(1), ["substring", "bogus"])

    def test_empty_algorithm_list_rejected_before_any_work(self, monkeypatch, tmp_path, capsys):
        def fail(*args):
            raise AssertionError("work started")

        monkeypatch.setattr(io_cli, "_oracle", fail)
        with pytest.raises(DomainError, match="no algorithm given"):
            run_bench(self.suite(1), [])
        # the CLI drops blank names, so `--algos ,` is the empty list
        path = tmp_path / "s.json"
        path.write_text('{"alphabet":"01","strings":["0000","1111"]}')
        assert main(["bench", str(path), "--algos", ","]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: no algorithm given; choose from exact,string,substring\n"

    @pytest.mark.parametrize("flags, message", [
        (["--r", "1"], "subset size r must be >= 2"),
        (["--trials", "0"], "trials must be >= 1"),
        (["--epsilon-prime", "2", "--algos", "string"], "epsilon_prime must be in (0, 1]"),
        (["--epsilon", "0", "--algos", "substring"], "epsilon must be in (0, 1]"),
        (["--epsilon", "nan", "--algos", "substring"], "epsilon must be in (0, 1]"),
        (["--budget", "0"], "oracle_budget must be >= 1"),
        (["--budget", "-3", "--algos", "exact"], "oracle_budget must be >= 1"),
    ], ids=["r", "trials", "epsilon-prime", "epsilon", "epsilon-nan", "budget-0", "budget-negative"])
    def test_bad_parameters_rejected_before_any_work(self, flags, message, monkeypatch, tmp_path, capsys):
        # every requested algorithm is configured before the first instance,
        # so a parameter outside its domain is no row of errors but exit 2
        def fail(*args):
            raise AssertionError("work started")

        monkeypatch.setattr(io_cli, "_oracle", fail)
        path = tmp_path / "s.json"
        path.write_text('{"alphabet":"01","strings":["0000","1111"]}')
        assert main(["bench", str(path), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_parameters_of_algorithms_not_requested_are_not_checked(self, tmp_path, capsys):
        # exact reads no r and substring no epsilon', so neither is refused for them
        path = tmp_path / "s.json"
        path.write_text('{"alphabet":"01","strings":["0000","1111"]}')
        assert main(["bench", str(path), "--algos", "exact", "--r", "1", "--no-timing"]) == 0
        assert main(["bench", str(path), "--algos", "substring", "--epsilon-prime", "2", "--no-timing"]) == 0
        assert [line.split()[2] for line in capsys.readouterr().out.splitlines()[1::2]] == ["exact", "substring"]

    def test_oracle_runs_once_per_instance(self, monkeypatch):
        calls = []

        def counting(solver):
            def wrapper(inst, **kwargs):
                calls.append(solver.__name__)
                return solver(inst, **kwargs)
            return wrapper

        for name in ("exact_closest_string", "exact_closest_substring"):
            monkeypatch.setattr(io_cli, name, counting(getattr(io_cli, name)))
        # past the sweep: the 32 distinct 5-bit columns, each string eight
        # times, give a 63 x 72 program, also over the budget
        bits = tuple("".join(str(j >> i & 1) for j in range(32)) for i in range(5))
        suite = [
            ("sub", planted_instance_file("01", 3, 8, 5, 1, 2)),
            ("whole", InstanceFile("ACGT", ("ACGTAC", "ACGAAC", "TCGTAG"))),
            ("over", InstanceFile("01", bits * 8)),
        ]
        report = run_bench(suite, ["exact", "substring"], timing=False, oracle_budget=1 << 12)
        assert calls == ["exact_closest_substring", "exact_closest_string", "exact_closest_string"]
        exact_rows = [row for row in report.rows if row.algo == "exact"]
        assert [row.radius for row in exact_rows] == [row.oracle for row in exact_rows]
        assert exact_rows[2].status == (
            "error: 2^32 candidates exceed budget 4096; "
            "the column-type program's 63 variables x 72 rows exceed budget 4096"
        )
        assert exact_rows[2].oracle is None and report.rows[5].status == "ok"

    def test_unequal_lengths_without_window_rejected_by_every_algorithm(self):
        # without an L every algorithm reads whole strings (L = m), so
        # unequal lengths are refused, not solved at the first string's length
        report = run_bench([("u", InstanceFile("01", ("01", "0110"), None))], io_cli.ALGOS)
        assert [row.status for row in report.rows] == ["error: all strings must have equal length"] * 3

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
        assert len(table) == 1 + 3 * 3

    def test_no_measured_ratio_exits_one(self, tmp_path, capsys):
        # at budget 1 the oracle refuses, so the ok rows have no oracle
        # radius and no ratio is checked: exit 1 with the reason on stderr
        path = tmp_path / "dna.json"
        path.write_text(json.dumps({
            "alphabet": "ACGT", "strings": ["ACGTACGTACGTAC", "ACGTTCGTACGAAC", "TCGTACGTACCTAC"],
        }))
        assert main(["bench", str(path), "--budget", "1", "--no-timing"]) == 1
        captured = capsys.readouterr()
        header, *rows = captured.out.splitlines()
        assert [row.split()[2] for row in rows] == list(io_cli.ALGOS)
        assert "error:" in rows[0] and all(row.split()[-1] == "ok" for row in rows[1:])
        assert captured.err == "no ratio was measured: no row is ok with an oracle radius\n"
        # the exact row alone measures a ratio once the oracle solves the file
        assert main(["bench", str(path), "--algos", "exact", "--no-timing"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("guessed, within", [(0, False), (1, True)])
    def test_substring_bound_follows_guessed_tuples(self, guessed, within, monkeypatch):
        # oracle 3 at r = 2, epsilon 1: radius 5 is over the swept ceiling
        # ceil(4/3 * 3) = 4 and within the guessed one ceil(22/3 * 3) = 22
        suite = [("c", InstanceFile("01", ("000000", "111111")))]

        def solve(inst, cfg):
            return CenterSolution(Seq.from_text(inst.alphabet, "000000"), 5, (0, 0), guessed)

        monkeypatch.setattr(io_cli, "solve_substring", solve)
        report = run_bench(suite, ["exact", "substring"], timing=False)
        assert [(row.radius, row.oracle) for row in report.rows] == [(3, 3), (5, 3)]
        assert report.bounds_ok is within

    def test_byte_identical_with_fixed_seed(self):
        suite = self.suite()
        a = run_bench(suite, ["exact", "string", "substring"], seed=5, timing=False)
        b = run_bench(suite, ["exact", "string", "substring"], seed=5, timing=False)
        assert a.to_csv() == b.to_csv()


# per subcommand, each flag that maps to a config field: its dest and the
# (config, field) pairs it feeds
CONFIG_FLAGS = {
    "solve-string": {
        "r": [(ClosestStringConfig, "r")],
        "epsilon_prime": [(RoundingConfig, "epsilon_prime")],
        "trials": [(RoundingConfig, "trials")],
        "seed": [(RoundingConfig, "rng_seed")],
        "mode": [(RoundingConfig, "mode")],
        "budget": [(ClosestStringConfig, "enum_budget")],
    },
    "solve-substring": {
        "r": [(SubstringConfig, "r")],
        "epsilon": [(SubstringConfig, "epsilon")],
        "trials": [(SubstringConfig, "trials")],
        "seed": [(SubstringConfig, "rng_seed")],
        "rounding_mode": [(SubstringConfig, "rounding_mode")],
        "y_budget": [(SubstringConfig, "y_budget")],
    },
    "bench": {
        "r": [(ClosestStringConfig, "r"), (SubstringConfig, "r")],
        "epsilon": [(SubstringConfig, "epsilon")],
        "epsilon_prime": [(RoundingConfig, "epsilon_prime")],
        "trials": [(RoundingConfig, "trials"), (SubstringConfig, "trials")],
        "seed": [(RoundingConfig, "rng_seed"), (SubstringConfig, "rng_seed")],
    },
}


class TestCli:
    def test_gen_solve_round_trip(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        assert main(["gen", "--n", "3", "--m", "8", "--L", "5", "--d", "1",
                     "--seed", "3", "--out", str(out)]) == 0
        assert main(["solve-substring", str(out)]) == 0
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
        # 2^1200 candidates: past the sweep, the column-type program answers;
        # each column holds one symbol, so its center is the string
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"alphabet": "01", "strings": ["0" * 1200] * 2}))
        assert main(["exact", str(path)]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["center"] == "0" * 1200 and result["radius"] == 0

    def test_exact_branch_and_bound_reads_whole_strings(self, tmp_path, capsys):
        # with L = m the strings are whole, so past the sweep's budget the
        # column-type program runs on them; with a shorter L only the
        # substring sweep applies, and it refuses
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"alphabet": "01", "strings": ["01" * 6, "10" * 6], "L": 12}))
        assert main(["exact", str(path), "--budget", "1024"]) == 0
        assert json.loads(capsys.readouterr().out)["radius"] == 6
        assert main(["exact", str(path), "--budget", "16"]) == 2
        assert capsys.readouterr().err == (
            "error: 2^12 candidates exceed budget 16; "
            "the column-type program's 5 variables x 4 rows exceed budget 16\n"
        )
        strings = ["01" * 11, "10" * 11]
        path.write_text(json.dumps({"alphabet": "01", "strings": strings, "L": 21}))
        assert main(["exact", str(path), "--budget", "1024"]) == 2
        assert capsys.readouterr().err == "error: 2^21 = 2097152 candidates exceed budget 1024\n"

    def test_exact_has_no_branch_and_bound_flag(self, tmp_path, capsys):
        # the instance picks the sweep or the column-type program, so no flag does
        path = tmp_path / "s.json"
        path.write_text('{"alphabet":"01","strings":["000","111"]}')
        with pytest.raises(SystemExit) as exc:
            main(["exact", str(path), "--branch-and-bound"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --branch-and-bound" in capsys.readouterr().err

    def test_bench_writes_csv(self, tmp_path, capsys):
        inst = tmp_path / "i.json"
        main(["gen", "--n", "3", "--m", "8", "--L", "5", "--d", "0",
              "--seed", "1", "--out", str(inst)])
        csv_out = tmp_path / "report.csv"
        code = main(["bench", str(inst), "--algos", "exact,substring",
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
        # one budget caps both paths, so params hold it whichever ran: the
        # sweep fits 2^3 candidates in 2^20 or 64; 2^12 candidates exceed
        # 1024, and the column-type program fits in it with 5 x 4 cells.
        # Past the sweep only the radius is checked: the program's center
        # is one optimum, not the lexicographically first
        path = tmp_path / "s.json"
        short = {"alphabet": "01", "strings": ["000", "111"]}
        long = {"alphabet": "01", "strings": ["01" * 6, "10" * 6]}
        for inst, extra, budget, center, radius in (
            (short, [], 1 << 20, "001", 2),
            (short, ["--budget", "64"], 64, "001", 2),
            (long, ["--budget", "1024"], 1024, None, 6),
        ):
            path.write_text(json.dumps(inst))
            assert main(["exact", str(path), *extra]) == 0
            result = json.loads(capsys.readouterr().out)
            assert result["params"] == {"budget": budget}
            assert result["radius"] == radius and center in (None, result["center"])

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
            ("--alphabet ALPHABET", "explicit alphabet override"),
            ("--L L", "window length"),
            ("--out OUT", "write the result here instead of stdout"),
        ):
            assert f"{flag} {phrase}" in text

    @pytest.mark.parametrize("command", ["solve-string", "solve-substring", "exact", "bench"])
    def test_no_format_flag(self, command, tmp_path, capsys):
        # the name or the first symbol picks the parser, so no flag does
        path = tmp_path / "s.json"
        path.write_text('{"alphabet":"01","strings":["0000","1111"]}')
        with pytest.raises(SystemExit) as exc:
            main([command, str(path), "--format", "json"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --format json" in capsys.readouterr().err

    def test_window_from_the_command_line(self, tmp_path, capsys):
        # --L gives a file without an L its window, for both subcommands
        path = tmp_path / "s.fa"
        path.write_text(">a\n00110\n>b\n11001\n")
        assert main(["solve-substring", str(path), "--L", "3"]) == 0
        assert json.loads(capsys.readouterr().out)["radius"] == 0
        assert main(["exact", str(path), "--L", "3"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert (result["center"], result["radius"], result["offsets_1based"]) == ("001", 0, [1, 3])
        # without --L the strings are whole
        assert main(["exact", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["radius"] == 3

    def test_solve_substring_needs_a_window(self, tmp_path, capsys):
        path = tmp_path / "s.fa"
        path.write_text(">a\n0011\n>b\n1100\n")
        assert main(["solve-substring", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: window length missing: provide --L or a JSON 'L' field\n"

    def test_package_runs_as_a_module(self):
        # `python -m centerstring` is the CLI, without runpy's warning about
        # a module the package has already imported
        env = {**os.environ, "PYTHONPATH": str(Path(io_cli.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "centerstring", "--help"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("usage: centerstring ")

    def test_import_leaves_thread_pool_unloaded(self):
        # only bench --parallel needs a thread pool; concurrent.futures
        # loads logging, which every other start-up would pay for
        code = (
            "import centerstring, sys\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('concurrent', 'logging')))"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(io_cli.__file__).parents[1])}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60,
            check=True,
        ).stdout
        assert out.strip() == "[]"

    def test_budget_help_names_what_it_caps(self, capsys):
        for command, text in (
            ("solve-string", "patch-sweep cap"),
            ("bench", "oracle's candidate cap, and past it its program's size and nodes, as for exact"),
            ("exact", "the plain sweep's candidate cap; past it, whole strings get the column-type "
                      "integer program, whose variables x rows and branch-and-bound nodes it caps"),
        ):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            assert text in " ".join(capsys.readouterr().out.split())

    @pytest.mark.parametrize("command", sorted(CONFIG_FLAGS))
    def test_flag_defaults_are_the_config_defaults(self, command):
        subs = next(a for a in io_cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        actions = {a.dest: a for a in subs.choices[command]._actions}
        for dest, feeds in CONFIG_FLAGS[command].items():
            for cfg, name in feeds:
                assert actions[dest].default == getattr(cfg(), name), (dest, cfg.__name__)
        modes = {"mode": lp_round._ROUNDING_MODES, "rounding_mode": lp_round._ROUNDING_MODES}
        for dest in modes.keys() & actions.keys():
            assert actions[dest].choices == modes[dest], dest
        if command == "bench":
            keywords = inspect.signature(run_bench).parameters
            for dest in CONFIG_FLAGS[command]:
                assert keywords[dest].default == actions[dest].default, dest

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

    def test_solve_substring_has_no_mode_flag(self, tmp_path, capsys):
        # the solution's guessed_tuples says which ratio holds, so no flag picks it
        with pytest.raises(SystemExit):
            main(["solve-substring", "--help"])
        assert "--mode" not in capsys.readouterr().out
        path = tmp_path / "s.json"
        path.write_text('{"alphabet":"01","strings":["0000","1111"],"L":2}')
        with pytest.raises(SystemExit) as exc:
            main(["solve-substring", str(path), "--mode", "small_d"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --mode small_d" in capsys.readouterr().err

    def test_solution_json_records_settings_and_guessed_tuples(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        # r = 5 on 3 strings runs at r = 3, so epsilon = 3 * 0.5
        path.write_text('{"alphabet":"01","strings":["0000","1111","0011"]}')
        assert main(["solve-string", str(path), "--r", "5"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert (result["algo"], result["guessed_tuples"]) == ("string", 0)
        assert result["params"] == {
            "r": 5, "epsilon_prime": 0.5, "epsilon": 1.5, "mode": "auto",
            "trials": 32, "budget": 1 << 20, "seed": 0,
        }
        assert main(["exact", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["guessed_tuples"] == 0
        # a complementary pair at L = 15: 2^15 patches fit the default budget,
        # while at 2^14 its one pair tuple guesses on |R| = 14 positions
        path.write_text(json.dumps({"alphabet": "01", "strings": ["0" * 15, "1" * 15], "L": 15}))
        for flags, guessed, y_budget in (([], 0, 1 << 16), (["--y-budget", "16384"], 1, 1 << 14)):
            assert main(["solve-substring", str(path), *flags]) == 0
            result = json.loads(capsys.readouterr().out)
            assert (result["algo"], result["guessed_tuples"]) == ("substring", guessed)
            assert result["params"] == {
                "r": 2, "epsilon": 1.0, "rounding_mode": "auto",
                "trials": 32, "y_budget": y_budget, "seed": 0,
            }

    def test_solve_string_has_no_parallel_flag(self, tmp_path, capsys):
        # the whole-string solver is one serial loop; only bench runs threads
        path = tmp_path / "s.json"
        path.write_text('{"alphabet":"01","strings":["0000","1111"]}')
        with pytest.raises(SystemExit) as exc:
            main(["solve-string", str(path), "--parallel"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --parallel" in capsys.readouterr().err

    def test_cli_error_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"alphabet":"01","strings":["01","0"]}')
        assert main(["solve-string", str(path)]) == 2


def one_error_line(capsys):
    err = capsys.readouterr().err
    return err.startswith("error: ") and err.count("\n") == 1


class TestCliRefusals:
    """Inputs the CLI refuses with one `error:` line and exit code 2."""

    # each file-reading subcommand, with the flags it needs on a valid file
    READERS = {"solve-string": [], "solve-substring": ["--L", "2"], "exact": [], "bench": []}

    @pytest.mark.parametrize("command", sorted(READERS))
    @pytest.mark.parametrize("problem", ["missing", "directory", "not-utf8"])
    def test_unreadable_input(self, command, problem, tmp_path, capsys):
        (tmp_path / "latin1.fa").write_bytes(b">s\n\xe9\xe9\n")
        path = {"missing": tmp_path / "missing.fa", "directory": tmp_path,
                "not-utf8": tmp_path / "latin1.fa"}[problem]
        assert main([command, str(path), *self.READERS[command]]) == 2
        assert one_error_line(capsys)

    @pytest.mark.parametrize("command", [*sorted(READERS), "gen"])
    def test_unwritable_out(self, command, tmp_path, capsys):
        out = str(tmp_path / "no-such-dir" / "out")
        if command == "gen":
            argv = ["gen", "--n", "2", "--m", "4", "--L", "2", "--d", "0", "--out", out]
        else:
            path = tmp_path / "s.json"
            path.write_text('{"alphabet":"01","strings":["0011","0110"]}')
            argv = [command, str(path), *self.READERS[command], "--out", out]
        assert main(argv) == 2
        assert one_error_line(capsys)

    @pytest.mark.parametrize("command", sorted(READERS))
    def test_unwritable_out_refused_before_any_work(self, command, monkeypatch, tmp_path, capsys):
        def fail(*args, **kwargs):
            raise AssertionError("work started")

        for solver in ("solve_closest_string", "solve_substring",
                       "exact_closest_string", "exact_closest_substring"):
            monkeypatch.setattr(io_cli, solver, fail)
        path = tmp_path / "s.json"
        path.write_text('{"alphabet":"01","strings":["0011","0110"]}')
        out = tmp_path / "no-such-dir" / "out"
        assert main([command, str(path), *self.READERS[command], "--out", str(out)]) == 2
        assert one_error_line(capsys)

    def test_writable_out_probe_leaves_no_file_behind(self, tmp_path, capsys):
        # the probe removes a file it created at once, so a run that then
        # fails leaves none, and an existing file keeps its bytes
        path = tmp_path / "bad.json"
        path.write_text('{"alphabet":"01","strings":["01","0"]}')
        out, kept = tmp_path / "out.json", tmp_path / "kept.json"
        kept.write_text("old")
        assert main(["solve-string", str(path), "--out", str(out)]) == 2
        assert main(["solve-string", str(path), "--out", str(kept)]) == 2
        assert not out.exists() and kept.read_text() == "old"

    def test_gen_refuses_a_negative_seed(self, capsys):
        assert main(["gen", "--n", "2", "--m", "4", "--L", "2", "--d", "0", "--seed", "-1"]) == 2
        assert one_error_line(capsys)

    @pytest.mark.parametrize("argv", [
        ["solve-substring", "--L", "3", "--epsilon", "1e-200"],
        ["solve-string", "--epsilon-prime", "1e-200"],
        ["bench", "--epsilon", "1e-200", "--algos", "substring", "--no-timing"],
    ], ids=["solve-substring", "solve-string", "bench"])
    def test_tiny_epsilon_solves(self, argv, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text('{"alphabet":"01","strings":["001101","011001","110100"]}')
        assert main([argv[0], str(path), *argv[1:]]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        if argv[0] == "bench":
            assert out.splitlines()[1].endswith("ok")
        else:
            assert json.loads(out)["radius"] >= 0
