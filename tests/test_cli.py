import contextlib
import io
import json
import os
import string
import struct
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from test_cli_golden import MAIER_CERT, NESTED_CERT, write_inputs
from test_repcount import BLOCK_ROWS, CODEC_ROWS, INT_DTYPES, blocks_of, codec_columns, text_of
from waring_gaps import cli
from waring_gaps.repcount import (
    WaringParams,
    read_table_binary,
    sieve_rep,
    write_table_binary,
    write_table_csv,
)


def run_cli(*args: str) -> int:
    return cli.main(list(args))


def run_cli_at_default_digit_limit(*args: str) -> int:
    """run_cli under Python's default limit of 4,300 digits on int-to-str."""
    default = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        return run_cli(*args)
    finally:
        sys.set_int_max_str_digits(default)


def no_floats(obj) -> bool:
    if isinstance(obj, float):
        return False
    if isinstance(obj, dict):
        return all(no_floats(v) for v in obj.values())
    if isinstance(obj, list):
        return all(no_floats(v) for v in obj)
    return True


@pytest.fixture()
def table_file(tmp_path):
    path = tmp_path / "r33.bin"
    write_table_binary(sieve_rep(WaringParams(3, 3), 760), path)
    return path


class TestPlumbingCommands:
    def test_sieve_writes_binary_and_csv(self, tmp_path):
        bin_path = tmp_path / "t.bin"
        assert run_cli("sieve", "--ell", "3", "--s", "2", "--limit", "100",
                       "--out", str(bin_path)) == 0
        table = read_table_binary(bin_path)
        assert table.params == WaringParams(3, 2)
        csv_path = tmp_path / "t.csv"
        assert run_cli("sieve", "--ell", "3", "--s", "2", "--limit", "100",
                       "--out", str(csv_path)) == 0
        assert csv_path.read_text().splitlines()[0] == "n,count"

    def test_gaps_csv_rows(self, table_file, tmp_path, capsys):
        out = tmp_path / "runs.csv"
        assert run_cli("gaps", "--table", str(table_file), "--min-len", "4",
                       "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "start,length,truncated"
        assert lines[1] == "4,4,0"
        assert lines[2] == "11,5,0"

    def test_gaps_accepts_csv_table_with_params(self, tmp_path):
        csv_table = tmp_path / "t.csv"
        assert run_cli("sieve", "--ell", "3", "--s", "3", "--limit", "40",
                       "--out", str(csv_table)) == 0
        out = tmp_path / "runs.csv"
        assert run_cli("gaps", "--table", str(csv_table), "--ell", "3", "--s", "3",
                       "--min-len", "4", "--out", str(out)) == 0
        assert out.read_text().splitlines()[1] == "4,4,0"
        assert run_cli("gaps", "--table", str(csv_table), "--min-len", "4") == 3

    def test_greedy_report(self, tmp_path):
        report_path = tmp_path / "g.json"
        assert run_cli("greedy", "--ell", "3", "--b", "100",
                       "--json", str(report_path)) == 0
        obj = json.loads(report_path.read_text())
        assert obj["result"] == {"parts": [4, 3, 2], "n": 99, "remainder": 1}

    def test_modcount_and_crt(self, tmp_path):
        p_csv = tmp_path / "p.csv"
        j = tmp_path / "m.json"
        assert run_cli("modcount", "--ell", "3", "--modulus", "9",
                       "--out", str(p_csv), "--json", str(j)) == 0
        assert json.loads(j.read_text())["summary"]["zero_residues"] == [4, 5]
        j2 = tmp_path / "c.json"
        assert run_cli("crt", "--ell", "3", "--moduli", "2,9", "--json", str(j2)) == 0
        assert json.loads(j2.read_text())["summary"]["mass"] == 18**3

    def test_crt_rejects_non_coprime(self, tmp_path, capsys):
        assert run_cli("crt", "--ell", "3", "--moduli", "6,9") == 3
        assert "not coprime" in capsys.readouterr().err

    def test_modsearch_found_and_not(self, tmp_path):
        j = tmp_path / "s.json"
        assert run_cli("modsearch", "--ell", "3", "--k1", "2", "--pool", "9,63",
                       "--json", str(j)) == 0
        obj = json.loads(j.read_text())
        assert obj["found"] and obj["result"]["M"] == 9 and obj["result"]["m"] == 4
        assert run_cli("modsearch", "--ell", "3", "--k1", "1", "--pool", "2") == 1

    def test_mild_scan(self, table_file, tmp_path):
        j = tmp_path / "scan.json"
        assert run_cli("mild-scan", "--table", str(table_file), "--lo", "0",
                       "--hi", "30", "--k", "4", "--e", "8", "--json", str(j)) == 0
        obj = json.loads(j.read_text())
        assert [w["n"] for w in obj["witnesses"]] == [4, 11, 12, 18, 19, 20]

    @pytest.mark.parametrize(
        "window,message",
        [
            (("--lo", "5", "--hi", "5", "--k", "0", "--e", "-1"), "gap length must be positive"),
            (("--lo", "1", "--hi", "4", "--k", "1", "--e", "0"), "tail bound must be positive"),
            (("--lo", "0", "--hi", "9", "--k", "0", "--e", "8"), "gap length must be positive"),
        ],
    )
    def test_mild_scan_checks_gap_shape_up_front(self, table_file, capsys, window, message):
        # the second window holds no zero run, so no candidate would reach is_mild_gap
        assert run_cli("mild-scan", "--table", str(table_file), *window) == 3
        assert capsys.readouterr().err == f"waring-gaps: error: {message}\n"

    def test_mild_scan_names_the_candidate_a_short_cutoff_fails(self, table_file, capsys):
        window = ("--table", str(table_file), "--lo", "0", "--hi", "100", "--k", "4", "--e", "8")
        assert run_cli("mild-scan", *window, "--cutoff", "50") == 3
        assert capsys.readouterr().err == (
            "waring-gaps: error: cutoff must not precede start: cutoff 50 is below the tail "
            "start n + k = 51 of candidate n = 47; the cutoff is an absolute index\n"
        )
        # hi + k - 1 is at least n + k for every candidate n < hi
        assert run_cli("mild-scan", *window, "--cutoff", "103") == 0

    def test_theta_enclosure(self, tmp_path):
        j = tmp_path / "theta.json"
        assert run_cli("theta", "--ell", "3", "--q", "2", "--terms", "64",
                       "--json", str(j)) == 0
        obj = json.loads(j.read_text())
        assert obj["enclosure"]["lo"] == "201850881/134217728"
        assert "decimal_display_only" in obj

    def test_exceptional(self, tmp_path):
        j = tmp_path / "exc.json"
        csv_path = tmp_path / "exc.csv"
        assert run_cli("exceptional", "--limit", "100", "--epsilon", "0",
                       "--json", str(j), "--out", str(csv_path)) == 0
        obj = json.loads(j.read_text())
        assert obj["result"]["limit"] == 100
        assert csv_path.read_text().splitlines()[0] == "a"


class TestStdout:
    """What a run prints is, byte for byte, what the same run writes to a
    file; blocks of 64 bytes put many block edges in each array."""

    def test_gaps_prints_the_bytes_out_writes(self, table_file, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli.repcount, "_BLOCK_BYTES", 64)
        out = tmp_path / "runs.csv"
        assert run_cli("gaps", "--table", str(table_file), "--min-len", "1",
                       "--out", str(out)) == 0
        capsys.readouterr()
        assert run_cli("gaps", "--table", str(table_file), "--min-len", "1") == 0
        printed = capsys.readouterr().out
        assert printed.encode() == out.read_bytes()
        assert printed.count("\n") > 20

    @pytest.mark.parametrize(
        "args",
        [("exceptional", "--limit", "3000"), ("sieve", "--ell", "3", "--s", "3", "--limit", "100")],
        ids=["exceptional", "sieve"],
    )
    def test_printed_report_is_the_json_file(self, tmp_path, capsys, monkeypatch, args):
        monkeypatch.setattr(cli.repcount, "_BLOCK_BYTES", 64)
        j = tmp_path / "r.json"
        assert run_cli(*args, "--json", str(j)) == 0
        capsys.readouterr()
        assert run_cli(*args) == 0
        echoed = f'"json": {json.dumps(str(j))},'
        assert capsys.readouterr().out == j.read_text().replace(echoed, '"json": null,', 1)


CERT_JSON = {
    "q": 2, "H": "100", "K1": 9, "K2": 9, "K_prime": 39,
    "n1": 1, "n2": 11, "n_prime": 1, "E": "2", "E_prime": "1",
    "f": {"kind": "coefficients", "entries": [[0, 1], [10, 1], [20, 1]]},
    "g": {"kind": "coefficients", "entries": [[40, 1]]},
}


class TestVerdictCommands:
    def test_maier_pass(self, table_file, tmp_path):
        cert = tmp_path / "maier.json"
        cert.write_text(json.dumps({
            "ell": 3, "K": 1, "M": 9, "m": 4,
            "eps": ["1/100", "1/100"], "caps": [0, 0], "N": 729,
        }))
        j = tmp_path / "rep.json"
        assert run_cli("maier", "--cert", str(cert), "--table", str(table_file),
                       "--json", str(j)) == 0
        obj = json.loads(j.read_text())["report"]
        assert obj["verdict"] == "pass"
        assert obj["summary"]["count"] == 81

    def test_nested_pass_and_fail(self, tmp_path):
        cert = tmp_path / "nested.json"
        cert.write_text(json.dumps(CERT_JSON))
        assert run_cli("nested", "--cert", str(cert)) == 0
        bad = dict(CERT_JSON, H="300")
        cert.write_text(json.dumps(bad))
        assert run_cli("nested", "--cert", str(cert)) == 1

    def test_measure_pass(self, tmp_path):
        cert = tmp_path / "nested.json"
        cert.write_text(json.dumps(CERT_JSON))
        j = tmp_path / "m.json"
        assert run_cli("measure", "--cert", str(cert), "--json", str(j)) == 0
        assert json.loads(j.read_text())["report"]["summary"]["pairs"] == 20000

    def test_measure_with_zero_g_at_the_largest_height(self, tmp_path):
        # g(1/2) = 2^-40 - 2 * 2^-41 is exactly 0, and H = 100,000 is the
        # largest height measure accepts: 2 * 10^10 pairs
        cert = Path(__file__).parent / "data" / "measure_zero_g.json"
        j = tmp_path / "m.json"
        assert run_cli("measure", "--cert", str(cert), "--json", str(j)) == 0
        summary = json.loads(j.read_text())["report"]["summary"]
        assert summary["pairs"] == 20_000_000_000
        assert summary["min_pair"] == [-1, -99999]

    @pytest.mark.parametrize("subcommand", ["nested", "measure"])
    def test_growth_fault_no_walk_reads(self, tmp_path, capsys, subcommand):
        # f = 1 + x^10 + x^200 + 2^400 x^201 declares c = 1.  Every mild-gap
        # walk stops short of a_201, yet the true tail at n2 = 11 is above
        # 2^214, far above E = 2, so the certificate must not pass.
        cert = Path(__file__).parent / "data" / "nested_unread_growth.json"
        assert run_cli(subcommand, "--cert", str(cert), "--json", str(tmp_path / "r.json")) == 3
        assert f"error: poly: |a_201| = {2**400} exceeds c*(n+1) = 202" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_invalid_certificate_file(self, tmp_path, capsys):
        cert = tmp_path / "broken.json"
        cert.write_text("{\"q\": 2}")
        assert run_cli("nested", "--cert", str(cert)) == 3
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "subcommand,cert,field",
        [
            ("nested", dict(CERT_JSON, q=2.5, K1=9.9), "field q"),
            ("nested", [CERT_JSON], "certificate"),
            ("nested", dict(CERT_JSON, f=5), "field f"),
            ("nested", dict(CERT_JSON, f={"kind": "combination", "alphas": [1], "parts": [5]}),
             "field parts"),
            ("nested", dict(CERT_JSON, q=[2]), "field q"),
            ("nested", dict(CERT_JSON, H=2.5), "field H"),
            ("nested", dict(CERT_JSON, g={"kind": "coefficients", "entries": [[40, True]]}),
             "field entries"),
            ("measure", dict(CERT_JSON, E_prime=None), "field E_prime"),
            ("maier", [1, 2], "certificate"),
            ("maier", dict(MAIER_CERT, M=9.0), "field M"),
            ("maier", dict(MAIER_CERT, eps=5), "field eps"),
            ("maier", dict(MAIER_CERT, caps=[0, {"cap": 0}]), "field caps"),
            ("nested", dict(CERT_JSON, q="2.5"), "field q"),
            ("nested", dict(CERT_JSON, H="1/0"), "field H"),
            ("measure", dict(CERT_JSON, E="x"), "field E"),
            ("maier", dict(MAIER_CERT, eps=["1/100", "1/0"]), "field eps"),
            ("maier", dict(MAIER_CERT, N="7e2"), "field N"),
        ],
    )
    def test_certificate_field_of_wrong_type_rejected(
        self, tmp_path, capsys, table_file, subcommand, cert, field
    ):
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(cert))
        table = ("--table", str(table_file)) if subcommand == "maier" else ()
        assert run_cli(subcommand, "--cert", str(path), *table) == 3
        assert f"error: {field}: expected" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "caps,message",
        [
            # cap + 1 = 0 would divide by zero in alpha
            ([-1, 0], "field caps[0]: -1 is below 0"),
            # cap + 1 = -1 would cancel the other term of alpha to a false 0 at eps 1/100
            ([0, -2], "field caps[1]: -2 is below 0"),
        ],
    )
    def test_maier_negative_cap_rejected(self, tmp_path, capsys, table_file, caps, message):
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(dict(MAIER_CERT, caps=caps)))
        j = tmp_path / "r.json"
        assert run_cli("maier", "--cert", str(path), "--table", str(table_file), "--json", str(j)) == 3
        assert capsys.readouterr().err == f"waring-gaps: error: {message}\n"
        assert not j.exists()

    @pytest.mark.parametrize("modulus,refused", [(761, False), (762, True), (2000, True)])
    def test_maier_modulus_past_the_table_refused(
        self, tmp_path, capsys, table_file, modulus, refused
    ):
        # The table reaches 760, and a valid certificate has M <= M^3 <= N <= 761.
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(dict(MAIER_CERT, M=modulus)))
        j = tmp_path / "r.json"
        assert run_cli("maier", "--cert", str(path), "--table", str(table_file), "--json", str(j)) == 3
        err = capsys.readouterr().err
        if refused:
            assert err == "waring-gaps: error: field M: past the table's limit + 1 = 761\n"
            assert not j.exists()
        else:
            assert err == ""
            assert json.loads(j.read_text())["report"]["verdict"] == "invalid"

    def test_linforms(self, tmp_path):
        j = tmp_path / "lin.json"
        assert run_cli("linforms", "--ell", "3", "--q", "2", "--height", "1",
                       "--terms", "48", "--json", str(j)) == 0
        obj = json.loads(j.read_text())["report"]
        assert obj["summary"]["forms_checked"] == 54  # 3^3 * 2 leading signs

    def test_pipeline(self, tmp_path):
        j = tmp_path / "pipe.json"
        assert run_cli("pipeline", "--ell", "3", "--q", "2", "--json", str(j)) == 1
        obj = json.loads(j.read_text())
        assert obj["report"]["summary"]["M"] == 9
        assert no_floats(obj)

    @pytest.mark.parametrize("sigma", ["-1", "-1/2", "0", "3", "7/2"])
    def test_pipeline_sigma_out_of_range_halts(self, tmp_path, capsys, sigma):
        j = tmp_path / "pipe.json"
        assert run_cli("pipeline", "--ell", "3", "--q", "2", f"--sigma={sigma}",
                       "--json", str(j)) == 1
        assert capsys.readouterr().err == ""
        report = json.loads(j.read_text())["report"]
        assert report["summary"] == {"sigma": sigma, "halted_at": "exponent-in-range"}
        assert report["certificate"]["config"]["sigma"] == sigma

    def test_pipeline_sigma_with_large_denominator(self, tmp_path):
        j = tmp_path / "pipe.json"
        assert run_cli("pipeline", "--ell", "3", "--q", "2", "--sigma", "3000001/1000000",
                       "--json", str(j)) == 1
        summary = json.loads(j.read_text())["report"]["summary"]
        assert (summary["M"], summary["N"]) == (9, 729)

    def test_pipeline_rejects_empty_pool(self, tmp_path, capsys):
        j = tmp_path / "pipe.json"
        assert run_cli("pipeline", "--ell", "3", "--q", "2", "--pool", "", "--json", str(j)) == 3
        assert capsys.readouterr().err == "waring-gaps: error: moduli pool must be nonempty\n"
        assert not j.exists()

    @pytest.mark.parametrize(
        "setting,message",
        [
            ("--mild-cap=-1", "mild_check_cap must be nonnegative"),
            ("--xi=-1", "xi must be positive"),
            ("--xi=0", "xi must be positive"),
            ("--max-limit=-5", "max_limit must be at least 1"),
            ("--max-modulus=0", "max_modulus must be at least 1"),
        ],
    )
    def test_pipeline_rejects_out_of_range_settings(self, tmp_path, capsys, setting, message):
        j = tmp_path / "pipe.json"
        assert run_cli("pipeline", "--ell", "3", "--q", "2", setting, "--json", str(j)) == 3
        assert capsys.readouterr().err == f"waring-gaps: error: {message}\n"
        assert not j.exists()

    def test_pipeline_unprintable_height_power_names_its_field(self, tmp_path, capsys):
        # K2 = 256, so q^K2 = 10^5120 has more digits than str() prints by default
        j = tmp_path / "pipe.json"
        argv = ["--ell", "4", "--q", str(10**20), "--pool", "512", "--max-limit", "3000000"]
        assert run_cli_at_default_digit_limit("pipeline", *argv, "--json", str(j)) == 3
        err = capsys.readouterr().err
        assert err == "waring-gaps: error: q^K2 has more than 4300 digits to print\n"
        assert not j.exists()

    def test_pipeline_unprintable_alpha_names_its_field(self, tmp_path, capsys):
        # at M = 1024 alpha's numerator has more than 15,000 digits
        j = tmp_path / "pipe.json"
        argv = ["--ell", "4", "--q", "3", "--pool", "1024", "--max-limit", "3000000"]
        assert run_cli_at_default_digit_limit("pipeline", *argv, "--json", str(j)) == 3
        err = capsys.readouterr().err
        assert err == "waring-gaps: error: alpha has more than 4300 digits to print\n"
        assert not j.exists()

    def test_pipeline_unprintable_strength_product_names_its_field(self, tmp_path, capsys):
        # J has 4,296 digits and prints, J * N has more than 4,300
        j = tmp_path / "pipe.json"
        argv = ["--ell", "4", "--q", "3", "--pool", "32", "--j", "1" + "0" * 4295]
        assert run_cli_at_default_digit_limit("pipeline", *argv, "--json", str(j)) == 3
        err = capsys.readouterr().err
        assert err == "waring-gaps: error: J*N has more than 4300 digits to print\n"
        assert not j.exists()

    @pytest.mark.parametrize("subcommand", ["nested", "measure"])
    def test_unprintable_height_product_names_its_field(self, tmp_path, capsys, subcommand):
        # H and E have 4,001 digits and print, H * E has 8,001
        cert, j = tmp_path / "cert.json", tmp_path / "r.json"
        cert.write_text(json.dumps(dict(NESTED_CERT, H="1" + "0" * 4000, E="1" + "0" * 4000)))
        argv = ["--cert", str(cert), "--json", str(j)]
        assert run_cli_at_default_digit_limit(subcommand, *argv) == 3
        err = capsys.readouterr().err
        assert err == "waring-gaps: error: H*E has more than 4300 digits to print\n"
        assert not j.exists()

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()


class TestErrorsAndConfig:
    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            run_cli("frobnicate")

    def test_missing_required_parameter(self, capsys):
        assert run_cli("sieve", "--ell", "3", "--s", "2") == 3
        assert "missing required parameter --limit" in capsys.readouterr().err

    def test_malformed_parameter(self, capsys):
        assert run_cli("sieve", "--ell", "x", "--s", "2", "--limit", "10") == 3
        assert "sieve: parameter ell: expected int, got 'x'" in capsys.readouterr().err
        assert run_cli("pipeline", "--ell", "3", "--q", "2", "--j", "1/0") == 3
        assert "pipeline: parameter j: expected fraction, got '1/0'" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand,flag", [("nested", "--cert"), ("greedy", "--config")])
    def test_deeply_nested_json_exits_3(self, tmp_path, capsys, subcommand, flag):
        path = tmp_path / "deep.json"
        path.write_text('{"q": ' + "[" * 100_000 + "]" * 100_000 + "}")
        assert run_cli(subcommand, flag, str(path)) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("waring-gaps: error: maximum recursion depth exceeded")
        assert captured.out == ""

    @pytest.mark.parametrize(
        "count,message",
        [
            ("1e3", "line 4: count '1e3' is not an integer"),
            ("1_0", "line 4: count '1_0' is not an integer"),
            (" 5 ", "line 4: count ' 5 ' is not an integer"),
            ("+5", "line 4: count '+5' is not an integer"),
            ("\u0663", "line 4: count '\u0663' is not an integer"),
            ("99999999999999999999", "line 4: count 99999999999999999999 at n=2 is outside int64"),
        ],
    )
    def test_csv_table_count_error_names_the_row(self, tmp_path, capsys, count, message):
        table = tmp_path / "t.csv"
        table.write_text(f"n,count\n0,1\n1,3\n2,{count}\n3,3\n")
        assert run_cli("gaps", "--table", str(table), "--ell", "3", "--s", "3",
                       "--min-len", "2") == 3
        assert message in capsys.readouterr().err

    def test_negative_count_in_binary_table_exits_3(self, tmp_path, capsys):
        # width 8 is stored signed, so the file can hold a negative count
        table = tmp_path / "t.bin"
        counts = np.array([1, 0, -1, 0], dtype="<i8")
        table.write_bytes(b"WRT1" + struct.pack("<QQQQ", 3, 3, 3, 8) + counts.tobytes())
        assert run_cli("gaps", "--table", str(table), "--min-len", "2") == 3
        assert capsys.readouterr().err == "waring-gaps: error: counts must be nonnegative\n"

    def test_csv_table_overlong_field_exits_3(self, tmp_path, capsys):
        table = tmp_path / "big.csv"
        table.write_text("n,count\n0,1\n1," + "1" * 131_073 + "\n")
        assert run_cli("gaps", "--table", str(table), "--ell", "3", "--s", "3",
                       "--min-len", "2") == 3
        err = capsys.readouterr().err
        assert err == "waring-gaps: error: line 3: field larger than field limit (131072)\n"

    def test_bound_violation_diagnostic(self, capsys):
        assert run_cli("sieve", "--ell", "5", "--s", "2", "--limit", "10") == 3
        assert "ell" in capsys.readouterr().err

    def test_config_file_defaults_and_flag_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# sieve defaults\nell = 3\ns = 2\nlimit = 50\n")
        j1 = tmp_path / "a.json"
        assert run_cli("sieve", "--config", str(cfg), "--json", str(j1)) == 0
        assert json.loads(j1.read_text())["summary"]["limit"] == 50
        j2 = tmp_path / "b.json"
        assert run_cli("sieve", "--config", str(cfg), "--limit", "60",
                       "--json", str(j2)) == 0
        assert json.loads(j2.read_text())["summary"]["limit"] == 60

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("ell = 3\nb = 100\ntypo_key = 5\n")
        assert run_cli("greedy", "--config", str(cfg)) == 3
        assert "typo_key" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config,key",
        [
            ({"ell": [3], "b": 5}, "ell"),
            ({"ell": 3, "b": {"value": 5}}, "b"),
            ({"ell": 3.0, "b": 5}, "ell"),
            ({"ell": 3, "b": 5, "threads": [2]}, "threads"),
            ({"ell": "x", "b": 5}, "ell"),
            ({"ell": 3, "b": "2.5"}, "b"),
            ({"ell": 3, "b": "1/0"}, "b"),
        ],
    )
    def test_config_value_of_wrong_type_rejected(self, tmp_path, capsys, config, key):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(config))
        assert run_cli("greedy", "--config", str(cfg)) == 3
        assert f"parameter {key}:" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ['{"config": 5}', '{"config": [1, 2]}', '{"config": null}'])
    def test_config_that_is_not_an_object_rejected(self, tmp_path, capsys, text):
        cfg = tmp_path / "run.json"
        cfg.write_text(text)
        assert run_cli("greedy", "--config", str(cfg)) == 3
        err = capsys.readouterr().err
        assert "config must be a JSON object" in err
        assert "Traceback" not in err

    def test_failed_report_encode_leaves_no_file(self, tmp_path, monkeypatch, capsys):
        base_report = cli._base_report

        def unencodable_report(config):
            # enough leading output that the encoder has flushed to disk
            return {**base_report(config), "padding": list(range(50_000)), "bad": object()}

        monkeypatch.setattr(cli, "_base_report", unencodable_report)
        fresh = tmp_path / "fresh.json"
        with pytest.raises(TypeError):
            run_cli("greedy", "--ell", "3", "--b", "10", "--json", str(fresh))
        assert list(tmp_path.iterdir()) == []
        kept = tmp_path / "kept.json"
        kept.write_text("earlier report\n")
        with pytest.raises(TypeError):
            run_cli("greedy", "--ell", "3", "--b", "10", "--json", str(kept))
        assert list(tmp_path.iterdir()) == [kept]
        assert kept.read_text() == "earlier report\n"

    def test_report_as_config_keeps_its_file(self, tmp_path, capsys):
        report_path = tmp_path / "g.json"
        assert run_cli("greedy", "--ell", "3", "--b", "100", "--json", str(report_path)) == 0
        before = report_path.read_text()
        capsys.readouterr()
        assert run_cli("greedy", "--config", str(report_path), "--b", "200") == 0
        assert report_path.read_text() == before
        assert json.loads(capsys.readouterr().out)["config"]["b"] == 200

    def test_threads_env_and_flag(self, tmp_path):
        j = tmp_path / "t.json"
        assert run_cli("greedy", "--ell", "3", "--b", "10", "--threads", "2",
                       "--json", str(j)) == 0
        assert json.loads(j.read_text())["config"]["threads"] == 2

    def test_threads_below_one_rejected(self, capsys):
        assert run_cli("greedy", "--ell", "3", "--b", "10", "--threads", "0") == 3
        assert "threads must be at least 1" in capsys.readouterr().err

    def test_no_floats_anywhere(self, tmp_path, table_file):
        j = tmp_path / "r.json"
        run_cli("modsearch", "--ell", "3", "--k1", "2", "--pool", "9", "--json", str(j))
        assert no_floats(json.loads(j.read_text()))
        run_cli("mild-scan", "--table", str(table_file), "--lo", "0", "--hi", "20",
                "--k", "4", "--e", "8", "--json", str(j))
        assert no_floats(json.loads(j.read_text()))


# Report-shaped values: dicts whose leaves are plain JSON values or the numpy
# arrays the report writer encodes itself (1-D int64, or records of int64
# and bool fields).
INT64 = st.integers(-(2**63), 2**63 - 1)
STRINGS = st.text(max_size=6) | st.text(st.sampled_from(', "\\\n%s{}\u00e9\u2603'), max_size=6)
SCALARS = st.none() | st.booleans() | st.integers() | INT64 | STRINGS
PLAIN = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(STRINGS, inner, max_size=4),
    max_leaves=12,
)


@st.composite
def record_arrays(draw) -> np.ndarray:
    names = draw(st.lists(STRINGS.filter(bool), min_size=1, max_size=3, unique=True))
    dtype = np.dtype([(name, draw(st.sampled_from(["<i8", "?"]))) for name in names])
    size = draw(st.sampled_from([0, 1, draw(st.integers(2, 20))]))
    column = {"i": INT64, "b": st.booleans()}
    rows = [tuple(draw(column[dtype[n].kind]) for n in names) for _ in range(size)]
    return np.array(rows, dtype=dtype)


ARRAYS = st.lists(INT64, max_size=20).map(lambda v: np.array(v, dtype=np.int64)) | record_arrays()
REPORTS = st.recursive(
    PLAIN | ARRAYS, lambda inner: st.dictionaries(STRINGS, inner, max_size=4), max_leaves=10
)


def as_plain_json(value):
    """value with each array replaced by the list json.dumps would be given."""
    if isinstance(value, dict):
        return {key: as_plain_json(v) for key, v in value.items()}
    if isinstance(value, np.ndarray):
        rows = value.tolist()
        return [dict(zip(value.dtype.names, row)) for row in rows] if value.dtype.names else rows
    return value


class TestReportWriter:
    @settings(max_examples=150, deadline=None)
    @given(value=REPORTS)
    @example(value={"runs": np.array([(4, 4, False), (11, 5, True)],
                                     dtype=[("start", "<i8"), ("length", "<i8"),
                                            ("truncated", "?")])})
    @example(value={"result": {"members": np.array([], dtype=np.int64), "a, b": [{}, []]}})
    @example(value={"%s": np.array([(2**63 - 1,)], dtype=[("%s", "<i8")]), "big": 2**70})
    @example(value={"report": {"witnesses": [{"n": n, "ok": n % 3 == 0} for n in range(500)]}})
    def test_matches_json_dumps(self, value):
        text = text_of(cli._report_chunks(value))
        # Line lists, not strings: a failure then names the first differing
        # line instead of diffing every line of a long report.
        assert text.split("\n") == json.dumps(as_plain_json(value), indent=2).split("\n")

    @pytest.mark.parametrize("rows", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, 2 * BLOCK_ROWS + 3])
    def test_arrays_across_blocks_match_json_dumps(self, rows):
        rng = np.random.default_rng(rows)
        records = np.empty(rows, dtype=[("start", "<i8"), ("big", "<u8"), ("small", "i1"),
                                        ("truncated", "?")])
        records["start"] = rng.integers(-(2**63), 2**63 - 1, rows, endpoint=True)
        records["big"] = rng.integers(0, 2**64 - 1, rows, dtype=np.uint64, endpoint=True)
        records["small"] = rng.integers(-128, 127, rows, endpoint=True)
        records["truncated"] = rng.integers(0, 1, rows, endpoint=True)
        extremes = [(-(2**63), 2**64 - 1, -128, True), (2**63 - 1, 0, 127, False),
                    (-1, 9, 10, True)]
        records[: len(extremes)] = extremes[:rows]
        value = {"members": records["start"], "nested": {"runs": records, "big": records["big"]}}
        with blocks_of(BLOCK_ROWS):
            text = text_of(cli._report_chunks(value))
        assert text.split("\n") == json.dumps(as_plain_json(value), indent=2).split("\n")

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), rows=st.sampled_from(CODEC_ROWS))
    def test_records_of_every_int_dtype_match_json_dumps(self, data, rows):
        names = data.draw(st.lists(STRINGS.filter(bool), min_size=1, max_size=3, unique=True))
        columns = [data.draw(codec_columns(rows, kinds=(*INT_DTYPES, "?"))) for _ in names]
        records = np.empty(rows, dtype=[(name, c.dtype) for name, c in zip(names, columns)])
        for name, column in zip(names, columns):
            records[name] = column
        rows_as_dicts = [dict(zip(names, row)) for row in records.tolist()]
        with blocks_of(BLOCK_ROWS):
            text = text_of(cli._array_pieces(records, ""))
        assert text.split("\n") == json.dumps(rows_as_dicts, indent=2).split("\n")

    @pytest.mark.parametrize(
        "bad",
        [np.zeros(3), np.zeros((2, 2), dtype=np.int64), np.array(["a"]), object()],
        ids=["float", "2-d", "str", "object"],
    )
    def test_unencodable_value_leaves_earlier_report(self, tmp_path, bad):
        path = tmp_path / "r.json"
        path.write_text("earlier report\n")
        with pytest.raises(TypeError):
            cli._write_report({"members": np.arange(5), "bad": bad}, path)
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_text() == "earlier report\n"


# Runs the command line with SIGXFSZ ignored and RLIMIT_FSIZE lowered to
# argv[1] bytes in this process alone, so a write past it fails with EFBIG.
FSIZE_LIMITED_CLI = """
import resource, signal, sys
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]
resource.setrlimit(resource.RLIMIT_FSIZE, (int(sys.argv[1]), hard))
from waring_gaps.cli import main
sys.exit(main(sys.argv[2:]))
"""


# Runs the command line with its address space capped at argv[1] bytes in
# this process alone, so forming a power of some 10^10 bits or more fails
# with MemoryError.
AS_LIMITED_CLI = """
import resource, sys
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
soft = int(sys.argv[1]) if hard == resource.RLIM_INFINITY else min(int(sys.argv[1]), hard)
resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
from waring_gaps.cli import main
sys.exit(main(sys.argv[2:]))
"""


class TestLargeDenominatorExponents:
    @pytest.mark.parametrize(
        "args,status",
        [
            (("exceptional", "--limit", "1000", "--epsilon", "1/1000001"), 0),
            (("pipeline", "--ell", "4", "--q", "3", "--pool", "32",
              "--sigma", "4000001/1000000"), 1),
        ],
        ids=["exceptional", "pipeline"],
    )
    def test_reaches_a_report_within_2_gb(self, tmp_path, args, status):
        src = str(Path(cli.__file__).resolve().parents[1])
        # one BLAS thread, so that the cap does not depend on the core count
        env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1",
               "OPENBLAS_NUM_THREADS": "1"}
        proc = subprocess.run(
            [sys.executable, "-c", AS_LIMITED_CLI, str(2 << 30), *args, "--json", "r.json"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == status, proc.stderr
        obj = json.loads((tmp_path / "r.json").read_text())
        if args[0] == "exceptional":
            assert obj["result"]["cardinality"] == 723
        else:
            conditions = {c["name"]: c["verdict"] for c in obj["report"]["per_condition"]}
            assert conditions["half-modulus-exceeds-window"] == "fail"


class TestAstronomicalCertificateIntegers:
    @pytest.mark.parametrize(
        "name,subcommand,status,message,verdicts",
        [
            ("nested_huge_K2.json", "nested", 3, "error: q^K2 has more than", None),
            ("nested_huge_K2.json", "measure", 3, "error: q^K2 has more than", None),
            # f = 1 + x^19 + x^38 is zero from n2 = 10^30 on, so only the
            # ordering fails
            ("nested_huge_n2.json", "nested", 1, "report written",
             {"ordering": "fail", "mild-gaps": "pass"}),
            ("nested_huge_n2.json", "measure", 3, "report written", None),
            # f's next nonzero past every cutoff is at 2^40: each tail majorant
            # starts a bounded distance past its cutoff instead
            ("nested_far_nonzero.json", "nested", 0, "report written",
             {"mild-gaps": "pass"}),
            ("nested_far_nonzero.json", "measure", 0, "report written", None),
            # f's nonzero at 2^40 lies below n2 = 10^30: the window sum's
            # denominator would be 2^(2^40)
            ("nested_far_window.json", "nested", 3,
             "error: window sum has more than", None),
            ("nested_far_window.json", "measure", 3,
             "error: window sum has more than", None),
            ("nested_huge_index.json", "nested", 3,
             f"error: field entries: index {10**30} is past 2^63 - 1", None),
        ],
        ids=["K2-nested", "K2-measure", "n2-nested", "n2-measure", "far-nonzero-nested",
             "far-nonzero-measure", "far-window-nested", "far-window-measure", "huge-index-nested"],
    )
    def test_returns_within_20_s(self, tmp_path, name, subcommand, status, message, verdicts):
        # K2 = 10^30, n2 = 10^30, a coefficient at 2^40 or at 10^30: no report
        # field may form q^K2, q^(n2 - 1) or 2^(2^40)
        cert = Path(__file__).parent / "data" / name
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1",
               "OPENBLAS_NUM_THREADS": "1"}
        proc = subprocess.run(
            [sys.executable, "-c", AS_LIMITED_CLI, str(2 << 30),
             subcommand, "--cert", str(cert), "--json", "r.json"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=20,
        )
        assert proc.returncode == status, proc.stderr
        assert "Traceback" not in proc.stderr and message in proc.stdout + proc.stderr
        if verdicts:
            text = (tmp_path / "r.json").read_text()
            report = json.loads(text)["report"]
            conditions = {c["name"]: c["verdict"] for c in report["per_condition"]}
            assert {key: conditions[key] for key in verdicts} == verdicts
            assert str(np.iinfo(np.int64).max) not in text


class TestOutputFiles:
    @pytest.mark.parametrize("name", ["t.csv", "t.bin"])
    def test_file_size_limit_keeps_earlier_table(self, tmp_path, name):
        path = tmp_path / name
        path.write_bytes(b"earlier table\r\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
        # the (3,3) table at 1e5 takes about 1 MB as CSV and 400 kB as binary
        proc = subprocess.run(
            [sys.executable, "-c", FSIZE_LIMITED_CLI, "65536",
             "sieve", "--ell", "3", "--s", "3", "--limit", "100000", "--out", name],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 3, proc.stderr
        assert path.read_bytes() == b"earlier table\r\n"
        assert os.listdir(tmp_path) == [name]
        assert proc.stderr == f"waring-gaps: error: [Errno 27] File too large: '{name}'\n"

    @pytest.mark.parametrize(
        "args,name",
        [
            (("greedy", "--ell", "3", "--b", "10", "--json"), "r.json"),
            (("sieve", "--ell", "3", "--s", "2", "--limit", "10", "--out"), "t.bin"),
        ],
    )
    def test_write_error_names_the_requested_path(self, tmp_path, capsys, args, name):
        path = tmp_path / "nodir" / name
        assert run_cli(*args, str(path)) == 3
        err = capsys.readouterr().err
        assert err == f"waring-gaps: error: [Errno 2] No such file or directory: '{path}'\n"

    def test_symlinks_are_followed(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        for name in ("t.csv", "r.json"):
            (data / name).write_text("earlier\n")
            (tmp_path / name).symlink_to(data / name)
        assert run_cli("sieve", "--ell", "3", "--s", "3", "--limit", "60",
                       "--out", str(tmp_path / "t.csv"), "--json", str(tmp_path / "r.json")) == 0
        for name in ("t.csv", "r.json"):
            assert (tmp_path / name).is_symlink()
            assert os.readlink(tmp_path / name) == str(data / name)
        expected = tmp_path / "expected.csv"
        write_table_csv(sieve_rep(WaringParams(3, 3), 60), expected)
        assert (data / "t.csv").read_bytes() == expected.read_bytes()
        assert json.loads((data / "r.json").read_text())["summary"]["limit"] == 60
        assert sorted(os.listdir(data)) == ["r.json", "t.csv"]

    def test_replaced_files_keep_their_permissions(self, tmp_path, capsys):
        for name in ("t.csv", "r.json"):
            (tmp_path / name).write_text("earlier\n")
            (tmp_path / name).chmod(0o600)
        assert run_cli("sieve", "--ell", "3", "--s", "3", "--limit", "60",
                       "--out", str(tmp_path / "t.csv"), "--json", str(tmp_path / "r.json")) == 0
        for name in ("t.csv", "r.json"):
            assert (tmp_path / name).stat().st_mode & 0o777 == 0o600
            assert (tmp_path / name).read_text() != "earlier\n"

    @pytest.mark.parametrize("out", ["/dev/stdout", "/dev/fd/1", "/proc/self/fd/1", "link"])
    def test_descriptor_paths_write_at_the_descriptor_offset(self, tmp_path, out):
        expected = tmp_path / "expected.bin"
        write_table_binary(sieve_rep(WaringParams(3, 2), 10), expected)
        if out == "link":
            (tmp_path / "link").symlink_to("/dev/stdout")
        report = tmp_path / "r.json"
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
        with open(tmp_path / "out.bin", "wb") as stdout:
            proc = subprocess.run(
                [sys.executable, "-m", "waring_gaps.cli", "sieve", "--ell", "3", "--s", "2",
                 "--limit", "10", "--out", out, "--json", str(report)],
                cwd=tmp_path, env=env, stdout=stdout, stderr=subprocess.PIPE, text=True,
                timeout=120,
            )
        assert proc.returncode == 0, proc.stderr
        line = f"waring-gaps: report written to {report}\n".encode()
        assert (tmp_path / "out.bin").read_bytes() == expected.read_bytes() + line
        assert json.loads(report.read_text())["summary"]["written"] == out

    def test_fifo_is_written_in_place(self, tmp_path, capsys):
        expected = tmp_path / "expected.csv"
        write_table_csv(sieve_rep(WaringParams(3, 3), 60), expected)
        fifo = tmp_path / "t.csv"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        assert run_cli("sieve", "--ell", "3", "--s", "3", "--limit", "60", "--out", str(fifo)) == 0
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert received == [expected.read_bytes()]
        assert fifo.is_fifo()
        assert sorted(os.listdir(tmp_path)) == ["expected.csv", "t.csv"]


class TestReplay:
    def normalize(self, obj):
        def scrub(o):
            if isinstance(o, dict):
                return {
                    k: scrub(v)
                    for k, v in o.items()
                    if k not in {"json", "out", "threads"}
                }
            if isinstance(o, list):
                return [scrub(v) for v in o]
            return o

        return scrub(obj)

    @pytest.mark.parametrize(
        "args",
        [
            ("modsearch", "--ell", "3", "--k1", "2", "--pool", "9,63"),
            ("theta", "--ell", "3", "--q", "2", "--terms", "40"),
            ("exceptional", "--limit", "120", "--epsilon", "1/100"),
            ("sieve", "--ell", "3", "--s", "2", "--limit", "100"),
            ("gaps", "--table", "r33.bin", "--min-len", "4"),
            ("greedy", "--ell", "3", "--b", "100"),
            ("modcount", "--ell", "3", "--modulus", "9"),
            ("crt", "--ell", "3", "--moduli", "2,9"),
            ("mild-scan", "--table", "r33.bin", "--lo", "0", "--hi", "30", "--k", "4", "--e", "8"),
            ("maier", "--cert", "maier.json", "--table", "r33.bin"),
            ("nested", "--cert", "nested.json"),
            ("measure", "--cert", "nested.json"),
            ("linforms", "--ell", "3", "--q", "2", "--height", "1", "--terms", "48"),
            ("pipeline", "--ell", "3", "--q", "2"),
        ],
    )
    def test_report_replays_bit_identically(self, tmp_path, monkeypatch, args):
        write_inputs(tmp_path)
        monkeypatch.chdir(tmp_path)
        first = tmp_path / "first.json"
        run_cli(*args, "--json", str(first))
        second = tmp_path / "second.json"
        code = cli.replay_report(first, overrides={"json": str(second), "threads": 3})
        assert code in (0, 1, 2)
        a = self.normalize(json.loads(first.read_text()))
        b = self.normalize(json.loads(second.read_text()))
        assert a == b

    def test_replay_writes_only_where_told(self, tmp_path, capsys):
        first = tmp_path / "first.json"
        run_cli("theta", "--ell", "3", "--q", "2", "--terms", "40", "--json", str(first))
        before = first.read_text()
        capsys.readouterr()
        assert cli.replay_report(first) == 0
        assert first.read_text() == before
        replayed = json.loads(capsys.readouterr().out)
        assert self.normalize(replayed) == self.normalize(json.loads(before))

    def test_replay_rejects_unknown_override(self, tmp_path, capsys):
        first = tmp_path / "first.json"
        run_cli("greedy", "--ell", "3", "--b", "100", "--json", str(first))
        capsys.readouterr()
        assert cli.replay_report(first, overrides={"typo_key": 5}) == 3
        assert "typo_key" in capsys.readouterr().err
        assert cli.replay_report(first, overrides={"b": 200, "json": str(first)}) == 0
        assert json.loads(first.read_text())["config"]["b"] == 200

    def test_report_accepted_as_config_file(self, tmp_path):
        first = tmp_path / "first.json"
        run_cli("modsearch", "--ell", "3", "--k1", "2", "--pool", "9", "--json", str(first))
        second = tmp_path / "second.json"
        assert run_cli("modsearch", "--config", str(first), "--json", str(second)) == 0
        a = self.normalize(json.loads(first.read_text()))
        b = self.normalize(json.loads(second.read_text()))
        assert a == b

    def test_replay_of_deeply_nested_report_exits_3(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        path.write_text('{"subcommand": "greedy", "config": ' + "[" * 100_000 + "]" * 100_000 + "}")
        assert cli.replay_report(path) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("waring-gaps: error: maximum recursion depth exceeded")
        assert captured.out == ""

    @pytest.mark.parametrize(
        "text,message",
        [
            (None, "No such file"),
            ('{"subcommand": ', "Expecting value"),
            ('{"tool": "waring-gaps", "config": {}}', "known subcommand"),
            ('{"subcommand": 5, "config": {}}', "known subcommand"),
            ('{"subcommand": ["greedy"], "config": {}}', "known subcommand"),
            ('{"subcommand": "nope", "config": {}}', "known subcommand"),
            ('{"subcommand": "greedy", "config": 5}', "config must be a JSON object"),
        ],
    )
    def test_replay_of_malformed_report_exits_3(self, tmp_path, capsys, text, message):
        path = tmp_path / "report.json"
        if text is not None:
            path.write_text(text)
        assert cli.replay_report(path) == 3
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""


# A valid configuration of every subcommand; a path is named relative to the
# directory write_inputs fills.
VALID_CONFIGS = {
    "sieve": {"ell": 3, "s": 2, "limit": 100},
    "gaps": {"table": "r33.bin", "min_len": 4},
    "greedy": {"ell": 3, "b": 100},
    "modcount": {"ell": 3, "modulus": 9},
    "crt": {"ell": 3, "moduli": [2, 9]},
    "modsearch": {"ell": 3, "k1": 2, "pool": [9, 63]},
    "mild-scan": {"table": "r33.bin", "lo": 0, "hi": 30, "k": 4, "e": "8"},
    "theta": {"ell": 3, "q": 2, "terms": 40},
    "maier": {"cert": "maier.json", "table": "r33.bin"},
    "nested": {"cert": "nested.json"},
    "measure": {"cert": "nested.json"},
    "linforms": {"ell": 3, "q": 2, "height": 1, "terms": 48},
    "pipeline": {"ell": 3, "q": 2},
    "exceptional": {"limit": 120, "epsilon": "1/100"},
}
# The kind of each certificate field, as the certificate parsers check it.
CERT_KINDS = {
    "nested": {**dict.fromkeys(NESTED_CERT, "int"), "H": "fraction", "E": "fraction",
               "E_prime": "fraction", "f": "object", "g": "object"},
    "maier": {**dict.fromkeys(MAIER_CERT, "int"), "eps": "list", "caps": "list"},
}
CERT_KINDS["measure"] = CERT_KINDS["nested"]

# JSON values of a type other than the one named.  Those of a parameter are
# never null, which a config reads as absent; a certificate field may be null.
FLOATS = st.floats(allow_nan=False, allow_infinity=False)
LISTS = st.lists(st.integers(), max_size=2)
OBJECTS = st.dictionaries(st.text(max_size=2), st.integers(), max_size=2)
BAD_NUMBERS = st.sampled_from(["x", "2.5", "1/0", "", "7e2", "0x10", "1/x"])
NOT_NUMBERS = FLOATS | st.booleans() | LISTS | OBJECTS | BAD_NUMBERS
WRONG_VALUES = {
    "int": NOT_NUMBERS,
    "fraction": NOT_NUMBERS,
    "intlist": FLOATS | st.booleans() | OBJECTS | BAD_NUMBERS | st.sampled_from(["1,x", "9,2.5"])
    | st.lists(FLOATS | st.booleans() | LISTS | OBJECTS | BAD_NUMBERS, min_size=1, max_size=2),
    "path": st.integers() | FLOATS | st.booleans() | LISTS | OBJECTS,
    "object": st.none() | st.integers() | st.text(max_size=3) | FLOATS | st.booleans() | LISTS,
    "list": st.none() | st.integers() | st.text(max_size=3) | FLOATS | st.booleans() | OBJECTS,
}
# A line of a key = value file with no "=", which is neither blank nor a comment.
NO_EQUALS_LINES = st.text(st.sampled_from(string.ascii_letters + string.digits + " .,:-_/[]"),
                          min_size=1, max_size=8).filter(str.strip)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("inputs")
    write_inputs(directory)
    return directory


def absolute_config(subcommand: str, directory: Path) -> dict:
    """VALID_CONFIGS[subcommand] with each path made absolute."""
    kinds = {spec.name.replace("-", "_"): spec.kind for spec in cli.COMMANDS[subcommand].params}
    return {key: str(directory / value) if kinds[key] == "path" else value
            for key, value in VALID_CONFIGS[subcommand].items()}


def key_value_text(config: dict) -> str:
    return "".join(f"{key} = {','.join(map(str, value)) if isinstance(value, list) else value}\n"
                   for key, value in config.items())


def run_bad_input(argv: list[str]) -> None:
    """Run argv through cli.main: exit status 3, a message on stderr,
    nothing on stdout and no traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    message = err.getvalue()
    assert status == 3, message
    assert message.startswith("waring-gaps: error: ") and message.strip() != "waring-gaps: error:"
    assert "Traceback" not in message
    assert out.getvalue() == ""


@st.composite
def malformed_configs(draw, subcommand: str, config: dict) -> str:
    """The text of a config file for subcommand with one defect in config."""
    specs = {spec.name.replace("-", "_"): spec for spec in cli.COMMANDS[subcommand].params}
    # Output paths are never read from a config file.
    readable = sorted(name for name in specs if name not in cli.OUTPUT_PARAMS)
    defect = draw(st.sampled_from(["unknown", "wrong", "threads", "truncated", "no-object",
                                   "no-equals", "bad-number"]))
    if defect == "unknown":
        name = draw(st.text(st.sampled_from(string.ascii_lowercase + "_-"), min_size=1))
        assume(name.replace("-", "_") not in specs)
        return json.dumps({**config, name: 1})
    if defect == "wrong":
        name = draw(st.sampled_from(readable))
        return json.dumps({**config, name: draw(WRONG_VALUES[specs[name].kind])})
    if defect == "threads":
        return json.dumps({**config, "threads": draw(st.integers(max_value=0))})
    if defect == "truncated":
        text = json.dumps(config)
        return text[: draw(st.integers(1, len(text) - 1))]
    if defect == "no-object":
        return json.dumps({"config": draw(WRONG_VALUES["object"])})
    if defect == "no-equals":
        line = draw(NO_EQUALS_LINES)
    else:
        name = draw(st.sampled_from([name for name in readable if specs[name].kind != "path"]))
        config = {key: value for key, value in config.items() if key != name}
        line = f"{name} = {draw(BAD_NUMBERS | st.just('1,x'))}"
    lines = key_value_text(config).splitlines(keepends=True)
    lines.insert(draw(st.integers(0, len(lines))), line + "\n")
    return "".join(lines)


@st.composite
def malformed_certificates(draw, subcommand: str) -> str:
    """The text of a certificate for subcommand with one defect."""
    cert = dict(MAIER_CERT if subcommand == "maier" else NESTED_CERT)
    kinds = CERT_KINDS[subcommand]
    # An item is a list entry of a maier certificate, a series of a nested one.
    defect = draw(st.sampled_from(["missing", "wrong", "item", "no-object", "truncated"]))
    name = draw(st.sampled_from(sorted(kinds)))
    if defect == "missing":
        del cert[name]
    elif defect == "wrong":
        cert[name] = draw(WRONG_VALUES[kinds[name]] | st.none())
    elif defect == "item" and subcommand == "maier":
        name = draw(st.sampled_from(["eps", "caps"]))
        cert[name] = [*cert[name], draw(WRONG_VALUES["int"])]
    elif defect == "item":
        name = draw(st.sampled_from(["f", "g"]))
        cert[name] = draw(st.sampled_from([
            {"kind": draw(st.text(max_size=8).filter(
                lambda kind: kind not in ("constant", "coefficients", "rep-table", "combination")))},
            {"kind": "coefficients", "entries": [[0, 1], draw(WRONG_VALUES["list"])]},
            {"kind": "coefficients", "entries": [[0, 1], [draw(WRONG_VALUES["int"]), 1]]},
            {"kind": "coefficients", "values": [1, draw(WRONG_VALUES["int"])]},
            {"kind": "constant", "value": draw(WRONG_VALUES["int"])},
        ]))
    elif defect == "no-object":
        return json.dumps(draw(WRONG_VALUES["object"]))
    text = json.dumps(cert)
    return text[: draw(st.integers(1, len(text) - 1))] if defect == "truncated" else text


class TestMalformedInputs:
    """Malformed config files, for every subcommand, and malformed
    certificates exit 3 with a message, never with a traceback."""

    @pytest.mark.parametrize("subcommand", sorted(VALID_CONFIGS))
    def test_valid_configs_run(self, inputs, subcommand, capsys):
        assert set(VALID_CONFIGS) == set(cli.COMMANDS)
        path = inputs / "valid.cfg"
        path.write_text(json.dumps(absolute_config(subcommand, inputs)))
        assert run_cli(subcommand, "--config", str(path)) in (0, 1)
        assert capsys.readouterr().err == ""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), subcommand=st.sampled_from(sorted(VALID_CONFIGS)))
    def test_malformed_config_exits_3(self, inputs, data, subcommand):
        text = data.draw(malformed_configs(subcommand, absolute_config(subcommand, inputs)))
        path = inputs / "malformed.cfg"
        path.write_text(text)
        run_bad_input([subcommand, "--config", str(path)])

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), subcommand=st.sampled_from(["nested", "measure", "maier"]))
    def test_malformed_certificate_exits_3(self, inputs, data, subcommand):
        path = inputs / "malformed.json"
        path.write_text(data.draw(malformed_certificates(subcommand)))
        table = ["--table", str(inputs / "r33.bin")] if subcommand == "maier" else []
        run_bad_input([subcommand, "--cert", str(path), *table])

    @pytest.mark.parametrize("subcommand,field", [("nested", "E_prime"), ("maier", "N")])
    def test_missing_certificate_field_is_named(self, inputs, subcommand, field, capsys):
        cert = dict(MAIER_CERT if subcommand == "maier" else NESTED_CERT)
        del cert[field]
        path = inputs / "missing.json"
        path.write_text(json.dumps(cert))
        table = ["--table", str(inputs / "r33.bin")] if subcommand == "maier" else []
        assert run_cli(subcommand, "--cert", str(path), *table) == 3
        assert capsys.readouterr().err == f"waring-gaps: error: field {field}: missing\n"


class TestOutOfMemory:
    """Running out of memory, or a sieve refused as too large to fit, exits 3
    with one message line, not a traceback."""

    @pytest.mark.parametrize("subcommand", ["sieve", "nested"])
    def test_exits_3_under_a_2_gb_cap(self, tmp_path, subcommand):
        if subcommand == "sieve":
            args = ["sieve", "--ell", "3", "--s", "3", "--limit", str(10**13)]
        else:
            f = {"kind": "rep-table", "ell": 3, "s": 3, "limit": 10**13}
            (tmp_path / "cert.json").write_text(json.dumps(dict(NESTED_CERT, f=f)))
            args = ["nested", "--cert", "cert.json", "--json", "r.json"]
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1",
               "OPENBLAS_NUM_THREADS": "1"}
        proc = subprocess.run(
            [sys.executable, "-c", AS_LIMITED_CLI, str(2 << 30), *args],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 3, proc.stderr
        # The sieve is refused from its size, before it allocates: the dense
        # int64 counts alone are 8 * (10^13 + 1) bytes, past physical memory.
        assert proc.stderr.startswith(
            "waring-gaps: error: limit 10000000000000: the sieve needs at least "
            "80000000000008 bytes, past "
        )
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
        assert proc.stdout == "" and not (tmp_path / "r.json").exists()

    def test_sieve_past_the_address_space_cap_is_refused_before_it_allocates(self, tmp_path):
        # The (4,4) counts at 3 * 10^8 are int64, 2.4 GB, past a 1 GiB cap;
        # at 10^6 they fit, and the sieve under the same cap runs.
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1",
               "OPENBLAS_NUM_THREADS": "1"}
        messages = []
        for limit, status in ((3 * 10**8, 3), (10**6, 0)):
            proc = subprocess.run(
                [sys.executable, "-c", AS_LIMITED_CLI, str(1 << 30),
                 "sieve", "--ell", "4", "--s", "4", "--limit", str(limit), "--json", "r.json"],
                cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
            )
            assert proc.returncode == status, proc.stderr
            messages.append(proc.stderr)
        assert messages == [
            "waring-gaps: error: limit 300000000: the sieve needs at least 2400000008 bytes, "
            "past the address-space limit of 1073741824 bytes\n",
            "",
        ]
        assert json.loads((tmp_path / "r.json").read_text())["summary"]["limit"] == 10**6

    def test_maier_modulus_of_1501_digits_exits_3_within_seconds(self, tmp_path, table_file):
        # A residue profile modulo 10^1500 would list pow(x, 3, 2^1500) for
        # every x below 2^1500; the modulus is refused before one is built.
        (tmp_path / "cert.json").write_text(json.dumps(dict(MAIER_CERT, M="1" + "0" * 1500)))
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1",
               "OPENBLAS_NUM_THREADS": "1"}
        proc = subprocess.run(
            [sys.executable, "-c", AS_LIMITED_CLI, str(3 << 29), "maier", "--cert", "cert.json",
             "--table", str(table_file), "--json", "r.json"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=10,
        )
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr == "waring-gaps: error: field M: past the table's limit + 1 = 761\n"
        assert proc.stdout == "" and not (tmp_path / "r.json").exists()

    def test_message_of_a_bare_memory_error(self, monkeypatch, capsys):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(cli.repcount, "greedy_decompose", exhausted)
        assert run_cli("greedy", "--ell", "3", "--b", "50") == 3
        assert capsys.readouterr().err == "waring-gaps: error: ran out of memory\n"


class TestExceptionalFromTable:
    def test_table_gives_the_sieving_run(self, tmp_path):
        table = tmp_path / "t.bin"
        assert run_cli("sieve", "--ell", "4", "--s", "4", "--limit", "120",
                       "--out", str(table)) == 0
        runs = {}
        for name, extra in (("sieved", ()), ("read", ("--table", str(table)))):
            out, report = tmp_path / f"{name}.csv", tmp_path / f"{name}.json"
            assert run_cli("exceptional", "--limit", "120", "--epsilon", "1/100", *extra,
                           "--out", str(out), "--json", str(report)) == 0
            runs[name] = out.read_bytes(), json.loads(report.read_text())
        (sieved_csv, sieved), (read_csv, read) = runs["sieved"], runs["read"]
        assert read_csv == sieved_csv and sieved_csv.startswith(b"a\n")
        assert (sieved["config"]["table"], read["config"]["table"]) == (None, str(table))
        for report in (sieved, read):
            del report["config"]["table"], report["config"]["out"], report["config"]["json"]
        assert read == sieved
        assert read["result"]["limit"] == 120


class TestSeriesSpecs:
    """Every field of a series spec goes through the one parser, and a
    malformed or out-of-range one exits 3 naming its field."""

    @pytest.mark.parametrize(
        "f,message",
        [
            ({"kind": "coefficients", "entries": [[0, 1], [10, 1], [20, 1]], "label": {"x": 1}},
             "field label: expected string, got dict"),
            ({"kind": "coefficients", "entries": [[0, 1, 5], [10, 1], [20, 1]]},
             "field entries: expected an [index, coefficient] pair, got a list of 3"),
            ({"kind": "coefficients", "entries": [[0], [10, 1], [20, 1]]},
             "field entries: expected an [index, coefficient] pair, got a list of 1"),
            ({"kind": "coefficients", "entries": [[0, 1]], "c": "-1"}, "field c: -1 is below 0"),
            ({"kind": "coefficients", "values": [1], "c": "-1/2"}, "field c: -1/2 is below 0"),
            ({"kind": "rep-table", "ell": 3, "s": 3, "limit": -5},
             "field limit: -5 is below 0"),
            ({"kind": "coefficients", "entries": [[-1, 1]]}, "field entries: index -1 is below 0"),
        ],
        ids=["label", "entry-of-three", "entry-of-one", "c", "c-of-values", "limit",
             "negative-index"],
    )
    @pytest.mark.parametrize("subcommand", ["nested", "measure"])
    def test_malformed_field_exits_3_naming_it(self, tmp_path, capsys, subcommand, f, message):
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(dict(NESTED_CERT, f=f)))
        assert run_cli(subcommand, "--cert", str(cert), "--json", str(tmp_path / "r.json")) == 3
        assert capsys.readouterr().err == f"waring-gaps: error: {message}\n"
        assert not (tmp_path / "r.json").exists()

    def test_table_path_is_read_from_the_certificate_directory(self, tmp_path, monkeypatch):
        certs = tmp_path / "certs"
        certs.mkdir()
        write_table_binary(sieve_rep(WaringParams(3, 3), 760), certs / "r33.bin")
        monkeypatch.chdir(tmp_path)  # not the certificate's directory
        reports = []
        for f in ({"kind": "rep-table", "path": "r33.bin"},
                  {"kind": "rep-table", "ell": 3, "s": 3, "limit": 760}):
            cert = certs / "cert.json"
            cert.write_text(json.dumps(dict(NESTED_CERT, K1=2, K2=3, n1=4, n2=11, f=f)))
            assert run_cli("nested", "--cert", str(cert), "--json", "r.json") in (0, 1)
            reports.append(json.loads((tmp_path / "r.json").read_text())["report"])
        by_path, by_params = reports
        for key in ("verdict", "per_condition", "summary"):
            assert by_path[key] == by_params[key], key
        mild = {c["name"]: c for c in by_path["per_condition"]}["mild-gaps"]
        assert "f_3_3" in {check["function"] for check in mild["witness"]}
