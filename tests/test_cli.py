import json
import os
import re
import struct
import subprocess
import sys

import pytest

from cubicsums import arith as ar
from cubicsums import cli

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run(argv, capsys):
    rc = cli.main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


class TestSieve:
    def test_writes_file_and_summary(self, tmp_path, capsys):
        out = tmp_path / "t.bin"
        rc, stdout, _ = run(
            ["sieve", "--field", "cubic-nonnormal-2", "--N", "5000", "--output", str(out)],
            capsys,
        )
        assert rc == 0
        assert out.exists()
        assert "aK(1..20):  1 1 1 1 1 1 0 1 1 1" in stdout
        assert "rho[series_b_over_m]" in stdout and "rho[regression_on_A]" in stdout

    def test_roundtrip_deterministic(self, tmp_path, capsys):
        a = tmp_path / "a.bin"
        b = tmp_path / "b.bin"
        for path in (a, b):
            rc, _, _ = run(["sieve", "--N", "3000", "--output", str(path)], capsys)
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()

    def test_below_minimum_is_config_error(self, tmp_path, capsys):
        tau = ["experiment", "tau-growth", "--X", "1000"]
        for argv in (["sieve", "--N", "10", "--output", str(tmp_path / "x.bin")], ["verify", "--N", "500"],
                     ["experiment", "tau-growth", "--X", "1"], [*tau, "--l", "1"], [*tau, "--q", "0"],
                     ["experiment", "envelope", "--N", "1000", "--X", "0"]):
            rc, _, err = run(argv, capsys)
            assert rc == 2, argv
            assert "below the minimum" in err
        # x log(x)^(l^q - 1) overflows or underflows the float range, or tau_l overflows int64
        for args, message in ((["--X", "100", "--l", "30", "--q", "3"], "not a finite positive float"),
                              (["--X", "2,3", "--l", "30", "--q", "3"], "not a finite positive float"),
                              (["--l", "100"], "not a finite positive float"),
                              (["--X", "1e6", "--l", "60", "--q", "1"], "beyond int64")):
            rc, stdout, err = run(["experiment", "tau-growth", *args], capsys)
            assert rc == 2 and stdout == "", args
            assert message in err, args

    def test_B_outside_range_rejected_before_sieving(self, tmp_path, capsys):
        for B in ("5000", "500"):
            out = tmp_path / "t.bin"
            rc, stdout, err = run(["sieve", "--N", "2000", "--B", B, "--output", str(out)], capsys)
            assert rc == 2, B
            assert stdout == "" and not out.exists()
            assert f"--B {B} outside [1000, 2000]" in err

    def test_csv_preview(self, tmp_path, capsys):
        rc, _, _ = run(
            ["sieve", "--N", "2000", "--output", str(tmp_path / "t.bin"),
             "--csv", str(tmp_path / "t.csv")],
            capsys,
        )
        assert rc == 0
        assert (tmp_path / "t.csv").read_text().startswith("n,aK,muK,b,A,M")


class TestVerify:
    def test_quick_pass(self, tmp_path, capsys):
        rc, stdout, _ = run(
            ["verify", "--field", "cubic-nonnormal-2", "--N", "5000",
             "--X", "15", "--Y", "10,100", "--output", str(tmp_path / "checks.csv")],
            capsys,
        )
        assert rc == 0
        assert "[pass]" in stdout and "FAIL" not in stdout
        assert (tmp_path / "checks.csv").read_text().startswith("field,check,status,detail")

    def test_corrupted_tables_fail_with_counterexample(self, tmp_path, capsys):
        table_path = tmp_path / "t.bin"
        rc, _, _ = run(["sieve", "--N", "5000", "--output", str(table_path)], capsys)
        assert rc == 0
        data = bytearray(table_path.read_bytes())
        # flip one a_K value inside the payload (header is 4+8+len(field document)+8 bytes)
        (doclen,) = struct.unpack("<I", data[8:12])
        header = 4 + 8 + doclen + 8
        data[header + 8 * 499] ^= 0x01  # a_K(500)
        table_path.write_bytes(bytes(data))
        rc, stdout, _ = run(
            ["verify", "--field", "cubic-nonnormal-2", "--tables", str(table_path),
             "--X", "5", "--Y", "10"],
            capsys,
        )
        assert rc == 1
        assert "convolution identity failed at n=" in stdout

    def test_more_than_one_X_rejected(self, capsys):
        rc, stdout, err = run(["verify", "--N", "2000", "--X", "5,40"], capsys)
        assert rc == 2 and stdout == ""
        assert "verify takes one --X, got 2: 5,40" in err

    def test_seed_changes_samples_not_verdict(self, capsys):
        outs = []
        for seed in ("1", "2"):
            rc, stdout, _ = run(
                ["verify", "--field", "cubic-cyclic-7", "--N", "3000",
                 "--X", "8", "--Y", "10", "--seed", seed],
                capsys,
            )
            assert rc == 0
            line = next(l for l in stdout.splitlines() if "gcd dependence" in l)
            outs.append(line)
        assert outs[0] != outs[1]  # different sampled ideals reported

    def test_wrong_field_for_tables(self, tmp_path, capsys):
        table_path = tmp_path / "t.bin"
        run(["sieve", "--field", "cubic-cyclic-7", "--N", "2000", "--output", str(table_path)], capsys)
        rc, _, err = run(
            ["verify", "--field", "cubic-nonnormal-2", "--tables", str(table_path)], capsys
        )
        assert rc == 2
        assert "table file is for field" in err

    def test_tables_with_field_all_rejected_up_front(self, tmp_path, capsys):
        table_path = tmp_path / "t.bin"
        run(["sieve", "--N", "2000", "--output", str(table_path)], capsys)
        rc, stdout, err = run(["verify", "--field", "all", "--tables", str(table_path)], capsys)
        assert rc == 2
        assert stdout == ""
        assert "--field all" in err


class TestExperiments:
    def test_exponents_xt_output(self, capsys):
        rc, stdout, _ = run(["experiment", "exponents-xt"], capsys)
        assert rc == 0
        assert "X^{31/9} T^{14/9}" in stdout and "X^{26/9} T^{29/18}" in stdout
        assert "+eps" in stdout

    def test_exponents_report_independent_of_hash_seed(self):
        # frozenset order follows string hashing; summed in that order with plain
        # float addition, envelope_ratio differs in its last digit between seeds 0 and 8
        outs = []
        for seed in ("0", "8"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
            proc = subprocess.run(
                [sys.executable, "-m", "cubicsums.cli", "experiment", "exponents-xt", "--format", "json"],
                env=env, capture_output=True, check=True, timeout=120,
            )
            outs.append(proc.stdout)
        assert outs[0] == outs[1]

    def test_exponents_block_csv(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        rc, _, _ = run(["experiment", "exponents-block", "--output", str(out)], capsys)
        assert rc == 0
        assert "term" in out.read_text()

    def test_meansquare_small(self, capsys):
        rc, stdout, _ = run(
            ["experiment", "meansquare", "--X", "1", "--T", "1000", "--N", "10000",
             "--samples", "512", "--format", "json"],
            capsys,
        )
        assert rc == 0
        payload = json.loads(stdout)
        assert payload["config_hash"]
        assert payload["rho"] > 0
        row = payload["rows"][0]
        integral = row[payload["columns"].index("integral_R2")]
        assert integral > 0
        assert payload["ratio_trend"] in ("increasing", "decreasing", "mixed")

    def test_voronoi_report(self, capsys):
        rc, stdout, _ = run(
            ["experiment", "voronoi", "--N", "50000", "--T", "20000", "--y", "4,16",
             "--format", "json"],
            capsys,
        )
        assert rc == 0
        payload = json.loads(stdout)
        assert "fitted_decay_exponent" in payload

    def test_field_free_experiments(self, capsys):
        rc, stdout, _ = run(["experiment", "s1"], capsys)
        assert rc == 0
        assert "Y-dominant" in stdout
        rc, stdout, _ = run(
            ["experiment", "tau-growth", "--X", "1000,10000", "--l", "2", "--q", "1"], capsys
        )
        assert rc == 0
        rc, stdout, _ = run(["experiment", "pair-sum", "--T", "100,400"], capsys)
        assert rc == 0

    def test_pair_sum_default_T_list(self, capsys):
        # T = 10^3, 10^4, 10^5: the top of the pair sum's range
        rc, stdout, _ = run(["experiment", "pair-sum", "--format", "json"], capsys)
        assert rc == 0
        payload = json.loads(stdout)
        assert [row[0] for row in payload["rows"]] == [10**3, 10**4, 10**5] and payload["columns"][0] == "T"

    def test_field_free_experiments_read_no_field(self, capsys):
        # like exponents-*, they run whatever --field and --N say
        tau = ["tau-growth", "--X", "1000,10000", "--l", "2", "--q", "1"]
        for argv in (["s1"], ["pair-sum", "--T", "100,400"], tau):
            rc, _, err = run(["experiment", *argv, "--field", "florp", "--N", "10"], capsys)
            assert rc == 0, (argv, err)

    def test_rho_experiment(self, capsys):
        rc, stdout, _ = run(["experiment", "rho", "--N", "5000", "--B", "5000"], capsys)
        assert rc == 0
        assert "series_b_over_m" in stdout and "regression_on_A" in stdout

    def test_B_outside_range_rejected_before_sieving(self, capsys, monkeypatch):
        # --B 0 is a value, not "use the default", and a bad --B is refused before any sieving
        def no_sieve(*args):
            raise AssertionError("sieved before checking --B")

        monkeypatch.setattr(ar, "build_tables", no_sieve)
        for B in ("0", "3e6"):
            rc, stdout, err = run(["experiment", "rho", "--N", "2e6", "--B", B], capsys)
            assert rc == 2, B
            assert stdout == ""
            assert f"--B {int(float(B))} outside [1000, 2000000]" in err

    def test_p2_window_outside_table_rejected(self, capsys):
        window = "need 1 <= Y_lo < Y_hi <= N"
        for argv, message in ((["voronoi", "--T", "0"], window), (["voronoi", "--T", "-100"], window),
                              (["voronoi", "--T", "2000", "--y", "0"], "truncations y must be >= 1"),
                              (["meansquare-p2", "--T", "-100"], "need T >= 1")):
            rc, stdout, err = run(["experiment", *argv, "--N", "5000"], capsys)
            assert rc == 2 and stdout == "", argv
            assert message in err, argv

    def test_more_than_one_value_rejected_before_sieving(self, capsys, monkeypatch):
        def no_sieve(*args):
            raise AssertionError("sieved before checking the option")

        monkeypatch.setattr(ar, "build_tables", no_sieve)
        for argv, message in ((["meansquare", "--X", "1,2"], "experiment meansquare takes one --X, got 2: 1,2"),
                              (["voronoi", "--T", "10000,20000"],
                               "experiment voronoi takes one --T, got 2: 10000,20000")):
            rc, stdout, err = run(["experiment", *argv, "--N", "50000"], capsys)
            assert rc == 2 and stdout == "", argv
            assert message in err

    def test_B_checked_against_table_file(self, tmp_path, capsys):
        table_path = tmp_path / "t.bin"
        run(["sieve", "--N", "2000", "--output", str(table_path)], capsys)
        for B in ("0", "3000"):
            rc, stdout, err = run(["experiment", "rho", "--tables", str(table_path), "--B", B], capsys)
            assert rc == 2, B
            assert stdout == ""
            assert f"--B {B} outside [1000, 2000]" in err
        rc, stdout, _ = run(["experiment", "rho", "--tables", str(table_path), "--B", "1500"], capsys)
        assert rc == 0
        assert ",1500\n" in stdout

    def test_table_file_for_another_field_rejected(self, tmp_path, capsys):
        # same name and polynomial, another splitting of the index divisor 3
        doc = "name = w\npoly = -10, 0, 0\noverride.3 = {}\n"
        table_path = tmp_path / "t.bin"
        rc, _, _ = run(["sieve", "--field", doc.format("1:1+1:2"), "--N", "2000", "--output", str(table_path)],
                       capsys)
        assert rc == 0
        rc, stdout, err = run(["experiment", "rho", "--field", doc.format("1:3"), "--N", "2000",
                               "--tables", str(table_path)], capsys)
        assert rc == 2 and stdout == ""
        assert "override.3 = 1:1+1:2" in err and "override.3 = 1:3" in err

    def test_v1_table_file_rejected(self, tmp_path, capsys):
        table_path = tmp_path / "t.bin"
        run(["sieve", "--N", "2000", "--output", str(table_path)], capsys)
        data = table_path.read_bytes()
        name = b"cubic-nonnormal-2"
        (doclen,) = struct.unpack("<I", data[8:12])
        table_path.write_bytes(b"CBSM" + struct.pack("<II", 1, len(name)) + name + data[12 + doclen :])
        rc, stdout, err = run(["experiment", "rho", "--tables", str(table_path)], capsys)
        assert rc == 2 and stdout == ""
        assert "unsupported table version 1" in err
        # a v2 file (int64 values) is refused the same way
        table_path.write_bytes(data[:4] + struct.pack("<I", 2) + data[8:])
        rc, stdout, err = run(["experiment", "rho", "--tables", str(table_path)], capsys)
        assert rc == 2 and stdout == ""
        assert "unsupported table version 2" in err

    def test_table_file_cut_inside_header(self, tmp_path, capsys):
        table_path = tmp_path / "t.bin"
        table_path.write_bytes(b"CBSM\x02\x00")
        rc, stdout, err = run(["experiment", "rho", "--tables", str(table_path)], capsys)
        assert rc == 2 and stdout == ""
        assert "ends inside its header" in err and "Traceback" not in err

    def test_unknown_experiment(self, capsys):
        rc, _, err = run(["experiment", "florp", "--N", "1000"], capsys)
        assert rc == 2
        assert "unknown experiment" in err

    def test_unknown_field(self, capsys):
        rc, _, err = run(["experiment", "rho", "--field", "florp", "--N", "1000"], capsys)
        assert rc == 2

    def test_bad_subcommand(self, capsys):
        rc, _, _ = run(["bogus"], capsys)
        assert rc == 2


OPTIONS = {
    "sieve": {"--field", "--N", "--B", "--output", "--csv"},
    "verify": {"--field", "--N", "--seed", "--tables", "--output", "--X", "--Y"},
    "experiment": {"--field", "--N", "--rho-method", "--output", "--format", "--tables", "--B", "--X", "--T",
                   "--y", "--samples", "--l", "--q", "--expr", "--var", "--h1", "--h2", "--cone"},
}


class TestOptions:
    @pytest.mark.parametrize("command", sorted(OPTIONS))
    def test_help_lists_the_options_read(self, command, capsys):
        rc, stdout, _ = run([command, "--help"], capsys)
        assert rc == 0
        assert set(re.findall(r"--[\w-]+", stdout)) - {"--help"} == OPTIONS[command]

    @pytest.mark.parametrize("command,option,value", [
        ("sieve", "--rho-method", "regression_on_A"), ("sieve", "--format", "json"), ("sieve", "--seed", "5"),
        ("sieve", "--tables", "t.bin"), ("verify", "--rho-method", "regression_on_A"),
        ("verify", "--format", "json"), ("verify", "--B", "2000"), ("experiment", "--Y", "10"),
        ("experiment", "--seed", "5"),
    ])
    def test_option_not_read_is_rejected(self, command, option, value, capsys):
        argv = [command, *(["s1"] if command == "experiment" else []), option, value]
        rc, stdout, err = run(argv, capsys)
        assert rc == 2 and stdout == ""
        assert f"unrecognized arguments: {option} {value}" in err


class TestConfigHash:
    def test_stable_and_sensitive(self):
        a = cli.RunConfig(field="x", N=1000, rho_method="series_b_over_m", experiment=None,
                          output=None, fmt="csv", seed=0)
        b = cli.RunConfig(field="x", N=1000, rho_method="series_b_over_m", experiment=None,
                          output=None, fmt="csv", seed=0)
        c = cli.RunConfig(field="x", N=2000, rho_method="series_b_over_m", experiment=None,
                          output=None, fmt="csv", seed=0)
        assert a.hash() == b.hash()
        assert a.hash() != c.hash()

    def test_pinned(self, capsys):
        # fields a subcommand does not take keep their defaults, so hashes survive option changes
        rc, stdout, _ = run(["experiment", "rho", "--N", "3000"], capsys)
        assert rc == 0
        assert stdout.startswith("# config_hash=c2837eeacb96\n")
