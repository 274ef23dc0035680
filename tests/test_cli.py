import doctest
import errno
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import jsonschema
import pytest

from almostabelian import cli, cohomology
from almostabelian.cli import main
from almostabelian.exactla import RationalMatrix
from almostabelian.model import ComplexModel, build_algebra, enumerate_models, structure_equations
from almostabelian.partitions import Partition
from almostabelian.records import EXPORT_SCHEMA, ExportRecord, compact_equations
from permuted import dense_of


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


class TestEnumerate:
    def test_dim_six(self, capsys):
        code, out, _ = run_cli(["enumerate", "--dim", "6"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        ms = {line.split()[0] for line in lines}
        assert ms == {"m=[2,2,1]", "m=[3,2]", "m=[2,1,1,1]"}

    def test_dim_four(self, capsys):
        code, out, _ = run_cli(["enumerate", "--dim", "4"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("m=[2,1] q=[1] j=2 eps=1 step=2")

    def test_odd_dim_usage_error(self, capsys):
        code, _, err = run_cli(["enumerate", "--dim", "3"], capsys)
        assert code == 1
        assert "even integer" in err

    def test_too_small(self, capsys):
        code, _, _ = run_cli(["enumerate", "--dim", "2"], capsys)
        assert code == 1

    @pytest.mark.parametrize("dim", range(4, 16, 2))
    def test_commutator_is_the_rank_of_a(self, capsys, dim):
        _, out, _ = run_cli(["enumerate", "--dim", str(dim)], capsys)
        lines = out.splitlines()
        models = list(enumerate_models((dim - 2) // 2))
        assert len(lines) == len(models)
        for line, c in zip(lines, models):
            assert line.startswith("m=%s q=%s j=%d " % (c.m, c.q, c.j))
            commutator = RationalMatrix(dense_of(build_algebra(c).A)).rank()
            assert line.endswith(" commutator=%d" % commutator)

    def test_deterministic(self, capsys):
        _, first, _ = run_cli(["enumerate", "--dim", "8"], capsys)
        _, second, _ = run_cli(["enumerate", "--dim", "8"], capsys)
        assert first == second


class TestClassify:
    def test_no_structure(self, capsys):
        code, out, _ = run_cli(["classify", "--jordan", "3"], capsys)
        assert code == 2
        assert "no complex structure" in out

    def test_heisenberg(self, capsys):
        code, out, _ = run_cli(["classify", "--jordan", "2,1"], capsys)
        assert code == 0
        assert "q=[1] j=2" in out

    def test_three_two_any_order(self, capsys):
        code, out, _ = run_cli(["classify", "--jordan", "2,3"], capsys)
        assert code == 0
        assert "q=[2] j=3" in out

    def test_abelian_type(self, capsys):
        code, _, _ = run_cli(["classify", "--jordan", "1,1,1"], capsys)
        assert code == 2

    def test_even_sum_rejected(self, capsys):
        code, _, _ = run_cli(["classify", "--jordan", "2,2"], capsys)
        assert code == 1

    def test_parse_error(self, capsys):
        code, _, _ = run_cli(["classify", "--jordan", "2,x"], capsys)
        assert code == 1


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            # found after parsing: the model check, the --dim and --jordan
            # rules, the --max-dim floor
            ["invariants", "--q", "3", "--j", "3"],
            ["export", "--q", "3", "--j", "3", "--format", "json"],
            ["enumerate", "--dim", "5"],
            ["classify", "--jordan", "2,2"],
            ["verify", "--max-dim", "2"],
            # found by argparse
            ["invariants", "--q", "0", "--j", "1"],
        ],
    )
    def test_reported_with_the_subcommand_usage(self, capsys, argv):
        code, out, err = run_cli(argv, capsys)
        prog = "almostabelian " + argv[0]
        assert code == 1 and out == ""
        assert err.startswith("usage: %s " % prog)
        assert err.splitlines()[-1].startswith("%s: error: " % prog)


class TestInvariants:
    def test_single_block_n2_text(self, capsys):
        code, out, _ = run_cli(["invariants", "--q", "2", "--j", "3"], capsys)
        assert code == 0
        assert "betti: 1 3 6 8 6 3 1" in out
        # h^{1,1} = 3 sits in row p=1, column q=1
        grid_lines = out.split("cols q=0..3):\n")[1].splitlines()
        assert grid_lines[1].split() == ["1", "3", "3", "1"]
        assert "symmetry=n/a" in out

    def test_heisenberg_plus_r3_json(self, capsys):
        code, out, _ = run_cli(
            ["invariants", "--q", "1,1", "--j", "2", "--format", "json"], capsys
        )
        assert code == 0
        data = json.loads(out)
        jsonschema.validate(data, EXPORT_SCHEMA)
        assert data["hodge"][1][0] == 2
        assert data["hodge"][0][1] == 3
        assert data["source"] == "closed-form"
        assert data["checks"]["symmetry"] is None

    def test_symmetric_model_checks(self, capsys):
        code, out, _ = run_cli(
            ["invariants", "--q", "2,2", "--j", "1", "--format", "json"], capsys
        )
        assert code == 0
        data = json.loads(out)
        assert data["epsilon"] == 0
        assert data["checks"]["symmetry"] is True

    def test_oracle_source_agrees(self, capsys):
        code, closed_out, _ = run_cli(
            ["invariants", "--q", "1,1", "--j", "2", "--format", "json"], capsys
        )
        assert code == 0
        code, oracle_out, _ = run_cli(
            ["invariants", "--q", "1,1", "--j", "2", "--format", "json", "--oracle"], capsys
        )
        assert code == 0
        closed = json.loads(closed_out)
        oracle = json.loads(oracle_out)
        jsonschema.validate(oracle, EXPORT_SCHEMA)
        assert oracle["source"] == "oracle"
        assert oracle["betti"] == closed["betti"]
        assert oracle["hodge"] == closed["hodge"]

    def test_invalid_overlap(self, capsys):
        code, _, err = run_cli(["invariants", "--q", "2", "--j", "5"], capsys)
        assert code == 1
        assert "needs a part" in err

    def test_abelian_rejected(self, capsys):
        code, _, _ = run_cli(["invariants", "--q", "1,1", "--j", "1"], capsys)
        assert code == 1

    def test_output_flag(self, capsys, tmp_path):
        target = tmp_path / "record.json"
        code, out, _ = run_cli(
            ["invariants", "--q", "2", "--j", "3", "--format", "json", "--output", str(target)],
            capsys,
        )
        assert code == 0 and out == ""
        data = json.loads(target.read_text())
        jsonschema.validate(data, EXPORT_SCHEMA)

    @pytest.mark.parametrize("command", ["invariants", "export"])
    def test_unwritable_output_is_one_line_error(self, capsys, tmp_path, command):
        base = [command, "--q", "2", "--j", "3", "--format", "json", "--output"]
        for target in (tmp_path / "missing" / "record.json", tmp_path):
            code, out, err = run_cli(base + [str(target)], capsys)
            assert code == 1 and out == ""
            assert err.startswith("error: cannot write %s: " % target)
            assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "missing").exists()

    def test_byte_determinism(self, capsys):
        args = ["invariants", "--q", "2,1", "--j", "2", "--format", "json"]
        _, first, _ = run_cli(args, capsys)
        _, second, _ = run_cli(args, capsys)
        assert first == second


class TestExport:
    def test_heisenberg_salamon(self, capsys):
        code, out, _ = run_cli(["export", "--q", "1", "--j", "2", "--format", "salamon"], capsys)
        assert code == 0
        assert out == "(0, 11b)\n"

    def test_chain_salamon(self, capsys):
        code, out, _ = run_cli(["export", "--q", "2", "--j", "1", "--format", "salamon"], capsys)
        assert code == 0
        assert out == "(0, 0, 12+1b2)\n"

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(["export", "--q", "2", "--j", "3", "--format", "json"], capsys)
        assert code == 0
        data = json.loads(out)
        jsonschema.validate(data, EXPORT_SCHEMA)
        record = ExportRecord.from_json(out)
        model = record.model()
        assert model == ComplexModel(2, Partition([2]), 3)
        assert ExportRecord.for_model(model) == record
        assert record.to_json() == out

    def test_rules_content(self, capsys):
        code, out, _ = run_cli(["export", "--q", "1", "--j", "2", "--format", "json"], capsys)
        assert code == 0
        data = json.loads(out)
        eqs = {item["gen"]: item["d"] for item in data["equations"]}
        assert eqs["alpha"] == []
        assert eqs["beta0_1"] == [{"coef": 1, "factors": ["alpha", "alpha_bar"]}]

    def test_invalid_model(self, capsys):
        code, _, _ = run_cli(["export", "--q", "2", "--j", "5", "--format", "json"], capsys)
        assert code == 1


# sha256 over the argv, exit status, stdout and stderr of every run in
# TestPinnedOutput, pinned before the wedge signs of every complex moved
# into cohomology._slot_terms.
OUTPUT_DIGEST = "8a3d4d1123da131dc114d0d0ffcd9812de5a8829e9dfdb5b2904e41d9c399f46"

# sha256 over the stdout of every run in
# TestPinnedOutput.test_record_formats_are_byte_identical.
RECORD_FORMATS_DIGEST = "f9345bf2befec2c9e102692259753089a5a0e27fff26aa25d3b2fe662bf05c0e"


class TestPinnedOutput:
    def test_invariants_and_export_are_byte_identical(self, capsys):
        # invariants (text and json) and export --format salamon on the 178
        # models with n <= 8, invariants --oracle --format json on the 39
        # with n <= 5
        digest = hashlib.sha256()
        runs = 0
        for n in range(1, 9):
            for c in enumerate_models(n):
                model = ["--q", ",".join(map(str, c.q)), "--j", str(c.j)]
                argvs = [
                    ["invariants"] + model,
                    ["invariants"] + model + ["--format", "json"],
                    ["export"] + model + ["--format", "salamon"],
                ]
                if n <= 5:
                    argvs.append(["invariants"] + model + ["--oracle", "--format", "json"])
                for argv in argvs:
                    code, out, err = run_cli(argv, capsys)
                    assert code == 0, argv
                    digest.update(("%s\n%s\n%s\n%s\n" % (" ".join(argv), code, out, err)).encode())
                    runs += 1
        assert runs == 3 * 178 + 39
        assert digest.hexdigest() == OUTPUT_DIGEST

    def test_record_formats_are_byte_identical(self, capsys):
        # one sha256 over the stdout alone of invariants (text and json) and
        # export (json and salamon) on the 68 models with n <= 6, and of
        # invariants --oracle (text) on the 21 with n <= 4, pinned while cli
        # rendered the text tables itself
        digest = hashlib.sha256()
        runs = 0
        for n in range(1, 7):
            for c in enumerate_models(n):
                model = ["--q", ",".join(map(str, c.q)), "--j", str(c.j)]
                argvs = [
                    ["invariants"] + model,
                    ["invariants"] + model + ["--format", "json"],
                    ["export"] + model + ["--format", "json"],
                    ["export"] + model + ["--format", "salamon"],
                ]
                if n <= 4:
                    argvs.append(["invariants"] + model + ["--oracle"])
                for argv in argvs:
                    code, out, _ = run_cli(argv, capsys)
                    assert code == 0, argv
                    digest.update(out.encode())
                    runs += 1
        assert runs == 4 * 68 + 21
        assert digest.hexdigest() == RECORD_FORMATS_DIGEST


# The exact stdout of `verify`, pinned before the per-model checks moved
# into the registry of cohomology.CHECKS.
VERIFY_STDOUT = {
    6: (
        "representation identities: 543 passed, 0 failed\n"
        "partition identities: 6413 passed, 0 failed\n"
        "enumeration: 15 passed, 0 failed\n"
        "structural checks: 40 passed, 0 failed\n"
        "oracle agreement: 8 passed, 0 failed\n"
        "frolicher: 8 passed, 0 failed\n"
        "symmetry and duality: 16 passed, 0 failed\n"
        "models checked: 4\n"
        "result: PASS\n"
    ),
    8: (
        "representation identities: 543 passed, 0 failed\n"
        "partition identities: 6413 passed, 0 failed\n"
        "enumeration: 34 passed, 0 failed\n"
        "structural checks: 100 passed, 0 failed\n"
        "oracle agreement: 20 passed, 0 failed\n"
        "frolicher: 20 passed, 0 failed\n"
        "symmetry and duality: 40 passed, 0 failed\n"
        "models checked: 10\n"
        "result: PASS\n"
    ),
}


class TestVerify:
    def test_small_sweep_passes(self, capsys):
        code, out, _ = run_cli(["verify", "--max-dim", "6"], capsys)
        assert code == 0
        assert out == VERIFY_STDOUT[6]

    def test_failure_names_model_and_check(self, capsys, monkeypatch):
        def step_fails_on_q2_j3(name, category, predicate):
            if name != "step_formula":
                return name, category, predicate
            return name, category, lambda f: (f.model.q, f.model.j) != (Partition([2]), 3)

        patched = tuple(step_fails_on_q2_j3(*entry) for entry in cohomology.CHECKS)
        monkeypatch.setattr(cohomology, "CHECKS", patched)
        code, out, _ = run_cli(["verify", "--max-dim", "6"], capsys)
        assert code == 3
        lines = out.splitlines()
        assert "structural checks: 39 passed, 1 failed" in lines
        assert lines[-2:] == ["result: FAIL", "failed: q=[2] j=3 check=step_formula"]

    def test_package_error_in_a_check_is_a_failed_check(self, capsys, monkeypatch):
        real = cohomology.structure_equations

        def alpha_is_not_closed(model):
            eqs = real(model)
            # d(alpha) = conj(alpha) ^ conj(beta): a (0,2)-form, so d does
            # not split into (1,0) + (0,1) parts
            beta = (eqs.generators[1], True)
            rules = tuple(
                (name, ((1, (("alpha", True), beta)),) if name == "alpha" else terms)
                for name, terms in eqs.rules
            )
            return replace(eqs, rules=rules)

        monkeypatch.setattr(cohomology, "structure_equations", alpha_is_not_closed)
        code, out, err = run_cli(["verify", "--max-dim", "6"], capsys)
        assert code == 3
        assert "Traceback" not in out + err
        lines = out.splitlines()
        for c in list(enumerate_models(1)) + list(enumerate_models(2)):
            for check in ("d_splits", "dbar_squared", "hodge_oracle_eq"):
                assert "failed: q=%s j=%d check=%s" % (c.q, c.j, check) in lines
            for check in ("d_squared", "betti_oracle_eq", "frolicher_closed", "symmetry_closed"):
                assert "failed: q=%s j=%d check=%s" % (c.q, c.j, check) not in lines

    def test_dim8_model_count(self, capsys):
        code, out, _ = run_cli(["verify", "--max-dim", "8"], capsys)
        assert code == 0
        assert out == VERIFY_STDOUT[8]

    def test_usage_error(self, capsys):
        code, _, _ = run_cli(["verify", "--max-dim", "2"], capsys)
        assert code == 1

    @pytest.mark.parametrize("value", ["2", "abc"])
    def test_former_workers_variable_is_ignored(self, capsys, monkeypatch, value):
        # verify reads no environment variable: this one, set to a count
        # or to no integer at all, changes neither its output nor stderr
        monkeypatch.setenv("ALMOSTABELIAN_WORKERS", value)
        assert run_cli(["verify", "--max-dim", "8"], capsys) == (0, VERIFY_STDOUT[8], "")

    def test_unexpected_error_in_a_check_is_a_failed_check(self, capsys, monkeypatch):
        def overflows(*args):
            raise OverflowError("int too large to convert")

        monkeypatch.setattr(cohomology, "_cohomology", overflows)
        code, out, err = run_cli(["verify", "--max-dim", "6"], capsys)
        assert code == 3
        assert "Traceback" not in out + err
        lines = out.splitlines()
        assert "result: FAIL" in lines
        for c in list(enumerate_models(1)) + list(enumerate_models(2)):
            for check in ("betti_oracle_eq", "hodge_oracle_eq"):
                assert "failed: q=%s j=%d check=%s" % (c.q, c.j, check) in lines
            for check in ("d_squared", "dbar_squared", "frolicher_closed", "symmetry_closed"):
                assert "failed: q=%s j=%d check=%s" % (c.q, c.j, check) not in lines


class TestSizeLimits:
    @pytest.mark.parametrize(
        "argv",
        [
            ["invariants", "--q", "99999999999999999999", "--j", "1"],
            ["invariants", "--q", "201", "--j", "1"],
            ["invariants", "--q", str(cli.MAX_ORACLE_N + 1), "--j", "1", "--oracle"],
            ["export", "--q", "196,5", "--j", "1", "--format", "json"],
            ["enumerate", "--dim", "200"],
            ["enumerate", "--dim", "102"],
            ["classify", "--jordan", "500001,500000"],
            ["classify", "--jordan", "99999999999999999999"],
            ["verify", "--max-dim", "24"],
            ["verify", "--max-dim", "1000000"],
        ],
    )
    def test_rejected_before_any_work(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run_cli(argv, capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "above the limit" in lines[0]

    def test_limits_admit_the_documented_sizes(self):
        assert cli.MAX_CLASSIFY_TOTAL >= 101  # classify --jordan 51,50
        assert cli.MAX_VERIFY_DIM >= 16
        assert cli.MAX_ORACLE_N <= cli.MAX_MODEL_N

    def test_odd_max_dim_rounds_down_before_the_limit(self, monkeypatch, capsys):
        seen = []
        monkeypatch.setattr(cli, "run_verify", lambda d: seen.append(d) or (["result: PASS"], True))
        code, out, _ = run_cli(["verify", "--max-dim", "17"], capsys)
        assert code == 0 and seen == [16] and out == "result: PASS\n"

    @pytest.mark.parametrize("max_dim", ["22", "23"])
    def test_max_dim_at_the_limit_runs(self, monkeypatch, capsys, max_dim):
        seen = []
        monkeypatch.setattr(cli, "run_verify", lambda d: seen.append(d) or (["result: PASS"], True))
        code, out, _ = run_cli(["verify", "--max-dim", max_dim], capsys)
        assert code == 0 and seen == [22] == [cli.MAX_VERIFY_DIM]

    def test_at_the_limit_is_accepted(self, capsys):
        ones = ",".join(["1"] * cli.MAX_MODEL_N)
        code, out, _ = run_cli(["invariants", "--q", ones, "--j", "2"], capsys)
        assert code == 0 and out.startswith("model: n=%d " % cli.MAX_MODEL_N)


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "almostabelian", "classify", "--jordan", "3,2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "q=[2] j=3" in proc.stdout

    def test_module_invocation_negative(self):
        proc = subprocess.run(
            [sys.executable, "-m", "almostabelian", "classify", "--jordan", "5"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2

    def test_import_loads_no_process_pool(self):
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, almostabelian.cli; "
                "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])",
            ],
            capture_output=True,
            text=True,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")

    def test_closed_stdout_exits_quietly(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "almostabelian", "enumerate", "--dim", "40"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline().startswith(b"m=[19,19,1] q=[19] j=1 ")
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == cli.EXIT_BROKEN_PIPE
        assert err == b""

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full")
    @pytest.mark.parametrize(
        "argv",
        [
            ["enumerate", "--dim", "40"],
            ["invariants", "--q", "2", "--j", "3"],
            ["--help"],
            ["verify", "--help"],
        ],
    )
    def test_full_stdout_gives_one_error_line(self, argv):
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "almostabelian", *argv],
                stdout=full,
                stderr=subprocess.PIPE,
                text=True,
            )
        assert proc.returncode == cli.EXIT_USAGE
        assert proc.stderr == "error: cannot write standard output: No space left on device\n"


class FailingStdout:
    """A standard output whose writes raise `error`, on a real descriptor
    that main may point at devnull."""

    def __init__(self, error, fd):
        self.error, self.fd = error, fd

    def write(self, text):
        raise self.error

    def flush(self):
        pass

    def fileno(self):
        return self.fd


class TestStdoutErrors:
    @pytest.mark.parametrize(
        "error, code, err",
        [
            (
                OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)),
                cli.EXIT_USAGE,
                "error: cannot write standard output: %s\n" % os.strerror(errno.ENOSPC),
            ),
            (BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE)), cli.EXIT_BROKEN_PIPE, ""),
        ],
        ids=["ENOSPC", "EPIPE"],
    )
    @pytest.mark.parametrize(
        "argv",
        [
            ["invariants", "--q", "2", "--j", "3"],
            ["classify", "--jordan", "5"],
            # argparse writes the help itself, and would drop the OSError
            ["--help"],
            ["verify", "--help"],
        ],
    )
    def test_failed_write(self, argv, error, code, err, tmp_path, monkeypatch, capsys):
        with open(tmp_path / "out", "w") as handle:
            monkeypatch.setattr(sys, "stdout", FailingStdout(error, handle.fileno()))
            assert main(argv) == code
            # the descriptor now writes to devnull, so the flush at exit
            # cannot fail again
            assert os.path.samestat(os.fstat(handle.fileno()), os.stat(os.devnull))
        assert capsys.readouterr().err == err

    @pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]])
    def test_help_still_exits_0(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (0, "")
        assert out.startswith("usage: almostabelian ")

    def test_failed_flush(self, tmp_path, monkeypatch, capsys):
        class FailingFlush(FailingStdout):
            def write(self, text):
                pass

            def flush(self):
                raise self.error

        with open(tmp_path / "out", "w") as handle:
            error = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            monkeypatch.setattr(sys, "stdout", FailingFlush(error, handle.fileno()))
            assert main(["verify", "--max-dim", "4"]) == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: cannot write standard output: ")

    def test_other_os_errors_surface(self, monkeypatch):
        def failed(max_dim):
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        monkeypatch.setattr(cli, "run_verify", failed)
        with pytest.raises(OSError) as info:
            main(["verify", "--max-dim", "4"])
        assert info.value.errno == errno.EAGAIN


class TestRecords:
    def test_compact_notation_two_digit_indices(self):
        q = Partition([5, 5])
        model = ComplexModel(10, q, 6)
        text = compact_equations(structure_equations(model))
        assert text.startswith("(0, 11b,")
        assert "(10)" in text or "(11)" in text

    def test_from_dict_defaults_source(self):
        model = ComplexModel(1, Partition([1]), 2)
        record = ExportRecord.for_model(model)
        data = record.to_dict()
        del data["source"]
        assert ExportRecord.from_dict(data).source == "closed-form"

    def test_text_checks_line_when_every_check_fails(self):
        # no real model fails its checks; the line was confirmed on this
        # record while cli rendered the text tables itself
        record = ExportRecord.for_model(ComplexModel(2, Partition([2]), 1))
        failed = replace(record, checks=tuple((name, False) for name, _ in record.checks))
        assert failed.to_text().splitlines()[-1] == (
            "checks: frolicher=no symmetry=no nijenhuis=no"
        )

    @pytest.mark.parametrize("n", range(1, 7))
    def test_json_round_trip(self, n):
        for c in enumerate_models(n):
            record = ExportRecord.for_model(c)
            assert ExportRecord.from_json(record.to_json()) == record

    @pytest.mark.parametrize("n", range(1, 9))
    def test_json_is_what_json_dumps_writes(self, n):
        # the closed-form record of each model with n <= 8, and the oracle
        # record of each with n <= 4
        sources = ("closed-form", "oracle") if n <= 4 else ("closed-form",)
        for c in enumerate_models(n):
            for source in sources:
                record = ExportRecord.for_model(c, source)
                assert record.to_json() == json.dumps(record.to_dict(), indent=2) + "\n"

    def test_json_of_edge_records_is_what_json_dumps_writes(self):
        record = ExportRecord.for_model(ComplexModel(2, Partition([2]), 1))
        gen, terms = next(eq for eq in record.equations if eq[1])
        (_, factors), *_ = terms
        edges = [
            replace(record, checks=tuple((name, False) for name, _ in record.checks)),
            replace(record, checks=tuple((name, None) for name, _ in record.checks)),
            replace(record, equations=((gen, ()),) + record.equations),
            replace(record, equations=((gen, ((-2, factors), (10, factors))),)),
            replace(record, equations=(('b"\\éta', terms),), source='x"\\é'),
            replace(record, q=(), betti=(), hodge=((),), equations=(), checks=()),
        ]
        for edge in edges:
            assert edge.to_json() == json.dumps(edge.to_dict(), indent=2) + "\n"
        assert '"gen": "b\\"\\\\\\u00e9ta"' in edges[4].to_json()


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_block(heading, fence):
    """The first code block fenced as `fence` after `heading` in README.md."""
    text = README.read_text()
    start = text.index("```%s\n" % fence, text.index(heading)) + len(fence) + 4
    return text[start : text.index("```", start)]


class TestReadme:
    def test_library_examples(self):
        failed, attempted = doctest.testfile(str(README), module_relative=False)
        assert (failed, attempted) == (0, 4)

    def test_command_line_examples(self, capsys):
        # each `$ almostabelian ...` line with the output lines below it, up
        # to a blank line or the next comment
        examples = re.findall(
            r"^\$ almostabelian (.*)\n((?:[^#$\n].*\n)*)",
            readme_block("## Command line", "sh"),
            re.M,
        )
        assert [argv.split()[0] for argv, _ in examples] == [
            "enumerate", "classify", "invariants", "export", "verify"
        ]
        for argv, shown in examples:
            code, out, _ = run_cli(argv.split(), capsys)
            assert code == 0, argv
            if shown:
                assert out == shown, argv

    def test_json_record_example(self, capsys):
        code, out, _ = run_cli(["export", "--q", "1", "--j", "2", "--format", "json"], capsys)
        assert code == 0
        assert json.loads(readme_block("## JSON record", "json")) == json.loads(out)
