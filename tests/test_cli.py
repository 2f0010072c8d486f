import os
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest

import qca2
from qca2 import analysis, cli, io_formats, rules
from qca2.cli import main
from qca2.io_formats import parse_config, parse_script, read_csv

from helpers import doubled_identity, format_complex, random_unitary

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

FIG2_SCRIPT = SCRIPTS / "fig2.qscript"
FIG3_CONF = SCRIPTS / "fig3.conf"


@pytest.fixture
def cyclic_conf(tmp_path):
    path = tmp_path / "cyclic.conf"
    path.write_text("cells=2\nrule=right\nboundary=cyclic\neval=h_both\nsteps=10\ninitial=2\n")
    return path


class TestScriptCommand:
    def test_fig2_outputs(self, tmp_path, capsys):
        csv_path = tmp_path / "fig2.csv"
        pgm_path = tmp_path / "fig2.pgm"
        code = main([
            "script", str(FIG2_SCRIPT),
            "--out-csv", str(csv_path), "--out-pgm", str(pgm_path),
        ])
        assert code == 0
        matrix = read_csv(csv_path.read_text())
        expected = np.array([[0, 0.5, 0.5], [0, 0, 0], [1, 0.5, 0], [0, 0, 0.5]])
        assert np.max(np.abs(matrix - expected)) <= 1e-12
        lines = pgm_path.read_bytes().decode().splitlines()
        assert lines[:3] == ["P2", "3 4", "255"]
        assert lines[3] == "255 128 128"
        assert lines[5] == "0 128 255"
        assert lines[6] == "255 255 128"

    def test_csv_to_stdout_by_default(self, capsys):
        assert main(["script", str(FIG2_SCRIPT)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("state,t0,t1,t2\n")


class TestSimulateCommand:
    def test_fig3_run(self, tmp_path):
        csv_path = tmp_path / "fig3.csv"
        code = main(["simulate", str(FIG3_CONF), "--out-csv", str(csv_path)])
        assert code == 0
        matrix = read_csv(csv_path.read_text())
        assert matrix.shape == (64, 51)
        assert matrix[32, 0] == 1.0

    def test_malformed_config_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.conf"
        bad.write_text("cells=2\nrule=diagonal\nsteps=1\ninitial=0\n")
        assert main(["simulate", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exits_two(self, capsys):
        assert main(["simulate", "/nonexistent/x.conf"]) == 2


# Several blocks each, streamed to a file and to stdout, against the writers'
# joins: 1024 rows of 202 columns for `simulate` and `script` (four CSV
# blocks), and 1024 complex columns for `matrix` (32 blocks).
@pytest.mark.parametrize("command", ["simulate", "script", "matrix"])
def test_streamed_outputs_equal_the_joined_writers(command, tmp_path, capsys):
    path = tmp_path / "run.in"
    if command == "script":
        path.write_text("cells=5\ninitial=3\n" + "step\nH s0\nCN s0 c4\nH c2\n" * 201)
        expected = io_formats.write_csv(rules.run_gate_script(*parse_script(path.read_text())))
    else:
        path.write_text("cells=5\nrule=both\nboundary=cyclic\neval=h_s_then_cn\n"
                        "steps=201\ninitial=5\n")
        config = parse_config(path.read_text())
        expected = (io_formats.write_operator_csv(rules.build_dense_rule(config))
                    if command == "matrix" else io_formats.write_csv(rules.evolve(config)))
    assert main([command, str(path)]) == 0
    assert capsys.readouterr().out == expected
    if command != "matrix":
        csv_path = tmp_path / "out.csv"
        assert main([command, str(path), "--out-csv", str(csv_path)]) == 0
        assert csv_path.read_bytes() == expected.encode()


# Growth of a fresh interpreter's peak resident memory across one
# `simulate`, in bytes, after a one-cell run has done the lazy imports.
_PEAK_GROWTH = """
import sys
from qca2.cli import main

def peak():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) << 10

conf, csv_path, warm_up = sys.argv[1:]
assert main(["simulate", warm_up, "--out-csv", csv_path]) == 0
before = peak()
assert main(["simulate", conf, "--out-csv", csv_path]) == 0
print(peak() - before)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs VmHWM")
def test_streamed_csv_output_holds_less_than_its_text(tmp_path):
    # 6 cells, 128 columns of nearly all distinct values: a 4 MiB matrix and
    # about 12 MB of CSV.  The CSV goes to the file a block at a time, so
    # besides the matrix the run holds only the blocks in flight (four of
    # 65,536 values, two of them in formatting): the growth peaks 7-9 MB
    # above the matrix, about 0.6-0.7 times the file size.  Holding the text
    # whole even once would exceed the matrix plus the file size.
    entries = ",".join(map(format_complex, random_unitary(np.random.default_rng(3), 4).flat))
    conf, csv_path, warm_up = tmp_path / "run.conf", tmp_path / "run.csv", tmp_path / "1.conf"
    conf.write_text(f"cells=6\nrule=both\nboundary=cyclic\neval=custom:{entries}\n"
                    "steps=127\ninitial=5\n")
    warm_up.write_text(f"cells=1\nrule=both\neval=custom:{entries}\nsteps=1\ninitial=0\n")
    env = {**os.environ, "PYTHONPATH": str(Path(qca2.__file__).parent.parent)}
    argv = [sys.executable, "-c", _PEAK_GROWTH, str(conf), str(csv_path), str(warm_up)]
    run = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    matrix_bytes = 8 * 128 << 12
    assert int(run.stdout) < matrix_bytes + csv_path.stat().st_size


# A fresh `import qca2.cli` is what every command pays first: the writers'
# helper thread must not bring a thread pool (and its `logging`) or a queue
# with it, nor start before a writer runs.
def test_importing_the_cli_loads_no_pool_and_starts_no_thread():
    code = ("import sys, threading, qca2.cli\n"
            "print(threading.active_count(), *(m in sys.modules for m in "
            "('concurrent.futures', 'logging', 'queue')))")
    env = {**os.environ, "PYTHONPATH": str(Path(qca2.__file__).parent.parent)}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert run.stdout.split() == ["1", "False", "False", "False"]


class TestPeriodCommand:
    def test_fig3_period_found(self, capsys):
        code = main(["period", str(FIG3_CONF), "--horizon", "64"])
        assert code == 0
        out = dict(
            line.split("=") for line in capsys.readouterr().out.strip().splitlines()
        )
        assert out["found"] == "true"
        assert out["period"] == "8"
        assert int(out["columns_examined"]) == 64

    def test_not_found_exits_one(self, capsys, tmp_path):
        conf = tmp_path / "short.conf"
        conf.write_text("cells=3\nrule=right\neval=h_s_then_cn\nsteps=0\ninitial=32\n")
        code = main(["period", str(conf), "--horizon", "5"])
        assert code == 1
        assert "found=false" in capsys.readouterr().out


class TestCheckCommand:
    def test_cyclic_config_passes(self, cyclic_conf, capsys):
        assert main(["check", str(cyclic_conf)]) == 0
        out = capsys.readouterr().out
        assert "rule-unitary: pass" in out
        assert "interaction-permutation: pass" in out
        assert "translation-covariance: pass" in out

    def test_non_cyclic_skips_translation(self, tmp_path, capsys):
        conf = tmp_path / "c.conf"
        conf.write_text("cells=2\nrule=left\nsteps=1\ninitial=0\n")
        assert main(["check", str(conf)]) == 0
        assert "translation" not in capsys.readouterr().out

    # `check` runs the update `simulate` runs, at any cell count.
    @pytest.mark.parametrize("cells", [6, 8])
    def test_check_passes_above_the_dense_limit(self, tmp_path, capsys, cells):
        conf = tmp_path / "big.conf"
        conf.write_text(f"cells={cells}\nrule=both\nboundary=cyclic\neval=h_s_then_cn\n"
                        "steps=1\ninitial=5\n")
        assert main(["check", str(conf)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            "rule-unitary", "interaction-permutation", "translation-covariance"]
        assert all(": pass (" in line for line in lines)
        assert f"over {4**cells} basis states" in lines[1]

    def test_non_unitary_cell_fails(self, tmp_path, capsys, monkeypatch):
        config = rules.QcaConfig(1, rules.NeighborhoodRule.RIGHT,
                                 evaluation=doubled_identity(monkeypatch))
        monkeypatch.setattr(io_formats, "parse_config", lambda text: config)
        conf = tmp_path / "any.conf"
        conf.write_text("")
        assert main(["check", str(conf)]) == 1
        assert capsys.readouterr().out.splitlines()[0] == (
            "rule-unitary: FAIL (worst deviation 3.000e+00; 4x4 cell unitary, tolerance 1e-12)")

    def test_gather_moving_an_s_bit_fails(self, tmp_path, capsys, monkeypatch):
        x_on_s0 = np.array([2, 3, 0, 1])  # the gather of an X on s0 of one cell
        monkeypatch.setattr(rules, "update_kernels", lambda config, dtype: [[x_on_s0]])
        conf = tmp_path / "one.conf"
        conf.write_text("cells=1\nrule=right\nsteps=1\ninitial=0\n")
        assert main(["check", str(conf)]) == 1
        assert capsys.readouterr().out.splitlines()[1] == (
            "interaction-permutation: FAIL (worst deviation 4.000e+00; "
            "4 s-bit violations over 4 basis states)")


class TestMatrixCommand:
    def test_dense_dump_shape(self, cyclic_conf, capsys):
        assert main(["matrix", str(cyclic_conf)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 16
        assert all(len(line.split(",")) == 16 for line in lines)

    @pytest.mark.parametrize("cells", [6, 8])
    def test_too_many_cells_for_dense(self, tmp_path, capsys, cells):
        conf = tmp_path / "big.conf"
        conf.write_text(f"cells={cells}\nrule=right\nsteps=1\ninitial=0\n")
        assert main(["matrix", str(conf)]) == 2
        assert capsys.readouterr().err == (
            "error: matrix needs the dense operator; at most 5 cells\n")


@pytest.mark.parametrize("argv, message", [
    (["period", "{conf}", "--tol", "-1"], "tolerance must be positive"),
    (["period", "{conf}", "--tol", "nan"], "tolerance must be positive"),
    (["simulate", "{conf}", "--out-csv", "{tmp}/missing/x.csv"], "cannot write"),
    (["simulate", "{conf}", "--out-pgm", "{tmp}/missing/x.pgm"], "cannot write"),
    (["simulate", "{no_steps}"], "error: missing required key 'steps'\n"),
    (["simulate", "{overflow}"], "error: evaluation matrix must be 4x4 unitary within 1e-12\n"),
    (["period", "{drift}", "--horizon", "4096"], "state not normalized"),
    (["simulate", "{not_utf8}"], "cannot read"),
    (["simulate", "{large}"], "physical memory"),
    (["period", "{large_period}", "--horizon", "16"], "physical memory"),
    (["script", "{large_script}"], "physical memory"),
    (["check", "{large_check}"], "error: out of memory: run needs about 0.1 GiB"),
    (["period", "{conf}", "--horizon", "abc"], "invalid int value: 'abc'"),
    (["period"], "the following arguments are required: config"),
    (["frobnicate", "{conf}"], "invalid choice: 'frobnicate'"),
], ids=["negative-tol", "nan-tol", "unwritable-csv", "unwritable-pgm", "missing-key",
        "overflowing-eval", "norm-drift", "not-utf8", "too-large-simulate", "too-large-period",
        "too-large-script", "too-large-check", "bad-flag-value", "missing-config",
        "unknown-subcommand"])
def test_bad_input_ends_in_one_error_line(argv, message, cyclic_conf, tmp_path, capsys,
                                          monkeypatch):
    # On a 64 MiB machine the 6-cell run and script (128 MiB), the 10-cell
    # complex period search (four states of 16 MiB and 32 MiB of index and
    # columns, 96 MiB) and the 10-cell check (four real states of 8 MiB and
    # 40 MiB of indices and columns, 72 MiB) are refused, so a broken memory
    # check allocates no more than 128 MiB; the other runs need at most 33 MB.
    monkeypatch.setattr(rules, "_physical_memory", lambda: 64 << 20)
    large = tmp_path / "large.conf"
    large.write_text("cells=6\nrule=right\nsteps=4095\ninitial=0\n")
    large_period = tmp_path / "large_period.conf"
    s_gate = ",".join({0: "1", 5: "0+1i", 10: "1", 15: "1"}.get(i, "0") for i in range(16))
    large_period.write_text(f"cells=10\nrule=right\neval=custom:{s_gate}\nsteps=0\ninitial=1\n")
    large_check = tmp_path / "large_check.conf"
    large_check.write_text("cells=10\nrule=both\nboundary=cyclic\nsteps=0\ninitial=1\n")
    large_script = tmp_path / "large.qscript"
    large_script.write_text("cells=6\ninitial=0\n" + "step\n" * 4095)
    no_steps = tmp_path / "no_steps.conf"
    no_steps.write_text("cells=2\nrule=right\ninitial=0\n")
    # Unitary within 1e-12, but the squared norm grows by about 4e-12 per
    # step on 5 cells and passes the 1e-9 check after a few hundred steps.
    drift = tmp_path / "drift.conf"
    diagonal = ",".join("1.0000000000004" if i % 5 == 0 else "0" for i in range(16))
    drift.write_text(f"cells=5\nrule=both\neval=custom:{diagonal}\nsteps=0\ninitial=0\n")
    # Its entry squares to inf in the unitarity check, without a numpy warning.
    overflow = tmp_path / "overflow.conf"
    overflow.write_text(f"cells=2\nrule=right\neval=custom:1e200{',0' * 15}\nsteps=1\ninitial=0\n")
    not_utf8 = tmp_path / "not_utf8.conf"
    not_utf8.write_bytes(b"\xff\xfe")
    paths = {"conf": cyclic_conf, "tmp": tmp_path, "no_steps": no_steps, "overflow": overflow,
             "drift": drift, "not_utf8": not_utf8, "large": large,
             "large_period": large_period, "large_script": large_script,
             "large_check": large_check}
    assert main([arg.format(**paths) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["period", "--help"])
    assert exit_.value.code == 0
    assert capsys.readouterr().out.startswith("usage: qca2 period")


def test_closed_stdout_ends_in_one_error_line(tmp_path):
    # About 2.8 MB of CSV, more than a pipe buffers (at most 1 MiB by
    # default on Linux), so the writer meets the closed read end.
    conf = tmp_path / "run.conf"
    conf.write_text("cells=5\nrule=both\nboundary=cyclic\neval=h_s_then_cn\n"
                    "steps=100\ninitial=5\n")
    env = {**os.environ, "PYTHONPATH": str(Path(qca2.__file__).parent.parent)}
    child = subprocess.Popen([sys.executable, "-m", "qca2.cli", "simulate", str(conf)],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert len(child.stdout.read(100)) == 100
    child.stdout.close()
    assert child.wait(timeout=60) == 2
    err = child.stderr.read().decode()
    child.stderr.close()
    assert err.startswith("error: cannot write output: ") and err.count("\n") == 1
    assert "Traceback" not in err


# A write that fails mid-stream (a full disk) stops the stream and its
# helper at once, while the error and its traceback are still alive.
@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
def test_a_failed_write_stops_the_writers_helper(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    before = threading.active_count()
    with pytest.raises(io_formats.ConfigError) as raised:
        cli._write_blocks(io_formats.csv_blocks(np.full((4096, 127), 0.5)), "/dev/full")
    assert threading.active_count() == before
    assert str(raised.value).startswith("cannot write output: [Errno 28]")


# A written block is let go before the next one is asked for, to stdout and
# to a file, so that the stream's blocks in flight are all it holds.
@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "file"])
def test_a_written_block_is_released_before_the_next(to_file, tmp_path, capsys):
    held = []

    def blocks():
        for i in range(3):
            assert not any(ref() is not None for ref in held)
            block = np.frombuffer(f"{i}\n".encode(), np.uint8).copy()
            held.append(weakref.ref(block))
            yield block
            del block

    cli._write_blocks(blocks(), str(tmp_path / "out") if to_file else None)
    out = (tmp_path / "out").read_text() if to_file else capsys.readouterr().out
    assert out == "0\n1\n2\n"


def test_memory_check_counts_states_at_the_state_dtype(tmp_path, capsys, monkeypatch):
    # 5 cells, two columns: 16 KiB of probabilities, 24 KiB of gather index
    # and probability temporaries, and two states of 8 KiB each when real or
    # 16 KiB each when complex, against 56 KiB of memory.  The writers'
    # blocks in flight, megabytes whatever the run, the period search's
    # screen chunks, which a 2-column search never screens, and the
    # interpreter's objects, the same at every dtype, are left out here.
    monkeypatch.setattr(rules, "_physical_memory", lambda: 56 << 10)
    monkeypatch.setattr(rules, "WRITER_BYTES", 0)
    monkeypatch.setattr(rules, "OBJECT_BYTES", 0)
    monkeypatch.setattr(analysis, "SCREEN_VALUES", 0)
    conf, script = tmp_path / "run.conf", tmp_path / "run.qscript"
    conf.write_text("cells=5\nrule=right\neval=h_both\nsteps=1\ninitial=0\n")
    script.write_text("cells=5\ninitial=0\nstep\nH s0\nCN s0 c0\n")
    runs = [["simulate", str(conf)], ["period", str(conf), "--horizon", "2"]]
    assert [main(argv) for argv in runs + [["script", str(script)]]] == [0, 1, 0]
    s_gate = ["0"] * 16
    s_gate[::5] = ["1", "0+1i", "1", "1"]
    conf.write_text(f"cells=5\nrule=right\neval=custom:{','.join(s_gate)}\n"
                    "steps=1\ninitial=0\n")
    capsys.readouterr()
    for argv in runs:
        assert main(argv) == 2
        assert "physical memory" in capsys.readouterr().err


def test_refused_allocation_ends_in_one_error_line(cyclic_conf, capsys, monkeypatch):
    def refuse(config):
        raise MemoryError("Unable to allocate 64.0 GiB for an array")

    monkeypatch.setattr(rules, "evolve", refuse)
    assert main(["simulate", str(cyclic_conf)]) == 2
    err = capsys.readouterr().err
    assert err == "error: out of memory: Unable to allocate 64.0 GiB for an array\n"
