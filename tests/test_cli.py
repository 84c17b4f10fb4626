"""End-to-end command-line checks driven through cli.main(argv)."""
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rotorkick
from rotorkick import classical, cli, defaults, quantum
from rotorkick.classical import two_kick_observable
from rotorkick.cli import main
from rotorkick.core import PulseOrder, parse_sequence, two_pulse_sequence
from rotorkick.optimize import CSV_FLOAT, CSV_NUM

SRC = str(Path(rotorkick.__file__).resolve().parents[1])


def fresh_python(*args) -> bytes:
    """stdout of ``python args...`` in a new interpreter on this source."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], env=env, check=True,
                          capture_output=True, timeout=300).stdout


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_simulate_two_kick_classical(capsys):
    code, out, err = run(capsys, "simulate", "--engine", "classical",
                         "--pa", "10", "--ps", "-2", "--t1", "0.3",
                         "--t-min", "0", "--t-max", "1", "--t-points", "9")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "t,value,kind,engine"
    assert len(lines) == 10
    fields = lines[1].split(",")
    assert fields[2] == "orientation" and fields[3] == "classical"
    assert float(fields[0]) == 0.0
    # deterministic: a second run is byte-identical
    code2, out2, _ = run(capsys, "simulate", "--engine", "classical",
                         "--pa", "10", "--ps", "-2", "--t1", "0.3",
                         "--t-min", "0", "--t-max", "1", "--t-points", "9")
    assert code2 == 0 and out2 == out


def test_simulate_both_engines_grouped(capsys):
    code, out, _ = run(capsys, "simulate", "--engine", "both",
                       "--pa", "3", "--ps", "-1", "--t1", "0.2",
                       "--t-min", "0", "--t-max", "0.5", "--t-points", "5")
    assert code == 0
    rows = [l.split(",") for l in out.splitlines()[1:]]
    assert len(rows) == 10
    assert [r[3] for r in rows] == ["classical"] * 5 + ["quantum"] * 5
    # same time grid in both blocks
    assert [r[0] for r in rows[:5]] == [r[0] for r in rows[5:]]


def test_simulate_sequence_file(tmp_path, capsys):
    seq = tmp_path / "kicks.txt"
    seq.write_text("sym -2.0 0.0\nasym 10.0 0.3\n")
    code, out, _ = run(capsys, "simulate", "--engine", "quantum",
                       "--sequence", str(seq),
                       "--t-min", "0", "--t-max", "1", "--t-points", "5")
    assert code == 0
    # matches the equivalent --pa/--ps spelling
    code2, out2, _ = run(capsys, "simulate", "--engine", "quantum",
                         "--pa", "10", "--ps", "-2", "--t1", "0.3",
                         "--t-min", "0", "--t-max", "1", "--t-points", "5")
    assert code2 == 0 and out2 == out


def test_simulate_sequence_conflicts_with_pair_flags(tmp_path, capsys):
    seq = tmp_path / "kicks.txt"
    seq.write_text("asym 5.0 0.0\n")
    code, _, err = run(capsys, "simulate", "--sequence", str(seq),
                       "--pa", "5")
    assert code == 2 and "rotorkick: error:" in err


def test_simulate_classical_shift(tmp_path, capsys):
    argv = ["simulate", "--pa", "10", "--ps", "2", "--t1", "-0.05",
            "--classical-shift", "6.2", "--t-min", "5.5", "--t-max", "6.28",
            "--t-points", "9"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    t = np.linspace(5.5, 6.28, 9)
    ref = two_kick_observable(2.0, 10.0, -0.05, t + 0.05 - 6.2)
    assert out.splitlines()[1:] == [
        f"{CSV_NUM(ti)},{CSV_NUM(vi)},orientation,classical"
        for ti, vi in zip(t, ref)]
    seq = tmp_path / "kicks.txt"
    seq.write_text("asym 5.0 0.0\n")
    code, _, err = run(capsys, "simulate", "--sequence", str(seq),
                       "--classical-shift", "6.2")
    assert code == 2 and "--classical-shift" in err
    code, out, err = run(capsys, *argv, "--engine", "quantum")
    assert code == 2 and out == "" and "--classical-shift" in err


@pytest.mark.parametrize("extra", [
    ["--classical-shift", "nan"],
    ["--classical-shift", "6.2", "--t1", "inf"],
])
def test_simulate_non_finite_shift_is_a_usage_error(capsys, extra):
    code, out, err = run(capsys, "simulate", "--pa", "10", "--ps", "-2",
                         *extra)
    assert code == 2 and out == "" and "non-finite" in err


def test_simulate_requires_both_strengths(capsys):
    code, _, err = run(capsys, "simulate", "--pa", "5")
    assert code == 2 and "rotorkick: error:" in err


def test_simulate_malformed_sequence_file(tmp_path, capsys):
    seq = tmp_path / "bad.txt"
    seq.write_text("sym nonsense 0.0\n")
    code, _, err = run(capsys, "simulate", "--sequence", str(seq))
    assert code == 2 and "line 1" in err


def test_simulate_missing_sequence_file(capsys):
    code, _, err = run(capsys, "simulate", "--sequence", "/nonexistent/x.txt")
    assert code == 2


def test_simulate_writes_file(tmp_path, capsys):
    out_path = tmp_path / "trace.csv"
    code, out, _ = run(capsys, "simulate", "--pa", "5", "--ps", "-1",
                       "--t-points", "4", "--t-max", "1",
                       "--out", str(out_path))
    assert code == 0 and out == ""
    text = out_path.read_text()
    assert text.startswith("t,value,kind,engine\n")
    assert text.endswith("\n") and len(text.splitlines()) == 5


def test_optimize_simultaneous(capsys):
    code, out, _ = run(capsys, "optimize", "--engine", "classical",
                       "--order", "simultaneous", "--pa", "10")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "p_a,p_s,t1,t2,objective,branch,order,engine,evals"
    row = lines[1].split(",")
    assert float(row[0]) == 10.0
    assert float(row[4]) == pytest.approx(0.88986, abs=2e-3)
    assert row[5] == "prompt" and row[6] == "simultaneous"
    assert row[7] == "classical" and int(row[8]) > 0
    assert lines[2].startswith("# scaled_delay=")
    assert float(lines[2].split("=")[1]) == pytest.approx(0.78, abs=0.05)


def test_optimize_bound_overrides(capsys):
    # pin the aligning kick to a narrow window and confirm it lands inside
    code, out, _ = run(capsys, "optimize", "--engine", "classical",
                       "--order", "simultaneous", "--pa", "10",
                       "--ps-min", "-5.0", "--ps-max", "-4.0")
    assert code == 0
    row = out.splitlines()[1].split(",")
    assert -5.0 <= float(row[1]) <= -4.0


def test_optimize_revival_box_without_a_delay_is_rejected(capsys):
    code, _, err = run(capsys, "optimize", "--engine", "quantum",
                       "--branch", "revival", "--pa", "5",
                       "--t1-min", "0", "--t1-max", "1",
                       "--t2-min", "0", "--t2-max", "1")
    assert code == 2
    assert ("no t_1 in [0, 1] puts t_1 + t_2 in the revival window "
            "[2 pi - 0.5, 2 pi] = [5.78319, 6.28319] for t_2 in the box "
            "[0, 1]") in err


def test_optimize_revival_t2_box_short_of_the_window_blames_t2(capsys):
    """A simultaneous pair has no delay to set: a t_2 box that ends
    before the revival window is named, not the t_1 range."""
    code, _, err = run(capsys, "optimize", "--engine", "quantum",
                       "--order", "simultaneous", "--branch", "revival",
                       "--pa", "5", "--t2-max", "5")
    assert code == 2 and "bad bounds" not in err
    assert ("revival window [2 pi - 0.5, 2 pi] = [5.78319, 6.28319] for "
            "t_2 in the box [0, 5]") in err


def test_sweep_classical(capsys):
    code, out, _ = run(capsys, "sweep", "--engine", "classical",
                       "--order", "simultaneous", "--pa-list", "5,10")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "p_a,p_s,t1,t2,objective,branch,order,engine,evals"
    assert len(lines) == 3
    pa_vals = [float(l.split(",")[0]) for l in lines[1:]]
    assert pa_vals == [5.0, 10.0]
    # scale-free objective: same value at both strengths
    objs = [float(l.split(",")[4]) for l in lines[1:]]
    assert objs[0] == pytest.approx(objs[1], abs=2e-3)


@pytest.mark.parametrize("bad", ["nan", "2e4"])
def test_sweep_annotates_a_bad_pa_first_or_last(capsys, bad):
    """A p_a the problem refuses is annotated wherever it sits in the
    list, and the good row is the same either way."""
    outs = []
    for pas in (f"{bad},10", f"10,{bad}"):
        code, out, err = run(capsys, "sweep", "--engine", "classical",
                             "--order", "simultaneous", "--pa-list", pas)
        assert code == 0 and err == ""
        outs.append(out.splitlines())
    skipped = f"# skipped p_a={float(bad):g}: NonFiniteValue: bad p_a: "
    first, last = outs
    assert first[0] == last[0] and len(first) == len(last) == 3
    assert first[1].startswith(skipped) and last[2].startswith(skipped)
    assert first[2] == last[1] and first[2].startswith("1.00000000000e+01,")


def test_sweep_quantum_rejects_large_pa(capsys):
    """The cap refuses the whole list, small p_a included: no row."""
    for pas in ("150", "3,150"):
        code, out, err = run(capsys, "sweep", "--engine", "quantum",
                             "--pa-list", pas)
        assert code == 2 and out == ""
        assert err == ("rotorkick: error: quantum sweeps are limited to "
                       "p_a <= 100.0; run optimize for each larger p_a\n")


def test_sweep_range_rows_are_the_pa_list_rows(capsys):
    """``--pa-min/--pa-max/--pa-count`` sweeps the np.linspace values:
    the same bytes as ``--pa-list`` of those values."""
    pas = np.linspace(2.0, 3.0, 4).tolist()
    args = ("sweep", "--engine", "classical", "--order", "simultaneous")
    code, ranged, _ = run(capsys, *args, "--pa-min", "2", "--pa-max", "3",
                          "--pa-count", "4")
    assert code == 0
    code, listed, _ = run(capsys, *args,
                          "--pa-list", ",".join(map(repr, pas)))
    assert code == 0
    assert ranged == listed
    assert [line.split(",")[0] for line in ranged.splitlines()[1:]] == [
        CSV_NUM(p) for p in pas]


def test_sweep_needs_a_grid(capsys):
    code, _, err = run(capsys, "sweep", "--engine", "classical")
    assert code == 2 and "rotorkick: error:" in err
    # a range needs two positive points
    for bounds in (("--pa-min", "2", "--pa-max", "3", "--pa-count", "1"),
                   ("--pa-min", "0", "--pa-max", "3")):
        code, out, err = run(capsys, "sweep", "--engine", "classical",
                             *bounds)
        assert code == 2 and out == ""
        assert err == ("rotorkick: error: need 0 < --pa-min < --pa-max and "
                       "--pa-count >= 2\n")


def test_convert_kcl_hcp(capsys):
    code, out, _ = run(capsys, "convert", "--molecule", "kcl",
                       "--hcp-field", "100", "--hcp-duration", "2")
    assert code == 0
    values = dict(l.split(" = ") for l in out.splitlines())
    assert 8.0 <= float(values["p_a"]) <= 12.0


def test_convert_custom_molecule_laser_and_time(capsys):
    code, out, _ = run(capsys, "convert", "--dipole", "10.3",
                       "--anisotropy", "3.1", "--revival-ps", "128",
                       "--laser-intensity", "5e11", "--laser-duration", "2",
                       "--time-ps", "128")
    assert code == 0
    values = dict(l.split(" = ") for l in out.splitlines())
    assert float(values["p_s"]) == pytest.approx(10.9, abs=0.1)
    assert float(values["t_dimensionless"]) == pytest.approx(
        2.0 * math.pi, rel=1e-12)


def test_convert_nothing_requested(capsys):
    code, _, err = run(capsys, "convert", "--molecule", "kcl")
    assert code == 2 and "nothing to convert" in err


def test_convert_partial_molecule(capsys):
    code, _, err = run(capsys, "convert", "--dipole", "10.3",
                       "--hcp-field", "100", "--hcp-duration", "2")
    assert code == 2


def test_convert_unknown_molecule(capsys):
    code, _, err = run(capsys, "convert", "--molecule", "nacl",
                       "--hcp-field", "100", "--hcp-duration", "2")
    assert code == 2


def test_config_file_defaults_and_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# defaults for quick traces\nt-points = 4\nt-max = 1\n"
                   "pa = 5\nps = -1\n")
    code, out, _ = run(capsys, "simulate", "--config", str(cfg))
    assert code == 0 and len(out.splitlines()) == 5
    # explicit flag beats the config value
    code2, out2, _ = run(capsys, "simulate", "--config", str(cfg),
                         "--t-points", "7")
    assert code2 == 0 and len(out2.splitlines()) == 8


def test_config_file_alone_configures_optimize(tmp_path, capsys):
    """A config file can preset every option of optimize, --pa included,
    and a flag still beats the file."""
    cfg = tmp_path / "optimize.cfg"
    cfg.write_text("order = simultaneous\npa = 10\n")
    flags = ["optimize", "--order", "simultaneous", "--pa"]
    code, out, _ = run(capsys, "optimize", "--config", str(cfg))
    assert (code, out) == run(capsys, *flags, "10")[:2]
    assert code == 0
    code, out, _ = run(capsys, "optimize", "--config", str(cfg), "--pa", "5")
    assert (code, out) == run(capsys, *flags, "5")[:2]
    assert out.splitlines()[1].startswith("5.00000000000e+00,")


def test_optimize_without_pa_is_a_usage_error(capsys):
    code, out, err = run(capsys, "optimize", "--order", "simultaneous")
    assert code == 2 and out == "" and "--pa" in err


def test_config_leaves_no_default_behind(tmp_path, capsys):
    """The parser is built once per process: values a config file set,
    or half set before a bad line, must not reach a later call."""
    bad = tmp_path / "bad.cfg"
    bad.write_text("t-points = 7\nbogus = 1\n")
    good = tmp_path / "good.cfg"
    good.write_text("t-points = 5\nobservable = alignment\nengine = both\n"
                    "pa = 5\nps = -1\n")
    assert run(capsys, "simulate", "--config", str(bad))[0] == 2
    code, out, _ = run(capsys, "simulate", "--config", str(good))
    assert code == 0 and len(out.splitlines()) == 11
    plain = ["simulate", "--pa", "10", "--ps", "-2"]
    code, out, _ = run(capsys, *plain)
    assert code == 0 and len(out.splitlines()) == 513
    assert out.encode() == fresh_python("-m", "rotorkick.cli", *plain)


def test_import_leaves_scipy_unloaded():
    out = fresh_python("-c", "import sys, rotorkick.cli; "
                       "print(sorted(m for m in sys.modules "
                       "if m.startswith('scipy')))")
    assert out == b"[]\n"


@pytest.mark.parametrize("command", [
    ["optimize", "--order", "simultaneous", "--pa", "10"],
    ["sweep", "--order", "simultaneous", "--pa-list", "5,10"],
])
def test_extra_starts_without_seed_repeat_byte_for_byte(capsys, command):
    """``--seed`` defaults to 0, so random extra starts print the same
    rows on every call, and the rows of an explicit ``--seed 0``."""
    outs = [run(capsys, *command, "--starts", "2", *extra)
            for extra in ([], [], ["--seed", "0"])]
    assert all(code == 0 for code, _, _ in outs)
    assert outs[0][1] == outs[1][1] == outs[2][1]


SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, math.nan,
                  math.inf, -math.inf, np.float64(-0.1234567890123456),
                  np.float64(2.5e-17), np.float64(math.pi)]


@pytest.mark.parametrize("x", SPECIAL_FLOATS, ids=repr)
def test_csv_float_format_prints_str_format_bytes(x):
    want = "{:.11e}".format(x)
    assert CSV_NUM(x) == want
    assert CSV_FLOAT % float(x) == want  # simulate formats Python floats


def test_csv_float_format_on_random_doubles():
    bits = np.random.default_rng(5).integers(0, 2**64, 20000,
                                             dtype=np.uint64)
    for x in bits.view(np.float64).tolist():
        assert CSV_FLOAT % x == "{:.11e}".format(x)


def row_template_block(x):
    """One ``x,x`` row per value through the per-row ``%`` template."""
    row = f"{CSV_FLOAT},{CSV_FLOAT}\n"
    return "".join(row % (v, v) for v in np.asarray(x, float).tolist())


def rendered_block(x):
    """The same rows from the block renderer of ``simulate``."""
    x = np.asarray(x, float)
    return cli._csv_block(cli._csv_field(x), x, "\n").decode()


def _exact_ties():
    """Doubles whose decimal expansion has 13 significant digits, the
    last a 5: n / 2^r with n odd and n 5^r in [1e12, 1e13)."""
    rng = np.random.default_rng(7)
    ties = [1234567890.125, 1234567890125.0, 12345678901250.0]
    for r in range(1, 16):
        lo, hi = 10**12 // 5**r + 1, 10**13 // 5**r
        n = rng.integers(lo, hi, 200) | 1
        ties += (n[n * 5**r < 10**13] / 2.0**r).tolist()
    return np.array(ties)


def _rounded_ties():
    """Doubles x whose product or quotient with the exact power of ten
    that brings them into [1e11, 1e12) rounds onto a half integer that
    x * 10^k itself misses: x = fl((m + 1/2) 10^-k)."""
    rng = np.random.default_rng(3)
    half = rng.integers(10**11, 10**12, 5000) + 0.5
    k = rng.integers(-22, 23, 5000)
    return np.where(k >= 0, half / 10.0 ** np.abs(k), half * 10.0 ** np.abs(k))


def _ulp_steps(x, n):
    """x and the n doubles on either side of each x."""
    below, above, steps = x, x, [x]
    for _ in range(n):
        below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
        steps += [below, above]
    return np.concatenate(steps)


_POWERS = np.array([float(f"1e{k}") for k in range(-30, 31)])
_TIES = _exact_ties()


@pytest.mark.parametrize("x", [
    np.random.default_rng(5).integers(0, 2**64, 20000, dtype=np.uint64)
    .view(np.float64),
    SPECIAL_FLOATS,
    [0.0, -0.0],
    _ulp_steps(_POWERS, 16),
    [1e100, -1e-100, 2.5e-123, -7.25e211, 9.999999999995e99,
     9.9999999999949e99, 1e-99, 1.7976931348623157e308,
     2.2250738585072014e-308],
    np.concatenate([_ulp_steps(_TIES, 1), -_TIES, _rounded_ties(),
                    [99999999999.95, 0.5, 2.5]]),
], ids=["random bits", "special", "signed zeros", "powers of ten +-16 ulps",
        "three-digit exponents", "halfway cases"])
def test_block_renderer_prints_the_row_template_bytes(x):
    assert rendered_block(x) == row_template_block(x)


FIVE_KICKS = "sym -3 0\nasym 5 0.4\nsym 2 1\nasym -4 1.7\nsym 1.5 2.5\n"
GRID = ("--t-min", "0", "--t-max", "6.28", "--t-points", "600")


def test_block_renderer_takes_its_fast_path(monkeypatch, tmp_path):
    """CSV_NUM prints only the rows the kernel hands back: under 1 % of
    the README pair."""
    fallbacks = []
    monkeypatch.setattr(cli, "CSV_NUM",
                        lambda v: fallbacks.append(v) or CSV_NUM(v))
    out = tmp_path / "pair.csv"
    assert main(["simulate", "--engine", "both", "--pa", "10", "--ps", "-2",
                 "--t1", "0.3", *GRID, "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1201
    assert len(fallbacks) < 0.01 * 1200


@pytest.mark.parametrize("observable", ["orientation", "alignment"])
@pytest.mark.parametrize("case", ["pair", "five kicks", "classical shift"])
def test_simulate_prints_the_row_template_bytes(tmp_path, capsys, case,
                                                observable):
    """simulate's output, to stdout and to --out, is the per-row ``%``
    template applied to the API's values."""
    k = 1 if observable == "orientation" else 2
    if case == "classical shift":
        argv = ["--pa", "10", "--ps", "2", "--t1", "-0.05",
                "--classical-shift", "6.2", "--t-min", "5.5",
                "--t-max", "6.28", "--t-points", "400"]
        t = np.linspace(5.5, 6.28, 400)
        blocks = [("classical", two_kick_observable(
            2.0, 10.0, -0.05, t + 0.05 - 6.2, PulseOrder.LASER_FIRST, k=k))]
    else:
        if case == "pair":
            argv = ["--pa", "10", "--ps", "-2", "--t1", "0.3"]
            seq = two_pulse_sequence(-2.0, 10.0, 0.3, PulseOrder.LASER_FIRST)
        else:
            kicks = tmp_path / "five.kicks"
            kicks.write_text(FIVE_KICKS)
            argv = ["--sequence", str(kicks)]
            seq = parse_sequence(FIVE_KICKS)
        argv += ["--engine", "both", *GRID]
        t = np.linspace(0.0, 6.28, 600)
        blocks = [
            ("classical", classical.classical_observable(seq, k, t).values),
            ("quantum", quantum.run_sequence(seq, t, k=k).values)]
    lines = ["t,value,kind,engine"]
    for engine, vals in blocks:
        row = f"{CSV_FLOAT},{CSV_FLOAT},{observable},{engine}"
        lines += [row % tv for tv in zip(t.tolist(), vals.tolist())]
    want = ("\n".join(lines) + "\n").encode()

    argv = ["simulate", *argv, "--observable", observable]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.encode() == want
    path = tmp_path / "trace.csv"
    assert run(capsys, *argv, "--out", str(path))[:2] == (0, "")
    assert path.read_bytes() == want


def test_config_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tpoints = 4\n")
    code, _, err = run(capsys, "simulate", "--config", str(cfg),
                       "--pa", "5", "--ps", "-1")
    assert code == 2 and "tpoints" in err


@pytest.mark.parametrize("command", [
    ["optimize", "--order", "simultaneous", "--pa", "10"],
    ["sweep", "--order", "simultaneous", "--pa-list", "5,10"],
])
def test_negative_starts_are_a_usage_error(capsys, command):
    code, out, err = run(capsys, *command, "--starts", "-3")
    assert code == 2 and out == "" and "extra_starts" in err


def test_numerical_failure_exit_code(capsys):
    # basis size needed for this kick exceeds the hard cap
    code, _, err = run(capsys, "simulate", "--engine", "quantum",
                       "--pa", "2000", "--ps", "0",
                       "--t-points", "4", "--t-max", "0.1")
    assert code == 3 and "numerical failure" in err
    # the quadrature rule this span needs is beyond the node cap: it fails
    # at once, before any rule is built or any row printed
    code, out, err = run(capsys, "simulate", "--pa", "30", "--ps", "-2",
                         "--t-max", "1e307")
    assert code == 3 and out == "" and "node cap" in err


@pytest.mark.parametrize("engine", ["quantum", "both"])
def test_an_lmax_above_the_cap_is_bad_input(capsys, engine):
    """A basis hint past the cap is refused as bad input, exit 2, before
    any engine runs; a kick that needs such a basis stays exit 3."""
    code, out, err = run(capsys, "simulate", "--engine", engine, "--pa", "3",
                         "--ps", "-1", "--lmax", "5000")
    assert code == 2 and out == ""
    assert "5000" in err and str(defaults.L_MAX_CAP) in err
