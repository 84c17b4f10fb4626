"""Command-line interface.

Four subcommands:

simulate  observable time traces for a pulse sequence (CSV)
optimize  best pulse pair for a fixed orienting kick strength (CSV)
sweep     optimize across a list of p_a values, one optimize row each (CSV)
convert   lab pulse parameters to dimensionless kick strengths (text)

All CSV floats are printed with 12 significant digits and LF line
endings, so repeated runs are byte-identical. Options may also be given
in a flat ``key = value`` config file (``--config``); explicit
command-line options win over the file. Exit codes: 0 success, 2
configuration or validation errors, 3 numerical failures.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import sys
from collections.abc import Iterable
from pathlib import Path

import numpy as np

from . import classical, quantum
from .core import (Branch, Engine, ObjectiveSign, PulseOrder, parse_sequence,
                   two_pulse_sequence)
from .errors import (BasisOverflow, ConfigError, ConvergenceFailure,
                     RotorkickError)
from .labunits import (KCL, HalfCyclePulse, LaserPulse, MoleculeParams,
                       kick_strength, time_from_dimensionless,
                       time_to_dimensionless)
from .optimize import (CSV_HEADER, CSV_NUM, BoundsBox,
                       OptimizationProblem, default_bounds, optimize,
                       result_csv_row, sweep)

_NUMERICAL_ERRORS = (ConvergenceFailure, BasisOverflow)


def _write(chunks: Iterable[bytes], out: str | None) -> None:
    """Write the chunks, one at a time, to the file ``out`` or stdout."""
    if out:
        with open(out, "wb") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.flush()  # text already written to stdout goes first
        sys.stdout.buffer.writelines(chunks)
        sys.stdout.buffer.flush()


def _emit(lines: list[str], out: str | None) -> None:
    _write([("\n".join(lines) + "\n").encode()], out)


# ---------------------------------------------------------------------------
# CSV_FLOAT for a whole column at once

# "0000" .. "9999" and "e-11" .. "e+33" as native uint32s: one gather
# writes four bytes
_PAIRS = np.frombuffer(
    "".join(f"{i:02d}" for i in range(100)).encode(), np.uint8).reshape(100, 2)
_DIGIT_QUADS = np.concatenate((np.repeat(_PAIRS, 100, axis=0),
                               np.tile(_PAIRS, (100, 1))), axis=1
                              ).view(np.uint32).ravel()
_EXPONENTS = np.frombuffer(
    "".join(f"e{e:+03d}" for e in range(-11, 34)).encode(), np.uint32)
_POW10 = np.array([float(10**k) for k in range(23)])  # all exact
_FIELD = len(CSV_NUM(-1e100))  # the widest CSV_FLOAT output


def _csv_field(x: np.ndarray) -> np.ndarray:
    """``CSV_FLOAT % v`` for each v of x: the rows of a NUL-padded
    (len(x), _FIELD) uint8 matrix.

    |v| times an exact power of ten, 10^(11 - e) with |11 - e| <= 22,
    lands in [1e11, 1e12) off the exact product by at most half an ulp
    there (6.1e-5), so rint gives the 12 printed digits unless the
    fraction is within 2e-4 of a half. Zeros are printed here too; those
    near-ties, the range's edges, non-finite values and exponents
    outside [-11, 33] are printed by CSV_NUM itself.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    a = np.abs(x)
    usable = np.isfinite(a) & (a > 0)
    a = np.where(usable, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    k = 11 - e
    p = _POW10[np.minimum(np.abs(k), 22)]
    with np.errstate(over="ignore"):  # a * p is kept for k >= 0 only
        y = np.where(k >= 0, a * p, a / p)
    m = np.rint(y)
    fast = (usable & (np.abs(k) <= 22) & (y >= 1e11) & (m < 1e12)
            & (np.abs(y - np.floor(y) - 0.5) > 2e-4))
    m = np.where(fast, m, 0.0)  # 0 for zeros; CSV_NUM prints the rest
    e = np.where(fast, e, 0)
    # the 12 digits as three groups of four: float64 holds m exactly,
    # and no quotient's rounding reaches the next integer
    quads = np.empty((n, 3))
    np.floor(m / 1e8, out=quads[:, 0])
    m -= quads[:, 0] * 1e8
    np.floor(m / 1e4, out=quads[:, 1])
    np.subtract(m, quads[:, 1] * 1e4, out=quads[:, 2])

    field = np.zeros((n, _FIELD), np.uint8)
    field[:, 0] = np.where(np.signbit(x), ord("-"), 0)
    digits = _DIGIT_QUADS[quads.astype(np.intp)].view(np.uint8)
    field[:, 1] = digits[:, 0]
    field[:, 2] = ord(".")
    field[:, 3:14] = digits[:, 1:]
    field[:, 14:18] = _EXPONENTS[e + 11, None].view(np.uint8)
    for i in np.flatnonzero(~fast & (x != 0)):
        s = CSV_NUM(float(x[i])).encode()
        field[i] = np.frombuffer(s.ljust(_FIELD, b"\0"), np.uint8)
    return field


def _csv_block(t_field: np.ndarray, values: np.ndarray, suffix: str) -> bytes:
    """The rows ``t,value`` + suffix of a simulate block; t_field is
    :func:`_csv_field` of the time column."""
    n = len(t_field)
    comma = np.full((n, 1), ord(","), np.uint8)
    tail = np.frombuffer(suffix.encode(), np.uint8)
    rows = np.concatenate((t_field, comma, _csv_field(values),
                           np.broadcast_to(tail, (n, tail.size))), axis=1)
    return rows.tobytes().replace(b"\0", b"")


# ---------------------------------------------------------------------------
# subcommand handlers

def _time_grid(args) -> np.ndarray:
    if args.t_points < 2:
        raise ConfigError("--t-points must be at least 2")
    if not args.t_max > args.t_min:
        raise ConfigError("--t-max must exceed --t-min")
    return np.linspace(args.t_min, args.t_max, args.t_points)


def _cmd_simulate(args) -> int:
    k = 1 if args.observable == "orientation" else 2
    kind = args.observable
    engines = ([Engine.CLASSICAL, Engine.QUANTUM] if args.engine == "both"
               else [Engine(args.engine)])
    t = _time_grid(args)
    if args.engine == "quantum" and args.classical_shift is not None:
        raise ConfigError("--classical-shift shifts the classical trace; "
                          "--engine quantum has none")

    if args.sequence is not None:
        if args.pa is not None or args.ps is not None or args.t1 != 0.0 \
                or args.classical_shift is not None:
            raise ConfigError(
                "--sequence replaces --pa/--ps/--t1/--classical-shift")
        seq = parse_sequence(Path(args.sequence).read_text())
    else:
        if args.pa is None or args.ps is None:
            raise ConfigError("simulate needs --pa and --ps, or --sequence")
        seq = None

    order = PulseOrder(args.order)
    blocks = []
    for engine in engines:
        if engine is Engine.CLASSICAL:
            if args.classical_shift is not None:
                # analytic continuation reported on a shifted time axis,
                # for overlaying the classical branch onto a quantum
                # revival window
                vals = classical.two_kick_observable(
                    args.ps, args.pa, args.t1,
                    t - args.t1 - args.classical_shift, order, k=k)
            else:
                s = seq or two_pulse_sequence(args.ps, args.pa, args.t1, order)
                vals = classical.classical_observable(s, k, t).values
        else:
            s = seq or two_pulse_sequence(args.ps, args.pa, args.t1, order)
            vals = quantum.run_sequence(s, t, k=k, l_max_hint=args.lmax).values
        blocks.append((engine, vals))
    # every value is computed before the first byte is written, so a
    # failing engine leaves no output; the blocks share one time column
    t_field = _csv_field(t)
    _write(itertools.chain(
        [b"t,value,kind,engine\n"],
        (_csv_block(t_field, vals, f",{kind},{engine.value}\n")
         for engine, vals in blocks)), args.out)
    return 0


def _bounds_from_args(args, engine: Engine, order: PulseOrder,
                      branch: Branch) -> BoundsBox | None:
    overrides = (args.ps_min, args.ps_max, args.t1_min, args.t1_max,
                 args.t2_min, args.t2_max)
    if all(v is None for v in overrides):
        return None
    b = default_bounds(engine, order, branch, args.pa)

    def pick(lo, hi, base):
        return (base[0] if lo is None else lo, base[1] if hi is None else hi)

    return BoundsBox(
        p_s=pick(args.ps_min, args.ps_max, b.p_s),
        t_1=pick(args.t1_min, args.t1_max, b.t_1),
        t_2=pick(args.t2_min, args.t2_max, b.t_2),
    )


def _cmd_optimize(args) -> int:
    if args.pa is None:
        raise ConfigError("optimize needs --pa")
    engine = Engine(args.engine)
    order = PulseOrder(args.order)
    branch = Branch(args.branch)
    prob = OptimizationProblem(
        engine=engine, order=order, p_a=args.pa, branch=branch,
        bounds=_bounds_from_args(args, engine, order, branch),
        objective_sign=ObjectiveSign(args.sign),
    )
    res = optimize(prob, extra_starts=args.starts, seed=args.seed)
    lines = [CSV_HEADER, result_csv_row(res),
             f"# scaled_delay={CSV_NUM(res.scaled_delay)}"]
    if res.stagnated:
        lines.append("# stagnated: no quasi-Newton ascent rose above its "
                     "start")
    if res.on_boundary:
        lines.append("# on_boundary: the optimum holds a bound of the "
                     "search box that the gradient points out of")
    _emit(lines, args.out)
    return 0


def _cmd_sweep(args) -> int:
    if args.pa_list:
        try:
            pas = [float(tok) for tok in args.pa_list.split(",") if tok.strip()]
        except ValueError as exc:
            raise ConfigError(f"bad --pa-list: {exc}") from None
    else:
        if args.pa_min is None or args.pa_max is None:
            raise ConfigError("sweep needs --pa-list or --pa-min/--pa-max")
        if args.pa_count < 2 or not args.pa_max > args.pa_min > 0:
            raise ConfigError("need 0 < --pa-min < --pa-max and --pa-count >= 2")
        pas = list(np.linspace(args.pa_min, args.pa_max, args.pa_count))
    if not pas:
        raise ConfigError("empty p_a list")

    # sweep sets each row's p_a and bounds, so a bad p_a anywhere in the
    # list is that row's annotation, not an error of the template's
    template = OptimizationProblem(
        engine=Engine(args.engine), order=PulseOrder(args.order), p_a=1.0,
        branch=Branch(args.branch), objective_sign=ObjectiveSign(args.sign),
    )
    lines = [CSV_HEADER]
    for row in sweep(template, pas, extra_starts=args.starts, seed=args.seed):
        if row.error is not None:
            lines.append(f"# skipped p_a={row.p_a:g}: {row.error}")
        else:
            lines.append(result_csv_row(row.result))
    _emit(lines, args.out)
    return 0


def _cmd_convert(args) -> int:
    if args.molecule is not None:
        if args.molecule.lower() != "kcl":
            raise ConfigError(f"unknown molecule preset: {args.molecule!r}")
        mol = KCL
    else:
        fields = (args.dipole, args.anisotropy, args.revival_ps)
        if any(v is None for v in fields):
            raise ConfigError("convert needs --molecule, or all of "
                              "--dipole/--anisotropy/--revival-ps")
        mol = MoleculeParams("custom", *fields)

    lines = [f"molecule = {mol.name}",
             f"revival_time_ps = {CSV_NUM(mol.revival_time_ps)}"]
    if (args.hcp_field is None) != (args.hcp_duration is None):
        raise ConfigError("--hcp-field and --hcp-duration go together")
    if args.hcp_field is not None:
        pa = kick_strength(HalfCyclePulse(args.hcp_field, args.hcp_duration),
                           mol)
        lines.append(f"p_a = {CSV_NUM(pa)}")
    if (args.laser_intensity is None) != (args.laser_duration is None):
        raise ConfigError("--laser-intensity and --laser-duration go together")
    if args.laser_intensity is not None:
        ps = kick_strength(
            LaserPulse(args.laser_intensity, args.laser_duration), mol)
        lines.append(f"p_s = {CSV_NUM(ps)}")
    if args.time_ps is not None:
        lines.append(
            f"t_dimensionless = {CSV_NUM(time_to_dimensionless(args.time_ps, mol))}")
    if args.time_dimensionless is not None:
        lines.append(
            f"t_ps = {CSV_NUM(time_from_dimensionless(args.time_dimensionless, mol))}")
    if len(lines) == 2:  # the molecule's own lines alone
        raise ConfigError("nothing to convert: give a pulse or a time")
    _emit(lines, args.out)
    return 0


# ---------------------------------------------------------------------------
# parser construction and config-file merging

def _add_common_out(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="output file (default: stdout)")
    p.add_argument("--config", help="flat key=value config file; "
                   "command-line options override it")


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser,
                             dict[str, argparse.ArgumentParser]]:
    """The parser and its subparsers, built once per process; parsing
    leaves them as they are."""
    parser = argparse.ArgumentParser(
        prog="rotorkick",
        description="Field-free orientation of linear dipolar molecules "
                    "by impulsive pulse pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands: dict[str, argparse.ArgumentParser] = {}

    p = sub.add_parser("simulate", help="observable time trace (CSV)")
    p.add_argument("--engine", choices=["classical", "quantum", "both"],
                   default="classical")
    p.add_argument("--order", choices=[o.value for o in PulseOrder],
                   default="laser-first")
    p.add_argument("--pa", type=float, help="orienting kick strength")
    p.add_argument("--ps", type=float, help="aligning kick strength (signed)")
    p.add_argument("--t1", type=float, default=0.0,
                   help="delay between the kicks (>= 0)")
    p.add_argument("--sequence", help="kick list file: 'sym|asym strength "
                   "time' per line, replaces --pa/--ps/--t1")
    p.add_argument("--observable", choices=["orientation", "alignment"],
                   default="orientation")
    p.add_argument("--t-min", type=float, default=0.0)
    p.add_argument("--t-max", type=float, default=2.0 * math.pi)
    p.add_argument("--t-points", type=int, default=512)
    p.add_argument("--lmax", type=int, help="quantum basis size hint")
    p.add_argument("--classical-shift", type=float,
                   help="report the classical closed-form continuation on a "
                   "time axis shifted by this amount (revival overlays)")
    p.set_defaults(func=_cmd_simulate)
    _add_common_out(p)
    commands["simulate"] = p

    # the search options that optimize and sweep share
    search = argparse.ArgumentParser(add_help=False)
    search.add_argument("--engine", choices=["classical", "quantum"],
                        default="classical")
    search.add_argument("--order", choices=[o.value for o in PulseOrder],
                        default="laser-first")
    search.add_argument("--branch", choices=[b.value for b in Branch],
                        default="prompt")
    search.add_argument("--sign", choices=[s.value for s in ObjectiveSign],
                        default="abs",
                        help="maximize signed value or magnitude")
    search.add_argument("--starts", type=int, default=0,
                        help="extra random ascent starts")
    search.add_argument("--seed", type=int, default=0,
                        help="seed for the extra starts (default 0)")

    p = sub.add_parser("optimize", parents=[search],
                       help="best pulse pair at fixed p_a (CSV)")
    p.add_argument("--pa", type=float, help="orienting kick strength")
    for name in ("ps-min", "ps-max", "t1-min", "t1-max", "t2-min", "t2-max"):
        p.add_argument(f"--{name}", type=float,
                       help=f"override default bound {name.replace('-', ' ')}")
    p.set_defaults(func=_cmd_optimize)
    _add_common_out(p)
    commands["optimize"] = p

    p = sub.add_parser("sweep", parents=[search],
                       help="optimize across p_a values (CSV)")
    p.add_argument("--pa-list", help="comma-separated p_a values")
    p.add_argument("--pa-min", type=float)
    p.add_argument("--pa-max", type=float)
    p.add_argument("--pa-count", type=int, default=5)
    p.set_defaults(func=_cmd_sweep)
    _add_common_out(p)
    commands["sweep"] = p

    p = sub.add_parser("convert", help="lab pulse parameters to kick strengths")
    p.add_argument("--molecule", help="preset name (kcl)")
    p.add_argument("--dipole", type=float, help="dipole moment in Debye")
    p.add_argument("--anisotropy", type=float,
                   help="polarizability anisotropy in cubic angstrom")
    p.add_argument("--revival-ps", type=float,
                   help="rotational revival time in ps")
    p.add_argument("--hcp-field", type=float, help="HCP peak field, kV/cm")
    p.add_argument("--hcp-duration", type=float,
                   help="HCP 1/e half-width, ps")
    p.add_argument("--laser-intensity", type=float,
                   help="laser peak intensity, W/cm^2")
    p.add_argument("--laser-duration", type=float,
                   help="laser intensity 1/e half-width, ps")
    p.add_argument("--time-ps", type=float,
                   help="lab time to convert to dimensionless units")
    p.add_argument("--time-dimensionless", type=float,
                   help="dimensionless time to convert to ps")
    p.set_defaults(func=_cmd_convert)
    _add_common_out(p)
    commands["convert"] = p
    return parser, commands


def _config_tokens(path: str, command: argparse.ArgumentParser) -> list[str]:
    """The ``key = value`` lines of a config file as ``--key=value``
    tokens of ``command``; argparse checks their values."""
    options = {a.dest for a in command._actions} - {"help", "config"}
    tokens = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in options:
            raise ConfigError(f"{path}:{lineno}: unknown option {key!r}")
        tokens.append(f"--{key.replace('_', '-')}={value.strip()}")
    return tokens


def main(argv=None) -> int:
    parser, commands = _build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(argv)
        if args.config:
            # the file's tokens go between the subcommand and the user's
            # own arguments: argparse keeps the later value of an option,
            # so command-line flags beat the file
            tokens = _config_tokens(args.config, commands[args.command])
            args = parser.parse_args(argv[:1] + tokens + argv[1:])
        return args.func(args)
    except SystemExit as exc:  # argparse already reported the problem
        code = exc.code
        return code if isinstance(code, int) else 2
    except _NUMERICAL_ERRORS as exc:
        print(f"rotorkick: numerical failure: {exc}", file=sys.stderr)
        return 3
    except (RotorkickError, ValueError, OSError) as exc:
        print(f"rotorkick: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
