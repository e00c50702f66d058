"""Command-line front-end: ``sim <command> [options]``.

Angles are taken in degrees on the command line and in config files and
converted to radians in one place (:func:`_directions`); that conversion is
the only unit change in the system. Exit codes: 0 success, 1 usage or
config error, 2 verification failure, 3 internal error (a broken invariant
or any other fault of the program), 141 stdout closed by its reader
(128 + SIGPIPE, as a shell reports it).
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import TextIO

from .config import (
    _RUN_KEYS,
    _SCHEMAS,
    CONFIG_SECTIONS,
    EXPERIMENTS,
    ConfigError,
    RunManifest,
    _read_config,
    finalize_manifest,
)
from .eprb import EPRB
from .experiment import Experiment
from .ghzm import GHZM
from .lhv import _BELL_PAIRS, EPRB_SET_Q, classical_ghz_p_eu_zero, eprb_q_max, ghz_constrained_sets
from .measure import Direction

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_INTERNAL = 3
_EXIT_BROKEN_PIPE = 141


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse hook
        raise _UsageError(message)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


@dataclass
class _Rendered:
    table: list[str]
    columns: list[str]
    rows: list[list]
    #: largest verification residual; None when not verifying
    residual: float | None = None


#: the commands in help order, each with its help line
_COMMANDS = {
    "eprb": "two-particle correlation run",
    "bell-q": "cyclic joint spin-up sum at three azimuths",
    "ghzm": "three-particle parity run",
    "ghz-table": "parity probabilities at the headline orientations",
    "lhv": "instruction-set bounds by brute force",
    "analyze": "operator support ledger per time stage",
    "sweep": "Cartesian angle grid from a config file",
}


def _flag(key: str) -> str:
    """The command-line name of a config key; ``which`` is positional."""
    return key if key == "which" else "--" + key.replace("_", "-")


def build_parser() -> _Parser:
    """One subcommand per config schema, one option per key; the sweep grid
    is set only by its config file."""
    parser = _Parser(prog="sim", description="Heisenberg-picture measurement simulator")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for command, help_text in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        if command in CONFIG_SECTIONS:
            p.add_argument("--config", required=command == "sweep", metavar="FILE")
        keys = [k for k in _SCHEMAS[command] if command != "sweep" or k in _RUN_KEYS]
        for key in keys:
            if key == "which":
                p.add_argument(key, nargs="?")
            elif key == "verify":
                p.add_argument("--verify", action="store_const", const="true",
                               help="compare every printed mean with one state evolution")
            else:
                p.add_argument(_flag(key), dest=key, nargs=3 if key == "phis" else None,
                               metavar="DEG" if key.startswith(("theta", "phi")) else None)
        # --theta and --phi set that angle of every analyzer at once; analyze
        # takes as many as the experiment it names has analyzers
        for name in ("theta", "phi"):
            analyzers = sum(k.removeprefix(name).isdigit() for k in keys)
            if analyzers:
                p.add_argument(f"--{name}", nargs="+" if "experiment" in keys else analyzers,
                               metavar="DEG")
    return parser


#: built once: parsing leaves the parser unchanged, so every call shares it
_PARSER = build_parser()


def _typed(schema, given) -> dict[str, object]:
    """Each ``key: (flag, text)`` typed by its key's parser."""
    flags = {}
    for key, (flag, text) in given.items():
        try:
            flags[key] = schema[key].parse(" ".join(text) if isinstance(text, list) else text)
        except ConfigError as exc:
            raise _UsageError(f"argument {flag}: {exc}") from None
    return flags


def _manifest_from_args(args) -> RunManifest:
    """Type each flag as its config line would be, merge the flags over the
    config file's values and apply defaults and checks once."""
    schema = _SCHEMAS[args.command]
    given = {k: (_flag(k), v) for k, v in vars(args).items() if k in schema and v is not None}
    flags = _typed(schema, given)
    for name in ("theta", "phi"):
        texts = getattr(args, name, None)
        if texts is None:
            continue
        exp = EXPERIMENTS.get(args.command) or EXPERIMENTS[
            flags.get("experiment", schema["experiment"].default)]
        keys = [k for k in exp.angle_keys if k.startswith(name)]
        if len(texts) != len(keys):
            raise _UsageError(f"argument --{name}: expected {len(keys)} values for "
                              f"experiment {exp.name!r}, got {len(texts)}")
        for key in keys:
            if key in given:
                raise _UsageError(f"use --{name} or --{key}, not both")
        flags.update(_typed(schema, {k: (f"--{name}", t) for k, t in zip(keys, texts)}))

    values: dict[str, object] = {}
    if getattr(args, "config", None) is not None:
        try:
            section, values = _read_config(Path(args.config).read_text(encoding="utf-8-sig"))
        except OSError as exc:
            raise ConfigError(f"cannot read {args.config}: {exc.strerror or exc}") from None
        except UnicodeDecodeError as exc:
            raise ConfigError(f"cannot read {args.config}: not UTF-8 text ({exc.reason} "
                              f"at byte {exc.start})") from None
        if section != args.command:
            raise ConfigError(f"config section [{section}] does not match command "
                              f"{args.command!r}")
    return finalize_manifest(args.command, {**values, **flags})


# ---------------------------------------------------------------------------
# command handlers


def _directions(angles) -> tuple[Direction, ...]:
    """Degrees ``(theta1, phi1, theta2, phi2, ...)`` in, one direction per
    analyzer in radians out: the system's single unit conversion."""
    return tuple(Direction(math.radians(theta), math.radians(phi))
                 for theta, phi in zip(angles[::2], angles[1::2]))


def _columns(exp: Experiment) -> list[str]:
    return [*exp.angle_keys, "entangled", exp.preset_key, *(m[0] for m in exp.means)]


def _grid(exp: Experiment, points, entangled: bool, preset: str, verify: bool):
    """The means by column at each point ``(theta1, phi1, theta2, ...)`` in
    degrees, plus the largest verification residual (None unless ``verify``):
    one run over every point."""
    means, residuals = exp.run([_directions(point) for point in points], entangled,
                               exp.presets[preset], verify)
    return means, max(residuals) if verify else None


def _handle_run(man: RunManifest) -> _Rendered:
    exp = EXPERIMENTS[man.command]
    p = man.parameters
    preset = p[exp.preset_key]
    point = tuple(p[k] for k in exp.angle_keys)
    (values,), residual = _grid(exp, [point], p["entangled"], preset, man.verify)
    preset_line = exp.preset_line.format(preset=preset, eigenvalues=exp.presets[preset])
    labels = [m[1].format(preset=preset) for m in exp.means]
    width = max(len(label) for label in labels)
    table = [f"{exp.name.upper()} run"]
    table += [f"  analyzer {k}: theta = {_fmt(p[f'theta{k}'])} deg, phi = {_fmt(p[f'phi{k}'])} deg"
              for k in range(1, len(exp.measurements) + 1)]
    table += [f"  {'entangled':<{preset_line.index(' =')}} = {_fmt(p['entangled'])}",
              f"  {preset_line}"]
    table += [f"  {label:<{width}} = {_fmt(value)}"
              for label, value in zip(labels, values.values())]
    row = [*point, p["entangled"], preset, *values.values()]
    return _Rendered(table, _columns(exp), [row], residual)


def _equator(exp: Experiment, column: str, preset: str, azimuths,
             entangled: bool = True, verify: bool = False):
    """The ``column`` mean under ``preset`` at each tuple of azimuths, every
    analyzer at theta = 90 deg, and the verification residual."""
    points = [tuple(angle for phi in phis for angle in (90.0, phi)) for phis in azimuths]
    means, residual = _grid(exp, points, entangled, preset, verify)
    return [values[column] for values in means], residual


def _handle_bell_q(man: RunManifest) -> _Rendered:
    phis_deg = man.parameters["phis"]
    pairs = [(phis_deg[a], phis_deg[b]) for a, b in _BELL_PAIRS]
    terms, residual = _equator(EPRB, "p_uu", "probability", pairs, verify=man.verify)
    q = float(sum(terms))
    table = ["Bell quantity (analyzers in the theta = 90 deg plane)"]
    table += [f"  P_uu({_fmt(phis_deg[a])}, {_fmt(phis_deg[b])}) = {_fmt(term)}"
              for (a, b), term in zip(_BELL_PAIRS, terms)]
    table.append(f"  Q = {_fmt(q)}")
    columns = ["phi1", "phi2", "phi3", *(f"p_uu_{a + 1}{b + 1}" for a, b in _BELL_PAIRS), "q"]
    row = [*phis_deg, *terms, q]
    return _Rendered(table, columns, [row], residual)


def _handle_ghz_table(man: RunManifest) -> _Rendered:
    triples = ((0.0, 90.0, 90.0), (90.0, 0.0, 90.0), (90.0, 90.0, 0.0), (0.0, 0.0, 0.0))
    columns = ["phi1", "phi2", "phi3", "p_eu_entangled", "p_eu_nonentangled"]
    on, on_residual = _equator(GHZM, "probability", "even", triples, True, man.verify)
    off, off_residual = _equator(GHZM, "probability", "even", triples, False, man.verify)
    rows = [[*phis, p_on, p_off] for phis, p_on, p_off in zip(triples, on, off)]
    residual = max(on_residual, off_residual) if man.verify else None
    table = ["GHZM parity table (theta = 90 deg)",
             "  phi1  phi2  phi3   P_eu entangled   P_eu nonentangled"]
    for row in rows:
        table.append(
            f"  {_fmt(row[0]):>4}  {_fmt(row[1]):>4}  {_fmt(row[2]):>4}"
            f"   {_fmt(row[3]):>14}   {_fmt(row[4]):>17}"
        )
    table.append("  instruction-set models force P_eu(0, 0, 0) = 0; see `sim lhv ghz`")
    return _Rendered(table, columns, rows, residual)


def _lhv_eprb() -> _Rendered:
    witness, q_max = eprb_q_max()
    phis = (0.0, 120.0, 240.0)
    terms, _ = _equator(EPRB, "p_uu", "probability", [(phis[a], phis[b]) for a, b in _BELL_PAIRS])
    rows = [[",".join(s), q] for s, q in EPRB_SET_Q]
    table = ["EPRB instruction sets (particle 2 forced opposite; 8 sets)",
             "  responses at 0/120/240 deg   Q"]
    table += [f"  {responses:<26}   {_fmt(q)}" for responses, q in rows]
    table += [
        f"  classical maximum Q = {_fmt(q_max)}   (witness {','.join(witness)})",
        f"  quantum Q           = {_fmt(float(sum(terms)))}",
    ]
    return _Rendered(table, ["responses_0_120_240", "q"], rows)


def _lhv_ghz() -> _Rendered:
    survivors = ghz_constrained_sets()
    (quantum,), _ = _equator(GHZM, "probability", "even", [(0.0, 0.0, 0.0)])
    table = [
        f"GHZ instruction sets: 64 candidates, {len(survivors)} satisfy the"
        " mixed-orientation constraints",
        "  responses (0 deg, 90 deg) per particle      spin-up parity at (0,0,0)",
    ]
    rows = []
    for s, parity in survivors:
        cells = ["/".join(pair) for pair in s]
        rows.append([*cells, parity])
        table.append(f"  {'  '.join(c.ljust(12) for c in cells)}  {parity}")
    table += [
        f"  classical P_eu(0, 0, 0) = {_fmt(classical_ghz_p_eu_zero(survivors))}",
        f"  quantum   P_eu(0, 0, 0) = {_fmt(quantum)}",
    ]
    return _Rendered(table, ["particle1", "particle2", "particle3", "parity_at_zero"], rows)


def _handle_lhv(man: RunManifest) -> _Rendered:
    which = man.parameters["which"]
    if which != "both":
        return {"eprb": _lhv_eprb, "ghz": _lhv_ghz}[which]()
    if man.output_format == "csv":
        raise ConfigError("csv output needs `sim lhv eprb` or `sim lhv ghz`")
    return _Rendered(_lhv_eprb().table + _lhv_ghz().table, [], [])


def _handle_analyze(man: RunManifest) -> _Rendered:
    p = man.parameters
    exp = EXPERIMENTS[p["experiment"]]
    labels = exp.layout.labels
    rows = exp.support_ledger(_directions([p[k] for k in exp.angle_keys]), man.tolerance)
    columns = ["observable", "stage", "support"] + [f"res_{lbl}" for lbl in labels]
    table = [f"Label support ledger ({exp.name.upper()})",
             f"  triviality threshold = {_fmt(man.tolerance)}"]
    for row in rows:
        residuals = "  ".join(f"{lbl}={_fmt(res)}" for lbl, res in zip(labels, row[3:]))
        table.append(f"  {row[0]:<3} {row[1]:<16} support=[{row[2]}]  {residuals}")
    return _Rendered(table, columns, rows)


def _handle_sweep(man: RunManifest) -> _Rendered:
    p = man.parameters
    exp = EXPERIMENTS[p["experiment"]]
    points = list(product(*(p[k] for k in exp.angle_keys)))
    entangled, preset = p["entangled"], p[exp.preset_key]
    means, residual = _grid(exp, points, entangled, preset, man.verify)
    rows = [[*point, entangled, preset, *values.values()] for point, values in zip(points, means)]
    columns = _columns(exp)
    table = [f"Sweep ({exp.name}, {len(rows)} grid points)", "  " + "  ".join(columns)]
    table += ["  " + "  ".join(_fmt(v) for v in row) for row in rows]
    return _Rendered(table, columns, rows, residual)


_HANDLERS = {
    **dict.fromkeys(EXPERIMENTS, _handle_run),
    "bell-q": _handle_bell_q,
    "ghz-table": _handle_ghz_table,
    "lhv": _handle_lhv,
    "analyze": _handle_analyze,
    "sweep": _handle_sweep,
}


def _emit(man: RunManifest, rendered: _Rendered, out: TextIO) -> None:
    if man.output_format == "csv":
        out.write(f"# sim {man.command}\n")
        echo = " ".join(f"{k}={_fmt_param(v)}" for k, v in man.parameters.items())
        if echo:
            out.write(f"# {echo}\n")
        out.write(f"# verify={_fmt(man.verify)} tol={_fmt(man.tolerance)}\n")
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(rendered.columns)
        for row in rendered.rows:
            writer.writerow([_fmt(v) for v in row])
    else:
        out.write("\n".join(rendered.table) + "\n")


def _fmt_param(value) -> str:
    if isinstance(value, tuple):
        return ",".join(_fmt(v) for v in value)
    return _fmt(value)


def run(manifest: RunManifest, out: TextIO | None = None) -> int:
    """Execute a manifest, emit its report, and return the exit code."""
    out = out if out is not None else sys.stdout
    rendered = _HANDLERS[manifest.command](manifest)
    residual = rendered.residual
    if residual is not None:
        rendered.columns.append("residual")
        rendered.rows = [[*row, residual] for row in rendered.rows]
        rendered.table.append(f"  verification residual = {_fmt(residual)}")
    _emit(manifest, rendered, out)
    out.flush()
    if residual is not None and residual > manifest.tolerance:
        print(f"verification failed: residual {residual:.3e} exceeds "
              f"tolerance {manifest.tolerance:.3e}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        manifest = _manifest_from_args(args)
        return run(manifest)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # the reader has gone: end quietly, and let the flush at exit write to devnull
        with open(os.devnull, "w", encoding="utf-8") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return _EXIT_BROKEN_PIPE
    except Exception as exc:
        # bad input is a usage or config error by now: any other exception
        # (a numpy shape mismatch, say) is the program's own fault
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
