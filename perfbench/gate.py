"""Correctness gate: every CSV row a CLI operation prints is checked against a
closed form computed here from the operation's inputs, at 1e-10.

An operation fails on a nonzero exit code, on output that does not parse,
and on any value off its closed form. :func:`check` returns the number of
data rows, which the benchmark counts as throughput.
"""

from __future__ import annotations

import csv
import math
from itertools import product

from .workloads import SWEEP_AXES, Op

TOL = 1e-10

ALL_GHZM_LABELS = frozenset({"O0", "O1", "O2", "O3", "S1", "S2", "S3"})


class GateError(Exception):
    """The output of an operation is wrong."""


def parse_csv(text: str) -> list[dict[str, str]]:
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    if not lines:
        raise GateError("no CSV header in output")
    reader = csv.reader(lines)
    header = next(reader)
    rows = []
    for cells in reader:
        if len(cells) != len(header):
            raise GateError(f"row has {len(cells)} cells, header has {len(header)}")
        rows.append(dict(zip(header, cells)))
    return rows


def _expect(row: dict[str, str], column: str, want: float, tol: float = TOL) -> None:
    try:
        got = float(row[column])
    except (KeyError, ValueError):
        raise GateError(f"column {column!r} missing or not a number in {row}") from None
    if not abs(got - want) <= tol:
        raise GateError(f"{column} = {got!r}, expected {want!r}")


def _expect_text(row: dict[str, str], column: str, want: str) -> None:
    if row.get(column) != want:
        raise GateError(f"{column} = {row.get(column)!r}, expected {want!r}")


def _up(theta_deg: float) -> float:
    """Probability of spin-up along a direction at polar angle theta for a
    particle prepared spin-up along z."""
    return math.cos(math.radians(theta_deg) / 2.0) ** 2


def ghzm_probability(theta, phi, entangled: bool, gamma: str) -> float:
    """P_eu (even preset) or P_ou = 1 - P_eu (odd preset)."""
    if entangled:
        sines = math.prod(math.sin(math.radians(t)) for t in theta)
        p_even = (1.0 + math.cos(math.radians(sum(phi))) * sines) / 2.0
    else:
        p = [_up(t) for t in theta]
        q = [1.0 - x for x in p]
        p_even = (q[0] * q[1] * q[2] + p[0] * p[1] * q[2]
                  + p[0] * q[1] * p[2] + q[0] * p[1] * p[2])
    return p_even if gamma == "even" else 1.0 - p_even


def eprb_means(theta, phi, entangled: bool, beta: str) -> dict[str, float]:
    """mean_b1, mean_b2, mean_b1b2 and p_uu for particle 1 up and particle 2
    down along z, or their singlet."""
    t1, t2 = (math.radians(t) for t in theta)
    p1, p2 = (math.radians(p) for p in phi)
    if entangled:
        dot = math.sin(t1) * math.sin(t2) * math.cos(p1 - p2) + math.cos(t1) * math.cos(t2)
        p_uu = (1.0 - dot) / 4.0
        if beta == "spin":
            return {"mean_b1": 0.0, "mean_b2": 0.0, "mean_b1b2": -dot, "p_uu": p_uu}
        return {"mean_b1": 0.5, "mean_b2": 0.5, "mean_b1b2": p_uu, "p_uu": p_uu}
    up1, up2 = _up(theta[0]), 1.0 - _up(theta[1])
    if beta == "spin":
        b1, b2 = 2.0 * up1 - 1.0, 2.0 * up2 - 1.0
    else:
        b1, b2 = up1, up2
    return {"mean_b1": b1, "mean_b2": b2, "mean_b1b2": b1 * b2, "p_uu": up1 * up2}


def _expected_support(observable: str, stage: str) -> frozenset[str]:
    """Support pattern of the GHZM ledger at generic angles."""
    if observable == "G":
        return frozenset({"O0"}) if stage == "t0" else ALL_GHZM_LABELS
    k = observable[1:]
    if stage == "t0":
        return frozenset({f"O{k}"})
    if stage == "t3-nonentangled":
        return frozenset({f"O{k}", f"S{k}"})
    return frozenset({f"O{k}", "S1", "S2", "S3"})


def _check_angles(row, theta, phi) -> None:
    for k, (t, p) in enumerate(zip(theta, phi), start=1):
        _expect(row, f"theta{k}", t, 1e-9)
        _expect(row, f"phi{k}", p, 1e-9)


def _check_residual(rows, verify: bool) -> None:
    if not verify:
        return
    for row in rows:
        _expect(row, "residual", 0.0, TOL)


def _check_ghzm(op: Op, rows) -> None:
    p = op.params
    if len(rows) != 1:
        raise GateError(f"expected 1 row, got {len(rows)}")
    row = rows[0]
    _check_angles(row, p["theta"], p["phi"])
    _expect_text(row, "entangled", "true" if p["entangled"] else "false")
    _expect_text(row, "gamma_preset", p["gamma"])
    _expect(row, "probability", ghzm_probability(p["theta"], p["phi"], p["entangled"], p["gamma"]))
    _check_residual(rows, p["verify"])


def _check_sweep(op: Op, rows) -> None:
    axes, gamma = op.params["axes"], op.params["gamma"]
    points = list(product(*(axes[a] for a in SWEEP_AXES)))
    if len(rows) != len(points):
        raise GateError(f"expected {len(points)} grid rows, got {len(rows)}")
    for row, point in zip(rows, points):
        theta, phi = point[0::2], point[1::2]
        _check_angles(row, theta, phi)
        _expect_text(row, "gamma_preset", gamma)
        _expect(row, "probability", ghzm_probability(theta, phi, True, gamma))


def _check_analyze(op: Op, rows) -> None:
    seen = set()
    for row in rows:
        key = (row.get("observable"), row.get("stage"))
        labels = frozenset(filter(None, row.get("support", "").split(",")))
        want = _expected_support(*key)
        if labels != want:
            raise GateError(f"support of {key} is {sorted(labels)}, expected {sorted(want)}")
        seen.add(key)
    expected_keys = {(o, s) for o in ("G", "B1", "B2", "B3")
                     for s in ("t0", "t3-nonentangled", "t3-entangled")}
    if seen != expected_keys or len(rows) != len(expected_keys):
        raise GateError(f"ledger rows {sorted(seen)} do not cover {sorted(expected_keys)}")


def _check_eprb(op: Op, rows) -> None:
    p = op.params
    if len(rows) != 1:
        raise GateError(f"expected 1 row, got {len(rows)}")
    row = rows[0]
    _check_angles(row, p["theta"], p["phi"])
    _expect_text(row, "beta_preset", p["beta"])
    for column, want in eprb_means(p["theta"], p["phi"], p["entangled"], p["beta"]).items():
        _expect(row, column, want)
    _check_residual(rows, p["verify"])


def _check_bell_q(op: Op, rows) -> None:
    phis = op.params["phis"]
    if len(rows) != 1:
        raise GateError(f"expected 1 row, got {len(rows)}")
    row = rows[0]
    total = 0.0
    for name, (a, b) in zip(("p_uu_12", "p_uu_23", "p_uu_31"),
                            ((phis[0], phis[1]), (phis[1], phis[2]), (phis[2], phis[0]))):
        term = (1.0 - math.cos(math.radians(a - b))) / 4.0
        _expect(row, name, term)
        total += term
    _expect(row, "q", total)
    _check_residual(rows, op.params["verify"])


def _check_lhv_eprb(op: Op, rows) -> None:
    if len(rows) != 8:
        raise GateError(f"expected 8 instruction sets, got {len(rows)}")
    best = -1.0
    for row in rows:
        outcomes = row.get("responses_0_120_240", "").split(",")
        # particle 2 answers opposite to particle 1, so both go up at the
        # pairing (a, b) when particle 1 holds up at a and down at b
        q = sum(outcomes[a] == "up" and outcomes[b] == "down" for a, b in ((0, 1), (1, 2), (2, 0)))
        _expect(row, "q", float(q))
        best = max(best, float(row["q"]))
    if abs(best - 1.0) > TOL:
        raise GateError(f"maximum instruction-set Q is {best}, expected 1")


_CHECKS = {
    "ghzm": _check_ghzm,
    "sweep": _check_sweep,
    "analyze": _check_analyze,
    "eprb": _check_eprb,
    "bell-q": _check_bell_q,
    "lhv-eprb": _check_lhv_eprb,
}


def check(op: Op, exit_code: int, stdout: str) -> int:
    """Raise :class:`GateError` unless the operation succeeded with correct
    output; return its number of CSV data rows."""
    if exit_code != 0:
        raise GateError(f"exit code {exit_code}")
    rows = parse_csv(stdout)
    _CHECKS[op.kind](op, rows)
    return len(rows)
