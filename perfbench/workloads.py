"""Seeded generation of CLI operations, grouped into fixed-shape rounds.

The program sees only what is generated here: an argv list and, for
``sweep``, the text of a config file. ``params`` carries the same inputs to
the correctness gate, which derives every expected value from them.

A workload is an endless stream of rounds. Each round has the same shape
(the same commands with the same flags) and fresh seeded angles, so any
count taken over whole rounds is the same for every seed, while no two
rounds share inputs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator


@dataclass(frozen=True)
class Op:
    """One CLI invocation.

    ``kind`` is one of ``ghzm``, ``sweep``, ``analyze``, ``eprb``,
    ``bell-q`` and ``lhv-eprb``. ``config`` is the text of the file that
    the runner writes and passes as ``--config FILE``.
    """

    kind: str
    params: dict
    argv: tuple[str, ...]
    config: str | None = None


def _num(x: float) -> str:
    return repr(float(x))


def _bool(b: bool) -> str:
    return "true" if b else "false"


def ghzm_op(theta, phi, entangled: bool, gamma: str, verify: bool) -> Op:
    argv = ["ghzm", "--theta", *map(_num, theta), "--phi", *map(_num, phi),
            "--entangled", _bool(entangled), "--gamma-preset", gamma, "--format", "csv"]
    if verify:
        argv.append("--verify")
    params = {"theta": tuple(theta), "phi": tuple(phi), "entangled": entangled,
              "gamma": gamma, "verify": verify}
    return Op("ghzm", params, tuple(argv))


SWEEP_AXES = ("theta1", "phi1", "theta2", "phi2", "theta3", "phi3")


def sweep_op(axes: dict[str, tuple[float, ...]], gamma: str) -> Op:
    lines = ["[sweep]", "experiment = ghzm"]
    lines += [f"{a} = {' '.join(map(_num, axes[a]))}" for a in SWEEP_AXES]
    lines += ["entangled = true", f"gamma_preset = {gamma}", "format = csv"]
    params = {"axes": {a: tuple(axes[a]) for a in SWEEP_AXES}, "gamma": gamma}
    return Op("sweep", params, ("sweep",), "\n".join(lines) + "\n")


def analyze_op(theta, phi) -> Op:
    argv = ("analyze", "--experiment", "ghzm", "--theta", *map(_num, theta),
            "--phi", *map(_num, phi), "--format", "csv")
    return Op("analyze", {"theta": tuple(theta), "phi": tuple(phi)}, argv)


def eprb_op(theta, phi, entangled: bool, beta: str, verify: bool) -> Op:
    argv = ["eprb", "--theta", *map(_num, theta), "--phi", *map(_num, phi),
            "--entangled", _bool(entangled), "--beta-preset", beta, "--format", "csv"]
    if verify:
        argv.append("--verify")
    params = {"theta": tuple(theta), "phi": tuple(phi), "entangled": entangled,
              "beta": beta, "verify": verify}
    return Op("eprb", params, tuple(argv))


def bell_q_op(phis, verify: bool) -> Op:
    argv = ["bell-q", "--phis", *map(_num, phis), "--format", "csv"]
    if verify:
        argv.append("--verify")
    return Op("bell-q", {"phis": tuple(phis), "verify": verify}, tuple(argv))


def lhv_eprb_op() -> Op:
    return Op("lhv-eprb", {}, ("lhv", "eprb", "--format", "csv"))


# -- seeded angles, degrees, rounded so that argv text round-trips exactly


def _azimuth(rng: random.Random) -> float:
    return round(rng.uniform(0.0, 360.0), 3)


def _polar(rng: random.Random) -> float:
    """Polar angle of a direction uniform on the sphere."""
    return round(math.degrees(math.acos(1.0 - 2.0 * rng.random())), 3)


def _generic_polar(rng: random.Random) -> float:
    # away from the poles, where a measurement along z would make some
    # support residuals vanish and the generic support pattern not apply
    return round(rng.uniform(20.0, 160.0), 3)


# -- rounds


def _ghzm_grid_round(rng: random.Random) -> list[Op]:
    # 4 points: theta1 and phi2 take two values each, so each measurement
    # direction of particles 1 and 2 recurs at two grid points and that of
    # particle 3 at all four
    axes = {
        "theta1": (_polar(rng), _polar(rng)),
        "phi1": (_azimuth(rng),),
        "theta2": (_polar(rng),),
        "phi2": (_azimuth(rng), _azimuth(rng)),
        "theta3": (_polar(rng),),
        "phi3": (_azimuth(rng),),
    }
    return [sweep_op(axes, rng.choice(("even", "odd")))]


def _ghzm_verify_round(rng: random.Random) -> list[Op]:
    ops = [
        ghzm_op([_polar(rng) for _ in range(3)], [_azimuth(rng) for _ in range(3)],
                entangled, gamma, verify=True)
        for entangled in (True, False)
        for gamma in ("even", "odd")
    ]
    rng.shuffle(ops)
    return ops


def _ghzm_analyze_round(rng: random.Random) -> list[Op]:
    return [analyze_op([_generic_polar(rng) for _ in range(3)],
                       [_azimuth(rng) for _ in range(3)])]


def _eprb_bell_round(rng: random.Random) -> list[Op]:
    ops = [
        eprb_op([_polar(rng), _polar(rng)], [_azimuth(rng), _azimuth(rng)],
                entangled, beta, verify)
        for verify in (False, True)
        for beta in ("spin", "probability")
        for entangled in (True, False)
    ]
    ops += [bell_q_op([_azimuth(rng) for _ in range(3)], verify) for verify in (False, True)]
    ops.append(lhv_eprb_op())
    rng.shuffle(ops)
    return ops


@dataclass(frozen=True)
class Workload:
    why: str
    make_round: Callable[[random.Random], list[Op]]
    #: untimed operations that fill the program's caches; they cover every
    #: cached input the rounds use (both GHZM gamma presets, the fixed Bell
    #: azimuths of ``lhv eprb``)
    warmup: tuple[Op, ...]
    #: the kernel of ``reference.py`` that does the kind of work this
    #: workload's time goes to
    reference: str

    def rounds(self, seed: int) -> Iterator[list[Op]]:
        rng = random.Random(seed)
        while True:
            yield self.make_round(rng)


_GHZM_WARMUP = (
    ghzm_op((90.0, 90.0, 90.0), (0.0, 0.0, 0.0), True, "even", False),
    ghzm_op((90.0, 90.0, 90.0), (0.0, 0.0, 0.0), True, "odd", False),
)

WORKLOADS: dict[str, Workload] = {
    "ghzm-grid": Workload(
        "Dense 648-dim path (total_unitary, conjugate_by, embed) on Cartesian sweeps whose"
        " grid points share measurement directions, so a direction-keyed cache could hit.",
        _ghzm_grid_round, _GHZM_WARMUP, "dense"),
    "ghzm-verify": Workload(
        "Independent GHZM runs with --verify: the oracle plus cross_check rebuild the whole"
        " evolution; no two operations share inputs, so a direction-keyed cache finds nothing.",
        _ghzm_verify_round, _GHZM_WARMUP, "dense"),
    "ghzm-analyze": Workload(
        "Support ledger at random angles: the only path through labels (acts_trivially_on,"
        " partial_trace and the embeds they trigger).",
        _ghzm_analyze_round, _GHZM_WARMUP, "dense"),
    "eprb-bell": Workload(
        "36-dim EPRB, bell-q and lhv mix where Python overhead dominates: predicted flat under"
        " 648-dim kernel changes; the only path through eprb and lhv.",
        _eprb_bell_round,
        (eprb_op((90.0, 90.0), (0.0, 120.0), True, "spin", True),
         bell_q_op((0.0, 120.0, 240.0), True),
         lhv_eprb_op()),
        "python"),
}
