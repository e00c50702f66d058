"""Tests of the benchmark itself: the gate, seeded generation, the tracer and
the contract between ``BENCHMARK.json`` and ``run.py``.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

from perfbench import gate, run
from perfbench.gate import GateError, check
from perfbench.layers import Tracer
from perfbench.reference import SHARE, Reference
from perfbench.workloads import (WORKLOADS, analyze_op, bell_q_op, eprb_op, ghzm_op,
                                 lhv_eprb_op, sweep_op)

CLI = run.load_cli()

FAST_OPS = [
    ghzm_op((37.0, 80.0, 120.0), (10.0, 200.0, 33.0), True, "even", False),
    ghzm_op((37.0, 80.0, 120.0), (10.0, 200.0, 33.0), False, "odd", True),
    sweep_op({"theta1": (30.0, 70.0), "phi1": (5.0,), "theta2": (90.0,), "phi2": (0.0, 45.0),
              "theta3": (120.0,), "phi3": (10.0,)}, "odd"),
    eprb_op((37.0, 80.0), (10.0, 200.0), True, "spin", True),
    eprb_op((37.0, 80.0), (10.0, 200.0), False, "probability", False),
    eprb_op((37.0, 80.0), (10.0, 200.0), False, "spin", False),
    bell_q_op((0.0, 120.0, 240.0), True),
    lhv_eprb_op(),
]


def _output(op):
    code, _, out = run.run_op(CLI, op)
    return code, out


@pytest.fixture(autouse=True)
def _work_dir():
    run.WORK.mkdir(parents=True, exist_ok=True)


@pytest.mark.parametrize("op", FAST_OPS, ids=[f"{op.kind}-{k}" for k, op in enumerate(FAST_OPS)])
def test_gate_accepts_program_output(op):
    code, out = _output(op)
    assert check(op, code, out) >= 1


def test_gate_accepts_analyze_ledger_and_rejects_a_wrong_support():
    op = analyze_op((37.0, 80.0, 120.0), (10.0, 200.0, 33.0))
    code, out = _output(op)
    assert check(op, code, out) == 12
    wrong = out.replace('B1,t3-entangled,"O1,S1,S2,S3"', 'B1,t3-entangled,"O1,S1"')
    assert wrong != out
    with pytest.raises(GateError, match="support"):
        check(op, code, wrong)


def test_wrong_expected_value_counts_as_failure(monkeypatch):
    op = FAST_OPS[0]
    tally = run.Tally()
    run.execute(CLI, op, tally)
    closed_form = gate.ghzm_probability
    # an expected value off by 1e-9, ten times the gate's tolerance
    monkeypatch.setattr(gate, "ghzm_probability", lambda *a: closed_form(*a) + 1e-9)
    run.execute(CLI, op, tally)
    assert (tally.attempted, tally.failed, len(tally.walls)) == (2, 1, 1)
    assert "probability" in tally.errors[0]


def test_nonzero_exit_counts_as_failure():
    op = replace(FAST_OPS[0], argv=FAST_OPS[0].argv + ("--tol", "-1"))
    tally = run.Tally()
    run.execute(CLI, op, tally)
    assert tally.failed == 1 and "exit code 1" in tally.errors[0]


def test_verify_residual_above_tolerance_fails():
    op = FAST_OPS[3]
    code, out = _output(op)
    header, row = out.strip().splitlines()[-2:]
    tampered = out.replace(row, row.rsplit(",", 1)[0] + ",1e-06")
    with pytest.raises(GateError, match="residual"):
        check(op, code, tampered)


def test_lhv_table_is_checked_row_by_row():
    op = lhv_eprb_op()
    code, out = _output(op)
    with pytest.raises(GateError):
        check(op, code, out.replace('"up,up,up",0', '"up,up,up",1'))


def test_generation_is_seeded_and_rounds_share_their_shape():
    def shape(ops):
        return sorted((op.kind, op.argv[0], "--verify" in op.argv,
                       op.params.get("entangled"), op.params.get("beta")) for op in ops)

    for workload in WORKLOADS.values():
        a, b = workload.rounds(7), workload.rounds(7)
        first, again = next(a), next(b)
        assert first == again
        other = workload.make_round(random.Random(8))
        assert other != first
        assert shape(other) == shape(first) == shape(next(a))


def test_reference_runs_its_share_and_at_least_once():
    ref = Reference("python")
    mean = ref.measure(0.0)
    assert len(ref.samples) == 1 and mean == ref.samples[0] > 0
    mean = ref.measure(5 * mean / SHARE)
    assert len(ref.samples) >= 4
    assert mean == pytest.approx(sum(ref.samples[1:]) / (len(ref.samples) - 1))


def test_tracer_counts_repeat_across_seeds_and_restores_the_program():
    import heisensim.measure as measure
    import heisensim.tensor as tensor

    originals = (CLI.main, tensor.embed, measure.InteractionSequence.total_unitary)
    counts = []
    for seed in (1, 2):
        tracer = Tracer()
        ops = next(WORKLOADS["eprb-bell"].rounds(seed))
        with tracer.installed():
            for op in ops:
                tally = run.Tally()
                run.execute(CLI, op, tally)
                assert tally.failed == 0, tally.errors
                tracer.op += 1
        totals = tracer.totals()
        counts.append({k: (v["calls"], v["flops"]) for k, v in totals.items()})
        assert totals["cli.main"]["calls"] == len(ops)
        assert totals["lhv.eprb_q_max"]["calls"] == 1
        # every non-root span has a parent that encloses it
        by_id = {s.span_id: s for s in tracer.spans}
        for s in tracer.spans:
            if s.parent_id is not None:
                parent = by_id[s.parent_id]
                assert parent.start <= s.start <= s.end <= parent.end
    assert counts[0] == counts[1]
    assert (CLI.main, tensor.embed, measure.InteractionSequence.total_unitary) == originals


def test_benchmark_json_matches_the_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_fails_without_the_program():
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eprb-bell", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
