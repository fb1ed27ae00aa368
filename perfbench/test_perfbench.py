"""Tests of the benchmark itself: its reference code, checkers and outputs.

    python3 -m pytest perfbench -q

Each checker must accept a clean round and reject a deliberately corrupted
one, so that every check the benchmark reports can fail.
"""

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from fdpctl import Gamma, oracle, simlab, step_down, step_up  # noqa: E402
from fdpctl.core import CriticalConstants  # noqa: E402

import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402


# -- reference sort-and-scan --------------------------------------------------

@pytest.mark.parametrize("p, c, sd, su", [
    # distinct p-values, both directions stop at the same rank
    ([0.01, 0.04, 0.03, 0.5], [0.02, 0.03, 0.04, 0.05], [0, 2, 1], [0, 2, 1]),
    # stepdown stops at rank 2, stepup reaches back from rank 3
    ([0.03, 0.01, 0.045], [0.02, 0.025, 0.05], [1], [1, 0, 2]),
    # three-way tie: rank 1 fails, ranks 2 and 3 pass
    ([0.02, 0.02, 0.02], [0.01, 0.02, 0.03], [], [0, 1, 2]),
    # ties keep their original order
    ([0.5, 0.02, 0.02], [0.02, 0.02, 0.6], [1, 2, 0], [1, 2, 0]),
    # all rejected
    ([0.001, 0.002, 0.003], [0.01, 0.02, 0.03], [0, 1, 2], [0, 1, 2]),
    # none rejected
    ([0.9, 0.8, 0.7], [0.01, 0.02, 0.03], [], []),
])
def test_sort_and_scan_hand_worked(p, c, sd, su):
    assert ref.sort_and_scan(p, c, "sd") == sd
    assert ref.sort_and_scan(p, c, "su") == su


def test_rejection_counts_and_exceedance():
    p = [0.03, 0.01, 0.045, 0.9]
    c = [0.02, 0.025, 0.05, 0.06]
    is_null = [True, False, True, True]
    assert ref.rejection_counts(p, c, "su", is_null) == (3, 2, 1)
    assert ref.rejection_counts(p, c, "sd", is_null) == (1, 0, 1)
    assert ref.exceeds(2, 3, 1, 1, 10)          # 2/3 > 1/10
    assert not ref.exceeds(2, 3, 3, 1, 10)      # V < k
    assert not ref.exceeds(1, 10, 1, 1, 10)     # 1/10 is not > 1/10


def test_sort_and_scan_agrees_with_engine():
    rng = np.random.default_rng(5)
    for _ in range(300):
        n = int(rng.integers(1, 12))
        p = rng.uniform(size=n).round(1)  # ties
        c = CriticalConstants(np.sort(rng.uniform(0.05, 0.95, size=n)))
        for direction, engine in (("sd", step_down), ("su", step_up)):
            want = sorted(engine(p, c).rejected)
            got = ref.sort_and_scan(p.tolist(), c.values.tolist(), direction)
            assert sorted(got) == want


# -- reference samples, p-values, kernel, counts ------------------------------

@pytest.mark.parametrize("kind, rho, block", wl.MC_MODELS)
def test_regenerated_sample_matches_generator(kind, rho, block):
    model = simlab.DependenceModel(kind=kind, rho=rho, block_size=block)
    mu = np.r_[np.zeros(60), np.full(40, 3.0)]
    for rep in range(5):
        rng = np.random.default_rng((17, rep))
        want = simlab.generate_sample(model, mu, rng)
        got = ref.regenerate_sample(kind, rho, block, mu, 17, rep)
        np.testing.assert_array_equal(got, want)


def test_two_sided_p_matches_definition():
    z = [-3.0, -0.5, 0.0, 1.96, 8.0]
    got = ref.two_sided_p(z)
    np.testing.assert_allclose(got, simlab.two_sided_pvalues(z), rtol=1e-12)
    assert got[2] == 1.0


def test_bvn_quad_matches_sheppard():
    for rho in (-0.9, -0.3, 0.2, 0.8):
        assert abs(ref.bvn_quad(0.0, 0.0, rho) - ref.bvn_origin(rho)) < 1e-12


def test_exhaustive_counts():
    lattice = len(oracle.p_lattice())
    assert lattice == 15
    assert ref.exhaustive_count(lattice) == 329_280
    assert ref.exhaustive_count(lattice, combos=2) == 109_760


# -- checkers reject corrupted outputs ----------------------------------------

def test_montecarlo_checker_rejects_flipped_indicator():
    w = wl.MonteCarlo(seed=3, reps=40, models=(("uniform", 0.3, None),),
                      pi0s=(0.8,))
    rnd = w.run_round()
    assert rnd.attempted == 40 * len(wl.MC_PROCEDURES)
    assert w.check(rnd.outputs) == []
    exceed, power = rnd.outputs[0]["lr-sd"]
    exceed[7] = not exceed[7]
    assert any("exceedance" in e for e in w.check(rnd.outputs))


def test_montecarlo_checker_rejects_lost_power():
    w = wl.MonteCarlo(seed=4, reps=30, models=(("ar1", 0.5, None),),
                      pi0s=(0.5,))
    rnd = w.run_round()
    assert w.check(rnd.outputs) == []
    rnd.outputs[0]["lr-su"][1][3] -= 0.02
    errors = w.check(rnd.outputs)
    assert any("power" in e for e in errors)


def test_pairtables_checker_rejects_nudged_beta():
    w = wl.PairTables(seed=1, cells=((10, "1/10", 0.3, "sd"),
                                     (10, "1/4", 0.5, "su")))
    rnd = w.run_round()
    assert rnd.attempted == 2
    assert w.check(rnd.outputs) == []
    bad = dataclasses.replace(rnd.outputs[0],
                              beta_star=rnd.outputs[0].beta_star + 1e-6)
    assert w.check([bad, rnd.outputs[1]]) != []


def test_pairtables_failures_are_the_reports_above_alpha():
    w = wl.PairTables(seed=0, cells=wl.PAIR_SMALL[:6])
    rnd = w.run_round()
    assert rnd.attempted == 6
    assert rnd.failed == sum(rep.scale > wl.ALPHA for rep in rnd.outputs)
    assert w.check(rnd.outputs) == []


def test_directtables_checker_rejects_nudged_scale():
    w = wl.DirectTables(seed=2, ns=(8,), gammas=("1/4",))
    rnd = w.run_round()
    assert rnd.attempted == len(w.cells) == 39
    assert w.check(rnd.outputs) == []
    i = next(i for i, c in enumerate(w.cells) if c.family == "arbdep_su")
    bad = list(rnd.outputs)
    bad[i] = dataclasses.replace(bad[i], scale=bad[i].scale * (1 + 1e-9))
    assert w.check(bad) != []


def _clean_oracle_report(w):
    report = oracle.SuiteReport()
    for name, kind in wl.ORACLE_ROWS.items():
        count = w.expected_count(kind) or w.fuzz_count + 1
        report.add(name, count, [])
    return report


def test_oracle_checker_rejects_missing_instance():
    w = wl.OracleSuite(seed=1, fuzz_count=100)
    report = _clean_oracle_report(w)
    assert w.check([report]) == []
    report.rows[0].instances -= 1
    assert w.check([report]) != []


def test_oracle_checker_rejects_violation():
    w = wl.OracleSuite(seed=1, fuzz_count=100)
    report = _clean_oracle_report(w)
    report.rows[4].violations = 1
    assert w.check([report]) != []


# -- tracer, metric names, bare checkout --------------------------------------

def test_tracer_self_time():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda u, v: sum(range(20000)), sized=True)
    outer = tracer.wrap("outer", lambda: [inner(np.zeros(3), 1.0)
                                          for _ in range(4)])
    outer()
    spans = tracer.summary()
    calls, incl, self_s, points = spans["inner"]
    assert (calls, points) == (4, 12)
    o_calls, o_incl, o_self, _ = spans["outer"]
    assert o_calls == 1
    assert abs(o_self - (o_incl - incl)) < 1e-9
    parents = [tracer.names[i] if i >= 0 else None
               for i in tracer.parent_names()]
    assert parents == [None] + ["outer"] * 4


def test_benchmark_json_lists_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "peak_rss_mb", "ops_per_s"}
    layer = run.per_layer_metrics(Tracer(), 1, 0, 0, {})
    assert [m["name"] for m in spec["per_layer"]] == list(layer)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: v["unit"] for k, v in layer.items()}


def test_exits_nonzero_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "tracer.py", "workloads.py", "reference.py"):
        (bench / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout == ""
