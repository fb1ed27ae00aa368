"""Run one fdpctl benchmark workload and print its result as a JSON line.

    python3 perfbench/run.py --workload montecarlo --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` next to this directory, never from an installed copy.  The run
repeats whole rounds of the workload's operations until ``--seconds`` have
passed, checks the outputs, and prints one JSON object as its last line:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
traced run with ``--trace 1``.  Result and span files go to
``perfbench/out/``.  See README.md for the workloads and metrics.
"""

import time

_T0 = time.perf_counter()

import argparse
import json
import os
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")

STEP = ("engine.step_down", "engine.step_up")
BOUNDS = ("constants.pair_sd_bound", "constants.pair_su_bound")


def _startup_s() -> float:
    """Seconds from the process's start to ``_T0``; 0 where /proc is absent."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        now = time.clock_gettime(time.CLOCK_BOOTTIME)
    except (OSError, ValueError, IndexError):
        return 0.0
    return max(0.0, now - (time.perf_counter() - _T0) - started)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def _import_program():
    """Import fdpctl from this checkout's src/, or exit with code 1."""
    if not os.path.isfile(os.path.join(SRC, "fdpctl", "__init__.py")):
        sys.exit(f"perfbench: no fdpctl sources under {SRC}")
    sys.path[:0] = [SRC, HERE]
    import fdpctl

    if os.path.dirname(os.path.dirname(os.path.abspath(fdpctl.__file__))) != SRC:
        sys.exit(f"perfbench: fdpctl was imported from {fdpctl.__file__}, "
                 f"not from {SRC}")


def _clear_caches():
    """Empty every lru_cache in fdpctl, so each round starts cold like a
    fresh ``fdpctl`` process and does the same work as the round before."""
    for name, module in list(sys.modules.items()):
        if name == "fdpctl" or name.startswith("fdpctl."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def _install_tracer(tracer, workload):
    from fdpctl import constants, engine, oracle, pairdist, simlab

    targets = [
        (simlab, "run_cell", "simlab.run_cell"),
        (simlab, "generate_sample", "simlab.generate_sample"),
        (simlab, "two_sided_pvalues", "simlab.two_sided_pvalues"),
        (simlab, "procedure_constants", "simlab.procedure_constants"),
        (engine, "RejectionResult", "core.RejectionResult"),
        (constants, "calibrate_pair_scale", "constants.calibrate_pair_scale"),
        (constants, "pair_sd_bound", "constants.pair_sd_bound"),
        (constants, "pair_su_bound", "constants.pair_su_bound"),
        (constants, "lr_constants", "constants.lr"),
        (constants, "pairwise_lr_report", "constants.pairwise_lr"),
        (oracle, "run_suite", "oracle.run_suite"),
    ]
    for family in ("posdep_sd", "posdep_su", "arbdep_sd", "arbdep_su"):
        targets.append((constants, f"{family}_report", f"constants.{family}"))
    for module in (simlab, oracle):
        for fn in ("step_down", "step_up", "annotate_truth"):
            targets.append((module, fn, f"engine.{fn}"))
    for module, attr, name in targets:
        tracer.patch(module, attr, name)
    tracer.patch(pairdist, "bvn_cdf", "pairdist.bvn_cdf", sized=True)
    for model in workload.pairwise_models():
        tracer.patch(model, "cdf", "pairdist.cdf", sized=True)


def per_layer_metrics(tracer, rounds: int, tables: int, instances: int,
                      rows: dict) -> dict:
    """Per-layer metrics of a traced run; times and counts are per round.

    ``tables`` counts calibrated tables and ``instances`` oracle instances
    per round; ``rows`` maps oracle row names to seconds per round.
    """
    import numpy as np

    from workloads import DIRECT_FAMILIES, ORACLE_ROWS, row_metric

    spans = tracer.summary()

    def total(field, *names):
        return sum(spans[n][field] for n in names if n in spans)

    calls = lambda *names: total(0, *names)
    incl = lambda *names: total(1, *names)
    self_s = lambda *names: total(2, *names)
    points = lambda *names: total(3, *names)
    per = lambda x, d: x / d if d else 0.0

    cdf_pairs = 0
    if "pairdist.cdf" in spans:
        under = tracer.parent_names()
        ids = np.frombuffer(tracer.name_ix, dtype=np.int32)
        bound_ids = [tracer.names.index(b) for b in BOUNDS if b in spans]
        sel = (ids == tracer.names.index("pairdist.cdf")) & np.isin(under, bound_ids)
        cdf_pairs = int(np.frombuffer(tracer.size, dtype=np.int64)[sel].sum())

    values = {
        "engine.step_calls": (calls(*STEP) / rounds, "calls/round"),
        "engine.step_s": (incl(*STEP) / rounds, "s/round"),
        "engine.annotate_calls": (calls("engine.annotate_truth") / rounds,
                                  "calls/round"),
        "engine.annotate_s": (incl("engine.annotate_truth") / rounds, "s/round"),
        "core.result_calls": (calls("core.RejectionResult") / rounds,
                              "calls/round"),
        "core.result_s": (incl("core.RejectionResult") / rounds, "s/round"),
        "simlab.generate_s": (incl("simlab.generate_sample") / rounds, "s/round"),
        "simlab.pvalues_s": (incl("simlab.two_sided_pvalues") / rounds, "s/round"),
        "simlab.constants_s": (incl("simlab.procedure_constants") / rounds,
                               "s/round"),
        "simlab.run_cell_self_s": (self_s("simlab.run_cell") / rounds, "s/round"),
        "pairdist.bvn_calls": (calls("pairdist.bvn_cdf") / rounds, "calls/round"),
        "pairdist.bvn_points": (points("pairdist.bvn_cdf") / rounds,
                                "points/round"),
        "pairdist.bvn_s": (incl("pairdist.bvn_cdf") / rounds, "s/round"),
        "constants.bound_evals": (per(calls(*BOUNDS), tables * rounds),
                                  "evals/table"),
        "constants.cdf_pairs": (per(cdf_pairs, tables * rounds), "pairs/table"),
        "constants.bound_self_s": (self_s(*BOUNDS) / rounds, "s/round"),
    }
    for family in DIRECT_FAMILIES:
        values[f"constants.direct_s.{family}"] = (
            incl(f"constants.{family}") / rounds, "s/round")
    for row in ORACLE_ROWS:
        values[row_metric(row)] = (rows.get(row, 0.0), "s/round")
    values["oracle.engine_calls_per_instance"] = (
        per(calls(*STEP), instances * rounds) if instances else 0.0,
        "calls/instance")
    values["oracle.check_self_s"] = (self_s("oracle.run_suite") / rounds,
                                     "s/round")
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def main(argv=None) -> int:
    args = _parse_args(argv)
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    os.environ.setdefault("OMP_NUM_THREADS", "1")
    os.environ.setdefault("MKL_NUM_THREADS", "1")
    _import_program()
    from tracer import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"known: {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    workload.warm_up()
    tracer = Tracer() if args.trace else None
    if tracer:
        _install_tracer(tracer, workload)

    _clear_caches()
    setup_s = _startup_s() + time.perf_counter() - _T0
    rounds, times, cpu_times = [], [], []
    start = time.perf_counter()
    try:
        while not rounds or time.perf_counter() - start < args.seconds:
            t, c = time.perf_counter(), time.process_time()
            rounds.append(workload.run_round())
            times.append(time.perf_counter() - t)
            cpu_times.append(time.process_time() - c)
            _clear_caches()
    finally:
        if tracer:
            tracer.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    first = rounds[0].outputs
    errors = workload.check(first)
    digest = workload.digest(first)
    errors += [f"round {i + 1} differs from round 1"
               for i, r in enumerate(rounds[1:], start=1)
               if workload.digest(r.outputs) != digest]
    for line in errors[:20]:
        print(f"perfbench: check failed: {line}", file=sys.stderr)

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    if tracer:
        rows = {}
        for r in rounds:
            for row in getattr(r.outputs[0], "rows", ()):
                rows[row.name] = rows.get(row.name, 0.0) + row.elapsed / len(rounds)
        metrics = per_layer_metrics(
            tracer, len(rounds),
            tables=len(first) if args.workload == "pairtables" else 0,
            instances=rounds[0].attempted if args.workload == "oracle" else 0,
            rows=rows)
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "ops_per_s": {"value": attempted / sum(times), "unit": "1/s"},
        }
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(dict(result, seed=args.seed, seconds=args.seconds,
                       round_s=times, cpu_round_s=cpu_times,
                       errors=errors[:20]), fh, indent=1)
    if tracer:
        tracer.save(stem + "-spans.npz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
