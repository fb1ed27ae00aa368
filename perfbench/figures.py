"""Reference figures quoted in README.md, one subcommand each.

    python3 perfbench/figures.py spread WORKLOAD [--runs 10] [--seconds 20]
    python3 perfbench/figures.py overhead WORKLOAD [--seconds 20]
    python3 perfbench/figures.py threads
    python3 perfbench/figures.py lemmas
    python3 perfbench/figures.py calibration
    python3 perfbench/figures.py machine [--seconds 60]

``spread`` and ``overhead`` start run.py once per run, one after another;
the others time fdpctl in this process.  Run from the root of a checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]


def _run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(HERE, "out", f"{workload}-trace{trace}.json"),
              encoding="utf-8") as fh:
        result["round_s"] = json.load(fh)["round_s"]
    return result


def spread(args):
    """Quartile spread of each end-to-end metric over runs with seeds 1..runs."""
    values, shares = {}, set()
    for seed in range(1, args.runs + 1):
        res = _run(args.workload, seed, args.seconds, 0)
        shares.add(f"{res['failed']}/{res['attempted']}")
        for name, metric in res["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print(f"{args.workload}: correct runs {args.runs}, failed/attempted "
          f"{sorted(shares)}")
    for name, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        print(f"  {name:12s} median {med:.6g}  (q3 - q1)/median "
              f"{(q3 - q1) / med:.3f}  min {min(vals):.6g}  max {max(vals):.6g}")


def overhead(args):
    """Mean round time of a traced run over an untraced one, same seed."""
    plain = _run(args.workload, 1, args.seconds, 0)["round_s"]
    traced = _run(args.workload, 1, args.seconds, 1)["round_s"]
    ratio = statistics.mean(traced) / statistics.mean(plain)
    print(f"{args.workload}: round {statistics.mean(plain):.3f} s untraced, "
          f"{statistics.mean(traced):.3f} s traced, ratio {ratio:.2f}")


def threads(_args):
    """run_grid with 2 threads against 1 on the montecarlo cells."""
    from fdpctl import simlab

    import workloads

    w = workloads.MonteCarlo(seed=1)
    bases = {c.model.kind: c for c in w.cells}.values()  # one per model
    for count in (1, 2, 1, 2):
        start = time.perf_counter()
        for base in bases:
            simlab.run_grid(base, w.specs, rhos=(base.model.rho,),
                            pi0s=workloads.MC_PI0S, threads=count)
        print(f"threads={count}: {time.perf_counter() - start:.2f} s")


def lemmas(_args):
    """The criterion-6 lemma suite at fuzz_count = 100,000."""
    from fdpctl import oracle

    start = time.perf_counter()
    report = oracle.run_suite(("lemmas",), fuzz_count=100_000, seed=20240901)
    total = time.perf_counter() - start
    for row in report.rows:
        print(f"  {row.name:40s} {row.instances:8d} {row.elapsed:7.2f} s")
    print(f"total {total:.1f} s, {sum(r.instances for r in report.rows)} "
          f"instances, ok={report.ok}")


def calibration(_args):
    """Seconds per calibrated table at n = 200, gamma = 1/10, rho = 0.3."""
    import workloads

    w = workloads.PairTables(seed=0, cells=workloads.PAIR_LARGE)
    for cell in w.cells * 2:
        start = time.perf_counter()
        w.table(cell)
        print(f"{cell[3]}: {time.perf_counter() - start:.2f} s")


def machine(args):
    """Drift of this machine: a fixed pure-Python loop, timed repeatedly."""
    times = []
    end = time.perf_counter() + args.seconds
    while time.perf_counter() < end:
        start = time.perf_counter()
        sum(i * i for i in range(300_000))
        times.append(time.perf_counter() - start)
    med = statistics.median(times)
    tenth = max(1, len(times) // 10)
    chunks = [statistics.mean(times[i:i + tenth]) / med
              for i in range(0, len(times) - tenth + 1, tenth)]
    print(f"{len(times)} passes: min {min(times):.4f} s, median {med:.4f} s, "
          f"max {max(times):.4f} s; tenths of the run relative to the median: "
          + " ".join(f"{c:.2f}" for c in chunks))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="figure", required=True)
    for name in ("spread", "overhead"):
        p = sub.add_parser(name)
        p.add_argument("workload")
        p.add_argument("--seconds", type=int, default=20)
        p.add_argument("--runs", type=int, default=10)
    for name in ("threads", "lemmas", "calibration"):
        sub.add_parser(name)
    sub.add_parser("machine").add_argument("--seconds", type=int, default=60)
    args = parser.parse_args()
    globals()[args.figure](args)


if __name__ == "__main__":
    main()
