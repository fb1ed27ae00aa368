"""Run a reduced slice of the brute-force verification suite.

The oracle module re-derives every deterministic inequality behind the
procedures on concrete small problems: exhaustive lattices of p-values
times all truth labelings for n <= 4, randomized instances up to n = 8,
and literal-loop re-implementations of every constant family.  The full
suite (100k fuzz instances) runs via `fdpctl verify --suite all`; this
demo runs only the constants and pairdist suites, which have no fuzz rows,
so it finishes in a few seconds.
"""

from fdpctl.oracle import run_suite

report = run_suite(suites=("constants", "pairdist"))
width = max(len(row.name) for row in report.rows)
print(f"{'check'.ljust(width)}  instances  violations")
for row in report.rows:
    print(f"{row.name.ljust(width)}  {row.instances:9d}  {row.violations:10d}")
print("\nall clean" if report.ok else "\nVIOLATIONS FOUND")
raise SystemExit(0 if report.ok else 1)
