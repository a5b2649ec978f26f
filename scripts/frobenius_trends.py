"""Print T-construction growth tables for the six-element example poset
and a pure contrast case, with per-row and last-ratio estimates.

The estimates are reported, not asserted: the interesting question is
whether log_p(c_e)/e drifts toward analytic_spread(P, -1) - 1 as the
prime grows, and desk-scale primes can only hint at that.

P1 is also read at larger primes, where the pieces stay small enough to
list: e <= 3 at p = 7 and e <= 2 at p = 11 and 13.  --emax sets the
exponent range at primes 2, 3 and 5.

Usage: python3 scripts/frobenius_trends.py [--emax E]
"""

import argparse
import math

from hibi import analytic_spread, tcx_report
from hibi.corpus import builtin
from hibi.frobenius import Budget


def show(name, p, runs, budget):
    """Print one table per prime for each (primes, e_max) run."""
    target = analytic_spread(p, -1) - 1
    print(f"{name}: reference value spread(-1) - 1 = {target}")
    tables = [t for primes, e_max in runs for t in tcx_report(p, primes, e_max, budget=budget)]
    for table in tables:
        print(f"  prime {table.prime} ({table.target})")
        print(f"    {'e':>3} {'dim_e':>8} {'c_e':>8} {'log_p(c_e)/e':>13}")
        for (e, dim_e, c_e), est in zip(table.rows, table.row_estimates):
            shown = "-" if est is None else f"{est:.4f}"
            print(f"    {e:>3} {dim_e:>8} {c_e:>8} {shown:>13}")
        last = "-" if table.last_ratio is None else f"{table.last_ratio:.4f}"
        overall = "-inf" if table.estimate == -math.inf else f"{table.estimate:.4f}"
        print(f"    estimate {overall}, last ratio {last}")
    print()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--emax", type=int, default=3)
    args = parser.parse_args()

    budget = Budget(max_prime=13, max_e=max(3, args.emax), max_piece=2_000_000)
    small = ((2, 3, 5), args.emax)
    show("P1", builtin("P1"), (small, ((7,), 3), ((11, 13), 2)), budget)
    show("chain3", builtin("chain3"), (small,), budget)


if __name__ == "__main__":
    main()
