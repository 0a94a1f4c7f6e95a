"""The max-min epigraph LP and the one simplex that solves it.

The program is: maximise omega subject to A x <= 1 (resources) and
omega - C x <= 0 (beneficiaries), x >= 0.  Its right-hand sides are
nonnegative and x = 0, omega = 0 is feasible, so omega is taken nonnegative
and the slack basis is a feasible start: no phase 1, no free variable.  One
private object, built from the sub-instance, holds the program, its tableau
and the basis, and runs the simplex on them.

Pricing is Dantzig's (largest reduced cost, lowest index on ties).  After m
degenerate pivots in a row (m = rows) the lowest eligible index enters until
a pivot makes progress, so the simplex cannot cycle (Bland 1977).  The run
is that long because the slack basis makes every beneficiary row tight, and
leaving it takes about one degenerate pivot per row.  The leaving row has
the minimum ratio, ties to the lowest basic index.  Every m pivots and at
termination the tableau is rebuilt from the program's own rows, clearing
the drift of the pivots (reinversion, Bartels & Golub 1969).

Every decision is a pure function of the program and every floating-point
step an elementwise numpy operation, with no BLAS or LAPACK call, so the
same program gives the same bits whatever the BLAS build or thread count:
agents re-deriving one local optimum from their own views agree exactly.

This is the only module that imports numpy, and the package imports it only
where a simplex runs: every caller of :func:`solve_maxmin` imports it at call
time, so a command that solves no LP never loads numpy.
"""

import numpy as np

from .evaluation import FEASIBILITY_TOL

# smallest column entry the ratio test pivots on
PIVOT_TOL = 1e-7
# reduced cost above which a column may enter
OPTIMALITY_TOL = 1e-12
# smallest partial pivot a rebuild accepts before calling the basis singular
SINGULAR_TOL = 1e-11
# pivots allowed per row and per column before the solver refuses
_PIVOT_BUDGET_FACTOR = 50


class _Solve:
    """One run of the simplex on the epigraph program of a sub-instance.

    The object holds the program, its condensed tableau and the basis.
    Column 0 of the program is the common benefit level omega, then one
    column per agent in instance order; rows are the resources, then the
    beneficiaries, each in instance order.  ``rows``, ``cols`` and
    ``coeffs`` list the constraint matrix's nonzeros and ``rhs`` has one
    entry per row.

    ``T`` has a row per constraint plus the objective row, and a slot per
    nonbasic variable plus the right-hand side; basic columns are unit
    vectors and are not stored.  Variable j < n is structural column j and
    variable n + i the slack of row i.  ``basis[i]`` is the variable basic
    in row i, ``nonbasic[s]`` the one in slot s.
    """

    def __init__(self, sub_instance):
        if not sub_instance.beneficiaries:
            raise ValueError("empty K: the max-min objective needs at least one beneficiary")
        col = {v: 1 + t for t, v in enumerate(sub_instance.agents)}
        entries = []
        r = 0
        for kind, mapping, sign in (
            ("resource", sub_instance.resources, 1.0),
            ("beneficiary", sub_instance.beneficiaries, -1.0),
        ):
            for i, row in mapping.items():
                if sign < 0:
                    entries.append((r, 0, 1.0))
                for v, a in row.items():
                    if v not in col:
                        raise ValueError(f"{kind} {i} references unknown agent {v}")
                    entries.append((r, col[v], sign * a))
                r += 1
        rows, cols, coeffs = zip(*entries)
        self.rows, self.cols = np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp)
        self.coeffs = np.array(coeffs)
        self.rhs = np.array([1.0] * len(sub_instance.resources) + [0.0] * len(sub_instance.beneficiaries))
        self.m, self.n = m, n = r, 1 + len(sub_instance.agents)
        self.T = np.empty((m + 1, n + 1))
        self.load()
        self.budget = _PIVOT_BUDGET_FACTOR * (m + n)
        self.pivots = 0
        self.residual = 0.0

    def load(self):
        """Write [A | b] over the first m rows of T and [c | 0] below them,
        and make the slack basis current.

        The objective row, maximise omega, becomes the reduced costs of the
        nonbasic slots under pivoting, and its last entry minus the objective.
        """
        T = self.T
        T.fill(0.0)
        T[self.rows, self.cols] = self.coeffs
        T[:-1, -1] = self.rhs
        T[-1, 0] = 1.0
        self.basis = self.n + np.arange(self.m)
        self.nonbasic = np.arange(self.n)

    def activity(self, x):
        """Row activities A x of the structural point x."""
        return np.bincount(self.rows, weights=self.coeffs * x[self.cols], minlength=self.m)

    def point(self):
        """Values of all n + m variables at the current basis."""
        point = np.zeros(self.n + self.m)
        point[self.basis] = self.T[:-1, -1]
        return point

    def measure_residual(self):
        """Largest |A x + s - b| of the basic point, in the program's own rows."""
        point = self.point()
        gap = self.activity(point[: self.n]) + point[self.n :] - self.rhs
        self.residual = float(np.abs(gap).max())

    def refuse(self, what):
        raise ArithmeticError(
            f"simplex {what} on {self.m} rows and {self.n} columns after "
            f"{self.pivots} pivots; last primal residual {self.residual:.3g}"
        )

    def exchange(self, pr, pc):
        """Exchange the variable basic in row pr with the one in slot pc.

        Row pr is scaled to a unit pivot and slot pc cleared from every other
        row by elementwise row operations; the slot then holds the leaving
        variable's column.
        """
        T = self.T
        pivot = T[pr, pc]
        factors = T[:, pc].copy()
        row = T[pr]
        row /= pivot
        factors[pr] = 0.0
        T -= np.outer(factors, row)
        T[:, pc] = -factors / pivot
        row[pc] = 1.0 / pivot
        self.basis[pr], self.nonbasic[pc] = self.nonbasic[pc], self.basis[pr]

    def rebuild(self):
        """Reload the program and eliminate the structural basic columns.

        Rows whose slack stays basic keep it.  Each structural basic column,
        ascending, is pivoted into the open row with the largest entry, a row
        being open while its slack is neither basic nor pivoted out.
        """
        m, n, T = self.m, self.n, self.T
        self.measure_residual()
        structural = np.sort(self.basis[self.basis < n])
        open_rows = np.ones(m, dtype=bool)
        open_rows[self.basis[self.basis >= n] - n] = False
        self.load()
        for j in structural:
            candidates = np.flatnonzero(open_rows)
            size = np.abs(T[candidates, j])
            best = int(np.argmax(size))
            if size[best] < SINGULAR_TOL:
                self.refuse(
                    f"found a singular basis at a rebuild (column {j}, "
                    f"largest pivot {size[best]:.3g})"
                )
            pr = int(candidates[best])
            self.exchange(pr, j)
            open_rows[pr] = False

    def entering(self, bland):
        """Slot of the entering variable, or None at optimality."""
        cost = self.T[-1, :-1]
        eligible = np.flatnonzero(cost > OPTIMALITY_TOL)
        if eligible.size == 0:
            return None
        if not bland:
            eligible = eligible[cost[eligible] == cost[eligible].max()]
        return int(eligible[np.argmin(self.nonbasic[eligible])])

    def run(self):
        """Pivot to an optimal basis that survives a final rebuild."""
        since_rebuild = degenerate = 0
        while True:
            pc = self.entering(degenerate >= self.m)
            if pc is None:
                if since_rebuild == 0:
                    return
                self.rebuild()
                since_rebuild = 0
                continue
            if self.pivots >= self.budget:
                self.measure_residual()
                self.refuse(f"exhausted its budget of {self.budget} pivots")
            column = self.T[:-1, pc]
            rows = np.flatnonzero(column > PIVOT_TOL)
            if rows.size == 0:
                largest = column.max()
                if largest > 0.0:
                    # a positive entry bounds the variable, but is too small to pivot on
                    self.refuse(
                        f"found the program too badly scaled (variable {self.nonbasic[pc]}'s "
                        f"largest entry {largest:.3g} is not above PIVOT_TOL = {PIVOT_TOL:g})"
                    )
                self.refuse(
                    f"found variable {self.nonbasic[pc]} unbounded; zero "
                    "activity is always feasible and resources bound the rest"
                )
            ratios = np.maximum(self.T[rows, -1], 0.0) / column[rows]
            step = ratios.min()
            tied = rows[ratios == step]
            self.exchange(int(tied[np.argmin(self.basis[tied])]), pc)
            self.pivots += 1
            since_rebuild += 1
            degenerate = degenerate + 1 if step == 0.0 else 0
            if since_rebuild == self.m:
                self.rebuild()
                since_rebuild = 0


def solve_maxmin(sub_instance):
    """Canonical optimum of the max-min epigraph LP: (values, omega), where
    ``values`` is a plain dict from agent id to activity.

    The fixed pivot path makes the answer a pure function of the
    sub-instance.  Raises ``ArithmeticError``, naming the program's size,
    the pivots done and the last primal residual, when the budget of
    ``_PIVOT_BUDGET_FACTOR`` pivots per row and column is spent, when an
    entering column has no entry above ``PIVOT_TOL`` (the program is called
    unbounded only when no entry is positive, and too badly scaled
    otherwise), when a rebuild meets a singular basis, or when the point
    found violates a row or a sign by more than ``FEASIBILITY_TOL``, the
    tolerance :func:`~maxminlp.evaluation.feasibility` holds a point to.
    """
    solve = _Solve(sub_instance)
    solve.run()
    x = solve.point()[: solve.n]
    excess = solve.activity(np.maximum(x, 0.0)) - solve.rhs
    if x.min() < -FEASIBILITY_TOL or excess.max() > FEASIBILITY_TOL:
        solve.refuse("returned an infeasible point")
    values = {v: max(0.0, float(x[1 + t])) for t, v in enumerate(sub_instance.agents)}
    return values, max(0.0, float(x[0]))
