"""LP-based initialization (paper Section 3, last paragraph).

"Given an initial setting mu of the mean service times, we use a linear
program to minimize ``sum_e |s_e - mu_{q_e}|`` subject to the deterministic
constraints."

Formulation
-----------
One variable ``D_e`` per event with an unobserved departure time (arrival
times are aliases ``a_e = D_{pi(e)}``; observed times are constants).  For
every event whose service time involves a latent variable we add a
service-start variable ``B_e`` with the linearized FIFO constraints

    B_e >= a_e,     B_e >= d_{rho(e)},     D_e >= B_e,

and an absolute-value epigraph variable ``T_e`` with

    T_e >= (D_e - B_e) - mean_q,     T_e >= mean_q - (D_e - B_e),

minimizing ``sum_e T_e``.  The frozen arrival order adds
``d_{pi(rho(e))} <= d_{pi(e)}`` for consecutive arrivals at each queue.
Any feasible point of this LP maps to a valid event set (the true service
time ``D_e - max(a_e, d_rho(e)) >= D_e - B_e >= 0``).

Solved with SciPy's HiGHS backend on sparse matrices.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InfeasibleInitializationError
from repro.events import EventSet
from repro.inference.init_heuristic import _departure_anchor
from repro.observation import ObservedTrace


def lp_initialize(trace: ObservedTrace, rates: np.ndarray) -> EventSet:
    """Fill latent times by solving the paper's initialization LP.

    Parameters
    ----------
    trace:
        The observed trace to initialize.
    rates:
        Current exponential rates; the LP targets service times
        ``1 / mu_q`` (and interarrival times ``1 / lambda`` at queue 0).

    Returns
    -------
    EventSet
        A fully valid event set ready for Gibbs sampling.

    Raises
    ------
    InfeasibleInitializationError
        If HiGHS reports the constraints infeasible.
    """
    # Imported here so that processes which never solve the LP (every
    # live window runs the heuristic initializer) never load scipy.
    from scipy import sparse
    from scipy.optimize import linprog

    skeleton = trace.skeleton
    rates = np.asarray(rates, dtype=float)
    n = skeleton.n_events

    anchors = [_departure_anchor(trace, e) for e in range(n)]
    latent = [e for e in range(n) if anchors[e] is None]
    if not latent:
        state = skeleton.copy()
        state.departure[:] = [float(a) for a in anchors]
        non_init = np.flatnonzero(skeleton.seq != 0)
        state.arrival[non_init] = state.departure[skeleton.pi[non_init]]
        state.validate(atol=1e-6)
        return state
    d_var = {e: i for i, e in enumerate(latent)}
    n_d = len(latent)

    def dep_term(e: int) -> tuple[int, float]:
        """(variable index or -1, constant) decomposition of D_e."""
        if anchors[e] is None:
            return d_var[e], 0.0
        return -1, float(anchors[e])

    # Events whose service involves at least one latent variable get B/T vars.
    active: list[int] = []
    for e in range(n):
        p = int(skeleton.pi[e])
        r = int(skeleton.rho[e])
        involves_latent = anchors[e] is None
        if p >= 0 and anchors[p] is None:
            involves_latent = True
        if r >= 0 and anchors[r] is None:
            involves_latent = True
        if involves_latent:
            active.append(e)
    b_var = {e: n_d + i for i, e in enumerate(active)}
    t_var = {e: n_d + len(active) + i for i, e in enumerate(active)}
    n_vars = n_d + 2 * len(active)

    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    rhs: list[float] = []
    row = 0

    def add_geq(terms: list[tuple[int, float]], constant: float) -> None:
        """Add ``sum coef * x >= constant`` as ``-sum <= -constant``."""
        nonlocal row
        for idx, coef in terms:
            if idx >= 0:
                rows.append(row)
                cols.append(idx)
                vals.append(-coef)
        rhs.append(-constant)
        row += 1

    for e in active:
        p = int(skeleton.pi[e])
        r = int(skeleton.rho[e])
        mean_q = 1.0 / rates[skeleton.queue[e]]
        be = b_var[e]
        te = t_var[e]
        # B_e >= a_e  (a_e = D_pi or the constant 0 for initial events).
        if p >= 0:
            pi_idx, pi_const = dep_term(p)
            add_geq([(be, 1.0), (pi_idx, -1.0)], pi_const)
        else:
            add_geq([(be, 1.0)], 0.0)
        # B_e >= d_rho(e).
        if r >= 0:
            r_idx, r_const = dep_term(r)
            add_geq([(be, 1.0), (r_idx, -1.0)], r_const)
        # D_e >= B_e.
        e_idx, e_const = dep_term(e)
        add_geq([(e_idx, 1.0), (be, -1.0)], -e_const)
        # T_e >= (D_e - B_e) - mean_q  and  T_e >= mean_q - (D_e - B_e),
        # with D_e = x_{e_idx} + e_const folded into the right-hand side.
        add_geq([(te, 1.0), (e_idx, -1.0), (be, 1.0)], -mean_q + e_const)
        add_geq([(te, 1.0), (e_idx, 1.0), (be, -1.0)], mean_q - e_const)

    # Frozen arrival order: d_pi(e) >= d_pi(rho(e)) whenever either is latent.
    for e in range(n):
        p = int(skeleton.pi[e])
        r = int(skeleton.rho[e])
        if p < 0 or r < 0:
            continue
        pr = int(skeleton.pi[r])
        if pr < 0:
            continue
        if anchors[p] is None or anchors[pr] is None:
            p_idx, p_const = dep_term(p)
            pr_idx, pr_const = dep_term(pr)
            add_geq([(p_idx, 1.0), (pr_idx, -1.0)], pr_const - p_const)

    c = np.zeros(n_vars)
    for e in active:
        c[t_var[e]] = 1.0
    a_ub = sparse.coo_matrix(
        (vals, (rows, cols)), shape=(row, n_vars)
    ).tocsr()
    bounds = [(0.0, None)] * n_vars
    result = linprog(c, A_ub=a_ub, b_ub=np.asarray(rhs), bounds=bounds, method="highs")
    if not result.success:
        raise InfeasibleInitializationError(
            f"initialization LP failed: {result.message}"
        )

    values = np.empty(n)
    for e in range(n):
        values[e] = result.x[d_var[e]] if anchors[e] is None else float(anchors[e])
    state = skeleton.copy()
    state.departure[:] = values
    init_mask = skeleton.seq == 0
    state.arrival[init_mask] = 0.0
    non_init = np.flatnonzero(~init_mask)
    state.arrival[non_init] = values[skeleton.pi[non_init]]
    state.validate(atol=1e-6)
    return state
