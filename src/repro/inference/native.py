"""JIT-lowered (Numba) implementations of the sweep-kernel hot loops.

:mod:`repro.inference.kernel` evaluates each conflict-free batch with
vectorized numpy — a dozen temporaries per batch for bounds, knots, slopes,
``Z1..Z3`` log-masses and the inverse-CDF draw.  The arithmetic is already
exact (the paper's Eq. 2-4 in log space); what remains is allocation and
dispatch overhead.  This module lowers those loops to compiled code with
``numba.njit``: one fused pass per batch builds each move's pieces, selects
a piece and inverts the within-piece CDF without materializing any
intermediate array.

Correctness contract
--------------------
Every compiled branch shares ``_FLAT_EPS`` with the scalar reference
:func:`repro.inference.piecewise._log_integral_exp` and branches on the
same ``slope * width`` product, so the native, array and object backends
take the same branch on every input and agree to 1e-10 per move (pinned by
``tests/inference/test_kernel.py`` and the fuzz suite in
``tests/inference/test_native.py``).  The compiled loops mirror the numpy
helpers operation for operation — including summation order in the
max-shifted normalizer and the cumulative piece selector — so agreement is
typically bitwise, not merely within tolerance.

Fallback contract
-----------------
numba is optional.  When it cannot be imported, ``NUMBA_AVAILABLE`` is
False, the ``@njit`` decoration is skipped (the loop functions stay plain
Python, which keeps them unit-testable everywhere), and
:class:`NativeSweepKernel` transparently evaluates batches through the
inherited pure-numpy path — ``kernel="native"`` then behaves exactly like
``kernel="array"`` and reports ``native_active = False``.  Use
:func:`native_capability` to see which backend a process will actually run.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import InferenceError
from repro.inference.kernel import ArraySweepKernel
from repro.inference.piecewise import _FLAT_EPS

try:  # pragma: no cover - absence path is what CI's no-numba lane covers
    import numba as _numba

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - exercised when numba is missing
    _numba = None
    NUMBA_AVAILABLE = False

_INF = math.inf


def _jit(func):
    """``numba.njit`` when numba is importable, the plain function otherwise."""
    if NUMBA_AVAILABLE:
        return _numba.njit(cache=False)(func)
    return func


def py_func(func):
    """The pure-python implementation behind a (possibly) jitted function.

    With numba present this is the dispatcher's ``py_func``; without it the
    function *is* plain Python already.  Tests use this to pin the lowered
    arithmetic on every platform, jitted or not.
    """
    return getattr(func, "py_func", func)


def native_capability() -> dict[str, object]:
    """Report whether ``kernel="native"`` will actually run compiled code."""
    return {
        "available": NUMBA_AVAILABLE,
        "numba_version": _numba.__version__ if NUMBA_AVAILABLE else None,
        "fallback": None if NUMBA_AVAILABLE else "array",
    }


# ---------------------------------------------------------------------------
# Scalar core + lowered mirrors of the kernel-module helpers.
# ---------------------------------------------------------------------------


@_jit
def _lie(slope: float, width: float) -> float:
    """Scalar ``log ∫_0^width exp(slope*x) dx`` — the compiled core.

    Branch for branch :func:`repro.inference.piecewise._log_integral_exp`
    minus its unbounded-slope validation (callers validate; every compiled
    loop only ever passes unbounded widths with negative slopes).
    """
    if width <= 0.0:
        return -_INF
    if math.isinf(width):
        return -math.log(-slope)
    z = slope * width
    if abs(z) < _FLAT_EPS:
        return math.log(width)
    if slope > 0.0:
        return z + math.log(-math.expm1(-z)) - math.log(slope)
    return math.log(-math.expm1(z)) - math.log(-slope)


@_jit
def _log_integral_exp_loop(
    slopes: np.ndarray, widths: np.ndarray, out: np.ndarray
) -> None:
    for i in range(slopes.shape[0]):
        out[i] = _lie(slopes[i], widths[i])


def log_integral_exp(slopes: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """Drop-in :func:`repro.inference.piecewise.log_integral_exp` lowering.

    Same validation, same ``-inf``/flat/rising/falling/unbounded branches on
    the same ``slope * width`` products.
    """
    slopes = np.asarray(slopes, dtype=float)
    widths = np.asarray(widths, dtype=float)
    slopes, widths = np.broadcast_arrays(slopes, widths)
    if np.any(np.isinf(widths) & (widths > 0.0) & (slopes >= 0.0)):
        raise InferenceError("unbounded piece needs a strictly negative slope")
    flat_s = np.ascontiguousarray(slopes, dtype=np.float64).ravel()
    flat_w = np.ascontiguousarray(widths, dtype=np.float64).ravel()
    out = np.empty(flat_s.shape[0])
    _log_integral_exp_loop(flat_s, flat_w, out)
    return out.reshape(slopes.shape)


@_jit
def _piece_log_masses(knots: np.ndarray, slopes: np.ndarray, out: np.ndarray) -> None:
    """Lowered :func:`repro.inference.kernel._piece_log_masses` (same
    left-to-right ``phi`` accumulation as the numpy ``cumsum``)."""
    m, k = slopes.shape
    for i in range(m):
        phi = 0.0
        for j in range(k):
            width = knots[i, j + 1] - knots[i, j]
            out[i, j] = phi + _lie(slopes[i, j], width)
            phi += slopes[i, j] * width


@_jit
def _log_normalizer(log_masses: np.ndarray, out: np.ndarray) -> None:
    """Lowered :func:`repro.inference.kernel._log_normalizer` (max-shifted
    row sum in index order, matching ``np.sum`` on short rows)."""
    m, k = log_masses.shape
    for i in range(m):
        mx = log_masses[i, 0]
        for j in range(1, k):
            if log_masses[i, j] > mx:
                mx = log_masses[i, j]
        if mx == -_INF:
            # All-empty row: the numpy path's -inf - -inf propagates nan.
            out[i] = math.nan
            continue
        s = 0.0
        for j in range(k):
            s += math.exp(log_masses[i, j] - mx)
        out[i] = mx + math.log(s)


@_jit
def _select_pieces(
    log_masses: np.ndarray, log_z: np.ndarray, u: np.ndarray, out: np.ndarray
) -> None:
    """Lowered :func:`repro.inference.kernel._select_pieces`."""
    m, k = log_masses.shape
    for i in range(m):
        cum = 0.0
        idx = 0
        for j in range(k):
            cum += math.exp(log_masses[i, j] - log_z[i])
            if u[i] > cum:
                idx += 1
        if idx > k - 1:
            idx = k - 1
        out[i] = idx


@_jit
def _invert_piece(lo: float, hi: float, c: float, v: float) -> float:
    """Scalar within-piece inverse CDF, branch for branch
    :func:`repro.inference.kernel._invert_pieces`."""
    width = hi - lo
    z = c * width
    if abs(z) < _FLAT_EPS:
        return lo + v * width
    e = -math.expm1(-abs(z))
    t = -math.log1p(-v * e) / abs(c)
    if c < 0.0:
        x = lo + t
        if x > hi:
            x = hi
        return x
    x = hi - t
    if x < lo:
        x = lo
    return x


@_jit
def _invert_pieces(
    knots: np.ndarray, slopes: np.ndarray, idx: np.ndarray, v: np.ndarray,
    out: np.ndarray,
) -> None:
    """Lowered :func:`repro.inference.kernel._invert_pieces`."""
    for i in range(idx.shape[0]):
        j = idx[i]
        out[i] = _invert_piece(knots[i, j], knots[i, j + 1], slopes[i, j], v[i])


# ---------------------------------------------------------------------------
# Fused per-batch loops: piece build + select + invert, no temporaries.
# ---------------------------------------------------------------------------


@_jit
def _fused_arrival(
    a_ev: np.ndarray,
    a_pi: np.ndarray,
    a_rho_e: np.ndarray,
    a_rho_inv_e: np.ndarray,
    a_rho_p: np.ndarray,
    a_rho_inv_p: np.ndarray,
    a_self_loop: np.ndarray,
    mu_e_col: np.ndarray,
    mu_pi_col: np.ndarray,
    arrival: np.ndarray,
    departure: np.ndarray,
    sel: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    x: np.ndarray,
    valid: np.ndarray,
) -> None:
    """One pass over an arrival batch: Eq. 2-4 pieces, select, invert.

    Mirrors ``ArraySweepKernel.arrival_pieces`` + ``_select_pieces`` +
    ``_invert_pieces`` in the numpy module, preserving operation order so
    the draws match the array backend bitwise on every move.
    """
    for i in range(sel.shape[0]):
        r = sel[i]
        ev = a_ev[r]
        # Constraint bounds L/U from the Figure-2 blanket.
        lower = arrival[a_pi[r]]
        j = a_rho_p[r]
        if j >= 0 and departure[j] > lower:
            lower = departure[j]
        j = a_rho_e[r]
        if j >= 0 and arrival[j] > lower:
            lower = arrival[j]
        upper = departure[ev]
        j = a_rho_inv_e[r]
        if j >= 0 and arrival[j] < upper:
            upper = arrival[j]
        j = a_rho_inv_p[r]
        if j >= 0 and departure[j] < upper:
            upper = departure[j]
        ok = upper - lower > 0.0 and math.isfinite(lower) and math.isfinite(upper)
        valid[i] = ok
        if not ok:
            x[i] = 0.0
            continue
        # Breakpoints A/B and the three-piece knot grid.
        j = a_rho_e[r]
        if a_self_loop[r] or j < 0:
            b_own = -_INF
        else:
            b_own = departure[j]
        j = a_rho_inv_p[r]
        b_pi = arrival[j] if j >= 0 else _INF
        bmin = b_own if b_own < b_pi else b_pi
        bmax = b_own if b_own > b_pi else b_pi
        k1 = min(max(bmin, lower), upper)
        k2 = min(max(bmax, lower), upper)
        mu_e = mu_e_col[r]
        mu_pi = mu_pi_col[r]
        # Slopes at piece midpoints (same -mu_pi + indicator sums as numpy).
        m0 = 0.5 * (lower + k1)
        m1 = 0.5 * (k1 + k2)
        m2 = 0.5 * (k2 + upper)
        c0 = -mu_pi
        if m0 > b_own:
            c0 += mu_e
        if m0 > b_pi:
            c0 += mu_pi
        c1 = -mu_pi
        if m1 > b_own:
            c1 += mu_e
        if m1 > b_pi:
            c1 += mu_pi
        c2 = -mu_pi
        if m2 > b_own:
            c2 += mu_e
        if m2 > b_pi:
            c2 += mu_pi
        # Z1..Z3 log-masses with phi anchored at 0 on the left endpoint.
        w0 = k1 - lower
        w1 = k2 - k1
        w2 = upper - k2
        lm0 = _lie(c0, w0)
        phi = c0 * w0
        lm1 = phi + _lie(c1, w1)
        phi += c1 * w1
        lm2 = phi + _lie(c2, w2)
        mx = lm0
        if lm1 > mx:
            mx = lm1
        if lm2 > mx:
            mx = lm2
        log_z = mx + math.log(
            math.exp(lm0 - mx) + math.exp(lm1 - mx) + math.exp(lm2 - mx)
        )
        # Piece selection by cumulative mass, then within-piece inversion.
        cum = math.exp(lm0 - log_z)
        idx = 0
        if u[i] > cum:
            idx += 1
        cum += math.exp(lm1 - log_z)
        if u[i] > cum:
            idx += 1
        cum += math.exp(lm2 - log_z)
        if u[i] > cum:
            idx += 1
        if idx > 2:
            idx = 2
        if idx == 0:
            x[i] = _invert_piece(lower, k1, c0, v[i])
        elif idx == 1:
            x[i] = _invert_piece(k1, k2, c1, v[i])
        else:
            x[i] = _invert_piece(k2, upper, c2, v[i])


@_jit
def _fused_departure(
    d_ev: np.ndarray,
    d_rho_e: np.ndarray,
    d_rho_inv_e: np.ndarray,
    mu_e_col: np.ndarray,
    arrival: np.ndarray,
    departure: np.ndarray,
    sel: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    x: np.ndarray,
    valid: np.ndarray,
) -> None:
    """One pass over a departure batch (two finite pieces or the
    analytic exponential tail), mirroring ``departure_pieces`` +
    ``_eval_departure_batch``."""
    for i in range(sel.shape[0]):
        r = sel[i]
        lower = arrival[d_ev[r]]
        j = d_rho_e[r]
        if j >= 0 and departure[j] > lower:
            lower = departure[j]
        k = d_rho_inv_e[r]
        mu = mu_e_col[r]
        if k < 0:
            # No later arrival at the queue: exponential tail with rate
            # mu_e from the left bound, inverse transform on v.
            valid[i] = True
            x[i] = lower - math.log1p(-v[i]) / mu
            continue
        upper = departure[k]
        ok = upper - lower > 0.0
        valid[i] = ok
        if not ok:
            x[i] = 0.0
            continue
        bp = arrival[k]
        k1 = min(max(bp, lower), upper)
        m0 = 0.5 * (lower + k1)
        m1 = 0.5 * (k1 + upper)
        c0 = -mu if m0 <= bp else 0.0
        c1 = -mu if m1 <= bp else 0.0
        w0 = k1 - lower
        w1 = upper - k1
        lm0 = _lie(c0, w0)
        lm1 = c0 * w0 + _lie(c1, w1)
        mx = lm0
        if lm1 > mx:
            mx = lm1
        log_z = mx + math.log(math.exp(lm0 - mx) + math.exp(lm1 - mx))
        cum = math.exp(lm0 - log_z)
        idx = 0
        if u[i] > cum:
            idx += 1
        cum += math.exp(lm1 - log_z)
        if u[i] > cum:
            idx += 1
        if idx > 1:
            idx = 1
        if idx == 0:
            x[i] = _invert_piece(lower, k1, c0, v[i])
        else:
            x[i] = _invert_piece(k1, upper, c1, v[i])


# ---------------------------------------------------------------------------
# The kernel subclass behind kernel="native".
# ---------------------------------------------------------------------------


class NativeSweepKernel(ArraySweepKernel):
    """``ArraySweepKernel`` with batch evaluation lowered to compiled loops.

    Construction, conflict-free batching, the random stream and the
    ``arrival_pieces``/``departure_pieces`` introspection API are all
    inherited unchanged — only the per-batch evaluate step is swapped for
    the fused compiled loops, so draws are interchangeable with the array
    backend move for move.

    When numba is not importable the instance degrades to the inherited
    pure-numpy evaluation (``native_active`` is False); nothing else
    changes, so ``kernel="native"`` is always safe to request.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.native_active = NUMBA_AVAILABLE

    def _eval_arrival_batch(self, arrival, departure, sel, u, v):
        if not self.native_active:
            return super()._eval_arrival_batch(arrival, departure, sel, u, v)
        x = np.empty(sel.size)
        valid = np.empty(sel.size, dtype=np.bool_)
        _fused_arrival(
            self.a_ev, self.a_pi, self.a_rho_e, self.a_rho_inv_e,
            self.a_rho_p, self.a_rho_inv_p, self.a_self_loop,
            self.a_mu_e, self.a_mu_pi,
            arrival, departure, sel, u, v, x, valid,
        )
        return self.a_ev[sel][valid], x[valid]

    def _eval_departure_batch(self, arrival, departure, sel, u, v):
        if not self.native_active:
            return super()._eval_departure_batch(arrival, departure, sel, u, v)
        x = np.empty(sel.size)
        valid = np.empty(sel.size, dtype=np.bool_)
        _fused_departure(
            self.d_ev, self.d_rho_e, self.d_rho_inv_e, self.d_mu_e,
            arrival, departure, sel, u, v, x, valid,
        )
        return self.d_ev[sel][valid], x[valid]

    def __setstate__(self, state):
        self.__dict__.update(state)
        # A pickle from a numba-enabled process must degrade cleanly in a
        # receiver without numba (and vice versa): capability is decided
        # per process, not per pickle.
        self.native_active = NUMBA_AVAILABLE


def make_sweep_kernel(
    kernel: str,
    event_set,
    arrival_cache,
    departure_cache,
    rates,
) -> ArraySweepKernel:
    """Build the batch sweep kernel behind ``kernel="array"|"native"``."""
    cls = NativeSweepKernel if kernel == "native" else ArraySweepKernel
    return cls(event_set, arrival_cache, departure_cache, rates)
