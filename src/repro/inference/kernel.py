"""Array-native vectorized Gibbs sweep kernel.

The object sweep (:mod:`repro.inference.gibbs` with ``kernel="object"``)
spends most of its time on per-move Python work: every single-site move
builds a fresh :class:`~repro.inference.piecewise.PiecewiseExponential`
(lists, a constructor, three scalar ``log``/``expm1`` calls) even though the
conditional of paper Eq. (2)–(4) always has the same shape — at most three
exponential pieces between the constraint bounds ``(L, U)`` with breakpoints
``A, B`` and masses ``Z1, Z2, Z3``.

This module flattens that structure into a struct-of-arrays engine:

* the static neighbor indices of every move (the Markov blankets of paper
  Figure 2) are taken from the PR-1 blanket caches and stored as int64
  columns;
* moves are partitioned once into **conflict-free batches** by greedy
  coloring of the read/write dependency graph, so that within a batch no
  move writes a time any other move reads — updating a batch simultaneously
  is *provably identical* to updating it sequentially, which preserves the
  sequential-scan semantics of the Gibbs kernel exactly (a sweep is a
  systematic scan in batch-concatenation order);
* per batch, the bounds ``L``/``U``, breakpoints, piece slopes, the
  ``Z1..Z3`` log-masses and the inverse-CDF draw are all evaluated with
  vectorized ``numpy`` kernels (``logaddexp``-style reductions,
  ``expm1``/``log1p`` inversions) — no per-move object allocation at all.

The per-move arithmetic reproduces
:func:`~repro.inference.conditional.arrival_conditional` /
:func:`~repro.inference.conditional.final_departure_conditional` formula for
formula (same branch conditions, same ``_FLAT_EPS`` threshold), which is
what the equivalence suite in ``tests/inference/test_kernel.py`` pins to
1e-10 per move.  The random *stream* differs from the object sweep (draws
are batched and batch order is shuffled instead of move order), so the two
kernels agree statistically, not bitwise.

Like the blanket caches, the kernel records the event set's
``structure_version`` and must be rebuilt after a path-MH queue
reassignment; :class:`~repro.inference.gibbs.GibbsSampler` does this
automatically.
"""

from __future__ import annotations

import time

import numpy as np

from repro import telemetry
from repro.errors import InferenceError
from repro.events import EventSet
from repro.inference.conditional import ArrivalBlanketCache, DepartureBlanketCache
from repro.inference.piecewise import _FLAT_EPS, log_integral_exp

_INF = np.inf

# Per-registry handle cache: sweep() runs per EM iteration, so its
# telemetry must cost a dict read, not registry lookups.  Handles are
# module-level (never instance attributes) so pickled kernels crossing
# between processes (the persistent chain pool ships its samplers back)
# carry no lock-bearing state.
_KERNEL_METRICS: tuple | None = None


def _kernel_metrics(reg) -> dict:
    global _KERNEL_METRICS
    cached = _KERNEL_METRICS
    if cached is not None and cached[0] is reg:
        return cached[1]
    handles = {
        "sweeps": reg.counter("repro_kernel_sweeps_total"),
        "moves": reg.counter("repro_kernel_moves_total"),
        "seconds": reg.histogram("repro_kernel_sweep_seconds"),
        "batch": reg.histogram("repro_kernel_batch_size"),
        "native": reg.gauge("repro_kernel_native_available"),
    }
    _KERNEL_METRICS = (reg, handles)
    return handles


def _gather(values: np.ndarray, idx: np.ndarray, missing: float) -> np.ndarray:
    """``values[idx]`` with ``idx < 0`` mapped to *missing* (no fancy guards)."""
    return np.where(idx >= 0, values[np.maximum(idx, 0)], missing)


def color_conflict_free_batches(
    write_slots: list[tuple[int, ...]],
    touched_slots: list[tuple[int, ...]],
) -> list[np.ndarray]:
    """Partition moves into batches with no read/write conflicts.

    Two moves conflict when one *writes* a slot the other touches (reads or
    writes).  Greedy first-fit coloring on that graph yields batches
    (color classes) inside which every move's inputs are untouched by every
    other move — so a batch can be evaluated simultaneously while remaining
    exactly equivalent to any sequential order of its moves.  The Markov
    blankets of paper Figure 2 are O(1), so the number of colors is small
    (typically < 10) and batches stay large.

    Parameters
    ----------
    write_slots / touched_slots:
        Per move, the slot ids it writes / touches (touched must include
        the writes).  Slot ids are opaque integers; the caller encodes
        (array, event) pairs.
    """
    n_moves = len(write_slots)
    writers: dict[int, list[int]] = {}
    touchers: dict[int, list[int]] = {}
    for i in range(n_moves):
        for s in write_slots[i]:
            writers.setdefault(s, []).append(i)
        for s in touched_slots[i]:
            touchers.setdefault(s, []).append(i)
    colors = np.full(n_moves, -1, dtype=np.int64)
    n_colors = 0
    empty: list[int] = []
    for i in range(n_moves):
        used = 0  # bitmask of neighbor colors; color count stays small
        for s in touched_slots[i]:
            for j in writers.get(s, empty):
                if colors[j] >= 0:
                    used |= 1 << colors[j]
        for s in write_slots[i]:
            for j in touchers.get(s, empty):
                if colors[j] >= 0:
                    used |= 1 << colors[j]
        c = 0
        while used >> c & 1:
            c += 1
        colors[i] = c
        n_colors = max(n_colors, c + 1)
    return [np.flatnonzero(colors == c) for c in range(n_colors)]


def _piece_log_masses(knots: np.ndarray, slopes: np.ndarray) -> np.ndarray:
    """Per-piece log-masses ``log Z_i`` for rows of piecewise densities.

    ``knots`` has shape ``(m, k+1)`` and ``slopes`` ``(m, k)``; ``phi`` is
    anchored at 0 on each row's left endpoint, exactly as
    :class:`~repro.inference.piecewise.PiecewiseExponential` does.
    """
    widths = np.diff(knots, axis=1)
    seg = slopes * widths
    phi = np.concatenate(
        [np.zeros((seg.shape[0], 1)), np.cumsum(seg[:, :-1], axis=1)], axis=1
    )
    return phi + log_integral_exp(slopes, widths)


def _log_normalizer(log_masses: np.ndarray) -> np.ndarray:
    """Row-wise ``log Z`` via the same max-shifted sum as the object path."""
    m = np.max(log_masses, axis=1)
    with np.errstate(invalid="ignore"):
        return m + np.log(np.sum(np.exp(log_masses - m[:, None]), axis=1))


def _select_pieces(log_masses: np.ndarray, log_z: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Choose a piece per row with probability ``Z_i / Z`` driven by *u*."""
    cum = np.cumsum(np.exp(log_masses - log_z[:, None]), axis=1)
    idx = np.sum(u[:, None] > cum, axis=1)
    return np.minimum(idx, log_masses.shape[1] - 1)


def _invert_pieces(
    knots: np.ndarray, slopes: np.ndarray, idx: np.ndarray, v: np.ndarray
) -> np.ndarray:
    """Vectorized within-piece inverse CDF, mirroring ``sample_uv``.

    Decreasing pieces invert the truncated exponential from the left edge,
    increasing pieces from the right edge (*v* mirrored), flat pieces are
    uniform — branch for branch the arithmetic of
    :meth:`~repro.inference.piecewise.PiecewiseExponential.sample_uv`.
    All pieces must be finite; the unbounded departure tail is handled
    separately by the caller.
    """
    rows = np.arange(idx.size)
    lo = knots[rows, idx]
    hi = knots[rows, idx + 1]
    c = slopes[rows, idx]
    width = hi - lo
    z = c * width
    flat = np.abs(z) < _FLAT_EPS
    abs_c = np.where(flat, 1.0, np.abs(c))
    with np.errstate(invalid="ignore", over="ignore"):
        e = -np.expm1(-np.abs(z))
        t = -np.log1p(-v * e) / abs_c
        x = np.where(
            flat,
            lo + v * width,
            np.where(c < 0.0, np.minimum(lo + t, hi), np.maximum(hi - t, lo)),
        )
    return x


class ArraySweepKernel:
    """Vectorized batch evaluation of every Gibbs move of a sweep.

    Parameters
    ----------
    event_set:
        The state the sweeps will mutate (only its *structure* is read
        here: neighbor pointers, queue memberships).
    arrival_cache / departure_cache:
        The PR-1 static blanket caches; their neighbor indices are
        flattened into int64 columns, so building the kernel adds no second
        blanket extraction pass.
    rates:
        Current rate vector; refresh with :meth:`refresh_rates`.
    """

    def __init__(
        self,
        event_set: EventSet,
        arrival_cache: ArrivalBlanketCache,
        departure_cache: DepartureBlanketCache,
        rates: np.ndarray,
    ) -> None:
        if (
            arrival_cache.structure_version != event_set.structure_version
            or departure_cache.structure_version != event_set.structure_version
        ):
            raise InferenceError(
                "blanket caches are stale; rebuild them before the kernel"
            )
        self.structure_version = event_set.structure_version
        # --- arrival moves -------------------------------------------------
        self.a_ev = np.asarray(arrival_cache.events, dtype=np.int64)
        self.a_pi = np.asarray(arrival_cache.pi_event, dtype=np.int64)
        self.a_rho_e = np.asarray(arrival_cache.rho_e, dtype=np.int64)
        self.a_rho_inv_e = np.asarray(arrival_cache.rho_inv_e, dtype=np.int64)
        self.a_rho_p = np.asarray(arrival_cache.rho_p, dtype=np.int64)
        self.a_rho_inv_p = np.asarray(arrival_cache.rho_inv_p, dtype=np.int64)
        self.a_self_loop = np.asarray(arrival_cache.self_loop, dtype=bool)
        self._a_queue_e = event_set.queue[self.a_ev]
        self._a_queue_pi = event_set.queue[self.a_pi]
        # --- departure moves ----------------------------------------------
        self.d_ev = np.asarray(departure_cache.events, dtype=np.int64)
        self.d_rho_e = np.asarray(departure_cache.rho_e, dtype=np.int64)
        self.d_rho_inv_e = np.asarray(departure_cache.rho_inv_e, dtype=np.int64)
        self._d_queue_e = event_set.queue[self.d_ev]
        self.refresh_rates(rates)
        self.a_batches = color_conflict_free_batches(*self._arrival_slots())
        self.d_batches = color_conflict_free_batches(*self._departure_slots())
        reg = telemetry.get_registry()
        if reg.enabled:
            # Deferred import: native.py imports this module at its top.
            from repro.inference.native import NativeSweepKernel, native_capability

            metrics = _kernel_metrics(reg)
            for sel in self.a_batches:
                metrics["batch"].observe(sel.size)
            for sel in self.d_batches:
                metrics["batch"].observe(sel.size)
            capability = native_capability()
            metrics["native"].set(
                1.0
                if isinstance(self, NativeSweepKernel) and capability["available"]
                else 0.0
            )

    # ------------------------------------------------------------------
    # Construction helpers.
    # ------------------------------------------------------------------

    def _arrival_slots(self) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
        """(writes, touched) slot lists of every arrival move.

        Slots encode (event, array) pairs: arrival slot ``2e``, departure
        slot ``2e + 1``.  A move writes ``a_e`` and ``d_pi(e)`` (the same
        scalar) and reads the Figure-2 blanket times.
        """
        writes: list[tuple[int, ...]] = []
        touched: list[tuple[int, ...]] = []
        for i in range(self.a_ev.size):
            e = int(self.a_ev[i])
            p = int(self.a_pi[i])
            w = (2 * e, 2 * p + 1)
            reads = [2 * p, 2 * e + 1]
            for n in (int(self.a_rho_e[i]), int(self.a_rho_inv_e[i])):
                if n >= 0:
                    reads += [2 * n, 2 * n + 1]
            for n in (int(self.a_rho_p[i]), int(self.a_rho_inv_p[i])):
                if n >= 0:
                    reads += [2 * n, 2 * n + 1]
            writes.append(w)
            touched.append(w + tuple(reads))
        return writes, touched

    def _departure_slots(self) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
        """(writes, touched) slot lists of every task-final departure move."""
        writes: list[tuple[int, ...]] = []
        touched: list[tuple[int, ...]] = []
        for i in range(self.d_ev.size):
            e = int(self.d_ev[i])
            w = (2 * e + 1,)
            reads = [2 * e]
            for n in (int(self.d_rho_e[i]), int(self.d_rho_inv_e[i])):
                if n >= 0:
                    reads += [2 * n, 2 * n + 1]
            writes.append(w)
            touched.append(w + tuple(reads))
        return writes, touched

    def refresh_rates(self, rates: np.ndarray) -> None:
        """Re-gather the per-move rate columns after a rate update."""
        rates = np.asarray(rates, dtype=float)
        self.a_mu_e = rates[self._a_queue_e]
        self.a_mu_pi = rates[self._a_queue_pi]
        self.d_mu_e = rates[self._d_queue_e]

    # ------------------------------------------------------------------
    # Shape.
    # ------------------------------------------------------------------

    @property
    def n_arrival_moves(self) -> int:
        """Number of latent-arrival moves per sweep."""
        return self.a_ev.size

    @property
    def n_departure_moves(self) -> int:
        """Number of task-final departure moves per sweep."""
        return self.d_ev.size

    @property
    def n_batches(self) -> tuple[int, int]:
        """(arrival, departure) conflict-free batch counts."""
        return len(self.a_batches), len(self.d_batches)

    # ------------------------------------------------------------------
    # Piece construction (the vectorized Eq. 2-4 builder).
    # ------------------------------------------------------------------

    def arrival_pieces(
        self,
        arrival: np.ndarray,
        departure: np.ndarray,
        sel: np.ndarray | None = None,
    ) -> dict[str, np.ndarray]:
        """Bounds, knots, slopes and ``log Z1..Z3`` of arrival moves *sel*.

        Exposed for the equivalence suite: every returned column matches the
        object-path :func:`~repro.inference.conditional.arrival_conditional`
        quantity for the same move (zero-width pieces carry ``-inf`` mass
        instead of being dropped).
        """
        if sel is None:
            sel = np.arange(self.a_ev.size)
        ev = self.a_ev[sel]
        pi = self.a_pi[sel]
        a_pi = arrival[pi]
        d_rho_pi = _gather(departure, self.a_rho_p[sel], -_INF)
        a_rho_e = _gather(arrival, self.a_rho_e[sel], -_INF)
        lower = np.maximum(np.maximum(a_pi, d_rho_pi), a_rho_e)
        a_rho_inv_e = _gather(arrival, self.a_rho_inv_e[sel], _INF)
        d_rho_inv_pi = _gather(departure, self.a_rho_inv_p[sel], _INF)
        upper = np.minimum(np.minimum(departure[ev], a_rho_inv_e), d_rho_inv_pi)
        with np.errstate(invalid="ignore"):
            valid = (upper - lower > 0.0) & np.isfinite(lower) & np.isfinite(upper)
        bp_own = np.where(
            self.a_self_loop[sel], -_INF, _gather(departure, self.a_rho_e[sel], -_INF)
        )
        bp_pi = _gather(arrival, self.a_rho_inv_p[sel], _INF)
        # Sanitize skipped rows so the piece arithmetic stays warning-free;
        # their results are never used.
        lo = np.where(valid, lower, 0.0)
        up = np.where(valid, upper, 1.0)
        b_own = np.where(valid, bp_own, -_INF)
        b_pi = np.where(valid, bp_pi, -_INF)
        knots = np.stack(
            [
                lo,
                np.clip(np.minimum(b_own, b_pi), lo, up),
                np.clip(np.maximum(b_own, b_pi), lo, up),
                up,
            ],
            axis=1,
        )
        mids = 0.5 * (knots[:, :-1] + knots[:, 1:])
        mu_e = self.a_mu_e[sel][:, None]
        mu_pi = self.a_mu_pi[sel][:, None]
        slopes = -mu_pi + mu_e * (mids > b_own[:, None]) + mu_pi * (mids > b_pi[:, None])
        log_masses = _piece_log_masses(knots, slopes)
        return {
            "events": ev,
            "lower": lower,
            "upper": upper,
            "valid": valid,
            "knots": knots,
            "slopes": slopes,
            "log_masses": log_masses,
            "log_z": _log_normalizer(log_masses),
        }

    def departure_pieces(
        self,
        arrival: np.ndarray,
        departure: np.ndarray,
        sel: np.ndarray | None = None,
    ) -> dict[str, np.ndarray]:
        """Bounds/pieces of task-final departure moves (two finite pieces).

        Rows with no later arrival at the queue (``tail``) are a single
        exponential tail from ``lower`` with rate ``mu_e``; they carry no
        finite pieces here and are sampled analytically.
        """
        if sel is None:
            sel = np.arange(self.d_ev.size)
        ev = self.d_ev[sel]
        rho_inv_e = self.d_rho_inv_e[sel]
        lower = np.maximum(arrival[ev], _gather(departure, self.d_rho_e[sel], -_INF))
        tail = rho_inv_e < 0
        upper = _gather(departure, rho_inv_e, _INF)
        bp = _gather(arrival, rho_inv_e, _INF)
        with np.errstate(invalid="ignore"):
            valid = tail | (upper - lower > 0.0)
        bounded = valid & ~tail
        lo = np.where(bounded, lower, 0.0)
        up = np.where(bounded, upper, 1.0)
        b = np.where(bounded, bp, -_INF)
        knots = np.stack([lo, np.clip(b, lo, up), up], axis=1)
        mids = 0.5 * (knots[:, :-1] + knots[:, 1:])
        mu_e = self.d_mu_e[sel]
        slopes = np.where(mids <= b[:, None], -mu_e[:, None], 0.0)
        log_masses = _piece_log_masses(knots, slopes)
        return {
            "events": ev,
            "lower": lower,
            "upper": upper,
            "valid": valid,
            "tail": tail,
            "knots": knots,
            "slopes": slopes,
            "log_masses": log_masses,
            "log_z": _log_normalizer(log_masses),
            "mu_e": mu_e,
        }

    # ------------------------------------------------------------------
    # Sweeping.
    # ------------------------------------------------------------------

    def sweep(
        self, state: EventSet, rng: np.random.Generator, shuffle: bool = True
    ) -> tuple[int, int]:
        """Resample every latent variable once; returns (moves, skipped).

        Batches are processed sequentially (arrival batches, then departure
        batches); *shuffle* permutes the batch order each sweep.  Every move
        in a batch consumes its two uniforms whether it is skipped or not,
        so the draw-to-move alignment is independent of the skip pattern,
        exactly like the object kernel's batched-draw mode.
        """
        if self.structure_version != state.structure_version:
            raise InferenceError(
                "event-set structure changed; rebuild the array kernel"
            )
        reg = telemetry.get_registry()
        t_start = time.perf_counter() if reg.enabled else 0.0
        n_moves = 0
        n_skipped = 0
        arrival = state.arrival
        departure = state.departure
        a_order = np.arange(len(self.a_batches))
        d_order = np.arange(len(self.d_batches))
        if shuffle:
            a_order = rng.permutation(a_order)
            d_order = rng.permutation(d_order)
        for bi in a_order:
            sel = self.a_batches[bi]
            draws = rng.random(2 * sel.size)
            events, x = self._eval_arrival_batch(
                arrival, departure, sel, draws[: sel.size], draws[sel.size :]
            )
            if events.size:
                state.set_arrivals(events, x)
            n_moves += events.size
            n_skipped += sel.size - events.size
        for bi in d_order:
            sel = self.d_batches[bi]
            draws = rng.random(2 * sel.size)
            events, x = self._eval_departure_batch(
                arrival, departure, sel, draws[: sel.size], draws[sel.size :]
            )
            if events.size:
                state.set_final_departures(events, x)
            n_moves += events.size
            n_skipped += sel.size - events.size
        if reg.enabled:
            metrics = _kernel_metrics(reg)
            metrics["sweeps"].inc()
            metrics["moves"].inc(n_moves)
            metrics["seconds"].observe(time.perf_counter() - t_start)
        return n_moves, n_skipped

    # ------------------------------------------------------------------
    # Batch evaluation.
    # ------------------------------------------------------------------

    def _eval_arrival_batch(
        self,
        arrival: np.ndarray,
        departure: np.ndarray,
        sel: np.ndarray,
        u: np.ndarray,
        v: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        pieces = self.arrival_pieces(arrival, departure, sel)
        valid = pieces["valid"]
        idx = _select_pieces(pieces["log_masses"], pieces["log_z"], u)
        x = _invert_pieces(pieces["knots"], pieces["slopes"], idx, v)
        return pieces["events"][valid], x[valid]

    def _eval_departure_batch(
        self,
        arrival: np.ndarray,
        departure: np.ndarray,
        sel: np.ndarray,
        u: np.ndarray,
        v: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        pieces = self.departure_pieces(arrival, departure, sel)
        valid = pieces["valid"]
        tail = pieces["tail"]
        idx = _select_pieces(pieces["log_masses"], pieces["log_z"], u)
        x = _invert_pieces(pieces["knots"], pieces["slopes"], idx, v)
        if np.any(tail):
            # Exponential tail with rate mu_e from the left bound, by
            # inverse transform on the same per-move uniform.
            with np.errstate(divide="ignore"):
                x = np.where(
                    tail,
                    pieces["lower"] - np.log1p(-v) / pieces["mu_e"],
                    x,
                )
        return pieces["events"][valid], x[valid]
