"""Persistent worker processes for multi-chain EM E-steps.

Naive per-iteration pooling of StEM/MCEM E-steps loses: shipping every
chain's full latent state to a fresh worker each round costs more than the
sweep itself.  The fix — the standard long-lived-worker design of
datacenter services — is to make the chain state *resident*: each worker
process builds its chains once, keeps them warm across EM iterations, and
per round receives only the current rate vector and returns only the
per-queue sufficient statistics (a ``total_service_by_queue`` vector per
chain).  The master never touches chain state until the final iterate,
when the evolved samplers are shipped back once.

Determinism: a chain's trajectory is a pure function of its
:class:`ChainRecipe` (trace, init method, seed material), never of the
worker that hosts it, so ``run_stem``/``run_mcem`` produce **bitwise
identical** rate histories serially and at any worker count —
``tests/inference/test_pool.py`` pins this.

This module is also the single home of E-step chain *construction*
(:func:`chain_recipes` / :func:`build_chain_sampler`): the serial paths of
:mod:`repro.inference.stem` and :mod:`repro.inference.mcem` build their
in-process samplers from the same recipes the workers consume, which is
what makes the serial/persistent equivalence an identity rather than a
hope.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass

import numpy as np

from repro.errors import InferenceError
from repro.events import EventSet
from repro.inference.chains import chain_seed_sequences, jittered_rates
from repro.inference.gibbs import GibbsSampler
from repro.inference.init_heuristic import heuristic_initialize
from repro.inference.init_lp import lp_initialize
from repro.inference.mstep import chain_service_totals
from repro.observation import ObservedTrace
from repro.rng import RandomState, as_generator


def initialize_state(
    trace: ObservedTrace,
    rates: np.ndarray,
    method: str = "auto",
    lp_size_limit: int = 6000,
) -> EventSet:
    """Build a feasible starting state with the requested initializer.

    ``method`` is ``"lp"``, ``"heuristic"``, or ``"auto"`` (LP when the
    trace has at most *lp_size_limit* events, else the heuristic — the LP is
    exact but its solve time grows superlinearly).
    """
    if method == "auto":
        method = "lp" if trace.skeleton.n_events <= lp_size_limit else "heuristic"
    if method == "lp":
        return lp_initialize(trace, rates)
    if method == "heuristic":
        return heuristic_initialize(trace, rates)
    raise InferenceError(f"unknown initialization method {method!r}")


@dataclass
class ChainRecipe:
    """Everything needed to (re)build one E-step chain, picklable.

    Chain 0 carries ``init_seed=None`` (it initializes at the base rates
    with the caller's generator, exactly like the historical single-chain
    run); chains 1+ carry dedicated seed-sequence spawns and jitter their
    initializer rates.
    """

    index: int
    trace: ObservedTrace
    rates: np.ndarray
    init_method: str
    init_seed: np.random.SeedSequence | None
    sweep_state: RandomState
    jitter: float
    shuffle: bool
    kernel: str


def chain_recipes(
    trace: ObservedTrace,
    rates: np.ndarray,
    init_method: str,
    n_chains: int,
    jitter: float,
    random_state: RandomState,
    shuffle: bool,
    kernel: str = "array",
) -> list[ChainRecipe]:
    """One recipe per E-step chain, over-dispersed past chain 0.

    Chain 0's starting state (initialized at the given rates) and
    generator (exactly ``as_generator(random_state)``) match the
    historical single-chain run, so ``n_chains=1`` reproduces it
    bit-for-bit; extra chains initialize at jittered rates and sample from
    independent seed-sequence spawns that never draw from a
    caller-supplied generator.
    """
    recipes = [
        ChainRecipe(
            index=0,
            trace=trace,
            rates=rates,
            init_method=init_method,
            init_seed=None,
            sweep_state=as_generator(random_state),
            jitter=jitter,
            shuffle=shuffle,
            kernel=kernel,
        )
    ]
    if n_chains == 1:
        return recipes
    for k, (init_seed, sweep_seed) in enumerate(
        chain_seed_sequences(random_state, n_chains)[1:], start=1
    ):
        recipes.append(
            ChainRecipe(
                index=k,
                trace=trace,
                rates=rates,
                init_method=init_method,
                init_seed=init_seed,
                sweep_state=sweep_seed,
                jitter=jitter,
                shuffle=shuffle,
                kernel=kernel,
            )
        )
    return recipes


def build_chain_sampler(recipe: ChainRecipe) -> GibbsSampler:
    """Materialize one warm E-step chain from its recipe."""
    if recipe.init_seed is None:
        init_rates = recipe.rates
    else:
        init_rates = jittered_rates(recipe.rates, recipe.jitter, recipe.init_seed)
    state = initialize_state(recipe.trace, init_rates, method=recipe.init_method)
    return GibbsSampler(
        recipe.trace,
        state,
        recipe.rates,
        random_state=recipe.sweep_state,
        shuffle=recipe.shuffle,
        kernel=recipe.kernel,
    )


# ----------------------------------------------------------------------
# Worker protocol.
# ----------------------------------------------------------------------


def _describe_error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _pool_worker_main(conn, recipes: list[ChainRecipe]) -> None:
    """Entry point of one persistent worker: build chains, then serve steps.

    Messages (tuples, first element is the command):

    * ``("step", rates, burn_in, n_keep, accumulate)`` — for each resident
      chain: ``set_rates``, run *burn_in* sweeps, then *n_keep* sweeps;
      reply ``("ok", {chain_index: stats})`` where stats is the per-sweep
      stacked totals (*accumulate*) or the final-state totals.
    * ``("finish", rates)`` — set the final rates and ship the evolved
      samplers back, then exit.
    * ``("close",)`` — exit.

    Any exception is reported as ``("error", description)`` and ends the
    worker, so the master can shut the pool down cleanly.
    """
    try:
        samplers = {r.index: build_chain_sampler(r) for r in recipes}
        conn.send(("ready", sorted(samplers)))
    except BaseException as exc:  # noqa: BLE001 — must cross the pipe
        conn.send(("error", _describe_error(exc)))
        conn.close()
        return
    try:
        while True:
            msg = conn.recv()
            cmd = msg[0]
            if cmd == "step":
                _, rates, burn_in, n_keep, accumulate = msg
                out = {}
                for index in sorted(samplers):
                    sampler = samplers[index]
                    sampler.set_rates(rates)
                    sampler.run(burn_in)
                    if accumulate:
                        kept = np.empty((n_keep, sampler.state.n_queues))
                        for i in range(n_keep):
                            sampler.sweep()
                            kept[i] = sampler.state.total_service_by_queue()
                        out[index] = kept
                    else:
                        sampler.run(n_keep)
                        out[index] = chain_service_totals(sampler.state)
                conn.send(("ok", out))
            elif cmd == "finish":
                _, rates = msg
                for sampler in samplers.values():
                    sampler.set_rates(rates)
                conn.send(("ok", samplers))
                return
            else:  # "close"
                return
    except BaseException as exc:  # noqa: BLE001 — must cross the pipe
        try:
            conn.send(("error", _describe_error(exc)))
        except OSError:
            pass
    finally:
        conn.close()


class PersistentChainPool:
    """Long-lived worker processes holding warm E-step chains.

    Each worker is a local daemon process, connected by an OS pipe, that
    builds its share of the chains once and keeps them resident.  Chains
    never migrate between workers, so results are bitwise identical at
    any ``workers`` count (including the serial in-process path built
    from the same recipes).  Use as a context manager; on error or exit
    every worker is joined (and terminated if it does not exit
    promptly).

    Parameters
    ----------
    recipes:
        Output of :func:`chain_recipes`.
    workers:
        Worker process count; clamped to the number of chains.  Defaults
        to one worker per chain.
    """

    def __init__(
        self,
        recipes: list[ChainRecipe],
        workers: int | None = None,
    ) -> None:
        if not recipes:
            raise InferenceError("need at least one chain recipe")
        n_workers = len(recipes) if workers is None else int(workers)
        if n_workers < 1:
            raise InferenceError(f"need at least one worker, got {workers}")
        n_workers = min(n_workers, len(recipes))
        self.n_workers = n_workers
        self.n_chains = len(recipes)
        #: ``(process, connection)`` per worker.
        self._workers = []
        self._closed = False
        ctx = multiprocessing.get_context()
        try:
            for w in range(n_workers):
                parent_conn, child_conn = ctx.Pipe()
                proc = ctx.Process(
                    target=_pool_worker_main,
                    args=(child_conn, recipes[w::n_workers]),
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                self._workers.append((proc, parent_conn))
            for _, conn in self._workers:
                reply = conn.recv()
                if reply[0] == "error":
                    raise InferenceError(
                        f"persistent E-step worker failed: {reply[1]}"
                    )
        except BaseException:
            self.close()
            raise

    @property
    def closed(self) -> bool:
        """Whether the pool has been shut down (voluntarily or on error)."""
        return self._closed

    def _broadcast(self, message) -> list:
        """Send *message* to every worker; merge keyed replies in order.

        Any worker-side error (or a dead connection) shuts the whole pool
        down and surfaces as :class:`~repro.errors.InferenceError`.
        """
        if self._closed:
            raise InferenceError("the worker pool is closed")
        merged: dict[int, object] = {}
        failure: str | None = None
        delivered = []
        for _, conn in self._workers:
            try:
                conn.send(message)
            except (BrokenPipeError, EOFError, OSError):
                failure = failure or "worker connection died before the request"
                continue
            delivered.append(conn)
        for conn in delivered:
            try:
                reply = conn.recv()
            except (EOFError, OSError):
                failure = failure or "worker exited without replying"
                continue
            if reply[0] == "error":
                failure = failure or reply[1]
            else:
                merged.update(reply[1])
        if failure is not None:
            self.close()
            raise InferenceError(f"persistent E-step worker failed: {failure}")
        return [merged[index] for index in sorted(merged)]

    # ------------------------------------------------------------------
    # E-step operations.
    # ------------------------------------------------------------------

    def step(
        self,
        rates: np.ndarray,
        burn_in: int = 0,
        n_keep: int = 1,
        accumulate: bool = False,
    ) -> list[np.ndarray]:
        """One E-step round on every chain; returns per-chain statistics.

        With ``accumulate=False`` each chain runs ``burn_in + n_keep``
        sweeps and returns its final-state per-queue totals (the StEM
        E-step).  With ``accumulate=True`` it returns the ``(n_keep,
        n_queues)`` stack of post-burn-in per-sweep totals (the MCEM
        E-step), letting the master reduce them in exact serial order.
        """
        rates = np.asarray(rates, dtype=float)
        return self._broadcast(("step", rates, int(burn_in), int(n_keep), accumulate))

    def finish(self, rates: np.ndarray) -> list[GibbsSampler]:
        """Set the final rates and retrieve the evolved samplers, once."""
        rates = np.asarray(rates, dtype=float)
        samplers = self._broadcast(("finish", rates))
        self.close()
        return samplers

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Shut every worker down; idempotent, never raises."""
        if self._closed:
            return
        self._closed = True
        for _, conn in self._workers:
            try:
                conn.send(("close",))
            except (BrokenPipeError, EOFError, OSError):
                pass
        for proc, _ in self._workers:
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        for _, conn in self._workers:
            try:
                conn.close()
            except OSError:
                pass

    def __enter__(self) -> "PersistentChainPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
