"""Deterministic, fault-tolerant parallel fan-out over independent simulations.

:func:`fan_out` is the pipeline's single parallelism primitive: apply a
picklable callable to a list of items, return results **in item order**
regardless of completion order, and degrade gracefully:

* ``jobs=1`` (the default) runs serially in-process — bit-identical to
  the historical list-comprehension loops it replaces;
* ``jobs>1`` uses a :class:`~concurrent.futures.ProcessPoolExecutor`
  (simulations are pure CPU-bound Python, so threads cannot help);
* a pool that cannot start (sandboxed environments without working
  semaphores, unpicklable callables) falls back to serial execution
  with a :class:`UserWarning` rather than failing the experiment.

Fault tolerance (PR 4) extends the contract with per-item semantics:

* **retries** — each item may be re-attempted with deterministic,
  seeded, jittered exponential backoff
  (:func:`repro.resilience.retry.backoff_delay`).  *Infrastructure*
  failures (a killed worker breaking the pool, a per-task timeout) are
  always granted a small retry budget even with ``retries=0``, because
  they are environmental rather than properties of the item;
  exceptions raised by ``func`` itself are retried only when asked;
* **timeouts** — ``timeout_s`` bounds how long the parent waits on each
  task; a hung task (e.g. an injected ``task_hang``) times out, the
  pool is torn down, and every *unfinished* item is resubmitted to a
  fresh pool — only the timed-out item is charged an attempt;
* **partial results** — :func:`fan_out_outcomes` reports a per-item
  :class:`Ok`/:class:`Err` instead of raising, and
  :func:`fan_out`'s ``on_error="skip"`` keeps a sweep alive past
  permanently failing items;
* a :class:`~concurrent.futures.process.BrokenProcessPool` (worker
  killed by the OS, OOM, or the ``worker_kill`` fault injector) never
  loses completed work: finished results are kept and only unfinished
  items are resubmitted.

Worker processes run with their own :mod:`repro.perf.cache` handle; the
wrapper returns each call's cache-counter delta so hits/misses observed
inside workers are merged into the parent's counters — the CLI summary
stays truthful under any ``--jobs`` value.  Workers also re-arm the
``REPRO_FAULTS`` injector from the environment, so injected faults fire
identically under any start method.
"""

from __future__ import annotations

import math
import os
import pickle
import time
import warnings
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Generic,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

from ..errors import ConfigurationError, RetryExhausted, TaskTimeout

T = TypeVar("T")
R = TypeVar("R")

#: Hard ceiling on worker counts: anything larger is certainly a typo
#: (no machine this code targets has more cores, and the pool would
#: fork-bomb the host).
MAX_JOBS = 4096

#: Hard ceiling on per-item retries (a failing item re-run thousands of
#: times is a misconfiguration, not resilience).
MAX_RETRIES = 64

#: Retry budget always granted for *infrastructure* failures (broken
#: pool, timeout), even with ``retries=0``: a killed worker says nothing
#: about the item it happened to be running.
INFRA_RETRIES = 2

_ON_ERROR_MODES = ("raise", "skip", "retry")

#: Default retry budget implied by ``on_error="retry"`` when the caller
#: did not size one explicitly.
_ON_ERROR_RETRY_DEFAULT = 2


def _from_env(name: str, parse: Callable[[str], T], kind: str, default: T) -> T:
    """``parse`` of env var ``name``, or ``default`` when unset or blank."""
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return parse(raw)
    except ValueError as exc:
        raise ConfigurationError(f"{name} must be {kind}, got {raw!r}") from exc


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker-count resolution: explicit > ``REPRO_JOBS`` > serial.

    ``jobs=0`` (or ``REPRO_JOBS=0``) means "one worker per CPU".
    Negative, absurdly large (> :data:`MAX_JOBS`), or non-integer values
    are rejected with :class:`~repro.errors.ConfigurationError` whether
    they arrive via the parameter or the environment.
    """
    if jobs is None:
        jobs = _from_env("REPRO_JOBS", int, "an integer", 1)
    if jobs < 0:
        raise ConfigurationError(f"jobs must be >= 0, got {jobs}")
    if jobs > MAX_JOBS:
        raise ConfigurationError(
            f"jobs must be <= {MAX_JOBS}, got {jobs} — an absurd worker "
            "count is almost certainly a typo"
        )
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


def resolve_retries(retries: Optional[int] = None) -> int:
    """Retry-budget resolution: explicit > ``REPRO_RETRIES`` > 0."""
    if retries is None:
        retries = _from_env("REPRO_RETRIES", int, "an integer", 0)
    if retries < 0:
        raise ConfigurationError(f"retries must be >= 0, got {retries}")
    if retries > MAX_RETRIES:
        raise ConfigurationError(
            f"retries must be <= {MAX_RETRIES}, got {retries}"
        )
    return retries


def resolve_timeout_s(timeout_s: Optional[float] = None) -> Optional[float]:
    """Per-task timeout resolution: explicit > ``REPRO_TIMEOUT_S`` > none.

    ``0`` (either source) means "no timeout"; negative or non-finite
    values are rejected.
    """
    if timeout_s is None:
        timeout_s = _from_env("REPRO_TIMEOUT_S", float, "a number", 0.0)
    if math.isnan(timeout_s) or math.isinf(timeout_s):
        raise ConfigurationError(
            f"timeout_s must be finite, got {timeout_s!r}"
        )
    if timeout_s < 0:
        raise ConfigurationError(f"timeout_s must be >= 0, got {timeout_s}")
    return None if timeout_s == 0 else timeout_s


# -- per-item outcomes -----------------------------------------------------------


@dataclass(frozen=True)
class Ok(Generic[R]):
    """A successfully computed item: its value and the attempts it took."""

    value: R
    attempts: int
    index: int

    @property
    def ok(self) -> bool:
        """Always True; mirrors :attr:`Err.ok` for uniform filtering."""
        return True

    def reraise(self) -> None:
        """No-op on a success (mirrors :meth:`Err.reraise`)."""


@dataclass(frozen=True)
class Err:
    """A permanently failed item: the terminal exception and context.

    ``attempts`` counts failures of the terminal kind only: the calls
    of ``func`` that raised, or, for an infrastructure failure (killed
    worker, timeout), the attempts infrastructure lost.
    """

    exception: BaseException
    attempts: int
    index: int
    label: str

    @property
    def ok(self) -> bool:
        """Always False."""
        return False

    def reraise(self) -> None:
        """Raise the terminal failure the way ``on_error="raise"`` does.

        An item whose ``func`` raised once re-raises the original
        exception unchanged (bit-compatible with a plain loop), however
        many attempts infrastructure failures cost it; a retried one
        raises :class:`~repro.errors.RetryExhausted` with the original
        chained as ``__cause__``.
        """
        if self.attempts <= 1:
            raise self.exception
        raise RetryExhausted(
            f"{self.label}[{self.index}]", self.attempts, repr(self.exception)
        ) from self.exception


Outcome = Union[Ok[R], Err]


class _TrackedCall:
    """Picklable wrapper returning ``(result, cache-counter delta)``.

    Runs inside worker processes; the delta lets the parent account for
    cache traffic that happened out-of-process.  It is also the
    worker-side fault-injection site: ``worker_kill`` and ``task_hang``
    fire here, keyed by the task's ``(label, index, attempt)`` so a
    retried attempt re-rolls instead of re-firing forever.
    """

    __slots__ = ("func",)

    def __init__(self, func: Callable[[T], R]) -> None:
        self.func = func

    def __call__(self, item: T, fault_key: str) -> Tuple[R, Any]:
        from ..resilience.faults import get_injector

        injector = get_injector()
        if injector.active:
            injector.maybe_kill_worker(fault_key)
            injector.maybe_hang(fault_key)

        from .cache import get_cache

        counters = get_cache().counters
        before = counters.snapshot()
        result = self.func(item)
        return result, counters.diff(before)


@dataclass
class _Task:
    """One in-flight item: its position, payload, and attempts so far.

    ``failures`` counts the attempts in which ``func`` itself raised;
    the rest of ``attempts`` were lost to infrastructure.
    """

    index: int
    item: Any
    attempts: int = 0
    failures: int = 0


def _func_label(func: Callable[..., Any]) -> str:
    name = getattr(func, "__qualname__", None)
    return name if isinstance(name, str) and name else type(func).__name__


def _is_pickling_failure(exc: BaseException) -> bool:
    """Did this failure come from the pickle layer, not from ``func``?"""
    if isinstance(exc, pickle.PicklingError):
        return True
    return isinstance(exc, (AttributeError, TypeError)) and "pickle" in str(
        exc
    ).lower()


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Abandon a broken/hung pool without waiting for stuck workers."""
    pool.shutdown(wait=False, cancel_futures=True)
    try:
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            process.terminate()
    except Exception:
        # Private-attribute layout differs across CPython versions; the
        # shutdown above already detached every future, so leaking a
        # finite-lifetime worker is the acceptable fallback.
        pass


class _FanOutRun:
    """State machine for one fan_out invocation (parallel path)."""

    def __init__(
        self,
        func: Callable[[T], R],
        items: Sequence[T],
        *,
        workers: int,
        retries: int,
        timeout_s: Optional[float],
        backoff_base_s: float,
        backoff_cap_s: float,
    ) -> None:
        self.func = func
        self.label = _func_label(func)
        self.tracked = _TrackedCall(func)
        self.workers = workers
        self.retries = retries
        self.timeout_s = timeout_s
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.outcomes: dict[int, Outcome[R]] = {}
        self.pending: List[_Task] = [
            _Task(index=i, item=item) for i, item in enumerate(items)
        ]

    # -- shared bookkeeping ------------------------------------------------------

    def _fault_key(self, task: _Task) -> str:
        return f"{self.label}:{task.index}:a{task.attempts}"

    def _record_ok(self, task: _Task, value: R, delta: Any = None) -> None:
        if delta is not None:
            from .cache import get_cache

            get_cache().counters.add(delta)
        self.outcomes[task.index] = Ok(
            value=value, attempts=task.attempts + 1, index=task.index
        )

    def _note_failure(
        self, task: _Task, exc: BaseException, *, infra: bool
    ) -> Tuple[bool, float]:
        """Charge one failed attempt; requeue or finalize.

        ``func`` failures and infrastructure failures draw on separate
        budgets, so a killed worker never changes how often ``func`` may
        raise, nor which exception the caller finally sees.  Returns
        ``(requeued, backoff_delay_s)``.
        """
        from ..resilience.retry import backoff_delay

        failed_attempt = task.attempts
        task.attempts += 1
        if infra:
            charged = task.attempts - task.failures
            budget = max(self.retries, INFRA_RETRIES)
        else:
            task.failures += 1
            charged = task.failures
            budget = self.retries
        if charged <= budget:
            delay = backoff_delay(
                failed_attempt,
                base_s=self.backoff_base_s,
                cap_s=self.backoff_cap_s,
                key=f"{self.label}:{task.index}",
            )
            return True, delay
        self.outcomes[task.index] = Err(
            exception=exc,
            attempts=charged,
            index=task.index,
            label=self.label,
        )
        return False, 0.0

    # -- serial execution --------------------------------------------------------

    def run_serial(self, tasks: List[_Task]) -> None:
        """In-process execution with the same retry semantics as the pool."""
        for task in tasks:
            while True:
                try:
                    value = self.func(task.item)
                except Exception as exc:
                    requeued, delay = self._note_failure(task, exc, infra=False)
                    if not requeued:
                        break
                    if delay > 0:
                        time.sleep(delay)
                else:
                    self._record_ok(task, value)
                    break

    # -- pool execution ----------------------------------------------------------

    def run(self) -> List[Outcome[R]]:
        """Drive rounds of pool submission until every item resolves."""
        while self.pending:
            batch, self.pending = self.pending, []
            try:
                pool = ProcessPoolExecutor(
                    max_workers=min(self.workers, len(batch))
                )
            except (OSError, ImportError) as exc:
                self._serial_fallback(batch, exc)
                break
            max_delay = self._run_round(pool, batch)
            if self.pending and max_delay > 0:
                time.sleep(max_delay)
        return [self.outcomes[i] for i in sorted(self.outcomes)]

    def _run_round(self, pool: ProcessPoolExecutor, batch: List[_Task]) -> float:
        """One pool round; returns the backoff delay before the next.

        A broken pool cannot tell us *which* task killed the worker, so
        no individual task is blamed for it: unfinished tasks are
        requeued unchanged while finished ones are settled as usual —
        a result is kept, an exception ``func`` raised is charged to its
        task.  Only a round that makes no progress at all (nothing
        completed, nothing individually charged) charges every unfinished
        task one *infrastructure* attempt — that re-rolls the faulting
        task's injection key and bounds the total number of rounds,
        without letting one poisonous item exhaust innocent bystanders'
        budgets.
        """
        submitted: List[Tuple[_Task, Future[Tuple[R, Any]]]] = [
            (task, pool.submit(self.tracked, task.item, self._fault_key(task)))
            for task in batch
        ]
        broken = False
        broken_exc: Optional[BaseException] = None
        victims: List[_Task] = []
        unusable: Optional[BaseException] = None
        completed = 0
        charged = False
        max_delay = 0.0
        for task, future in submitted:
            if (broken or unusable is not None) and (
                not future.done() or future.cancelled()
            ):
                # The pool is gone; set unfinished tasks aside (their
                # fate depends on whether the round made progress —
                # decided below).  Finished ones fall through.
                (victims if unusable is None else self.pending).append(task)
                continue
            try:
                value, delta = future.result(timeout=self.timeout_s)
            except FuturesTimeout:
                # Unlike a pool break, the culprit IS identified: we
                # were waiting on exactly this future.
                future.cancel()
                broken = True
                charged = True
                timeout = self.timeout_s if self.timeout_s is not None else 0.0
                requeued, delay = self._note_failure(
                    task,
                    TaskTimeout(f"{self.label}[{task.index}]", timeout),
                    infra=True,
                )
                if requeued:
                    self.pending.append(task)
                    max_delay = max(max_delay, delay)
            except BrokenProcessPool as exc:
                broken = True
                broken_exc = exc
                (victims if unusable is None else self.pending).append(task)
            except Exception as exc:
                if _is_pickling_failure(exc):
                    unusable = exc
                    self.pending.append(task)
                    continue
                charged = True
                requeued, delay = self._note_failure(task, exc, infra=False)
                if requeued:
                    self.pending.append(task)
                    max_delay = max(max_delay, delay)
            else:
                self._record_ok(task, value, delta)
                completed += 1
        if victims:
            if completed or charged:
                # Progress happened elsewhere this round: the victims
                # were innocent bystanders, requeue them unchanged.
                self.pending.extend(victims)
            else:
                # Futile round: charge everyone an infrastructure
                # attempt so injection keys re-roll and rounds stay
                # bounded.
                exc = broken_exc or BrokenProcessPool("process pool broke")
                for task in victims:
                    requeued, delay = self._note_failure(task, exc, infra=True)
                    if requeued:
                        self.pending.append(task)
                        max_delay = max(max_delay, delay)
        if broken:
            _terminate_pool(pool)
        else:
            pool.shutdown()
        if unusable is not None:
            fallback, self.pending = self.pending, []
            self._serial_fallback(fallback, unusable)
        return max_delay

    def _serial_fallback(
        self, tasks: List[_Task], exc: BaseException
    ) -> None:
        warnings.warn(
            f"process pool unavailable ({exc!r}); running {len(tasks)} "
            "task(s) serially",
            stacklevel=4,
        )
        self.run_serial(tasks)


def fan_out_outcomes(
    func: Callable[[T], R],
    items: Iterable[T],
    *,
    jobs: Optional[int] = None,
    retries: Optional[int] = None,
    timeout_s: Optional[float] = None,
    backoff_base_s: float = 0.05,
    backoff_cap_s: float = 2.0,
) -> List[Outcome[R]]:
    """Apply ``func`` to every item; report a per-item :class:`Ok`/:class:`Err`.

    Never raises for item failures: after the retry budget
    (``retries``, default from ``REPRO_RETRIES``) an item's terminal
    exception is captured in its :class:`Err`, in item order with the
    successes.  ``timeout_s`` (default from ``REPRO_TIMEOUT_S``) bounds
    the wait per task in pool mode; serial execution cannot preempt a
    running callable, so timeouts apply only with ``jobs > 1``.
    """
    materialized = list(items)
    run: _FanOutRun = _FanOutRun(
        func,
        materialized,
        workers=min(resolve_jobs(jobs), max(len(materialized), 1)),
        retries=resolve_retries(retries),
        timeout_s=resolve_timeout_s(timeout_s),
        backoff_base_s=backoff_base_s,
        backoff_cap_s=backoff_cap_s,
    )
    if run.workers <= 1 or len(materialized) <= 1:
        tasks, run.pending = run.pending, []
        run.run_serial(tasks)
        return [run.outcomes[i] for i in sorted(run.outcomes)]
    return run.run()


def fan_out(
    func: Callable[[T], R],
    items: Iterable[T],
    *,
    jobs: Optional[int] = None,
    retries: Optional[int] = None,
    timeout_s: Optional[float] = None,
    on_error: str = "raise",
) -> List[R]:
    """Apply ``func`` to every item, preserving item order in the result.

    ``on_error`` selects the partial-result policy once an item's retry
    budget is exhausted:

    * ``"raise"`` (default) — the first failing item's terminal
      exception propagates: unchanged original exception when ``func``
      raised once, :class:`~repro.errors.RetryExhausted` (with the
      original chained) when retries were consumed;
    * ``"retry"`` — like ``"raise"`` but implies a retry budget of
      ``2`` when ``retries`` was not given;
    * ``"skip"`` — failed items are dropped from the result (use
      :func:`fan_out_outcomes` to know which).

    With ``jobs > 1`` both ``func`` and the items must be picklable;
    pool start-up failures degrade to serial execution.
    """
    if on_error not in _ON_ERROR_MODES:
        raise ConfigurationError(
            f"on_error must be one of {_ON_ERROR_MODES}, got {on_error!r}"
        )
    resolved_retries = resolve_retries(retries)
    if on_error == "retry" and retries is None and resolved_retries == 0:
        resolved_retries = _ON_ERROR_RETRY_DEFAULT
    outcomes = fan_out_outcomes(
        func, items, jobs=jobs, retries=resolved_retries, timeout_s=timeout_s
    )
    results: List[R] = []
    for outcome in outcomes:
        if isinstance(outcome, Ok):
            results.append(outcome.value)
        elif on_error == "skip":
            continue
        else:
            outcome.reraise()
    return results
