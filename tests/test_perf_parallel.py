"""fan_out semantics: ordering, worker counts, fallback, errors."""

from __future__ import annotations

import os

import pytest

from repro.errors import ConfigurationError
from repro.perf import fan_out, resolve_jobs


def _square(x):
    return x * x


def _fail_on_three(x):
    if x == 3:
        raise ValueError("boom on 3")
    return x


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == 1

    def test_explicit_wins(self):
        assert resolve_jobs(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs(None) == 5

    def test_zero_means_cpu_count(self):
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_jobs(-1)

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ConfigurationError):
            resolve_jobs(None)


class TestFanOut:
    def test_serial_matches_plain_loop(self):
        items = list(range(10))
        assert fan_out(_square, items, jobs=1) == [x * x for x in items]

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_parallel_preserves_item_order(self, jobs):
        items = list(range(12))
        assert fan_out(_square, items, jobs=jobs) == [x * x for x in items]

    def test_empty_items(self):
        assert fan_out(_square, [], jobs=4) == []

    def test_single_item_runs_serially(self):
        assert fan_out(_square, [7], jobs=8) == [49]

    def test_generator_input_accepted(self):
        assert fan_out(_square, (x for x in range(4)), jobs=1) == [0, 1, 4, 9]

    def test_worker_exception_propagates_serial(self):
        with pytest.raises(ValueError, match="boom on 3"):
            fan_out(_fail_on_three, [1, 2, 3, 4], jobs=1)

    def test_worker_exception_propagates_parallel(self):
        with pytest.raises(ValueError, match="boom on 3"):
            fan_out(_fail_on_three, [1, 2, 3, 4], jobs=2)

    def test_unpicklable_callable_falls_back_to_serial(self):
        # A closure cannot cross a process boundary; fan_out must warn
        # and still produce the right answer.
        offset = 10
        with pytest.warns(UserWarning, match="serially"):
            out = fan_out(lambda x: x + offset, [1, 2, 3], jobs=2)
        assert out == [11, 12, 13]


# -- PR 4: retries, timeouts, outcomes, fault tolerance ---------------------------

from repro.errors import RetryExhausted  # noqa: E402
from repro.perf.parallel import (  # noqa: E402
    MAX_JOBS,
    MAX_RETRIES,
    Err,
    Ok,
    fan_out_outcomes,
    resolve_retries,
    resolve_timeout_s,
)
from repro.resilience import FaultRule, configure_faults  # noqa: E402


@pytest.fixture(autouse=True)
def _disarm_faults():
    """Fault-free baseline for this file, ambient spec restored after.

    This file asserts *exact* retry/exception semantics, so an ambient
    ``REPRO_FAULTS`` spec (the CI fault-injection leg) is parked before
    each test and restored — never popped — afterwards, keeping the rest
    of the suite's leg coverage intact and order-independent.
    """
    ambient = os.environ.get("REPRO_FAULTS")
    configure_faults(None)
    yield
    configure_faults(ambient)


class _FailNTimes:
    """Fails the first ``n`` calls, then succeeds (serial-path only)."""

    def __init__(self, n):
        self.n = n
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        if self.calls <= self.n:
            raise ValueError(f"transient #{self.calls}")
        return x


def _cache_miss_probe(x):
    """One guaranteed cache miss per call (counter-delta merge probe)."""
    from repro.perf.cache import get_cache

    get_cache().load(f"{x:064x}")
    return x


class TestResolveRetries:
    def test_default_is_zero(self, monkeypatch):
        monkeypatch.delenv("REPRO_RETRIES", raising=False)
        assert resolve_retries(None) == 0

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRIES", "3")
        assert resolve_retries(None) == 3

    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRIES", "3")
        assert resolve_retries(1) == 1

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_retries(-1)

    def test_absurd_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_retries(MAX_RETRIES + 1)

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRIES", "lots")
        with pytest.raises(ConfigurationError):
            resolve_retries(None)


class TestResolveTimeout:
    def test_default_is_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_TIMEOUT_S", raising=False)
        assert resolve_timeout_s(None) is None

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_TIMEOUT_S", "2.5")
        assert resolve_timeout_s(None) == 2.5

    def test_zero_means_no_timeout(self):
        assert resolve_timeout_s(0) is None

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_timeout_s(-1.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_timeout_s(float("nan"))
        with pytest.raises(ConfigurationError):
            resolve_timeout_s(float("inf"))

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_TIMEOUT_S", "soon")
        with pytest.raises(ConfigurationError):
            resolve_timeout_s(None)


class TestJobsCeiling:
    def test_absurd_worker_count_rejected(self):
        with pytest.raises(ConfigurationError, match="absurd"):
            resolve_jobs(MAX_JOBS + 1)

    def test_bad_env_error_chains_cause(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ConfigurationError) as info:
            resolve_jobs(None)
        assert isinstance(info.value.__cause__, ValueError)


class TestOutcomes:
    def test_all_ok(self):
        outcomes = fan_out_outcomes(_square, [2, 3], jobs=1)
        assert all(o.ok for o in outcomes)
        assert [o.value for o in outcomes] == [4, 9]
        assert [o.index for o in outcomes] == [0, 1]
        assert all(o.attempts == 1 for o in outcomes)

    def test_failure_captured_not_raised(self):
        outcomes = fan_out_outcomes(_fail_on_three, [1, 3], jobs=1)
        ok, err = outcomes
        assert isinstance(ok, Ok) and ok.value == 1
        assert isinstance(err, Err) and not err.ok
        assert isinstance(err.exception, ValueError)
        assert err.attempts == 1

    def test_single_attempt_err_reraises_original(self):
        (err,) = fan_out_outcomes(_fail_on_three, [3], jobs=1)
        with pytest.raises(ValueError, match="boom on 3"):
            err.reraise()

    def test_exhausted_err_reraises_retry_exhausted(self):
        (err,) = fan_out_outcomes(
            _fail_on_three, [3], jobs=1, retries=2, backoff_base_s=0.0
        )
        assert err.attempts == 3
        with pytest.raises(RetryExhausted) as info:
            err.reraise()
        assert isinstance(info.value.__cause__, ValueError)


class TestRetrySemantics:
    def test_transient_failure_recovered_within_budget(self):
        func = _FailNTimes(2)
        (outcome,) = fan_out_outcomes(
            func, [7], jobs=1, retries=2, backoff_base_s=0.0
        )
        assert outcome.ok and outcome.value == 7
        assert outcome.attempts == 3
        assert func.calls == 3

    def test_zero_retries_fails_immediately(self):
        func = _FailNTimes(1)
        (outcome,) = fan_out_outcomes(func, [7], jobs=1, backoff_base_s=0.0)
        assert not outcome.ok
        assert func.calls == 1

    def test_task_exception_budget_is_exact(self):
        # Deterministic task failures must NOT get the infrastructure
        # retry allowance: retries=1 means exactly 2 calls.
        func = _FailNTimes(10)
        (outcome,) = fan_out_outcomes(
            func, [7], jobs=1, retries=1, backoff_base_s=0.0
        )
        assert not outcome.ok
        assert func.calls == 2

    def test_on_error_skip_keeps_partial_results(self):
        out = fan_out(_fail_on_three, [1, 2, 3, 4], jobs=1, on_error="skip")
        assert out == [1, 2, 4]

    def test_on_error_retry_implies_budget_then_raises(self):
        with pytest.raises(RetryExhausted, match="_fail_on_three"):
            fan_out(_fail_on_three, [3], jobs=1, on_error="retry")

    def test_on_error_retry_recovers_transients(self):
        assert fan_out(_FailNTimes(2), [7], jobs=1, on_error="retry") == [7]

    def test_invalid_on_error_rejected(self):
        with pytest.raises(ConfigurationError, match="on_error"):
            fan_out(_square, [1], jobs=1, on_error="explode")


def _find_fault_seed(kind, label, n_items, p, max_attempts):
    """A seed where some first attempt fires but recovery is guaranteed.

    Guaranteed means: some attempt level ``a < max_attempts`` exists at
    which NO item fires.  That covers the worst schedule for a broken
    pool — where unfinished items are charged in lockstep and a level
    with any firing item can break the pool for everyone — as well as
    the per-item case (hangs charge only the hung task).  Purely a
    function of the hash, so the search — and therefore the whole test —
    is deterministic.
    """
    for seed in range(500):
        rule = FaultRule(kind=kind, p=p, seed=seed)
        fired_first = any(
            rule.fires(f"{label}:{i}:a0") for i in range(n_items)
        )
        clear_level = any(
            not any(
                rule.fires(f"{label}:{i}:a{a}") for i in range(n_items)
            )
            for a in range(max_attempts)
        )
        if fired_first and clear_level:
            return seed
    raise AssertionError("no suitable fault seed in range")


class TestInjectedWorkerFaults:
    def test_worker_kill_is_recovered(self):
        # A killed worker breaks the pool; fan_out must resubmit the
        # unfinished items and still return every result in order.
        items = list(range(4))
        seed = _find_fault_seed("worker_kill", "_square", len(items), 0.4, 3)
        configure_faults(f"worker_kill:p=0.4,seed={seed}")
        out = fan_out(_square, items, jobs=2)
        assert out == [x * x for x in items]

    def test_worker_kill_recovery_is_deterministic(self):
        # Fault FIRING is a pure function of (seed, key), so repeated
        # runs must recover the same values.  Attempt counts are NOT
        # compared: which tasks a broken round charges depends on how
        # far the pool got before dying, which is scheduling-dependent.
        items = list(range(4))
        seed = _find_fault_seed("worker_kill", "_square", len(items), 0.4, 3)
        configure_faults(f"worker_kill:p=0.4,seed={seed}")
        first = fan_out_outcomes(_square, items, jobs=2)
        second = fan_out_outcomes(_square, items, jobs=2)
        assert all(o.ok for o in first)
        assert [o.value for o in first] == [o.value for o in second]

    def test_task_hang_times_out_and_recovers(self):
        # The hung attempt exceeds timeout_s; the retry re-rolls the
        # fault key and completes.  Without the timeout this test would
        # block for the full 30 s hang.
        items = [0, 1]
        seed = _find_fault_seed("task_hang", "_square", len(items), 0.5, 3)
        configure_faults(f"task_hang:p=0.5,seed={seed},s=30")
        out = fan_out(_square, items, jobs=2, timeout_s=0.5)
        assert out == [0, 1]

    def test_counter_deltas_survive_worker_failure(self):
        # Each successful call performs exactly one cache miss inside a
        # worker; merged deltas must equal the item count even when
        # killed attempts (which never reach the probe) are retried.
        from repro.perf.cache import get_cache

        items = list(range(4))
        label = "_cache_miss_probe"
        seed = _find_fault_seed("worker_kill", label, len(items), 0.4, 3)
        configure_faults(f"worker_kill:p=0.4,seed={seed}")
        before = get_cache().counters.snapshot()
        out = fan_out(_cache_miss_probe, items, jobs=2)
        delta = get_cache().counters.diff(before)
        assert out == items
        assert delta.misses == len(items)


class _ScriptedPool:
    """In-process stand-in for ProcessPoolExecutor with scripted breaks.

    ``submit`` runs the call at once; an attempt whose fault key is in
    ``breaks`` comes back holding ``BrokenProcessPool`` instead, as if
    its worker had been killed.  Every future is done before the round
    reads it, the order a real pool produces when the break lands last.
    """

    def __init__(self, breaks):
        self.breaks = breaks
        self._processes = {}

    def __call__(self, max_workers=None):
        return self

    def submit(self, fn, item, fault_key):
        from concurrent.futures import Future
        from concurrent.futures.process import BrokenProcessPool

        future = Future()
        if fault_key in self.breaks:
            future.set_exception(BrokenProcessPool("worker killed"))
            return future
        try:
            future.set_result(fn(item, fault_key))
        except Exception as exc:
            future.set_exception(exc)
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class TestBrokenPoolAccounting:
    """A pool break never changes which exception ``func``'s failure raises."""

    def _outcomes(self, monkeypatch, breaks, items):
        import repro.perf.parallel as parallel_module

        monkeypatch.setattr(
            parallel_module, "ProcessPoolExecutor", _ScriptedPool(breaks)
        )
        return fan_out_outcomes(_fail_on_three, items, jobs=2, backoff_base_s=0.0)

    def test_finished_failure_is_charged_not_a_victim(self, monkeypatch):
        # Item 2's worker dies; item 3 had already raised.  Its own
        # exception is charged, so the caller sees it unchanged.
        outcomes = self._outcomes(monkeypatch, {"_fail_on_three:0:a0"}, [2, 3])
        ok, err = outcomes
        assert ok.ok and ok.value == 2
        assert isinstance(err.exception, ValueError)
        assert err.attempts == 1
        with pytest.raises(ValueError, match="boom on 3"):
            err.reraise()

    def test_infrastructure_attempts_do_not_exhaust_func(self, monkeypatch):
        # Both first attempts die (a futile round charges each one
        # infrastructure attempt); item 3 then raises once.
        breaks = {"_fail_on_three:0:a0", "_fail_on_three:1:a0"}
        ok, err = self._outcomes(monkeypatch, breaks, [2, 3])
        assert ok.ok and ok.attempts == 2
        assert err.attempts == 1
        with pytest.raises(ValueError, match="boom on 3"):
            err.reraise()

    def test_repeated_breaks_exhaust_infrastructure_budget(self, monkeypatch):
        from concurrent.futures.process import BrokenProcessPool

        from repro.perf.parallel import INFRA_RETRIES

        breaks = {f"_fail_on_three:0:a{a}" for a in range(INFRA_RETRIES + 1)}
        breaks |= {f"_fail_on_three:1:a{a}" for a in range(INFRA_RETRIES + 1)}
        outcomes = self._outcomes(monkeypatch, breaks, [2, 4])
        assert all(isinstance(o.exception, BrokenProcessPool) for o in outcomes)
        assert all(o.attempts == INFRA_RETRIES + 1 for o in outcomes)
        with pytest.raises(RetryExhausted):
            outcomes[0].reraise()


class TestSerialFallback:
    def test_pool_that_cannot_start_falls_back(self, monkeypatch):
        # Sandboxes without working semaphores raise OSError at pool
        # construction; results must still arrive, serially, with a
        # warning.
        import repro.perf.parallel as parallel_module

        class _NoPool:
            def __init__(self, *args, **kwargs):
                raise OSError("semaphores unavailable")

        monkeypatch.setattr(parallel_module, "ProcessPoolExecutor", _NoPool)
        with pytest.warns(UserWarning, match="serially"):
            out = fan_out(_square, [1, 2, 3], jobs=2)
        assert out == [1, 4, 9]

    def test_fallback_preserves_retry_semantics(self, monkeypatch):
        import repro.perf.parallel as parallel_module

        class _NoPool:
            def __init__(self, *args, **kwargs):
                raise OSError("semaphores unavailable")

        monkeypatch.setattr(parallel_module, "ProcessPoolExecutor", _NoPool)
        with pytest.warns(UserWarning, match="serially"):
            with pytest.raises(ValueError, match="boom on 3"):
                fan_out(_fail_on_three, [1, 2, 3], jobs=2)
