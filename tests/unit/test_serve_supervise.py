"""Unit tests: supervision policy, poison records, shutdown guard.

The pool-level behaviour (kills, retries, drains) is pinned by
``tests/integration/test_serve_supervised.py``; these tests cover the
pure pieces — policy validation, backoff arithmetic, the poison
record, and the two-stage shutdown state machine.
"""

import random
import signal

import pytest

from repro.api import ScenarioSpec
from repro.errors import (
    InvariantViolation,
    ReferenceBudgetExceeded,
    ScenarioDeadlineExceeded,
    SimulationError,
    SpecValidationError,
    TraceStoreTimeout,
    WorkerCrashed,
    is_retryable,
)
from repro.serve.supervise import (
    EXIT_ABORTED,
    EXIT_INTERRUPTED,
    PoisonRecord,
    ShutdownGuard,
    SupervisionPolicy,
)


class TestPolicy:
    def test_defaults_valid(self):
        SupervisionPolicy()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"deadline_seconds": 0.0},
            {"deadline_seconds": -1.0},
            {"grace_seconds": -0.1},
            {"max_attempts": 0},
            {"backoff_base_seconds": -1.0},
            {"backoff_jitter": 1.5},
            {"watchdog_tick_seconds": 0.0},
        ],
    )
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SupervisionPolicy(**kwargs)

    def test_no_deadline_allowed(self):
        assert SupervisionPolicy(
            deadline_seconds=None
        ).deadline_seconds is None

    def test_backoff_grows_then_caps(self):
        policy = SupervisionPolicy(
            backoff_base_seconds=0.5,
            backoff_cap_seconds=3.0,
            backoff_jitter=0.0,
        )
        rng = random.Random(0)
        delays = [
            policy.backoff_delay(attempt, rng)
            for attempt in range(1, 6)
        ]
        assert delays == [0.5, 1.0, 2.0, 3.0, 3.0]

    def test_backoff_jitter_bounded_and_seeded(self):
        policy = SupervisionPolicy(
            backoff_base_seconds=1.0,
            backoff_cap_seconds=1.0,
            backoff_jitter=0.25,
        )
        a = [
            policy.backoff_delay(1, random.Random(42))
            for _ in range(20)
        ]
        b = [
            policy.backoff_delay(1, random.Random(42))
            for _ in range(20)
        ]
        assert a == b  # seeded jitter is reproducible
        assert all(0.75 <= d <= 1.25 for d in a)

    def test_retryable_classification(self):
        """A rerun can clear only environment failures; every error of
        the scenario itself is deterministic and runs once."""
        assert is_retryable(OSError("disk glitch"))
        assert is_retryable(ScenarioDeadlineExceeded("em3d", 1.0, 2.0))
        assert is_retryable(WorkerCrashed("em3d", -9))
        assert is_retryable(TraceStoreTimeout("ab" * 32, 30.0))
        assert not is_retryable(ReferenceBudgetExceeded(100, 10))
        assert not is_retryable(
            InvariantViolation("tlb", "duplicate entry", "segment 3")
        )
        assert not is_retryable(SpecValidationError("unknown workload"))
        assert not is_retryable(SimulationError("bad machine state"))
        assert not is_retryable(ValueError("nope"))


class TestSpecSupervisionKnobs:
    def test_valid_overrides(self):
        spec = ScenarioSpec(
            "em3d", deadline_seconds=12.5, max_attempts=2
        )
        assert spec.deadline_seconds == 12.5
        assert spec.max_attempts == 2

    def test_bad_deadline_rejected(self):
        with pytest.raises(SpecValidationError):
            ScenarioSpec("em3d", deadline_seconds=0.0)

    def test_bad_attempts_rejected(self):
        with pytest.raises(SpecValidationError):
            ScenarioSpec("em3d", max_attempts=0)

    def test_knobs_excluded_from_fingerprint(self):
        """Budget knobs never change results, so a stored result must
        serve a request with different supervision settings."""
        from repro.bench.runner import BenchContext
        from repro.serve.scheduler import spec_fingerprint

        context = BenchContext(quick=True)
        plain = spec_fingerprint(ScenarioSpec("em3d"), context)
        tuned = spec_fingerprint(
            ScenarioSpec("em3d", deadline_seconds=1.0, max_attempts=9),
            context,
        )
        assert plain == tuned


def _poison():
    return PoisonRecord(
        index=3,
        label="em3d|tlb96",
        fingerprint="ab" + "0" * 62,
        workload="em3d",
        config_label="tlb96",
        attempts=4,
        classification="deterministic",
        errors=["SimulationError: boom", "SimulationError: boom"],
    )


class TestPoisonRecord:
    def test_last_error(self):
        assert _poison().last_error == "SimulationError: boom"
        empty = _poison()
        empty.errors = []
        assert empty.last_error == "unknown"


class TestShutdownGuard:
    def test_starts_quiet(self):
        guard = ShutdownGuard()
        assert not guard.drain_requested
        assert not guard.abort_requested

    def test_drain_then_abort(self):
        guard = ShutdownGuard()
        guard.request_drain()
        assert guard.drain_requested and not guard.abort_requested
        guard.request_abort()
        assert guard.abort_requested

    def test_signal_escalation(self):
        """First signal drains, second hard-aborts, third falls
        through to a plain KeyboardInterrupt."""
        guard = ShutdownGuard()
        guard.handle_signal(signal.SIGINT)
        assert guard.drain_requested and not guard.abort_requested
        guard.handle_signal(signal.SIGINT)
        assert guard.abort_requested
        with pytest.raises(KeyboardInterrupt):
            guard.handle_signal(signal.SIGINT)

    def test_context_manager_installs_and_restores(self):
        before = signal.getsignal(signal.SIGINT)
        with ShutdownGuard() as guard:
            assert signal.getsignal(signal.SIGINT) == (
                guard.handle_signal
            )
        assert signal.getsignal(signal.SIGINT) == before

    def test_exit_codes_are_distinct(self):
        assert EXIT_INTERRUPTED == 75
        assert EXIT_ABORTED == 130
        assert EXIT_INTERRUPTED != EXIT_ABORTED
