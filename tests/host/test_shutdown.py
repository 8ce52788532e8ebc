"""Graceful shutdown of the supervisor: mid-run interrupts must not wedge.

Two interruption styles:

* **Injected** — a monkeypatched inner sort raises ``KeyboardInterrupt``
  partway through a supervised recovery, deterministically.
* **Asynchronous** — a timer thread fires ``_thread.interrupt_main()``
  while supervised sorts run in a loop, the honest simulation of a user's
  Ctrl-C landing at an arbitrary point.

In both cases the interrupt must propagate unchanged (no swallowing, no
conversion to a "failed" result), the tracer's live-span stack must be
fully unwound (``depth == 0`` — spans are context managers, so an
interrupt that leaks one would corrupt every later trace on the thread),
and a subsequent run must work from a clean slate.
"""

from __future__ import annotations

import _thread
import signal
import threading
import time

import numpy as np
import pytest

import repro.host.session as session_mod
from repro.host.session import FaultEvent, supervised_sort
from repro.obs import Tracer

KEYS = np.random.default_rng(7).integers(0, 10**6, size=256).astype(float)


class TestInjectedInterrupt:
    def test_interrupt_mid_recovery_propagates_and_unwinds(self, monkeypatch):
        tracer = Tracer()
        real = session_mod.fault_tolerant_sort
        calls = []

        def interrupting(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:  # first attempt aborts, re-plan, then ^C
                raise KeyboardInterrupt
            return real(*args, **kwargs)

        monkeypatch.setattr(session_mod, "fault_tolerant_sort", interrupting)
        with tracer.span("supervised", cat="test"):
            with pytest.raises(KeyboardInterrupt):
                supervised_sort(
                    KEYS, 4, faults=(3,),
                    events=[FaultEvent("processor", 9, at=10.0)],
                    backend="phase", obs=tracer,
                )
        assert len(calls) == 2
        assert tracer.depth == 0

    def test_clean_run_after_interrupt(self, monkeypatch):
        real = session_mod.fault_tolerant_sort
        armed = [True]

        def interrupting(*args, **kwargs):
            if armed[0]:
                armed[0] = False
                raise KeyboardInterrupt
            return real(*args, **kwargs)

        monkeypatch.setattr(session_mod, "fault_tolerant_sort", interrupting)
        with pytest.raises(KeyboardInterrupt):
            supervised_sort(KEYS, 4, faults=(3,), backend="phase")
        report = supervised_sort(KEYS, 4, faults=(3,), backend="phase")
        assert np.array_equal(report.sorted_keys, np.sort(KEYS))


#: How long the loop below may wait for an interrupt due after 0.15 s.
INTERRUPT_DEADLINE_S = 30.0


class TestAsyncInterrupt:
    def test_interrupt_main_lands_between_or_inside_runs(self):
        if signal.getsignal(signal.SIGINT) is not signal.default_int_handler:
            # ``interrupt_main`` raises only through Python's own handler;
            # a process started with SIGINT ignored (a background job of
            # a non-interactive shell) would never see the interrupt.
            pytest.skip("SIGINT is not handled by Python's default handler, "
                        "so interrupt_main cannot raise KeyboardInterrupt")
        tracer = Tracer()
        timer = threading.Timer(0.15, _thread.interrupt_main)
        deadline = time.monotonic() + INTERRUPT_DEADLINE_S
        timer.start()
        try:
            with pytest.raises(KeyboardInterrupt):
                # The loop guarantees the interrupt finds us here (or in a
                # supervised run) whenever it fires; each iteration is a
                # full sort, so it regularly lands mid-run.
                while time.monotonic() < deadline:
                    supervised_sort(KEYS, 4, faults=(3, 9), backend="phase",
                                    obs=tracer)
                timer.cancel()
                pytest.fail(f"interrupt_main did not interrupt the loop within "
                            f"{INTERRUPT_DEADLINE_S:.0f} s")
        finally:
            timer.cancel()
        assert tracer.depth == 0
        # The world still works afterwards.
        report = supervised_sort(KEYS, 4, faults=(3, 9), backend="phase")
        assert np.array_equal(report.sorted_keys, np.sort(KEYS))
