"""Wire protocol: JobSpec validation is the admission boundary."""

import pytest

from repro.service.protocol import (
    JobSpec,
    ProtocolError,
    batch_signature,
    decode_line,
    encode,
)


class TestJobSpecValidation:
    def test_minimal_sort(self):
        spec = JobSpec.from_dict({"kind": "sort"})
        assert spec.kind == "sort"
        assert spec.n == 5
        assert spec.faults == ()
        assert spec.backend == "phase"

    def test_full_round_trip(self):
        spec = JobSpec.from_dict({
            "kind": "sort", "n": 6, "faults": [3, 5, 16], "keys": 4096,
            "seed": 7, "kernels": "loop", "backend": "spmd",
        })
        assert JobSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("raw", [
        None,
        [],
        "sort",
        {"kind": "mine-bitcoin"},
        {"kind": "sort", "surprise": 1},
        {"kind": "sort", "n": 0},
        {"kind": "sort", "n": 11},
        {"kind": "sort", "n": True},
        {"kind": "sort", "keys": 0},
        {"kind": "sort", "keys": 1 << 21},
        {"kind": "sort", "seed": -1},
        {"kind": "sort", "backend": "quantum"},
        {"kind": "sort", "kernels": "cuda"},
        # The retired kernel tier's name.
        {"kind": "sort", "kernels": "numpy"},
        {"kind": "sort", "faults": 3},
        {"kind": "sort", "faults": ["3"]},
        {"kind": "sort", "faults": [99], "n": 5},
        {"kind": "sort", "faults": [-1]},
        {"kind": "sort", "faults": [3, 3]},
        # r <= n - 1: five faults on Q_5 is one too many.
        {"kind": "sort", "n": 5, "faults": [0, 1, 2, 4, 8]},
        {"kind": "plan", "n": 3, "faults": [0, 1, 2]},
    ])
    def test_rejects(self, raw):
        with pytest.raises(ProtocolError):
            JobSpec.from_dict(raw)

    def test_chaos_ignores_fault_budget(self):
        # The r <= n-1 budget is a sort/plan constraint; chaos scenarios
        # derive their own faults from (index, seed).
        spec = JobSpec.from_dict({"kind": "chaos", "index": 3, "seed": 9})
        assert spec.index == 3

    def test_chaos_fault_class_round_trip(self):
        spec = JobSpec.from_dict({
            "kind": "chaos", "index": 2, "fault_class": "comparison",
            "fault_params": {"p": 0.002},
        })
        assert spec.fault_class == "comparison"
        assert spec.fault_params == (("p", 0.002),)
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_fault_class_defaults_to_baseline(self):
        spec = JobSpec.from_dict({"kind": "chaos"})
        assert spec.fault_class == "baseline"
        assert spec.fault_params == ()

    @pytest.mark.parametrize("raw", [
        # Unknown class names are rejected at admission, not at run time.
        {"kind": "chaos", "fault_class": "gremlins"},
        {"kind": "chaos", "fault_class": 7},
        # Fault universes are a chaos-only concept.
        {"kind": "sort", "fault_class": "comparison"},
        {"kind": "plan", "fault_params": {"p": 0.1}},
        # Severity parameters are probabilities/fractions.
        {"kind": "chaos", "fault_class": "comparison", "fault_params": {"p": 1.5}},
        {"kind": "chaos", "fault_class": "comparison", "fault_params": {"p": -0.1}},
        {"kind": "chaos", "fault_class": "comparison", "fault_params": {"p": "hi"}},
        {"kind": "chaos", "fault_class": "comparison", "fault_params": {"p": True}},
        {"kind": "chaos", "fault_class": "comparison", "fault_params": [0.1]},
    ])
    def test_fault_class_rejects(self, raw):
        with pytest.raises(ProtocolError):
            JobSpec.from_dict(raw)


class TestBatchSignature:
    def test_sorts_batch_on_planning_problem_not_payload(self):
        """Sorts batch on the network they run (``n``, kernels, backend):
        neither the payload nor the fault set keeps two sorts apart."""
        a = JobSpec.from_dict({"kind": "sort", "n": 5, "faults": [3, 5],
                               "keys": 256, "seed": 1})
        b = JobSpec.from_dict({"kind": "sort", "n": 5, "faults": [3, 5],
                               "keys": 8192, "seed": 2})
        c = JobSpec.from_dict({"kind": "sort", "n": 5, "faults": [3, 6]})
        assert batch_signature(a) == batch_signature(b) == batch_signature(c)

    @pytest.mark.parametrize("other", [
        {"kind": "sort", "n": 6, "faults": [3, 5]},
        {"kind": "sort", "n": 5, "faults": [3, 5], "backend": "spmd"},
        {"kind": "sort", "n": 5, "faults": [3, 5], "kernels": "loop"},
        {"kind": "plan", "n": 5, "faults": [3, 5]},
    ])
    def test_different_problems_do_not_batch(self, other):
        base = JobSpec.from_dict({"kind": "sort", "n": 5, "faults": [3, 5]})
        assert batch_signature(base) != batch_signature(JobSpec.from_dict(other))

    def test_chaos_never_batches(self):
        spec = JobSpec.from_dict({"kind": "chaos", "index": 1})
        assert batch_signature(spec) is None


class TestFraming:
    def test_encode_decode_round_trip(self):
        msg = {"op": "submit", "tenant": "a", "job": {"kind": "plan", "n": 4}}
        data = encode(msg)
        assert data.endswith(b"\n")
        assert decode_line(data) == msg

    @pytest.mark.parametrize("line", [b"not json\n", b"[1, 2]\n", b"42\n"])
    def test_decode_rejects_non_objects(self, line):
        with pytest.raises(ProtocolError):
            decode_line(line)
