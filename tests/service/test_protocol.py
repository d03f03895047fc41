"""The wire protocol (repro.service.protocol): validation and envelopes.

Pure unit tests — no event loop, no simulator.  Every malformed input
must become a coded ``BadRequestError`` (QW604) *before* any queueing
or compute is spent on it, and every exception must serialize into the
same structured error envelope.
"""

import json
import random

import pytest

from repro.errors import (
    BadRequestError,
    DeadlineExceededError,
    QueueFullError,
)
from repro.service import protocol


# ----------------------------------------------------------------------
# parse_request: the line layer.
# ----------------------------------------------------------------------
def test_parse_accepts_bytes_and_str():
    assert protocol.parse_request('{"op": "health"}') == {"op": "health"}
    assert protocol.parse_request(b'{"op": "stats"}') == {"op": "stats"}


def test_parse_rejects_garbage_with_coded_error():
    with pytest.raises(BadRequestError) as excinfo:
        protocol.parse_request("this is not json\n")
    assert excinfo.value.code == "QW604"


def test_parse_rejects_non_object_payloads():
    with pytest.raises(BadRequestError, match="JSON object"):
        protocol.parse_request("[1, 2, 3]")


def test_parse_rejects_unknown_op():
    with pytest.raises(BadRequestError, match="unknown op"):
        protocol.parse_request('{"op": "launch_missiles"}')


# ----------------------------------------------------------------------
# RunRequest.from_payload: field validation.
# ----------------------------------------------------------------------
def test_run_request_defaults():
    request = protocol.RunRequest.from_payload({"kernel": "bv"})
    assert (request.n, request.shots, request.seed) == (4, 256, 0)
    assert request.priority == 5
    assert request.deadline is None


def test_exactly_one_of_kernel_or_source():
    with pytest.raises(BadRequestError, match="exactly one"):
        protocol.RunRequest.from_payload({})
    with pytest.raises(BadRequestError, match="exactly one"):
        protocol.RunRequest.from_payload(
            {"kernel": "bv", "source": "def f(): pass"}
        )


def test_shots_ceiling_is_enforced():
    with pytest.raises(BadRequestError, match="ceiling"):
        protocol.RunRequest.from_payload(
            {"kernel": "bv", "shots": protocol.MAX_SHOTS + 1}
        )


def test_suite_size_above_the_statevector_limit_is_rejected():
    from repro.sim import MAX_STATEVECTOR_QUBITS

    request = protocol.RunRequest.from_payload(
        {"kernel": "grover", "n": MAX_STATEVECTOR_QUBITS}
    )
    assert request.n == MAX_STATEVECTOR_QUBITS
    for n in (MAX_STATEVECTOR_QUBITS + 1, 64, 128):
        with pytest.raises(BadRequestError, match="qubit") as excinfo:
            protocol.RunRequest.from_payload({"kernel": "grover", "n": n})
        assert excinfo.value.code == "QW604"


def test_workers_ceiling_is_enforced():
    request = protocol.RunRequest.from_payload(
        {"kernel": "bv", "workers": protocol.MAX_WORKERS}
    )
    assert request.workers == protocol.MAX_WORKERS
    with pytest.raises(BadRequestError, match="ceiling") as excinfo:
        protocol.RunRequest.from_payload(
            {"kernel": "bv", "workers": protocol.MAX_WORKERS + 1}
        )
    assert excinfo.value.code == "QW604"


def test_integer_fields_reject_floats_bools_and_minima():
    with pytest.raises(BadRequestError, match="'shots'"):
        protocol.RunRequest.from_payload({"kernel": "bv", "shots": 1.5})
    with pytest.raises(BadRequestError, match="'shots'"):
        protocol.RunRequest.from_payload({"kernel": "bv", "shots": True})
    with pytest.raises(BadRequestError, match=">= 1"):
        protocol.RunRequest.from_payload({"kernel": "bv", "shots": 0})
    with pytest.raises(BadRequestError, match=">= 1"):
        protocol.RunRequest.from_payload({"kernel": "bv", "workers": 0})


def test_deadline_must_be_a_positive_number():
    with pytest.raises(BadRequestError, match="'deadline'"):
        protocol.RunRequest.from_payload(
            {"kernel": "bv", "deadline": "soon"}
        )
    with pytest.raises(BadRequestError, match="> 0"):
        protocol.RunRequest.from_payload({"kernel": "bv", "deadline": 0})


def test_noise_vocabulary_is_closed():
    request = protocol.RunRequest.from_payload(
        {"kernel": "bv", "noise": {"depolarizing": 0.01}}
    )
    assert request.noise == {"depolarizing": 0.01}
    with pytest.raises(BadRequestError, match="unknown noise channel"):
        protocol.RunRequest.from_payload(
            {"kernel": "bv", "noise": {"cosmic_rays": 0.5}}
        )
    with pytest.raises(BadRequestError, match="must be an object"):
        protocol.RunRequest.from_payload(
            {"kernel": "bv", "noise": "depolarizing"}
        )


# ----------------------------------------------------------------------
# Response envelopes.
# ----------------------------------------------------------------------
def test_ok_response_shape():
    response = protocol.ok_response(7, {"counts": {"00": 4}})
    assert response == {
        "id": 7, "ok": True, "result": {"counts": {"00": 4}},
    }


def test_error_response_keeps_qwerty_code_and_rendering():
    error = QueueFullError("queue full")
    response = protocol.error_response(3, error)
    payload = response["error"]
    assert response["id"] == 3 and response["ok"] is False
    assert payload["code"] == "QW601"
    assert payload["retryable"] is True
    assert "QW601" in payload["rendered"]


def test_error_response_marks_deadline_retryable():
    payload = protocol.error_response(
        None, DeadlineExceededError("too slow")
    )["error"]
    assert payload["code"] == "QW602"
    assert payload["retryable"] is True


def test_error_response_wraps_foreign_exceptions_as_qw000():
    payload = protocol.error_response(1, RuntimeError("surprise"))["error"]
    assert payload["code"] == "QW000"
    assert payload["retryable"] is False
    assert "surprise" in payload["message"]


def test_encode_response_is_one_json_line():
    line = protocol.encode_response({"id": 1, "ok": True, "result": {}})
    assert line.endswith(b"\n")
    assert json.loads(line) == {"id": 1, "ok": True, "result": {}}
    assert b"\n" not in line[:-1]


def test_counts_of_folds_bit_tuples():
    assert protocol.counts_of([(0, 1), (0, 1), (1, 0)]) == {
        "01": 2, "10": 1,
    }


def _counts_of_per_shot(results):
    """The per-shot loop ``counts_of`` replaced: the reference."""
    counts = {}
    for outcome in results:
        key = "".join(str(int(b)) for b in outcome)
        counts[key] = counts.get(key, 0) + 1
    return counts


@pytest.mark.parametrize("width", [0, 1, 3, 8])
def test_counts_of_matches_the_per_shot_loop(width):
    rng = random.Random(width)
    for shots in (0, 1, 256):
        results = [
            tuple(rng.randrange(2) for _ in range(width))
            for _ in range(shots)
        ]
        expected = _counts_of_per_shot(results)
        counts = protocol.counts_of(results)
        assert counts == expected
        assert list(counts) == list(expected)  # first-seen order too

