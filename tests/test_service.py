import dataclasses
import io
import json
import socket
import sys
import threading
import time

import pytest
from hypothesis import example, given, settings, strategies as st

import foleq.service as service
from foleq.corpus import BleuConfig, tokenize_formula
from foleq.equivalence import LeConfig, le_score
from foleq.syntax import MAX_TOKENS, lex
from foleq.service import (
    BAD_REQUEST,
    CAP_EXCEEDED,
    INTERNAL,
    ScoreRequest,
    ScoreResponse,
    ServiceConfig,
    handle_line,
    handle_request,
    parse_request,
    serve,
    serve_socket,
)

CONFIG = ServiceConfig()


def le_request(rid, prediction, reference, **extra):
    body = {"id": rid, "op": "le_score", "prediction": prediction, "reference": reference}
    body.update(extra)
    return body


# --- request validation -----------------------------------------------------------

def test_parse_request_happy_path():
    req = parse_request(le_request("r1", "A", "A", mode="original", overrides={"max_atoms": 4}))
    assert req == ScoreRequest("r1", "le_score", "A", "A", "original", {"max_atoms": 4})


@pytest.mark.parametrize("broken", [
    {"op": "le_score", "prediction": "A", "reference": "A"},          # missing id
    le_request("", "A", "A"),                                          # empty id
    {"id": "x", "op": "teleport", "prediction": "A", "reference": "A"},
    {"id": "x", "op": "le_score", "prediction": 3, "reference": "A"},
    {"id": "x", "op": "le_score", "prediction": "A"},                  # missing reference
    le_request("x", "A", "A", mode="turbo"),
    le_request("x", "A", "A", overrides={"verbosity": 3}),
    le_request("x", "A", "A", overrides={"ngram_sizes": [2]}),         # a constant, not a setting
    le_request("x", "A", "A", overrides=[1, 2]),
    "just a string",
])
def test_parse_request_rejects_malformed(broken):
    with pytest.raises(ValueError):
        parse_request(broken)


# --- scoring ------------------------------------------------------------------------

def test_identity_scores_one():
    response = handle_request(parse_request(le_request("a", "A ∧ B", "A ∧ B")), CONFIG)
    assert response.score == 1.0
    assert response.error is None
    assert response.detail["binding"]["pairs"] == {"A": "A", "B": "B"}


def test_unparseable_prediction_degrades_to_zero():
    response = handle_request(parse_request(le_request("a", "((", "A")), CONFIG)
    assert response.score == 0.0
    assert response.error is None
    assert "unparseable prediction" in response.detail["warning"]


def test_unparseable_reference_is_bad_request():
    response = handle_request(parse_request(le_request("a", "A", "((")), CONFIG)
    assert response.error is not None
    assert response.error["code"] == BAD_REQUEST


def test_cap_exceeded_reported():
    request = parse_request(
        le_request("a", "A ∧ B ∧ C", "X ∨ Y ∨ Z", overrides={"max_atoms": 2})
    )
    response = handle_request(request, CONFIG)
    assert response.error is not None
    assert response.error["code"] == CAP_EXCEEDED


def test_an_unchunked_long_chain_is_cap_exceeded_before_it_is_read():
    # 16 operators read in every bracketing would make Catalan(16) =
    # 35,357,670 readings; 10 make 16,796, inside the cap.
    unchunked = ServiceConfig(le=LeConfig(chunk_size=None))
    chain = "(" + " ∧ ".join("ABCDEFGHIJKLMNOPA") + ")"
    start = time.perf_counter()
    response = handle_request(parse_request(le_request("a", chain, chain)), unchunked)
    assert time.perf_counter() - start < 0.5
    assert response.error == {"code": CAP_EXCEEDED, "message": "connective chain has 35357670 readings (cap 50000)"}
    chain = " ∧ ".join("ABCDEFGHIJK")
    response = handle_request(parse_request(le_request("a", chain, chain)), unchunked)
    assert response.score == 1.0
    assert response.detail["trees_explored"] == 16_796


def test_over_long_prediction_is_cap_exceeded():
    cap = MAX_TOKENS
    response = handle_line(json.dumps(le_request("deep", "¬" * (3 * cap) + "A", "A")), CONFIG)
    assert response.error == {
        "code": CAP_EXCEEDED,
        "message": f"formula has {3 * cap + 1} tokens (cap {cap})",
    }


def test_over_long_reference_is_bad_request():
    cap = MAX_TOKENS
    for reference, tokens in [("(" * 600 + "A" + ")" * 600, 1201), (" → ".join(["A"] * 1200), 2399)]:
        response = handle_line(json.dumps(le_request("deep", "A", reference)), CONFIG)
        assert response.error == {
            "code": BAD_REQUEST,
            "message": f"unparseable reference: formula has {tokens} tokens (cap {cap})",
        }


# Each construct that nests, n levels deep.
_NESTINGS = [
    lambda n: "¬" * n + "A",
    lambda n: "(" * n + "A" + ")" * n,
    lambda n: " → ".join(["P(x)"] * (n + 1)),
    lambda n: "∀x " * n + "P(x)",
    lambda n: "(¬" * n + "A" + ")" * n,
]


def test_every_nesting_at_the_token_cap_answers_without_internal():
    cap = MAX_TOKENS
    for build in _NESTINGS:
        base = len(lex(build(0)))
        deepest = (cap - base) // (len(lex(build(1))) - base)
        for text in (build(deepest), build(deepest + 1)):
            for prediction, reference in ((text, "A"), ("A", text)):
                for mode in ("original", "optimized"):
                    line = json.dumps(le_request("cap", prediction, reference, mode=mode))
                    response = handle_line(line, CONFIG)
                    assert response.error is None or response.error["code"] != INTERNAL, response.error


# Hypothesis raises the recursion limit while it runs a test, so the runs
# reach far past the token cap at any limit.
_DEEP_RUN = st.builds(lambda build, n: build(n), st.sampled_from(_NESTINGS), st.integers(0, 2500))
_FRAGMENT = st.one_of(_DEEP_RUN, st.text("PQAx(),¬∧∨→↔⊕∀∃ ", max_size=12), st.text(max_size=4))
_FORMULA_TEXT = st.one_of(_DEEP_RUN, st.lists(_FRAGMENT, max_size=4).map("".join))


@settings(max_examples=150, deadline=None)
@given(prediction=_FORMULA_TEXT, reference=_FORMULA_TEXT, mode=st.sampled_from(["original", "optimized"]))
@example(prediction="A", reference="(" * 2500 + "A" + ")" * 2500, mode="optimized")
@example(prediction="A", reference=" → ".join(["A"] * 2500), mode="original")
def test_no_text_answers_internal(prediction, reference, mode):
    response = handle_line(json.dumps(le_request("p", prediction, reference, mode=mode)), CONFIG)
    assert response.error is None or response.error["code"] != INTERNAL, response.error


# Whole wire lines: values nested past the decoder's depth, and integers
# past the interpreter's digit limit, in a bare line and in request fields.
_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
_DEEP_VALUE = st.builds(
    lambda brackets, depth, closed: brackets[0] * depth + ("0" + brackets[1] * depth if closed else ""),
    st.sampled_from([("[", "]"), ('{"a": ', "}")]),
    st.integers(1, 100_000),
    st.booleans(),
)
_HUGE_INT = st.builds(lambda sign, digits: sign + "9" * digits, st.sampled_from(["", "-"]), st.integers(1, 6000))
_WIRE_SLOTS = [
    "{}",
    '{{"id": {}, "op": "le_score", "prediction": "A", "reference": "A"}}',
    '{{"id": "w", "op": "le_score", "prediction": "A", "reference": "A", "overrides": {{"max_atoms": {}}}}}',
]


@settings(max_examples=100, deadline=None)
@given(slot=st.sampled_from(_WIRE_SLOTS), value=st.one_of(_DEEP_VALUE, _HUGE_INT))
@example(slot="{}", value="[" * 100_000)
@example(slot="{}", value="9" * 5000)
@example(slot=_WIRE_SLOTS[2], value="9" * 5000)
def test_no_wire_line_answers_internal_or_stops_the_loop(slot, value):
    out = io.StringIO()
    valid = json.dumps(le_request("ok", "A", "A"))
    assert serve(io.StringIO(slot.format(value) + "\n" + valid + "\n"), out, CONFIG) is False
    first, second = [json.loads(line) for line in out.getvalue().splitlines()]
    assert ("score" in first) != ("error" in first)
    assert "error" not in first or first["error"]["code"] != INTERNAL, first
    digits = len(value.lstrip("-"))
    if not value.lstrip("-").isdigit() or 0 < _DIGIT_LIMIT < digits:
        assert first["error"]["code"] == BAD_REQUEST
    assert (second["id"], second["score"]) == ("ok", 1.0)


def test_mode_override_per_request():
    # unrelated names: the optimized search leaves atoms unbound (0.5), the
    # exhaustive search still tries the full matching (1.0)
    optimized = handle_request(parse_request(le_request("a", "P(a)", "Q(b)")), CONFIG)
    original = handle_request(
        parse_request(le_request("b", "P(a)", "Q(b)", mode="original")), CONFIG
    )
    assert optimized.score == 0.5
    assert original.score == 1.0


def test_threshold_override_changes_binding():
    lenient = handle_request(
        parse_request(le_request("a", "Pred(x)", "Predicate(x)", overrides={"threshold": 0.4})),
        CONFIG,
    )
    strict = handle_request(parse_request(le_request("b", "Pred(x)", "Predicate(x)")), CONFIG)
    assert lenient.score == 1.0
    assert strict.score == 0.5


@pytest.mark.parametrize("overrides, message", [
    ({"chunk_size": 5}, "chunk_size 5 is above the service's 4"),
    ({"max_atoms": 17}, "max_atoms 17 is above the service's 16"),
])
def test_overrides_may_not_raise_a_cost_cap(overrides, message):
    response = handle_request(parse_request(le_request("a", "A ∧ B", "A ∧ B", overrides=overrides)), CONFIG)
    assert response.error == {"code": BAD_REQUEST, "message": f"bad overrides: {message}"}


def test_overrides_may_lower_the_cost_caps():
    overrides = {"max_atoms": 12, "chunk_size": 3, "threshold": 0.5}
    response = handle_request(parse_request(le_request("a", "A ∧ B", "A ∧ B", overrides=overrides)), CONFIG)
    assert response.score == 1.0
    # with no chunking configured, any chunk size is a tighter limit
    unchunked = ServiceConfig(le=LeConfig(chunk_size=None))
    response = handle_request(parse_request(le_request("a", "A ∧ B", "A ∧ B", overrides={"chunk_size": 9})), unchunked)
    assert response.score == 1.0


@pytest.mark.parametrize("overrides, message", [
    ({"chunk_size": 2.7}, "chunk_size must be an integer, not 2.7"),
    ({"chunk_size": None}, "chunk_size must be an integer, not None"),
    ({"max_atoms": "3"}, "max_atoms must be an integer, not '3'"),
    ({"max_atoms": True}, "max_atoms must be an integer, not True"),
    ({"threshold": "0.5"}, "threshold must be a number, not '0.5'"),
    ({"threshold": False}, "threshold must be a number, not False"),
    ({"threshold": 2}, "threshold must lie in [0, 1], not 2"),
    ({"max_atoms": 64}, "max_atoms must be at most 20"),
])
def test_wrong_typed_override_is_bad_request(overrides, message):
    line = json.dumps(le_request("a", "A ∧ B", "A ∧ B", overrides=overrides))
    assert handle_line(line, CONFIG).error == {"code": BAD_REQUEST, "message": f"bad overrides: {message}"}


def test_integer_threshold_override_is_a_number():
    response = handle_request(parse_request(le_request("a", "P(x)", "P(x)", overrides={"threshold": 1})), CONFIG)
    assert response.score == 1.0


def test_infinite_override_is_bad_request():
    line = json.dumps(le_request("a", "A", "A", overrides={"max_atoms": float("inf")}))
    assert handle_line(line, CONFIG).error["code"] == BAD_REQUEST


def test_bleu_pair_rescaled_to_unit_interval():
    response = handle_request(
        parse_request({"id": "b", "op": "bleu_pair",
                       "prediction": "P ( x ) ∧ Q ( x )", "reference": "P ( x ) ∨ Q ( x )"}),
        CONFIG,
    )
    assert response.score == pytest.approx(0.596949, abs=1e-5)


def test_bleu_pair_over_the_token_cap_is_cap_exceeded():
    """A ``bleu_pair`` text of more than ``MAX_TOKENS`` BLEU tokens, on
    either side, answers ``CAP_EXCEEDED`` with the token cap's message
    before any n-gram is counted; one at the cap is scored."""
    long = "P(x) ∧ Q(x, y) ∨ " * 100000  # 2.1 MB, 1,200,000 BLEU tokens
    at_cap = " ".join(["P"] * MAX_TOKENS)  # longer than the cap, so it is tokenized
    assert len(tokenize_formula(at_cap)) == MAX_TOKENS < len(at_cap)
    for prediction, reference in ((long, "P(x) ∧ Q(x, y)"), ("P(x) ∧ Q(x, y)", long)):
        line = json.dumps({"id": "big", "op": "bleu_pair", "prediction": prediction, "reference": reference})
        assert handle_line(line, CONFIG).error == {
            "code": CAP_EXCEEDED,
            "message": f"formula has 1200000 tokens (cap {MAX_TOKENS})",
        }
    with_one_more = {"id": "b", "op": "bleu_pair", "prediction": at_cap + " P", "reference": "P"}
    assert handle_line(json.dumps(with_one_more), CONFIG).error["message"] == (
        f"formula has {MAX_TOKENS + 1} tokens (cap {MAX_TOKENS})"
    )
    response = handle_line(json.dumps({"id": "b", "op": "bleu_pair", "prediction": at_cap, "reference": at_cap}), CONFIG)
    assert response.score == 1.0


def test_responses_match_direct_library_calls():
    cases = [("A → B", "¬A ∨ B"), ("P(a) ∧ Q(a)", "P(a)"), ("A ⊕ B", "A ↔ B")]
    for i, (pred, ref) in enumerate(cases):
        response = handle_request(parse_request(le_request(str(i), pred, ref)), CONFIG)
        direct = le_score(pred, ref, mode="optimized")
        assert response.score == direct.score
        assert response.detail == direct.to_dict()


def test_service_is_stateless():
    line = json.dumps(le_request("same", "A ∧ B", "B ∧ A"))
    first = handle_line(line, CONFIG).to_json()
    second = handle_line(line, CONFIG).to_json()
    assert first == second


# Any character, with lone surrogates, escapes and non-ASCII text drawn often.
_WIRE_TEXT = st.text(
    st.one_of(st.characters(), st.characters(categories=("Cs",)), st.sampled_from('"\\\x00\x7f\u2028é∧¬∀')),
    max_size=12,
)
_WIRE_FLOAT = st.one_of(
    st.sampled_from([0.0, 1.0, 5e-324, 1e-300, 2.2250738585072014e-308, 1e-07]),
    st.floats(0.0, 1.0),
)
_DETAIL = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), _WIRE_FLOAT, _WIRE_TEXT),
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(_WIRE_TEXT, inner, max_size=3)),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None)
@given(
    _WIRE_TEXT,
    st.one_of(
        st.tuples(_WIRE_FLOAT, st.none() | st.dictionaries(_WIRE_TEXT, _DETAIL, max_size=4), st.none()),
        st.tuples(st.none(), st.none(), st.fixed_dictionaries({"code": _WIRE_TEXT, "message": _WIRE_TEXT})),
    ),
)
@example("r\ud800", (None, None, {"code": "INTERNAL", "message": "\udfff é ∧ \x00"}))
@example("∀", (1e-300, {"warning": "unparseable prediction: ¬ \ud83d"}, None))
@example("a", (0.0, None, None))
def test_response_json_is_json_dumps_of_its_body(rid, outcome):
    """``to_json`` writes what ``json.dumps(body, ensure_ascii=False)``
    writes for a score, detail or error body: non-ASCII text as it is, a
    lone surrogate as it is, and every float by its repr."""
    score, detail, error = outcome
    body: dict = {"id": rid}
    if error is not None:
        body["error"] = error
    else:
        body["score"] = score
        if detail is not None:
            body["detail"] = detail
    response = ScoreResponse(id=rid, score=score, detail=detail, error=error)
    assert response.to_json() == json.dumps(body, ensure_ascii=False)


def test_response_requires_exactly_one_outcome():
    with pytest.raises(ValueError):
        ScoreResponse(id="x")
    with pytest.raises(ValueError):
        ScoreResponse(id="x", score=1.0, error={"code": "INTERNAL", "message": ""})


# --- line loop ------------------------------------------------------------------------

def test_malformed_line_gets_synthetic_id():
    response = handle_line("{not json", CONFIG)
    assert response.id == "?"
    assert response.error["code"] == BAD_REQUEST


def test_bad_request_keeps_caller_id_when_present():
    response = handle_line(json.dumps({"id": "keep-me", "op": "teleport"}), CONFIG)
    assert response.id == "keep-me"
    assert response.error["code"] == BAD_REQUEST


def test_shutdown_line_returns_none():
    assert handle_line(json.dumps({"op": "shutdown"}), CONFIG) is None


def test_serve_stream_loop():
    lines = [
        json.dumps(le_request("r1", "A ∧ B", "B ∧ A")),
        "",  # blank and whitespace-only lines get no reply
        " \t ",
        "garbage",
        json.dumps(le_request("r2", "¬¬A", "A")),
        json.dumps({"op": "shutdown"}),
        json.dumps(le_request("r3", "A", "A")),  # after shutdown: never processed
    ]
    out = io.StringIO()
    serve(io.StringIO("\n".join(lines) + "\n"), out)
    responses = [json.loads(line) for line in out.getvalue().splitlines()]
    assert [r["id"] for r in responses] == ["r1", "?", "r2"]
    assert responses[0]["score"] == 1.0
    assert responses[1]["error"]["code"] == BAD_REQUEST
    assert responses[2]["score"] == 1.0


def test_serve_stops_at_eof():
    out = io.StringIO()
    serve(io.StringIO(json.dumps(le_request("only", "A", "A")) + "\n"), out)
    responses = out.getvalue().splitlines()
    assert len(responses) == 1


def test_serve_id_bijection_under_pipelining():
    n = 60
    lines = [json.dumps(le_request(f"req-{i}", "A ∧ B", "B ∧ A")) for i in range(n)]
    out = io.StringIO()
    serve(io.StringIO("\n".join(lines) + "\n"), out)
    got = [json.loads(line)["id"] for line in out.getvalue().splitlines()]
    assert sorted(got) == sorted(f"req-{i}" for i in range(n))
    assert len(set(got)) == n


# --- socket transport --------------------------------------------------------------------

def start_socket_service(path):
    """Run ``serve_socket(path)`` on a thread; return it and a connected client."""
    thread = threading.Thread(target=serve_socket, args=(path,), daemon=True)
    thread.start()
    for _ in range(100):
        client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            client.connect(path)
            return thread, client
        except (FileNotFoundError, ConnectionRefusedError):
            client.close()
            time.sleep(0.02)
    pytest.fail("service socket never came up")


def test_serve_socket_round_trip(tmp_path):
    path = str(tmp_path / "scoring.sock")
    thread, client = start_socket_service(path)
    with client:
        writer = client.makefile("w", encoding="utf-8", newline="\n")
        reader = client.makefile("r", encoding="utf-8", newline="\n")
        writer.write(json.dumps(le_request("s1", "A → B", "¬A ∨ B")) + "\n")
        writer.write(json.dumps(le_request("s2", "A", "¬A")) + "\n")
        writer.flush()
        first = json.loads(reader.readline())
        second = json.loads(reader.readline())
        writer.write(json.dumps({"op": "shutdown"}) + "\n")
        writer.flush()
    thread.join(timeout=5)
    assert not thread.is_alive()
    assert first == {"id": "s1", "score": 1.0, "detail": first["detail"]}
    assert first["score"] == 1.0
    assert second["id"] == "s2" and second["score"] == 0.0


def test_serve_socket_drops_a_silent_client_and_serves_the_next(tmp_path, monkeypatch):
    monkeypatch.setattr(service, "_READ_TIMEOUT_S", 0.3)
    path = tmp_path / "scoring.sock"
    thread, silent = start_socket_service(str(path))
    second = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    second.settimeout(10)
    with silent, second, second.makefile("r", encoding="utf-8", newline="\n") as reader:
        second.connect(str(path))
        second.sendall((json.dumps(le_request("t1", "A ∧ B", "B ∧ A")) + "\n").encode())
        answer = json.loads(reader.readline())
        silent.settimeout(10)
        assert silent.recv(1) == b""  # the listener closed it
        second.sendall(b'{"op": "shutdown"}\n')
        thread.join(timeout=5)
    assert not thread.is_alive()
    assert not path.exists()
    assert answer["id"] == "t1" and answer["score"] == 1.0


def test_serve_socket_outlives_a_client_that_leaves_before_its_answer(tmp_path):
    path = tmp_path / "scoring.sock"
    thread, leaving = start_socket_service(str(path))
    chain = "(" + " ∧ ".join("ABCDEFGHIJKLMNOPA") + ")"  # 8,751 readings: slower than the close
    with leaving:
        leaving.sendall((json.dumps(le_request("gone", chain, chain)) + "\n").encode())
    second = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    second.settimeout(10)
    with second, second.makefile("r", encoding="utf-8", newline="\n") as reader:
        second.connect(str(path))
        second.sendall((json.dumps(le_request("t2", "A", "A")) + "\n").encode())
        answer = json.loads(reader.readline())
        second.sendall(b'{"op": "shutdown"}\n')
        thread.join(timeout=5)
    assert not thread.is_alive()
    assert not path.exists()
    assert answer["id"] == "t2" and answer["score"] == 1.0


# Lines that are not UTF-8, or that spell a lone surrogate as a JSON escape,
# with the answer each gets.
NOT_UTF8_LINES = [
    b'{"id": "a", "op": "le_score", "prediction": "A", "reference": "A \xff"}\n',
    b'{"id": "b", "op": "le_score", "prediction": "A \xff", "reference": "A"}\n',
    b"\xff\xfe\n",
    b'{"id": "\\ud800", "op": "le_score", "prediction": "A", "reference": "A"}\n',
]


def check_not_utf8_answers(answers):
    assert answers[0] == {
        "id": "a",
        "error": {"code": BAD_REQUEST, "message": "unparseable reference: unexpected character '\ufffd' (offset 2)"},
    }
    assert answers[1] == {
        "id": "b",
        "score": 0.0,
        "detail": {"warning": "unparseable prediction: unexpected character '\ufffd' (offset 2)"},
    }
    assert answers[2]["id"] == "?" and answers[2]["error"]["code"] == BAD_REQUEST
    assert answers[3]["id"] == "\ud800" and answers[3]["score"] == 1.0


def test_serve_socket_outlives_requests_that_are_not_utf8(tmp_path):
    path = tmp_path / "scoring.sock"
    thread, bad = start_socket_service(str(path))
    bad.settimeout(10)
    with bad, bad.makefile("rb") as reader:
        bad.sendall(b"".join(NOT_UTF8_LINES))
        answers = [json.loads(reader.readline()) for _ in NOT_UTF8_LINES]
    second = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    second.settimeout(10)
    with second, second.makefile("r", encoding="utf-8", newline="\n") as reader:
        second.connect(str(path))
        second.sendall((json.dumps(le_request("t3", "A", "A")) + "\n").encode())
        answer = json.loads(reader.readline())
        second.sendall(b'{"op": "shutdown"}\n')
        thread.join(timeout=5)
    assert not thread.is_alive()
    assert not path.exists()
    check_not_utf8_answers(answers)
    assert answer["id"] == "t3" and answer["score"] == 1.0


# A stream that starts with a UTF-8 byte-order mark, then a mark inside a
# later prediction and one before a later line, with the answer each gets.
BOM_LINES = [
    b"\xef\xbb\xbf" + json.dumps(le_request("a", "A", "A")).encode() + b"\n",
    json.dumps(le_request("b", "\ufeffA", "A"), ensure_ascii=False).encode() + b"\n",
    b"\xef\xbb\xbf" + json.dumps(le_request("c", "A", "A")).encode() + b"\n",
]


def check_bom_answers(answers):
    assert answers[0]["id"] == "a" and answers[0]["score"] == 1.0
    assert answers[1] == {
        "id": "b",
        "score": 0.0,
        "detail": {"warning": "unparseable prediction: unexpected character '\\ufeff' (offset 0)"},
    }
    assert answers[2]["id"] == "?" and answers[2]["error"]["code"] == BAD_REQUEST


def test_serve_socket_skips_a_byte_order_mark_at_the_start_only(tmp_path):
    path = tmp_path / "scoring.sock"
    thread, client = start_socket_service(str(path))
    client.settimeout(10)
    with client, client.makefile("rb") as reader:
        client.sendall(b"".join(BOM_LINES))
        answers = [json.loads(reader.readline()) for _ in BOM_LINES]
        client.sendall(b'{"op": "shutdown"}\n')
        thread.join(timeout=5)
    assert not thread.is_alive()
    check_bom_answers(answers)


def test_serve_socket_restarts_on_the_same_path(tmp_path):
    path = tmp_path / "scoring.sock"
    for _ in range(2):
        thread, client = start_socket_service(str(path))
        with client:
            client.sendall(b'{"op": "shutdown"}\n')
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert not path.exists()


def test_serve_reports_whether_shutdown_ended_it():
    out = io.StringIO()
    assert serve(io.StringIO('{"op": "shutdown"}\n'), out) is True
    assert serve(io.StringIO(json.dumps(le_request("r1", "A", "A")) + "\n"), out) is False


# --- configuration --------------------------------------------------------------------------

def test_config_from_mapping_applies_values():
    config = ServiceConfig.from_mapping(
        {"threshold": 0.4, "chunk_size": 3, "max_atoms": 8, "mode": "original", "bleu_smoothing": 0.01}
    )
    assert config.le.threshold == 0.4
    assert config.le.chunk_size == 3
    assert config.le.max_atoms == 8
    assert config.mode == "original"
    assert config.bleu.smoothing_floor == 0.01


def test_config_from_mapping_without_scoring_keys_keeps_the_defaults():
    assert ServiceConfig.from_mapping({"mode": "original"}).le is ServiceConfig().le


def test_the_scoring_settings_are_one_key_set():
    # A setting that no config file, flag or override can reach is a
    # constant, not a field: the fields, the config keys and the override
    # keys are one set.
    keys = {"threshold", "chunk_size", "max_atoms"}
    assert {field.name for field in dataclasses.fields(LeConfig)} == keys
    assert service._LE_KEYS == keys
    accepted = set()
    for key in keys | {"ngram_sizes", "similarity", "mode", "bleu_smoothing"}:
        try:
            parse_request(le_request("a", "A", "A", overrides={key: 1}))
            accepted.add(key)
        except ValueError:
            pass
    assert accepted == keys
    assert [field.name for field in dataclasses.fields(BleuConfig)] == ["smoothing_floor"]


def test_an_ngram_sizes_override_answers_as_before():
    line = json.dumps(le_request("x", "A", "A", overrides={"ngram_sizes": [2]}))
    assert handle_line(line, CONFIG).to_json() == (
        '{"id": "x", "error": {"code": "BAD_REQUEST", "message": "unknown override keys: [\'ngram_sizes\']"}}'
    )


def test_config_from_mapping_rejects_unknown_keys():
    with pytest.raises(ValueError):
        ServiceConfig.from_mapping({"threshold": 0.5, "volume": 11})


def test_config_rejects_unknown_mode():
    with pytest.raises(ValueError):
        ServiceConfig(mode="fastest")
