"""Line-delimited JSON scoring service.

One UTF-8 JSON object per line, LF terminated.  Requests carry the keys
id, op, prediction, reference, mode, overrides; responses carry id plus
either score (with optional detail) or error, never both.  Scores are
always inside [0, 1]; pair-level BLEU is divided by 100 before it goes
on the wire so every emitted reward shares that range.

The service is stateless: configuration is fixed at startup and each
request is scored independently, so identical requests produce identical
responses.  :func:`handle_request` is the one place that decides between a
score, a zero and an error; the CLI scores a single pair through it too.
A prediction that fails to parse scores 0.0 with a warning detail, because
a reward channel that stalls its training loop is worse than one that
reports a zero, and a prediction over a cap answers ``CAP_EXCEEDED``, as
does a ``bleu_pair`` text of more than ``syntax.MAX_TOKENS`` BLEU tokens.  A
reference that fails to parse or is over the token cap is a caller bug and
answers ``BAD_REQUEST``, as does an override that raises ``chunk_size`` or
``max_atoms`` above the configured value.  Anything else answers
``INTERNAL``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields, replace

from .corpus import BleuConfig, DEFAULT_BLEU, EvalPair, JsonError, corpus_bleu, decode_json, tokenize_formula
from .equivalence import DEFAULT_LE, MODES, LeConfig, compile_reference, le_score
from .syntax import MAX_TOKENS, CapExceeded, FormulaError, ParseError, cap_tokens
from .syntax import parse  # noqa: F401  (foleq.service.parse stays importable; perfbench wraps it)

OPS = ("le_score", "bleu_pair")

BAD_REQUEST = "BAD_REQUEST"
CAP_EXCEEDED = "CAP_EXCEEDED"
INTERNAL = "INTERNAL"

# The config keys and wire overrides that set an ``LeConfig`` field.
_LE_KEYS = frozenset(field.name for field in fields(LeConfig))

# ``json.dumps(body, ensure_ascii=False)``, with its encoder built once.
_encode = json.JSONEncoder(ensure_ascii=False).encode

# Seconds a socket connection may stay silent (or leave a response unread)
# before it is closed, so that one idle client cannot hold the listener.
_READ_TIMEOUT_S = 10.0


def _le_config(raw: dict, base: LeConfig) -> LeConfig:
    """``base`` with the keys threshold, chunk_size and max_atoms of ``raw``
    applied; ``base`` itself when ``raw`` has none."""
    if not _LE_KEYS & raw.keys():
        return base
    return replace(
        base,
        threshold=_fraction(raw, "threshold", base.threshold),
        chunk_size=typed_value(raw, "chunk_size", int, "an integer", base.chunk_size),
        max_atoms=typed_value(raw, "max_atoms", int, "an integer", base.max_atoms),
    )


def typed_value(raw: dict, key: str, types, kind: str, default):
    """``raw[key]``, or ``default`` when ``raw`` has no ``key``.  A given
    value must be an instance of ``types`` and not a bool."""
    if key not in raw:
        return default
    value = raw[key]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ValueError(f"{key} must be {kind}, not {value!r}")
    return value


def _fraction(raw: dict, key: str, default: float) -> float:
    """``raw[key]`` as a float in [0, 1], or ``default`` when ``raw`` has
    no ``key``; compared before conversion, so no integer overflows."""
    value = typed_value(raw, key, (int, float), "a number", default)
    if not 0 <= value <= 1:  # nan fails too
        raise ValueError(f"{key} must lie in [0, 1], not {value!r}")
    return float(value)


@dataclass(frozen=True)
class ServiceConfig:
    le: LeConfig = DEFAULT_LE
    bleu: BleuConfig = DEFAULT_BLEU
    mode: str = "optimized"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {list(MODES)}, not {self.mode!r}")

    @staticmethod
    def from_mapping(raw: dict) -> "ServiceConfig":
        """Build from a flat key-value mapping (the config-file format).
        Recognized keys: threshold, chunk_size, max_atoms, mode and
        bleu_smoothing."""
        unknown = set(raw) - _LE_KEYS - {"mode", "bleu_smoothing"}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        bleu = BleuConfig(smoothing_floor=_fraction(raw, "bleu_smoothing", DEFAULT_BLEU.smoothing_floor))
        return ServiceConfig(le=_le_config(raw, DEFAULT_LE), bleu=bleu, mode=raw.get("mode", "optimized"))


@dataclass
class ScoreRequest:
    id: str
    op: str
    prediction: str
    reference: str
    mode: str | None = None
    overrides: dict | None = None


@dataclass(eq=False)
class ScoreResponse:
    id: str
    score: float | None = None
    detail: dict | None = None
    error: dict | None = None

    def __post_init__(self):
        if (self.score is None) == (self.error is None):
            raise ValueError("exactly one of score and error must be set")

    def to_json(self) -> str:
        body: dict = {"id": self.id}
        if self.error is not None:
            body["error"] = self.error
        else:
            body["score"] = self.score
            if self.detail is not None:
                body["detail"] = self.detail
        return _encode(body)


def _error(request_id: str, code: str, message: str) -> ScoreResponse:
    return ScoreResponse(id=request_id, error={"code": code, "message": message})


def parse_request(raw: dict) -> ScoreRequest:
    """Validate a decoded JSON object.  Raises ValueError on bad fields."""
    if not isinstance(raw, dict):
        raise ValueError("request must be a JSON object")
    rid = raw.get("id")
    if not isinstance(rid, str) or not rid:
        raise ValueError("id must be a non-empty string")
    op = raw.get("op")
    if op not in OPS:
        raise ValueError(f"op must be one of {list(OPS)}")
    prediction = raw.get("prediction")
    reference = raw.get("reference")
    if not isinstance(prediction, str) or not isinstance(reference, str):
        raise ValueError("prediction and reference must be strings")
    mode = raw.get("mode")
    if mode is not None and mode not in MODES:
        raise ValueError(f"mode must be one of {list(MODES)}")
    overrides = raw.get("overrides")
    if overrides is not None:
        if not isinstance(overrides, dict):
            raise ValueError("overrides must be an object")
        unknown = set(overrides) - _LE_KEYS
        if unknown:
            raise ValueError(f"unknown override keys: {sorted(unknown)}")
    return ScoreRequest(rid, op, prediction, reference, mode, overrides)


def _cap_bleu_tokens(text: str) -> None:
    """Raise ``cap_tokens``' ``CapExceeded`` for a ``bleu_pair`` text of more
    than ``MAX_TOKENS`` BLEU tokens (``tokenize_formula``).  A token is at
    least one character, so a text no longer than the cap is not tokenized."""
    if len(text) > MAX_TOKENS:
        count = len(tokenize_formula(text))
        if count > MAX_TOKENS:
            cap_tokens(count)


def handle_request(req: ScoreRequest, config: ServiceConfig) -> ScoreResponse:
    """Score one request.  Stateless; never raises for request-level
    problems, returning an error response instead."""
    try:
        try:
            le_config = config.le
            if req.overrides:
                le_config = _le_config(req.overrides, config.le)
                for key in ("chunk_size", "max_atoms"):
                    limit, value = getattr(config.le, key), getattr(le_config, key)
                    if limit is not None and value > limit:
                        raise ValueError(f"{key} {value} is above the service's {limit}")
        except (ValueError, TypeError, OverflowError) as exc:
            return _error(req.id, BAD_REQUEST, f"bad overrides: {exc}")

        if req.op == "bleu_pair":
            try:
                for text in (req.prediction, req.reference):
                    _cap_bleu_tokens(text)
            except CapExceeded as exc:
                return _error(req.id, CAP_EXCEEDED, str(exc))
            pair = EvalPair(req.id, req.prediction, req.reference)
            value = corpus_bleu([pair], config.bleu) / 100.0
            return ScoreResponse(id=req.id, score=value)

        mode = req.mode or config.mode
        try:
            reference = compile_reference(req.reference)
        except FormulaError as exc:
            return _error(req.id, BAD_REQUEST, f"unparseable reference: {exc}")
        try:
            report = le_score(req.prediction, reference, mode=mode, config=le_config)
        except CapExceeded as exc:
            return _error(req.id, CAP_EXCEEDED, str(exc))
        except ParseError as exc:
            return ScoreResponse(id=req.id, score=0.0, detail={"warning": f"unparseable prediction: {exc}"})
        return ScoreResponse(id=req.id, score=report.score, detail=report.to_dict())
    except Exception as exc:  # pragma: no cover - defensive catch-all
        return _error(req.id, INTERNAL, f"{type(exc).__name__}: {exc}")


def handle_line(line: str, config: ServiceConfig) -> ScoreResponse | None:
    """Process one wire line.  Returns None for a shutdown request."""
    try:
        raw = decode_json(line)
    except JsonError as exc:
        return _error("?", BAD_REQUEST, f"malformed JSON: {exc}")
    if isinstance(raw, dict) and raw.get("op") == "shutdown":
        return None
    try:
        req = parse_request(raw)
    except ValueError as exc:
        rid = raw.get("id") if isinstance(raw, dict) and isinstance(raw.get("id"), str) else "?"
        return _error(rid or "?", BAD_REQUEST, str(exc))
    return handle_request(req, config)


def serve(in_stream, out_stream, config: ServiceConfig | None = None) -> bool:
    """Serve newline-delimited JSON until a shutdown request or EOF, and
    return whether a shutdown request ended it.  A shutdown request gets no
    response; malformed lines get a BAD_REQUEST with synthetic id \"?\" and
    the loop continues."""
    config = config or ServiceConfig()
    for line in in_stream:
        if not line.strip():
            continue
        response = handle_line(line, config)
        if response is None:
            return True
        out_stream.write(response.to_json() + "\n")
        out_stream.flush()
    return False


class BindError(OSError):
    """:func:`serve_socket` could not bind its path, which it leaves as it
    found it (it may be a live server's socket)."""


def serve_socket(path: str, config: ServiceConfig | None = None) -> None:
    """Accept one Unix-socket connection at a time and run :func:`serve` on
    it.  A byte-order mark at the start of a connection is skipped, bytes
    that are not UTF-8 are read as U+FFFD, so they get the answer any other
    bad text gets, and a lone surrogate that a request spelled as a JSON
    escape is written back as that escape.  A connection silent for
    ``_READ_TIMEOUT_S`` seconds, or closed by its client before it reads its
    answers, is closed and the listener accepts the next one.  A shutdown
    request closes the connection and stops the listener, which then removes
    the socket file it bound.  A path that cannot be bound, because it
    exists or its directory does not, raises :class:`BindError`."""
    import socket  # the stdio service never needs it

    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as listener:
        try:
            listener.bind(path)
        except OSError as exc:
            raise BindError(*exc.args) from exc
        try:
            listener.listen(1)
            shut_down = False
            while not shut_down:
                conn, _ = listener.accept()
                conn.settimeout(_READ_TIMEOUT_S)
                try:
                    with (
                        conn,
                        conn.makefile("r", encoding="utf-8-sig", errors="replace", newline="\n") as reader,
                        conn.makefile("w", encoding="utf-8", errors="backslashreplace", newline="\n") as writer,
                    ):
                        shut_down = serve(reader, writer, config)
                except (TimeoutError, ConnectionError):
                    pass  # only this connection ends; the listener goes on
        finally:
            os.unlink(path)
