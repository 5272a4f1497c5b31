"""Line-delimited JSON scoring service.

One UTF-8 JSON object per line, LF terminated.  Requests carry the keys
id, op, prediction, reference, mode, overrides; responses carry id plus
either score (with optional detail) or error, never both.  Scores are
always inside [0, 1]; pair-level BLEU is divided by 100 before it goes
on the wire so every emitted reward shares that range.

The service is stateless: configuration is fixed at startup and each
request is scored independently, so identical requests produce identical
responses.  A scoring failure on the prediction side degrades to score
0.0 with a warning detail rather than an error, because a reward channel
that stalls its training loop is worse than one that reports a zero.
"""

from __future__ import annotations

import json
import socket
from dataclasses import dataclass, replace

from .corpus import BleuConfig, DEFAULT_BLEU, EvalPair, corpus_bleu
from .equivalence import DEFAULT_LE, LeConfig, compile_reference, le_score
from .similarity import SimilarityConfig
from .syntax import CapExceeded, ParseError
from .syntax import parse  # noqa: F401  (foleq.service.parse stays importable; perfbench wraps it)

OPS = ("le_score", "bleu_pair")
MODES = ("original", "optimized")

BAD_REQUEST = "BAD_REQUEST"
CAP_EXCEEDED = "CAP_EXCEEDED"
INTERNAL = "INTERNAL"


@dataclass(frozen=True)
class ServiceConfig:
    le: LeConfig = DEFAULT_LE
    bleu: BleuConfig = DEFAULT_BLEU
    mode: str = "optimized"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown scoring mode {self.mode!r}")

    @staticmethod
    def from_mapping(raw: dict) -> "ServiceConfig":
        """Build from a flat key-value mapping (the config-file format).
        Recognized keys: threshold, chunk_size, max_atoms, mode,
        ngram_sizes, bleu_smoothing."""
        unknown = set(raw) - {
            "threshold", "chunk_size", "max_atoms", "mode", "ngram_sizes", "bleu_smoothing",
        }
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        sim = SimilarityConfig(
            ngram_sizes=frozenset(raw.get("ngram_sizes", (2, 3))),
            threshold=float(raw.get("threshold", 0.6)),
        )
        le = LeConfig(
            similarity=sim,
            chunk_size=int(raw.get("chunk_size", DEFAULT_LE.chunk_size)),
            max_atoms=int(raw.get("max_atoms", DEFAULT_LE.max_atoms)),
        )
        bleu = BleuConfig(smoothing_floor=float(raw.get("bleu_smoothing", 0.0)))
        return ServiceConfig(le=le, bleu=bleu, mode=raw.get("mode", "optimized"))


@dataclass(frozen=True)
class ScoreRequest:
    id: str
    op: str
    prediction: str
    reference: str
    mode: str | None = None
    overrides: dict | None = None


@dataclass(frozen=True, eq=False)
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
        return json.dumps(body, ensure_ascii=False)


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
        unknown = set(overrides) - {"threshold", "chunk_size", "max_atoms"}
        if unknown:
            raise ValueError(f"unknown override keys: {sorted(unknown)}")
    return ScoreRequest(rid, op, prediction, reference, mode, overrides)


def _apply_overrides(config: ServiceConfig, overrides: dict | None) -> LeConfig:
    le = config.le
    if not overrides:
        return le
    if "threshold" in overrides:
        sim = replace(le.similarity, threshold=float(overrides["threshold"]))
        le = replace(le, similarity=sim)
    if "chunk_size" in overrides:
        le = replace(le, chunk_size=int(overrides["chunk_size"]))
    if "max_atoms" in overrides:
        le = replace(le, max_atoms=int(overrides["max_atoms"]))
    return le


def handle_request(req: ScoreRequest, config: ServiceConfig) -> ScoreResponse:
    """Score one request.  Stateless; never raises for request-level
    problems, returning an error response instead."""
    try:
        try:
            le_config = _apply_overrides(config, req.overrides)
        except (ValueError, TypeError) as exc:
            return _error(req.id, BAD_REQUEST, f"bad overrides: {exc}")

        if req.op == "bleu_pair":
            pair = EvalPair(req.id, req.prediction, req.reference)
            value = corpus_bleu([pair], config.bleu) / 100.0
            return ScoreResponse(id=req.id, score=value)

        mode = req.mode or config.mode
        # a bad reference is a caller bug (hard error); a bad prediction is
        # model output (degrade to zero reward)
        try:
            reference = compile_reference(req.reference)
        except ParseError as exc:
            return _error(req.id, BAD_REQUEST, f"unparseable reference: {exc}")
        try:
            report = le_score(req.prediction, reference, mode=mode, config=le_config)
        except CapExceeded as exc:
            return _error(req.id, CAP_EXCEEDED, str(exc))
        except (ParseError, ValueError) as exc:
            return ScoreResponse(
                id=req.id, score=0.0, detail={"warning": f"unparseable prediction: {exc}"}
            )
        return ScoreResponse(id=req.id, score=report.score, detail=report.to_dict())
    except Exception as exc:  # pragma: no cover - defensive catch-all
        return _error(req.id, INTERNAL, f"{type(exc).__name__}: {exc}")


def handle_line(line: str, config: ServiceConfig) -> ScoreResponse | None:
    """Process one wire line.  Returns None for a shutdown request."""
    try:
        raw = json.loads(line)
    except json.JSONDecodeError as exc:
        return _error("?", BAD_REQUEST, f"malformed JSON: {exc}")
    if isinstance(raw, dict) and raw.get("op") == "shutdown":
        return None
    try:
        req = parse_request(raw)
    except ValueError as exc:
        rid = raw.get("id") if isinstance(raw, dict) and isinstance(raw.get("id"), str) else "?"
        return _error(rid or "?", BAD_REQUEST, str(exc))
    return handle_request(req, config)


def serve(in_stream, out_stream, config: ServiceConfig | None = None) -> None:
    """Serve newline-delimited JSON until a shutdown request or EOF.
    A shutdown request gets no response; malformed lines get a BAD_REQUEST
    with synthetic id \"?\" and the loop continues."""
    config = config or ServiceConfig()
    for line in in_stream:
        if not line.strip():
            continue
        response = handle_line(line, config)
        if response is None:
            break
        out_stream.write(response.to_json() + "\n")
        out_stream.flush()


def serve_socket(path: str, config: ServiceConfig | None = None) -> None:
    """Accept one Unix-socket connection at a time and run the line loop on
    it.  A shutdown request closes the connection and stops the listener."""
    config = config or ServiceConfig()
    listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        listener.bind(path)
        listener.listen(1)
        while True:
            conn, _ = listener.accept()
            with conn:
                reader = conn.makefile("r", encoding="utf-8", newline="\n")
                writer = conn.makefile("w", encoding="utf-8", newline="\n")
                shut_down = False
                for line in reader:
                    if not line.strip():
                        continue
                    response = handle_line(line, config)
                    if response is None:
                        shut_down = True
                        break
                    writer.write(response.to_json() + "\n")
                    writer.flush()
            if shut_down:
                break
    finally:
        listener.close()
