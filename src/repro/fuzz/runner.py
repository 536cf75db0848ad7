"""The fuzzing loop: generate -> check -> shrink -> persist.

:func:`run_fuzz` drives a deterministic seeded campaign over all (or a
subset of) oracles, shrinks every failure with the delta-debugging
shrinker, and writes a JSON reproducer per failure into the corpus
directory.  :func:`replay_corpus` re-runs every stored reproducer —
the regression gate that keeps previously-found bugs fixed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from ..pg.model import PropertyGraph
from ..rdf.ntriples import parse_ntriples, serialize_ntriples
from ..shacl.parser import parse_shacl
from ..shacl.serializer import serialize_shacl
from .generators import FuzzCase, generate_case
from .oracles import ORACLES, Oracle
from .shrinker import shrink_case


@dataclass
class OracleFailure:
    """One property violation found during a campaign."""

    oracle: str
    case_index: int
    seed: int
    kind: str
    message: str
    shrunk_size: int | None = None
    reproducer: str | None = None

    def __str__(self) -> str:
        where = f" -> {self.reproducer}" if self.reproducer else ""
        size = (
            f" (shrunk to {self.shrunk_size} element(s))"
            if self.shrunk_size is not None
            else ""
        )
        return (
            f"[{self.oracle}] case {self.case_index} (seed {self.seed}, "
            f"{self.kind}): {self.message}{size}{where}"
        )


@dataclass
class FuzzReport:
    """Outcome of one :func:`run_fuzz` campaign."""

    seed: int
    cases: int
    checks: int = 0
    oracle_runs: dict[str, int] = field(default_factory=dict)
    failures: list[OracleFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _run_oracle(oracle: Oracle, case: FuzzCase) -> str | None:
    """Run one oracle; any escaping exception is a failure message."""
    try:
        return oracle.fn(case)
    except Exception as exc:  # noqa: BLE001 — crashes are counterexamples
        return f"oracle raised {type(exc).__name__}: {exc}"


def run_fuzz(
    seed: int = 0,
    cases: int = 100,
    oracle_names: list[str] | None = None,
    corpus_dir: str | Path | None = None,
    shrink_budget: int = 300,
    max_failures: int = 10,
) -> FuzzReport:
    """Run a deterministic fuzzing campaign.

    Args:
        seed: base seed; the same (seed, cases) pair replays identically.
        cases: number of generated cases.
        oracle_names: subset of :data:`ORACLES` to run (default: all).
        corpus_dir: where shrunk reproducers are written (skipped when
            None).
        shrink_budget: oracle re-runs allowed per shrink.
        max_failures: stop the campaign after this many failures.
    """
    selected = _select_oracles(oracle_names)
    report = FuzzReport(seed=seed, cases=cases)
    for index in range(cases):
        case = generate_case(seed, index)
        for oracle in selected:
            if case.kind not in oracle.kinds:
                continue
            report.checks += 1
            report.oracle_runs[oracle.name] = (
                report.oracle_runs.get(oracle.name, 0) + 1
            )
            message = _run_oracle(oracle, case)
            if message is None:
                continue
            failure = _handle_failure(
                oracle, case, index, message, corpus_dir, shrink_budget
            )
            report.failures.append(failure)
            if len(report.failures) >= max_failures:
                return report
    return report


def _select_oracles(oracle_names: list[str] | None) -> list[Oracle]:
    if oracle_names is None:
        return list(ORACLES.values())
    unknown = [name for name in oracle_names if name not in ORACLES]
    if unknown:
        raise ValueError(
            f"unknown oracle(s) {unknown}; available: {sorted(ORACLES)}"
        )
    return [ORACLES[name] for name in oracle_names]


def _handle_failure(
    oracle: Oracle,
    case: FuzzCase,
    index: int,
    message: str,
    corpus_dir: str | Path | None,
    shrink_budget: int,
) -> OracleFailure:
    shrunk = shrink_case(
        case,
        lambda candidate: _run_oracle(oracle, candidate) is not None,
        budget=shrink_budget,
    )
    final_message = _run_oracle(oracle, shrunk) or message
    failure = OracleFailure(
        oracle=oracle.name,
        case_index=index,
        seed=case.seed,
        kind=case.kind,
        message=final_message,
        shrunk_size=_case_size(shrunk),
    )
    if corpus_dir is not None:
        failure.reproducer = str(write_reproducer(shrunk, failure, corpus_dir))
    return failure


def _case_size(case: FuzzCase) -> int:
    if case.kind == "text":
        return len((case.text or "").splitlines())
    if case.kind == "pg":
        return case.pg.node_count() + case.pg.edge_count()
    return len(case.triples)


# --------------------------------------------------------------------- #
# Reproducer corpus
# --------------------------------------------------------------------- #

def write_reproducer(
    case: FuzzCase, failure: OracleFailure, corpus_dir: str | Path
) -> Path:
    """Persist a shrunk failing case as a JSON reproducer file."""
    corpus_dir = Path(corpus_dir)
    corpus_dir.mkdir(parents=True, exist_ok=True)
    payload: dict = {
        "oracle": failure.oracle,
        "kind": case.kind,
        "seed": case.seed,
        "note": case.note,
        "message": failure.message,
    }
    if case.schema is not None:
        payload["shacl"] = serialize_shacl(case.schema)
    if case.kind in ("valid", "mutated", "noise"):
        payload["ntriples"] = serialize_ntriples(case.triples)
    if case.pg is not None:
        payload["pg"] = {
            "nodes": [
                [node.id, sorted(node.labels), node.properties]
                for node in case.pg.nodes.values()
            ],
            "edges": [
                [edge.src, edge.dst, sorted(edge.labels), edge.properties]
                for edge in case.pg.edges.values()
            ],
        }
    if case.text is not None:
        payload["text"] = case.text
    path = corpus_dir / f"{failure.oracle}-{case.kind}-{case.seed}.json"
    path.write_text(
        json.dumps(payload, indent=2, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )
    return path


def load_reproducer(path: str | Path) -> tuple[FuzzCase, str]:
    """Load a reproducer file; returns ``(case, oracle_name)``."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    kind = payload["kind"]
    case = FuzzCase(kind=kind, seed=payload.get("seed", 0),
                    note=payload.get("note", ""))
    if "shacl" in payload:
        case.schema = parse_shacl(payload["shacl"])
    if "ntriples" in payload:
        case.triples = list(parse_ntriples(payload["ntriples"]))
    if "pg" in payload:
        pg = PropertyGraph()
        for node_id, labels, properties in payload["pg"]["nodes"]:
            pg.add_node(node_id, labels=labels, properties=properties)
        for src, dst, labels, properties in payload["pg"]["edges"]:
            pg.add_edge(src, dst, labels=labels, properties=properties)
        case.pg = pg
    if "text" in payload:
        case.text = payload["text"]
    return case, payload["oracle"]


def replay_corpus(corpus_dir: str | Path) -> list[OracleFailure]:
    """Re-run every reproducer in ``corpus_dir``; returns the failures."""
    corpus_dir = Path(corpus_dir)
    failures: list[OracleFailure] = []
    for index, path in enumerate(sorted(corpus_dir.glob("*.json"))):
        case, oracle_name = load_reproducer(path)
        oracle = ORACLES[oracle_name]
        message = _run_oracle(oracle, case)
        if message is not None:
            failures.append(
                OracleFailure(
                    oracle=oracle_name,
                    case_index=index,
                    seed=case.seed,
                    kind=case.kind,
                    message=f"{path.name}: {message}",
                    shrunk_size=_case_size(case),
                    reproducer=str(path),
                )
            )
    return failures
