"""Operation records, the correctness gate and the end-to-end metrics.

Every operation is timed and then checked.  A produced document must
contain no JSON float and must carry the same digest every time the same
input is produced.  A verification must give the expected verdict; for a
negative control (a mutated, re-digested document) that verdict is a
rejection.  Any miss makes the operation a failed one.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field


class FloatFound(ValueError):
    pass


def _reject_float(text: str):
    raise FloatFound(text)


def has_float(text: str) -> bool:
    """True when the JSON text holds a float, NaN or infinity anywhere."""
    try:
        json.loads(text, parse_float=_reject_float, parse_constant=_reject_float)
    except FloatFound:
        return True
    return False


def _bump_int(value, by: int = 1):
    """Add to an int that the document may hold as a decimal string (beyond 2^53)."""
    return str(int(value) + by) if isinstance(value, str) else value + by


def _scale_int(value, factor: int):
    return str(int(value) * factor) if isinstance(value, str) else value * factor


def _bump_delta(cert):
    cert["delta"][0] = _bump_int(cert["delta"][0])


def _bump_m(cert):
    cert["M"] = _bump_int(cert["M"])


def _bump_residue(cert):
    cert["residues"][0] = _bump_int(cert["residues"][0])


def _fail_recorded_check(cert):
    cert["checks"][sorted(cert["checks"])[0]] = False


def _bump_b(cert):
    cert["b"][0] = _bump_int(cert["b"][0])


def _bump_prime(cert):
    cert["prime"] = _bump_int(cert["prime"], 2 * (cert["n"] + 1))


def _bump_bound(cert):
    bound = cert["rows"][0]["bound"]
    bound["num"] = str(int(bound["num"]) + 1)


def _scale_max_abelian_order(cert):
    cert["max_abelian_order"] = _scale_int(cert["max_abelian_order"], cert["p"])


def _perturb_form_entry(cert):
    row = cert["forms"][-1][0]
    row[1] = (int(row[1]) + 1) % cert["p"]


def _flip_certified(cert):
    cert["certified"] = not cert["certified"]


# Mutations each verifier must reject, by document kind.
MUTATIONS = {
    "construction": {
        "bump delta_1": _bump_delta,
        "bump M": _bump_m,
        "bump a root residue": _bump_residue,
        "fail a recorded check": _fail_recorded_check,
        "bump b_1": _bump_b,
    },
    "prime": {"bump the prime": _bump_prime},
    "lambda_table": {"bump a row bound": _bump_bound},
    "group": {"multiply max_abelian_order by p": _scale_max_abelian_order},
    "olshanskii": {"perturb a form entry": _perturb_form_entry, "flip certified": _flip_certified},
}


def mutate(text: str, mutation: str, certdoc) -> str:
    """Apply a named mutation and re-digest, so only the verifier's real checks can catch it."""
    doc = json.loads(text)
    MUTATIONS[doc["kind"]][mutation](doc["certificate"])
    doc["digest"] = certdoc.compute_digest(certdoc.document_digestable(doc))
    return certdoc.serialize_document(doc)


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples) at the highest percentile with at least ten samples beyond it.

    Below 21 samples that percentile would not be above the median, so the
    maximum is reported instead, as percentile 100.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count < 21:
        return ordered[-1], 100.0, count
    return ordered[count - 11], 100.0 * (count - 10) / count, count


@dataclass
class Op:
    label: str
    kind: str  # "produce" or "verify"
    seconds: float


@dataclass
class Ledger:
    """Everything one run measured: the operations of each pass and the gate's tallies."""

    passes: list[list[Op]] = field(default_factory=list)
    walls: list[float] = field(default_factory=list)
    gate: Counter = field(default_factory=Counter)
    failures: list[str] = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    tracer: object = None
    ops_started: int = 0

    def timed(self, fn):
        """Run fn once; returns (value, seconds, error text)."""
        if self.tracer is not None:
            self.tracer.op_id = self.ops_started
        self.ops_started += 1
        start = time.perf_counter()
        try:
            value, error = fn(), ""
        except Exception as exc:  # a failed operation is recorded, the run goes on
            value, error = None, f"{type(exc).__name__}: {exc}"
        return value, time.perf_counter() - start, error

    def record(self, label: str, kind: str, seconds: float, error: str) -> bool:
        self.passes[-1].append(Op(label, kind, seconds))
        if error:
            self.failures.append(f"{label}: {error}")
        return not error

    def check_document(self, key, text: str) -> str:
        """Gate a produced document; returns the reason it fails, or ""."""
        self.gate["documents"] += 1
        if has_float(text):
            self.gate["float_documents"] += 1
            return "document contains a JSON float"
        digest = json.loads(text)["digest"]
        if key not in self.digests:
            self.digests[key] = digest
            return ""
        self.gate["digest_repeats"] += 1
        if digest != self.digests[key]:
            self.gate["digest_mismatches"] += 1
            return f"digest {digest} differs from the first production {self.digests[key]}"
        return ""

    def produce(self, label: str, key, fn) -> str | None:
        """Time a producer that returns a serialized document, then gate the document."""
        text, seconds, error = self.timed(fn)
        if not error:
            error = self.check_document(key, text)
        return text if self.record(label, "produce", seconds, error) else None

    def verdict(self, label: str, accepted: bool | None, expect: bool, seconds: float, error: str = "") -> None:
        """Record a verification whose verdict was ``accepted``; controls expect a rejection."""
        counter = "verdicts" if expect else "controls"
        self.gate[counter] += 1
        if not error and accepted is not expect:
            error = "accepted a mutated document" if accepted else "rejected a valid document"
        if not error:
            self.gate[counter + "_ok"] += 1
        self.record(label, "verify", seconds, error)

    @property
    def attempted(self) -> int:
        return sum(len(ops) for ops in self.passes)

    def end_to_end(self) -> tuple[dict[str, float], tuple[float, int]]:
        """Medians over the passes; latencies pool every operation of every pass."""
        passes, walls = self.passes, self.walls
        latencies = [op.seconds for ops in passes for op in ops]
        tail_value, percentile, samples = tail(latencies)
        metrics = {
            "wall_s": statistics.median(walls),
            "produce_s": statistics.median(sum(o.seconds for o in ops if o.kind == "produce") for ops in passes),
            "verify_s": statistics.median(sum(o.seconds for o in ops if o.kind == "verify") for ops in passes),
            "op_p50_ms": 1000 * statistics.median(latencies),
            "op_tail_ms": 1000 * tail_value,
        }
        return metrics, (percentile, samples)
