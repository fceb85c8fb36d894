"""The three workloads.  Each is one closed-loop client: it issues an operation,
waits for its result, checks it, and only then issues the next one.

A workload runs the same fixed batch of operations in every pass; the
runner repeats it a fixed number of passes and reports medians.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
import threading
from types import SimpleNamespace

import gate
import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
CONTROL_EVERY = 12  # certify-warm mutates every 12th document as a negative control

# What the installed console script runs.
CONSOLE_SCRIPT = "import sys; from pgroupcert.cli import main; sys.exit(main())"


def _library(*names: str) -> SimpleNamespace:
    return SimpleNamespace(**{name: importlib.import_module(f"pgroupcert.{name}") for name in names})


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


class Workload:
    name = ""
    in_process = True
    pass_seconds = 1.0  # a pass's typical length; sets how many passes fit in --seconds

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.inputs: dict = {}
        self.lib = SimpleNamespace()

    def setup(self) -> None:
        """Generate the inputs and import (and, where the workload says so, warm) the library."""
        self.inputs = inputs.generate(self.name, self.seed)

    def run_pass(self, ledger: gate.Ledger) -> None:
        raise NotImplementedError

    def verify_in_process(self, ledger: gate.Ledger, label: str, text: str, expect: bool) -> None:
        lib = self.lib
        report, seconds, error = ledger.timed(lambda: lib.verify.verify_document(lib.certdoc.parse_document(text)))
        ledger.verdict(label, None if error else report.ok, expect, seconds, error)


class CertifyWarm(Workload):
    """Hundreds of certify -> serialize -> parse -> verify_document round trips, warm tables."""

    name = "certify-warm"
    pass_seconds = 3.0

    def setup(self) -> None:
        super().setup()
        self.lib = _library("exterior", "solver", "certdoc", "verify")
        for n in range(1, 7):
            self.lib.exterior.atilde_table(n)
            for r in (1, 2):
                text = self.produce({"n": n, "r": r, "p": inputs.next_usable_prime(n, inputs.P_LOW), "lifts": "nonneg"})
                self.lib.verify.verify_document(self.lib.certdoc.parse_document(text))

    def produce(self, item: dict) -> str:
        lib = self.lib
        cert = lib.solver.certify(item["n"], item["r"], item["p"], lift=item["lifts"])
        doc = lib.certdoc.build_document(
            kind="construction",
            command="certify",
            params=dict(item),
            certificate=lib.certdoc.construction_payload(cert),
        )
        return lib.certdoc.serialize_document(doc)

    def run_pass(self, ledger: gate.Ledger) -> None:
        mutations = list(gate.MUTATIONS["construction"])
        for i, item in enumerate(self.inputs["certify"]):
            label = "#{i} n={n} r={r} p={p} {lifts}".format(i=i, **item)
            text = ledger.produce(f"certify {label}", tuple(item.values()), lambda: self.produce(item))
            if text is None:
                continue
            self.verify_in_process(ledger, f"verify {label}", text, True)
            if i % CONTROL_EVERY == 0:
                mutation = mutations[i // CONTROL_EVERY % len(mutations)]
                bad = gate.mutate(text, mutation, self.lib.certdoc)
                self.verify_in_process(ledger, f"control {mutation} {label}", bad, False)


class FormSearch(Workload):
    """olshanskii_search(4, 4, 3) -> product_subgroup_bound -> serialize -> verify_document."""

    name = "form-search"
    pass_seconds = 8.0  # without the negative controls, which only the first pass runs

    def setup(self) -> None:
        super().setup()
        self.lib = _library("products", "symplectic", "certdoc", "verify")
        self.controlled: set[bool] = set()  # whether untraced and traced passes ran the controls yet

    def produce(self, item: dict) -> str:
        lib = self.lib
        budget = lib.symplectic.DEFAULT_SUBSPACE_BUDGET
        attempts = lib.products.DEFAULT_SEARCH_ATTEMPTS
        spec = lib.products.olshanskii_search(item["n"], item["r"], item["p"], seed=item["seed"], budget=budget, attempts=attempts)
        bound = lib.products.product_subgroup_bound(spec, exact_budget=budget) if spec.certified else None
        doc = lib.certdoc.build_document(
            kind="olshanskii",
            command="olshanskii",
            params={**item, "budget": budget, "attempts": attempts},
            certificate=lib.certdoc.olshanskii_payload(spec, bound),
            seed=item["seed"],
        )
        return lib.certdoc.serialize_document(doc)

    def run_pass(self, ledger: gate.Ledger) -> None:
        for item in self.inputs["search"]:
            label = "n={n} r={r} p={p} seed={seed}".format(**item)
            text = ledger.produce(f"olshanskii {label}", tuple(item.values()), lambda: self.produce(item))
            if text is None:
                continue
            self.verify_in_process(ledger, f"verify {label}", text, True)
            # The controls repeat the same deterministic check in every pass, and
            # one of them costs a full enumeration; the first untraced and the
            # first traced pass run them, so the other passes time more searches.
            traced = ledger.tracer is not None
            if traced in self.controlled:
                continue
            self.controlled.add(traced)
            for mutation in gate.MUTATIONS["olshanskii"]:
                bad = gate.mutate(text, mutation, self.lib.certdoc)
                self.verify_in_process(ledger, f"control {mutation} {label}", bad, False)


def run_child(argv: list[str], stdout_path: str, timeout: float) -> tuple[int, int]:
    """Run one process to completion; returns (exit code, its peak RSS in KiB)."""
    with open(stdout_path, "w", encoding="utf-8") as out:
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


class CliCold(Workload):
    """Every operation is a fresh process of the command-line interface."""

    name = "cli-cold"
    in_process = False
    pass_seconds = 11.0
    timeout = 150.0

    def setup(self) -> None:
        super().setup()
        self.lib = _library("certdoc")  # to re-digest the negative controls
        self.peak_rss_kib = 0
        self.import_s: list[float] = []
        self.traced = False

    def cli(self, ledger: gate.Ledger, args: list[str]) -> tuple[int | None, float, str]:
        """Run one CLI command as a fresh process; returns (exit code, seconds, error)."""
        stdout_path = os.path.join(self.workdir, "stdout.txt")
        spans_path = os.path.join(self.workdir, "spans.json")
        if self.traced:
            argv = [sys.executable, os.path.join(HERE, "child.py"), spans_path, str(ledger.ops_started), *args]
        else:
            argv = [sys.executable, "-c", CONSOLE_SCRIPT, *args]
        result, seconds, error = ledger.timed(lambda: run_child(argv, stdout_path, self.timeout))
        if error:
            return None, seconds, error
        code, rss = result
        self.peak_rss_kib = max(self.peak_rss_kib, rss)
        if self.traced:
            try:
                record = json.loads(_read(spans_path))
                os.remove(spans_path)
            except (OSError, ValueError) as exc:
                return code, seconds, f"traced child left no spans: {exc}"
            self.import_s.append(record["import_s"])
            ledger.tracer.absorb(record)
        return code, seconds, ""

    def produce(self, ledger: gate.Ledger, label: str, key, args: list[str]) -> str | None:
        out = os.path.join(self.workdir, "doc.json")
        code, seconds, error = self.cli(ledger, [*args, "--out", out])
        if not error and code != 0:
            error = f"exit status {code}"
        if not error:
            text = _read(out)
            error = ledger.check_document(key, text)
        return text if ledger.record(label, "produce", seconds, error) else None

    def verify(self, ledger: gate.Ledger, label: str, text: str, expect: bool) -> None:
        path = os.path.join(self.workdir, "verify.json")
        _write(path, text)
        code, seconds, error = self.cli(ledger, ["verify", path])
        if not error and code not in (0, 1):
            error = f"exit status {code}"
        ledger.verdict(label, code == 0, expect, seconds, error)

    def run_pass(self, ledger: gate.Ledger) -> None:
        first = {}  # the first document of each command gets a negative control
        for name, items in self.inputs.items():
            command = name.replace("_", "-")
            for item in items:
                label = f"{command} " + " ".join(f"{key}={value}" for key, value in item.items())
                args = [command] + [part for key, value in item.items() for part in (f"--{key.replace('_', '-')}", str(value))]
                text = self.produce(ledger, label, (command, *item.values()), args)
                if text is not None:
                    self.verify(ledger, f"verify {label}", text, True)
                    first.setdefault(command, (label, text))
        for label, text in first.values():
            mutation = next(iter(gate.MUTATIONS[json.loads(text)["kind"]]))
            self.verify(ledger, f"control {mutation} {label}", gate.mutate(text, mutation, self.lib.certdoc), False)


WORKLOADS = {w.name: w for w in (CliCold, CertifyWarm, FormSearch)}
