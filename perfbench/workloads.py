"""The benchmark workloads and their known answers.

Each workload has a set-up, which writes its inputs and temp dirs, and a
pass: the timed calls into slimfork followed by the check of every
verdict against a known answer. An operation is one CLI or library call;
it fails when it raises, exits with a status other than 0, or returns a
verdict that differs from the known answer.

The known answers use only facts that do not depend on the byte format
of canonical keys: class counts, classes per fork count, claim tallies,
exit status, notes and the grid shapes of unforked witnesses. Key
digests and the witness scripts of forked classes are not pinned,
because the merge breaks ties between isomorphic candidates by key.
"""

from __future__ import annotations

import json
import random
import sys
import traceback
from collections import Counter
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from io import StringIO
from pathlib import Path

CLAIMS = ("p1", "p2", "prime_ideals", "not_c3")


@dataclass
class Tally:
    """Operations attempted and failed, and classes handled, in one pass."""

    attempted: int = 0
    failed: int = 0
    classes: int = 0
    problems: list = field(default_factory=list)

    def op(self, label: str, call) -> None:
        """Run one operation; ``call`` returns a list of mismatches."""
        self.attempted += 1
        try:
            mismatches = call()
        except Exception:  # any crash of the program is a failed operation
            traceback.print_exc(file=sys.stderr)
            mismatches = ["raised"]
        if mismatches:
            self.failed += 1
            self.problems.extend(f"{label}: {m}" for m in mismatches)


def _cli(lib, argv: list) -> tuple[int, str]:
    buf = StringIO()
    with redirect_stdout(buf):
        code = lib.cli.main(argv)
    return code, buf.getvalue()


def _expect(mismatches: list, what: str, got, want) -> None:
    if got != want:
        mismatches.append(f"{what} is {got!r}, expected {want!r}")


class CampaignS:
    """`slimfork enumerate` on the acceptance campaign, in-process."""

    name = "campaign-S"
    ARGS = ["--pmax", "4", "--qmax", "4", "--max-forks", "3", "--max-elements", "40"]
    CLASSES = 842
    CLASSES_PER_FORKS = {0: 6, 1: 21, 2: 110, 3: 705}

    def setup(self, lib, tmp: Path, seed: int) -> dict:
        out = tmp / "out"
        out.mkdir(parents=True)
        return {"out": out}

    def run_pass(self, lib, state: dict, index: int) -> Tally:
        tally = Tally()
        out_dir = state["out"] / f"pass-{index}"

        def enumerate_and_check():
            code, stdout = _cli(lib, ["enumerate", *self.ARGS, "--out", str(out_dir)])
            bad: list = []
            _expect(bad, "exit status", code, 0)
            report = json.loads(stdout)
            _expect(bad, "family_size", report["family_size"], self.CLASSES)
            _expect(bad, "ok", report["ok"], True)
            _expect(bad, "counterexamples", report["counterexamples"], [])
            for claim in CLAIMS:
                want = {"checked": self.CLASSES, "passed": self.CLASSES, "failed": 0}
                _expect(bad, f"claim {claim}", report["claims"][claim], want)
            index_obj = json.loads((out_dir / "index.json").read_text(encoding="utf-8"))
            per_forks = Counter(c["forks"] for c in index_obj["classes"])
            _expect(bad, "classes per fork count", dict(per_forks), self.CLASSES_PER_FORKS)
            files = len(list((out_dir / "diagrams").iterdir()))
            _expect(bad, "diagram files", files, self.CLASSES)
            return bad

        tally.op("enumerate", enumerate_and_check)
        tally.classes = self.CLASSES
        return tally


class EnumM:
    """`enumerate_family` on the M family, no claims."""

    name = "enum-M"
    CLASSES = 6235
    CLASSES_PER_FORKS = {0: 6, 1: 21, 2: 110, 3: 705, 4: 5393}

    def setup(self, lib, tmp: Path, seed: int) -> dict:
        tmp.mkdir(parents=True)
        return {"seed": seed}

    def run_pass(self, lib, state: dict, index: int) -> Tally:
        tally = Tally()

        def enumerate_and_check():
            spec = lib.campaign.EnumSpec(4, 4, 4, 48)
            family = lib.campaign.enumerate_family(spec, shuffle_seed=state["seed"])
            bad: list = []
            _expect(bad, "classes", len(family), self.CLASSES)
            members = family.members()
            per_forks = Counter(entry.forks for entry in members)
            _expect(bad, "classes per fork count", dict(per_forks), self.CLASSES_PER_FORKS)
            oversized = sum(entry.diagram.n > spec.max_elements for entry in members)
            _expect(bad, "classes above 48 elements", oversized, 0)
            return bad

        tally.op("enumerate_family", enumerate_and_check)
        tally.classes = self.CLASSES
        return tally


def _chain(lib, k: int):
    return lib.diagram.build_diagram([[i + 1] for i in range(k - 1)] + [[]], name=f"chain-{k}")


def _boolean(lib, k: int):
    upper = [[x | 1 << b for b in range(k) if not x >> b & 1] for x in range(1 << k)]
    return lib.diagram.build_diagram(upper, name=f"boolean-{k}")


class SearchBatch:
    """Seven `slimfork search` calls against the 137-class family."""

    name = "search-batch"
    ARGS = ["--pmax", "4", "--qmax", "4", "--max-forks", "2"]
    FAMILY = 137
    CHAINS = (3, 5)
    BOOLEANS = (2, 3, 4, 5, 6)

    @staticmethod
    def grid_shapes(k: int) -> set:
        """Grids p x q (p <= q) inside the 4 x 4 bound whose Con is B_k."""
        return {(p, q) for p in range(2, 5) for q in range(p, 5) if p + q - 2 == k}

    def setup(self, lib, tmp: Path, seed: int) -> dict:
        tmp.mkdir(parents=True)
        targets = []
        for k in self.CHAINS:
            targets.append((tmp / f"chain-{k}.json", ("chain", k)))
            lib.io.save(_chain(lib, k), targets[-1][0])
        for k in self.BOOLEANS:
            targets.append((tmp / f"boolean-{k}.json", ("boolean", k)))
            lib.io.save(_boolean(lib, k), targets[-1][0])
        random.Random(seed).shuffle(targets)
        return {"targets": targets}

    def run_pass(self, lib, state: dict, index: int) -> Tally:
        tally = Tally()
        for path, (kind, k) in state["targets"]:
            def search_and_check(path=path, kind=kind, k=k):
                code, stdout = _cli(lib, ["search", str(path), *self.ARGS])
                bad: list = []
                _expect(bad, "exit status", code, 0)
                result = json.loads(stdout)
                if kind == "chain":
                    _expect(bad, "witnesses", result["witnesses"], [])
                    _expect(bad, "note", result["note"], "single dual atom")
                    _expect(bad, "scanned", result["scanned"], 0)
                    return bad
                _expect(bad, "scanned", result["scanned"], self.FAMILY)
                steps = [w["steps"] for w in result["witnesses"]]
                _expect(bad, "witness steps", steps, [[]] * len(steps))
                shapes = [tuple(sorted(w["grid"])) for w in result["witnesses"]]
                _expect(bad, "witness grids", sorted(shapes), sorted(self.grid_shapes(k)))
                tally.classes += result["scanned"]
                return bad

            tally.op(f"search {path.name}", search_and_check)
        return tally


WORKLOADS = {w.name: w for w in (CampaignS(), EnumM(), SearchBatch())}
