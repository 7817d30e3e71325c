"""Correctness gate: every output of a pass is checked after the pass, outside
the timed region.  A wrong output counts as one failed operation; it does
not stop the run.

Byte digests are pinned in expected.json from the seed commit.  The LLL
transform in the verify report is left out of its digest because the LLL
search may change as long as its certificate stays exact; keys a later
version adds to the report are not pinned either.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import cases

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

# Keys of the CLI verify payload whose values are pinned ("transform" is not).
PINNED_VERIFY_KEYS = ("checks", "verdict", "det_cross_check")


def sha256(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def load_expected() -> dict:
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)


class Gate:
    """Counts operations and failures.  With ``expected=None`` it records the
    digests it sees instead of comparing them, which is how expected.json
    was made."""

    def __init__(self, expected: dict | None):
        self.expected = expected
        self.recorded: dict[str, dict[str, str]] = {}
        self.attempted = 0
        self.failures: list[dict] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def op(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append({"op": label, "problems": problems})

    def digest(self, kind: str, key: str, data: str | bytes) -> list[str]:
        got = sha256(data)
        if self.expected is None:
            self.recorded.setdefault(kind, {})[key] = got
            return []
        want = self.expected.get(kind, {}).get(key)
        if want is None:
            return [f"no pinned {kind} digest for {key!r}"]
        return [] if got == want else [f"{kind} output digest {got[:16]} != pinned {want[:16]}"]

    def pinned_text(self, kind: str, key: str, text: str) -> list[str]:
        if self.expected is None:
            self.recorded.setdefault(kind, {})[key] = text
            return []
        want = self.expected.get(kind, {}).get(key)
        return [] if text == want else [f"{kind} result {text!r} != pinned {want!r}"]

    # -- per-operation checks ------------------------------------------------

    def cli(self, command: str, key: str, rc: int, output: bytes | None, stdout: str, stderr: str = "") -> None:
        """One ``rotlat <command>`` invocation; ``output`` is the file it wrote."""
        problems = [] if rc == 0 else [f"exit code {rc}: {stderr[-400:]}"]
        if command == "verify":
            problems += self._verify_report(key, stdout)
        elif command == "feasibility":
            problems += self._feasibility_report(key, stdout)
        elif command == "table1":
            problems += self.digest("table1", "table1", stdout)
        elif output is None:
            problems.append("output file missing")
        else:
            problems += self.digest(command, key, output)
        self.op(f"{command} {key}", problems)

    def _verify_report(self, key: str, stdout: str) -> list[str]:
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return [f"verify output is not JSON: {exc}"]
        problems = [f"check {name} is {ok}" for name, ok in report.get("checks", {}).items() if ok is not True]
        if report.get("verdict") is not True:
            problems.append(f"verdict is {report.get('verdict')}")
        if report.get("det_cross_check", {}).get("equal") is not True:
            problems.append("det_cross_check.equal is not true")
        missing = [k for k in PINNED_VERIFY_KEYS if k not in report]
        if missing:
            return problems + [f"verify report lacks {missing}"]
        pinned = json.dumps({k: report[k] for k in PINNED_VERIFY_KEYS}, sort_keys=True)
        return problems + self.digest("verify", key, pinned)

    def _feasibility_report(self, key: str, text: str) -> list[str]:
        try:
            verdict = json.loads(text).get("verdict")
        except json.JSONDecodeError as exc:
            return [f"feasibility output is not JSON: {exc}"]
        problems = [] if verdict == cases.SURVEY_VERDICTS[key] else [
            f"verdict {verdict} != pinned {cases.SURVEY_VERDICTS[key]}"
        ]
        return problems + self.digest("feasibility", key, text)

    def feasibility(self, key: str, report_text: str | None) -> None:
        problems = ["no verdict"] if report_text is None else self._feasibility_report(key, report_text)
        self.op(f"feasibility {key}", problems)

    def table1(self, text: str | None) -> None:
        self.op("table1", ["no table"] if text is None else self.digest("table1", "table1", text))

    def ideal(self, key: str, is_ideal: bool, witness_problems: list[str]) -> None:
        want = key not in cases.OUTSIDE_PRODUCTS
        problems = [] if is_ideal is want else [f"is_ideal {is_ideal}, known {want}"]
        self.op(f"is_ideal {key}", problems + witness_problems)

    def membership(self, key: str, kind: str, expected: bool, got: bool) -> None:
        self.op(f"in_module {key} {kind}", [] if got is expected else [f"answered {got}, known {expected}"])

    def oracle(self, key: str, bound: int, text: str, confirmed: bool) -> None:
        problems = [] if confirmed else ["oracle did not confirm the minimum norm"]
        self.op(f"dp_closed_form {key} bound={bound}",
                problems + self.pinned_text("oracle", f"{key} bound={bound}", text))
