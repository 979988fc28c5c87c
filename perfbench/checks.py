"""Output checks applied to every measured ``dagranger run`` invocation.

A record is valid when it parses, names a candidate pair id once, carries
that pair's x and y names, and, for dagranger, has a finite ``f_stat`` or at
least one flag. Records that a failed check makes untrustworthy count as
failed: all of them when the exit code is not 0, and all dagranger records
when the AUPRC differs from the expected value: the one recorded for the seed,
or else the one of the run's first invocation.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

METHODS = ("dagranger", "pearson", "pseudocell", "var_granger")  # score file suffixes


@dataclass
class CheckResult:
    attempted: int
    valid: int = 0
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.problems


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _valid_records(path: Path, method: str, candidates, problems: list[str]) -> int:
    """Number of candidate pairs with exactly one record, and that record valid."""
    records_of: dict[int, list[bool]] = {}
    bad = 0
    lines = path.read_text(encoding="utf-8").splitlines()
    for lineno, line in enumerate(lines, start=1):
        known = ok = False
        try:
            rec = json.loads(line)
            pid = rec["pair_id"]
            known = isinstance(pid, int) and 0 <= pid < len(candidates)
            ok = (
                known
                and (rec["x_name"], rec["y_name"]) == candidates[pid]
                and isinstance(rec["score"], (int, float))
            )
            if ok and method == "dagranger":
                ok = math.isfinite(rec["f_stat"]) or bool(rec["flags"])
        except (ValueError, KeyError, TypeError):
            pass
        if known:
            records_of.setdefault(pid, []).append(ok)
        if not ok:
            bad += 1
            if bad <= 3:
                problems.append(f"{path.name}:{lineno}: invalid record")
    if len(lines) != len(candidates):
        problems.append(f"{path.name}: {len(lines)} records for {len(candidates)} candidate pairs")
    return sum(flags == [True] for flags in records_of.values())


def check_run(outdir, candidates, exit_code: int, auprc, expected_auprc) -> CheckResult:
    """Check one invocation's score files; ``expected_auprc`` None means none is known."""
    outdir = Path(outdir)
    n = len(candidates)
    result = CheckResult(attempted=n * len(METHODS))
    if exit_code != 0:
        result.problems.append(f"dagranger run exited with code {exit_code}")
        return result
    for method in METHODS:
        path = outdir / f"scores_{method}.jsonl"
        if not path.is_file():
            result.problems.append(f"{path.name} is missing")
            continue
        result.digests[path.name] = _sha256(path)
        valid = _valid_records(path, method, candidates, result.problems)
        if method == "dagranger" and expected_auprc is not None and auprc != expected_auprc:
            result.problems.append(
                f"auprc_dagranger {auprc!r} differs from the expected {expected_auprc!r}")
            valid = 0
        result.valid += valid
    return result
