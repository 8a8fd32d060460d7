"""Print the extremes of the golden campaign configurations, run at more trials.

Each campaign command of tests/test_golden.py (CAMPAIGNS) runs through
cli.main with its trial count raised, by default to 2000, in a temporary
directory. From the JSON aggregate the campaign writes, one line per case
gives its violations, its largest duality_sum and its smallest
coherence_bound_margin (mixed_mixed only; "-" otherwise), psd_margin_min and
slack. Seeded output that moves on purpose is logged with these figures
before and after the move.

    python tools/campaign_extremes.py [TRIALS]

The package is imported from src/ next to this script's directory.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COLUMNS = ("case", "trials", "violations", "max_duality_sum", "min_coherence_bound_margin", "min_psd_margin",
           "min_slack")


def _golden_campaigns() -> dict[str, list[str]]:
    """The campaign command lines that tests/test_golden.py records digests of."""
    spec = importlib.util.spec_from_file_location("test_golden", ROOT / "tests" / "test_golden.py")
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    return golden.CAMPAIGNS


def extremes(command: list[str], trials: int) -> dict:
    """The aggregate of campaign `command` run through cli.main at `trials`
    trials, its output written to a temporary directory and its stdout
    discarded."""
    from duality_lab.cli import main

    argv = list(command)
    argv[argv.index("--trials") + 1] = str(trials)
    with tempfile.TemporaryDirectory() as tmp:
        argv[argv.index("--output") + 1] = str(Path(tmp) / "run")
        with contextlib.redirect_stdout(io.StringIO()):
            main(argv)
        return json.loads((Path(tmp) / "run.json").read_text(encoding="utf-8"))


def main(argv: list[str]) -> int:
    trials = int(argv[0]) if argv else 2000
    print(" ".join(COLUMNS))
    for case, command in _golden_campaigns().items():
        aggregate = extremes(command, trials)
        figures = [f"{aggregate[key]:.3e}" if key in aggregate else "-" for key in COLUMNS[3:]]
        print(case, aggregate["trials"], aggregate["violations"], *figures)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main(sys.argv[1:]))
