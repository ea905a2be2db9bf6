"""Regenerate tests/integration/experiment_goldens.json.

Each entry pins one run of a registered experiment: the runner's
keyword arguments and the sha256 of its result's canonical JSON (sorted
keys, compact separators).  A golden is generated on the tree *before*
a change that must not move the experiment, then checked in; the test
in ``test_experiment_goldens.py`` re-runs the experiment and compares.
Regenerating an existing entry after a refactor would defeat that
check, so only run this to *add* experiments or runs (and diff the
result: existing digests must not change).

Usage, from the repository root::

    PYTHONPATH=src python tests/integration/gen_experiment_goldens.py [EXP_ID ...]

With no ids, every experiment in ``PINNED`` is (re)computed.
"""

import hashlib
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", ".."))

from repro.core.registry import get_experiment  # noqa: E402

GOLDENS_PATH = os.path.join(os.path.dirname(__file__),
                            "experiment_goldens.json")

#: Experiment id -> the runner keyword arguments of each pinned run.
#: E-FMS is pinned at one trial per cell (both key lengths, all six
#: sample counts) and E-VPNOH at a 4 s transfer instead of its default
#: 20 s, to keep the tier-1 suite fast; the others run at their
#: registered defaults, each in about a second or less.
PINNED = {
    "E-8021X": [{}],
    "E-CNN": [{}],
    "E-CSA": [{}],
    "E-DEAUTH": [{}],
    "E-DETECT": [{}],
    "E-DOWNGRADE": [{}],
    "E-FMS": [{"trials": 1}],
    "E-MAC": [{}],
    "E-NETSED": [{}],
    "E-PMF": [{}],
    "E-PROM": [{}],
    "E-VPNOH": [{"duration_s": 4.0}],
    "E-WEP": [{}],
    "E-WIDS": [{}],
    "E-WIRED": [{}],
    "FIG1": [{}],
    "FIG2": [{}],
    "FIG3": [{}],
    "X-CONTAIN": [{}],
    "X-PATH": [{}],
}

COMMENT = (
    "sha256 of the canonical JSON (sort_keys, compact separators, "
    "default=str) of each registered experiment's runner(**kwargs) "
    "result. Generated by gen_experiment_goldens.py on the tree before "
    "the change it guards; a changed digest means the experiment's "
    "result moved, not that the golden needs refreshing.")


def result_digest(result: dict) -> str:
    blob = json.dumps(result, sort_keys=True, separators=(",", ":"),
                      default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def run_digest(exp_id: str, kwargs: dict) -> str:
    return result_digest(get_experiment(exp_id).runner(**kwargs))


def main(argv) -> None:
    goldens = {"comment": COMMENT, "experiments": {}}
    if os.path.exists(GOLDENS_PATH):
        with open(GOLDENS_PATH) as fh:
            goldens["experiments"] = json.load(fh)["experiments"]
    for exp_id in argv or sorted(PINNED):
        goldens["experiments"][exp_id] = [
            {"kwargs": kwargs, "sha256": run_digest(exp_id, kwargs)}
            for kwargs in PINNED[exp_id]]
    with open(GOLDENS_PATH, "w") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(goldens['experiments'])} experiments to {GOLDENS_PATH}")


if __name__ == "__main__":
    main(sys.argv[1:])
