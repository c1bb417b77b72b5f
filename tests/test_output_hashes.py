"""``scripts/output_hashes.py --against`` names every output whose
digest differs from a saved listing, or that either side lacks, and
counts how many match and how many differ. The counts its docstring
states are the matrix's."""

import importlib.util
import re
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "output_hashes.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("output_hashes", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


hashes = _load_script()


def test_listing_round_trips():
    listing = "aa11  check-Dyadic-64-1.0/check.csv\nbb22  relax-Split-32-0.5/trajectory.csv\n"
    assert hashes.parse_listing(listing) == {
        "check-Dyadic-64-1.0/check.csv": "aa11",
        "relax-Split-32-0.5/trajectory.csv": "bb22",
    }


def test_mismatches_name_each_differing_or_missing_path():
    saved = {"a/x.csv": "1", "b/y.csv": "2", "c/z.csv": "3"}
    assert hashes.mismatches(dict(saved), saved) == []
    fresh = {"a/x.csv": "1", "b/y.csv": "9", "d/w.csv": "4"}
    assert hashes.mismatches(fresh, saved) == [
        "differs: b/y.csv",
        "missing: c/z.csv",
        "not in listing: d/w.csv",
    ]


def test_summary_counts_matching_and_differing_outputs():
    saved = {"a/x.csv": "1", "b/y.csv": "2", "c/z.csv": "3"}
    assert hashes.summary(dict(saved), saved) == "3 of 3 outputs match; 0 differ"
    fresh = {"a/x.csv": "1", "b/y.csv": "9", "d/w.csv": "4"}
    # One differing digest, one path missing, one not in the listing.
    assert hashes.summary(fresh, saved) == "1 of 4 outputs match; 3 differ"
    assert len(hashes.mismatches(fresh, saved)) == 3


def test_docstring_counts_the_runs_of_the_matrix():
    # Each run writes one CSV: the docstring's total and its per-command
    # counts must add up to the runs the script makes.
    configs = {name: f"{name}.yaml" for name in ("train", *hashes.DATASET_CONFIGS)}
    count = len(list(hashes.runs(configs)))
    doc = hashes.__doc__
    total = int(re.search(r"matrix of (\d+) output CSVs", doc).group(1))
    parts = [int(n) for n in re.findall(r"\((\d+) files\)", doc)]
    assert total == sum(parts) == count
    assert f" of {count} outputs match" in doc
