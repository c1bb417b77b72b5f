"""Write a fixed matrix of 31 output CSVs through the CLI and print their SHA-256.

Usage (from a checkout's root):

    PYTHONPATH=src python scripts/output_hashes.py OUT_DIR [--against LISTING]

The matrix covers every CLI subcommand that writes numbers:

- ``check`` (5 trials) and ``relax`` for Dyadic and Split at eta 1.0
  and 0.5, precision 64 and 32 (16 files);
- ``sweep`` (3 trials at eta 0.25, 0.5, 1.0) for the same two methods
  at both precisions (4 files);
- ``train`` on a small two-moons net (widths 16, 16, 16, 2; 2 epochs,
  200 samples, eta 0.5, k_max 400) for Dyadic, Split, TwoL and BP at
  both precisions (8 files);
- ``gen-data`` for TwoMoons (2 classes), Spirals (3 classes) and
  GaussianBlobs (4 classes), 200 samples each (3 files).

Each line reads ``sha256  path`` with the path relative to OUT_DIR.
Save the listing of one checkout and pass it as ``--against LISTING``
when running another: the script then prints, instead of the listing,
each path whose digest differs or that is missing on either side, then
a count such as ``25 of 31 outputs match; 6 differ``, and exits 1 if
any differs. The imported package location and the CLI's own messages
go to standard error.
"""

import argparse
import contextlib
import hashlib
import sys
from pathlib import Path
from typing import Optional

import dyadicbp
from dyadicbp.cli import main

METHODS = ("Dyadic", "Split")
TRAIN_METHODS = METHODS + ("TwoL", "BP")
PRECISIONS = ("64", "32")
TRAIN_CONFIG = """\
network:
  widths: [16, 16, 16, 2]
relax:
  eta: 0.5
  k_max: 400
optimizer:
  epochs: 2
dataset:
  n_samples: 200
"""

# The gen-data config of each synthetic dataset kind.
DATASET_CONFIGS = {
    "TwoMoons": "dataset:\n  kind: TwoMoons\n  n_samples: 200\n",
    "Spirals": "dataset:\n  kind: Spirals\n  n_samples: 200\n  classes: 3\n",
    "GaussianBlobs": "dataset:\n  kind: GaussianBlobs\n  n_samples: 200\n  classes: 4\n",
}


def config_files(out: Path) -> dict[str, str]:
    """Write each YAML config of the matrix into ``out``; {name: path}."""
    texts = {"train": TRAIN_CONFIG, **DATASET_CONFIGS}
    paths = {}
    for name, text in texts.items():
        path = out / f"{name}.yaml"
        path.write_text(text)
        paths[name] = str(path)
    return paths


def runs(configs: dict[str, str]):
    """(subdirectory, CLI arguments) of each run in the matrix, given the
    paths of ``config_files``."""
    for method in METHODS:
        for prec in PRECISIONS:
            for eta in ("1.0", "0.5"):
                common = ["--method", method, "--precision", prec, "--eta", eta]
                yield f"check-{method}-{prec}-{eta}", ["check", "--trials", "5", *common]
                yield f"relax-{method}-{prec}-{eta}", ["relax", *common]
            sweep = ["sweep", "--method", method, "--precision", prec]
            yield f"sweep-{method}-{prec}", [*sweep, "--etas", "0.25,0.5,1.0", "--trials", "3"]
    for method in TRAIN_METHODS:
        for prec in PRECISIONS:
            args = ["train", "--config", configs["train"], "--method", method, "--precision", prec]
            yield f"train-{method}-{prec}", args
    for kind in DATASET_CONFIGS:
        yield f"gen-data-{kind}", ["gen-data", "--config", configs[kind]]


def parse_listing(text: str) -> dict[str, str]:
    """{path: sha256} of a listing this script printed."""
    digests = {}
    for line in text.splitlines():
        if line.strip():
            digest, path = line.split(maxsplit=1)
            digests[path] = digest
    return digests


def mismatches(fresh: dict[str, str], saved: dict[str, str]) -> list[str]:
    """One line per path that differs between two {path: sha256} maps."""
    lines = []
    for path in sorted(fresh.keys() | saved.keys()):
        if path not in saved:
            lines.append(f"not in listing: {path}")
        elif path not in fresh:
            lines.append(f"missing: {path}")
        elif fresh[path] != saved[path]:
            lines.append(f"differs: {path}")
    return lines


def summary(fresh: dict[str, str], saved: dict[str, str]) -> str:
    """How many of the paths of two {path: sha256} maps match and differ."""
    paths = fresh.keys() | saved.keys()
    same = sum(1 for path in paths if fresh.get(path) == saved.get(path))
    return f"{same} of {len(paths)} outputs match; {len(paths) - same} differ"


def main_hashes(out: Path, against: Optional[Path] = None) -> int:
    out.mkdir(parents=True, exist_ok=True)
    configs = config_files(out)
    print(f"dyadicbp from {Path(dyadicbp.__file__).parent}", file=sys.stderr)
    status = 0
    for name, args in runs(configs):
        with contextlib.redirect_stdout(sys.stderr):
            code = main([*args, "--out", str(out / name)])
        if code != 0:
            print(f"{name}: exit {code}", file=sys.stderr)
            status = 1
    fresh = {
        str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.glob("*/*.csv"))
    }
    if against is None:
        for path, digest in fresh.items():
            print(f"{digest}  {path}")
        return status
    saved = parse_listing(against.read_text())
    lines = mismatches(fresh, saved)
    print("\n".join([*lines, summary(fresh, saved)]))
    return 1 if lines else status


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Hash the CLI's output CSVs.")
    parser.add_argument("out_dir", type=Path, metavar="OUT_DIR")
    parser.add_argument(
        "--against", type=Path, metavar="LISTING", help="a saved listing to compare with"
    )
    args = parser.parse_args()
    sys.exit(main_hashes(args.out_dir, args.against))
