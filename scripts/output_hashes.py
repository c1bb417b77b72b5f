"""Write a fixed matrix of 40 output CSVs through the CLI and print their SHA-256.

Usage (from a checkout's root):

    PYTHONPATH=src python scripts/output_hashes.py OUT_DIR

The matrix covers every CLI subcommand that writes numbers:

- ``check`` (5 trials) and ``relax`` for Dyadic, MeanStress and Split at
  eta 1.0 and 0.5, precision 64 and 32 (24 files);
- ``sweep`` (3 trials at eta 0.25, 0.5, 1.0) for the same three methods
  at both precisions (6 files);
- ``train`` on a small two-moons net (widths 16, 16, 16, 2; 2 epochs,
  200 samples, eta 0.5, k_max 400) for Dyadic, MeanStress, Split, TwoL
  and BP at both precisions (10 files).

Each line reads ``sha256  path`` with the path relative to OUT_DIR, so
the outputs of two checkouts compare with ``diff``: run this script
once with each checkout's ``src`` on PYTHONPATH and diff the listings.
The imported package location and the CLI's own messages go to
standard error.
"""

import contextlib
import hashlib
import sys
from pathlib import Path

import dyadicbp
from dyadicbp.cli import main

METHODS = ("Dyadic", "MeanStress", "Split")
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


def runs(train_yaml: Path):
    """(subdirectory, CLI arguments) of each run in the matrix."""
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
            args = ["train", "--config", str(train_yaml), "--method", method, "--precision", prec]
            yield f"train-{method}-{prec}", args


def main_hashes(out: Path) -> int:
    out.mkdir(parents=True, exist_ok=True)
    train_yaml = out / "train.yaml"
    train_yaml.write_text(TRAIN_CONFIG)
    print(f"dyadicbp from {Path(dyadicbp.__file__).parent}", file=sys.stderr)
    status = 0
    for name, args in runs(train_yaml):
        with contextlib.redirect_stdout(sys.stderr):
            code = main([*args, "--out", str(out / name)])
        if code != 0:
            print(f"{name}: exit {code}", file=sys.stderr)
            status = 1
    for path in sorted(out.glob("*/*.csv")):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {path.relative_to(out)}")
    return status


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} OUT_DIR")
    sys.exit(main_hashes(Path(sys.argv[1])))
