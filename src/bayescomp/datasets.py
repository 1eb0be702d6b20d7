"""Dataset ingestion for the bundled case studies.

The diabetes-study CSV layout is: header row, comma separated, UTF-8,
'.' decimal separator, columns glu, bp, ped and type (Yes/No).  The bundled
file is a synthetic surrogate with the same layout and comparable covariate
distributions; see its header comment and the README for provenance.
"""

from __future__ import annotations

import csv
import math
from importlib import resources

import numpy as np

from .capture import CaptureModel
from .probit import ProbitModel

__all__ = ["load_pima", "bundled_pima_path", "eurodip_1981", "IngestionError"]

#: 1981 capture numbers of the European dipper study: first capture,
#: first recapture, second recapture.
EURODIP_1981 = (22, 11, 6)


class IngestionError(ValueError):
    """CSV ingestion failure; message carries row/column location."""


def load_pima(path) -> ProbitModel:
    """Read a diabetes-study CSV into a three-covariate probit model.

    The design is [glu bp ped] with no intercept column (the reference fit
    for this study is a three-coefficient model) and y = 1 for type Yes.
    """
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(line for line in fh if not line.startswith("#"))
        try:
            header = next(reader)
        except StopIteration:
            raise IngestionError(f"{path}: empty file")
        header = [h.strip() for h in header]
        required = ["glu", "bp", "ped", "type"]
        missing = [c for c in required if c not in header]
        if missing:
            raise IngestionError(f"{path}: missing columns {missing}")
        idx = {c: header.index(c) for c in required}
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            short = [c for c in required if idx[c] >= len(row)]
            if short:
                raise IngestionError(f"{path}: missing cell at row {lineno}, "
                                     f"column {short[0]}")
            rec = []
            for col in ("glu", "bp", "ped"):
                cell = row[idx[col]].strip()
                try:
                    value = float(cell)
                except ValueError:
                    value = math.nan
                # float() also parses nan and inf, which no covariate can hold
                if not math.isfinite(value):
                    raise IngestionError(f"{path}: non-numeric or non-finite value "
                                         f"{cell!r} at row {lineno}, column {col}")
                rec.append(value)
            label = row[idx["type"]].strip()
            if label not in ("Yes", "No"):
                raise IngestionError(
                    f"{path}: type must be Yes/No, got {label!r} at row {lineno}"
                )
            rec.append(1.0 if label == "Yes" else 0.0)
            rows.append(rec)
    if not rows:
        raise IngestionError(f"{path}: no data rows")
    data = np.asarray(rows)
    return ProbitModel(design=data[:, :3], response=data[:, 3])


def bundled_pima_path():
    """Path of the packaged diabetes-study CSV."""
    return resources.files("bayescomp").joinpath("data/pima_synthetic.csv")


def eurodip_1981() -> CaptureModel:
    """Capture-recapture model for the 1981 dipper numbers (22, 11, 6)."""
    return CaptureModel(*EURODIP_1981)
