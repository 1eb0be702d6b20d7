"""Dataset ingestion: malformed cells end in an `IngestionError` that
names their row and column."""

import pytest

from bayescomp.datasets import IngestionError, load_pima


@pytest.mark.parametrize("row,column", [
    ("nan,70,0.3,No", "glu"),
    ("120,inf,0.3,Yes", "bp"),
])
def test_non_finite_cell_is_refused(tmp_path, row, column):
    # Python's float parses nan and inf; the loader must not pass them on
    path = tmp_path / "pima.csv"
    path.write_text(f"glu,bp,ped,type\n112,65,0.227,No\n{row}\n", encoding="utf-8")
    with pytest.raises(IngestionError, match=f"non-finite .* at row 3, column {column}"):
        load_pima(path)


def test_short_row_is_refused(tmp_path):
    # a row that ends before the ped column names the cell it lacks
    path = tmp_path / "pima.csv"
    path.write_text("glu,bp,ped,type\n112,65,0.227,No\n85,66\n", encoding="utf-8")
    with pytest.raises(IngestionError, match="missing cell at row 3, column ped"):
        load_pima(path)
