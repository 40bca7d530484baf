import pytest

from gpbound import reports
from gpbound.reports import (
    CertRow,
    CutRoundRow,
    HeurDetailRow,
    HeurRow,
    OracleRow,
    ReportFormatError,
    SolveRow,
    SummaryRow,
    TraceRow,
    read_rows,
    write_rows,
)

SAMPLES = {
    "solve": [SolveRow("rand80_n8_s1", 8, "2", "dnn", 16.0, 120, 0.25, "converged"),
              SolveRow("rand80_n8_s1", 8, "2", "sdp", 15.5, 80, 0.125, "converged")],
    "heur": [HeurRow("rand80_n8_s1", "2", "Vc+2opt", 17.0, 6.25),
             HeurRow("rand80_n8_s1", "2", "Hyp+2opt", 18.0, None)],
    "detail": [HeurDetailRow("rand80_n8_s1", "2", "Vc", 17.0, 100, 0.5)],
    "cert": [CertRow("rand80_n8_s1", "dnn", "eig", 15.9, -0.1, 4.0, True),
             CertRow("rand80_n8_s1", "dnn", "lp", 15.8, None, None, False)],
    "oracle": [OracleRow("rand80_n8_s1", 16.0, 35)],
    "trace": [TraceRow(100, 1e-3, 2e-3, 0.0, 1e-5, 0.0, 1.5, 16.2, 15.8)],
    "cuts": [CutRoundRow(0, 15.5, 0), CutRoundRow(1, 15.9, 12)],
    "summary": [SummaryRow("rand80_n8_s1", 8, "2", 15.5, 16.0, 3.2258, None, None, 17.0,
                           "Vc+2opt", 6.25)],
}


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_round_trip(tmp_path, name):
    rows = SAMPLES[name]
    path = tmp_path / f"{name}.csv"
    write_rows(path, rows)
    assert read_rows(path) == rows


def test_append_keeps_single_header(tmp_path):
    path = tmp_path / "solve.csv"
    write_rows(path, SAMPLES["solve"][:1])
    write_rows(path, SAMPLES["solve"][1:], append=True)
    assert read_rows(path) == SAMPLES["solve"]
    assert path.read_text().count("relaxation") == 1


def test_unknown_header_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("foo,bar\n1,2\n")
    with pytest.raises(ReportFormatError):
        read_rows(path)


def test_mixed_rows_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_rows(tmp_path / "x.csv", [SAMPLES["solve"][0], SAMPLES["heur"][0]])


def test_float_cells_round_trip_exactly(tmp_path):
    row = TraceRow(1, 0.1 + 0.2, 1e-300, 3.141592653589793, 0.0, 2.0 / 3.0,
                   1.0000000001, -0.0, 7.0)
    path = tmp_path / "t.csv"
    write_rows(path, [row])
    assert read_rows(path)[0] == row
