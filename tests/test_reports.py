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


def test_append_under_another_schema_is_refused(tmp_path):
    # heur rows appended to a solve file would sit under the SolveRow header
    path = tmp_path / "a.csv"
    write_rows(path, SAMPLES["solve"])
    before = path.read_bytes()
    with pytest.raises(ReportFormatError) as err:
        write_rows(path, SAMPLES["heur"], append=True)
    message = str(err.value)
    assert str(path) in message
    assert "('instance', 'n', 'k_or_w'" in message and "('instance', 'k_or_w', 'method'" in message
    assert path.read_bytes() == before
    # two schemas of three columns each: oracle rows onto a cut-round file
    cuts = tmp_path / "cuts.csv"
    write_rows(cuts, SAMPLES["cuts"])
    with pytest.raises(ReportFormatError, match="cuts.csv"):
        write_rows(cuts, SAMPLES["oracle"], append=True)
    assert read_rows(cuts) == SAMPLES["cuts"]


def test_cell_that_does_not_parse_names_its_line(tmp_path):
    path = tmp_path / "cuts.csv"
    write_rows(path, SAMPLES["cuts"])
    with path.open("a") as fh:
        fh.write("rand80_n8_s1,16.0,35\n")
    with pytest.raises(ReportFormatError, match=r"cuts\.csv:4: .*'rand80_n8_s1'"):
        read_rows(path)
    cert = tmp_path / "cert.csv"
    write_rows(cert, SAMPLES["cert"])
    cert.write_text(cert.read_text().replace("true", "yes"))
    with pytest.raises(ReportFormatError, match=r"cert\.csv:2: .*'yes'"):
        read_rows(cert)
