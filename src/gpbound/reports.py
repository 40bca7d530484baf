"""CSV row schemas shared by the command line and the test suite.

Every file the toolkit emits uses one of the headers below, so any emitted CSV
round-trips through :func:`read_rows`. Optional fields serialize as empty cells.
"""
from __future__ import annotations

import csv
from dataclasses import astuple, dataclass, fields
from pathlib import Path


@dataclass(frozen=True)
class SolveRow:
    instance: str
    n: int
    k_or_w: str
    relaxation: str
    lb: float
    iterations: int
    cpu_seconds: float
    status: str


@dataclass(frozen=True)
class HeurRow:
    instance: str
    k_or_w: str
    method: str
    ub: float
    gap_vs_lb_percent: float | None = None


@dataclass(frozen=True)
class HeurDetailRow:
    instance: str
    k_or_w: str
    method: str
    ub: float
    samples: int
    elapsed_s: float


@dataclass(frozen=True)
class CertRow:
    instance: str
    relaxation: str
    method: str
    bound: float
    perturbation: float | None
    xbar: float | None
    converged: bool


@dataclass(frozen=True)
class OracleRow:
    instance: str
    opt: float
    enumerated: int


@dataclass(frozen=True)
class TraceRow:
    iter: int
    eps_dc: float
    eps_pc: float
    eps_pb: float
    eps_opt_m: float
    eps_opt_v: float
    sigma: float
    primal_obj: float
    dual_obj: float


@dataclass(frozen=True)
class CutRoundRow:
    round: int
    lb: float
    cuts: int


@dataclass(frozen=True)
class SummaryRow:
    instance: str
    n: int
    k_or_w: str
    lb_sdp: float | None
    lb_dnn: float | None
    imp_dnn_pct: float | None
    lb_dnn_met: float | None
    imp_met_pct: float | None
    ub: float | None
    ub_method: str | None
    gap_pct: float | None


_ROW_TYPES = (SolveRow, HeurRow, HeurDetailRow, CertRow, OracleRow, TraceRow,
              CutRoundRow, SummaryRow)


def _header(row_type) -> tuple[str, ...]:
    return tuple(f.name for f in fields(row_type))


_BY_HEADER = {_header(t): t for t in _ROW_TYPES}


class ReportFormatError(ValueError):
    """A file of no known schema, a cell that does not parse, or an append across schemas."""


def _to_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))  # builtin repr round-trips; numpy reprs do not
    return str(value)


def _from_cell(text: str, annotation: str):
    if text == "":
        return None
    if "bool" in annotation:
        if text not in ("true", "false"):
            raise ValueError(f"invalid boolean {text!r}")
        return text == "true"
    if "int" in annotation:
        return int(text)
    if "float" in annotation:
        return float(text)
    return text


def write_rows(path, rows, append: bool = False) -> None:
    """Write (or append) rows of one schema; the header is written when needed, and
    appending under another schema's header raises :class:`ReportFormatError`."""
    rows = list(rows)
    if not rows:
        return
    row_type = type(rows[0])
    if any(type(r) is not row_type for r in rows):
        raise ValueError("mixed row types in one file")
    path = Path(path)
    need_header = not (append and path.exists() and path.stat().st_size > 0)
    if not need_header:
        with path.open(newline="") as fh:
            header = tuple(next(csv.reader(fh), ()))
        if header != _header(row_type):
            raise ReportFormatError(f"{path}: cannot append {row_type.__name__} rows "
                                    f"{_header(row_type)} under the header {header}")
    mode = "a" if append else "w"
    with path.open(mode, newline="") as fh:
        writer = csv.writer(fh)
        if need_header:
            writer.writerow(_header(row_type))
        for row in rows:
            writer.writerow([_to_cell(v) for v in astuple(row)])


def read_rows(path):
    """Parse any toolkit CSV back into its typed rows (schema sniffed from the header)."""
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = tuple(next(reader))
        except StopIteration:
            raise ReportFormatError(f"{path}: empty file") from None
        row_type = _BY_HEADER.get(header)
        if row_type is None:
            raise ReportFormatError(f"{path}: unknown header {header}")
        anns = [str(f.type) for f in fields(row_type)]
        out = []
        for lineno, cells in enumerate(reader, start=2):
            if not cells:
                continue
            if len(cells) != len(anns):
                raise ReportFormatError(f"{path}:{lineno}: expected {len(anns)} cells")
            try:
                out.append(row_type(*[_from_cell(c, a) for c, a in zip(cells, anns)]))
            except ValueError as exc:
                raise ReportFormatError(f"{path}:{lineno}: {exc}") from None
    return out
