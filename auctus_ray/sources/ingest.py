"""Format sniffing + conversion chain for tabular ingestion (S2/S3/S4).

Re-expresses the reference's detect-and-convert pipeline
(lib_materialize/datamart_materialize/detect.py:25-193) Ray-Data-first:
instead of rewriting files to CSV at each step, the sniffer produces a
CONVERSION PLAN (the reference's `materialize['convert']` entries) and
`read_table_auto` maps the plan onto ONE distributed read — Parquet
directly, delimited text via `ray.data.read_csv` with the detected
delimiter and the garbage-header skip pushed into the Arrow CSV reader
(no intermediate file materialization).

XLSX decodes with a dependency-free stdlib reader (zipfile +
xml.etree over the first worksheet — the single-sheet/shared-string/
inline-string/number subset the reference's excel.py:10-41 handles via
openpyxl), converted once to CSV so the rest of the chain (skip rows,
pivot detect) applies unchanged — the reference's own excel->csv
conversion shape. Stata .dta decodes through pandas' pure-Python
reader (the same reader the reference's stata.py:7-18 uses); legacy
.xls and SPSS .sav decode through stdlib readers for their publicly
documented binary formats (sources/xls.py, sources/sav.py — the
reference's excel97.py/spss.py delegate to xlrd/pyreadstat, absent
here). Features outside the documented subsets (multi-sheet
workbooks, pre-BIFF8, zsav, very long strings) fail fast with
`ConversionUnavailable` rather than decode wrongly.
"""

from __future__ import annotations

import csv
import datetime
import io
import itertools
import os

# the reference's sniffer candidate delimiters (detect.py:22)
DELIMITERS = ",\t;|"
# consistent-run constants (lib_profiler core.py:41-44)
MAX_SKIPPED_ROWS = 6
HEADER_CONSISTENT_ROWS = 4

_MAGIC_FORMATS = (
    # (prefix bytes, identifier) — detect.py:39-92
    (b"PK\x03\x04", "xlsx"),
    (b"\xd0\xcf\x11\xe0\xa1\xb1\x1a\xe1", "xls"),
    (b"PAR1", "parquet"),
    (b"<stata_dta>", "stata"),
    (b"\x73\x01\x01\x00", "stata"),
    (b"\x73\x02\x01\x00", "stata"),
    (b"\x72\x01\x01\x00", "stata"),
    (b"\x72\x02\x01\x00", "stata"),
    (b"\x71\x01\x01\x01", "stata"),
    (b"\x71\x02\x01\x01", "stata"),
    (b"\xc1\xe2\xc3\xc9", "spss"),
    (b"$FL2", "spss"),
    (b"$FL3", "spss"),
)


class ConversionUnavailable(NotImplementedError):
    """Format detected but its decoder is not in this environment."""


def count_rows_to_skip(fileobj) -> int:
    """Non-data rows (titles, notes) before the real header: the first
    run of HEADER_CONSISTENT_ROWS consecutive rows with a stable column
    count wins (reference count_rows_to_skip, lib_profiler
    core.py:135-173 — same constants, same stabilization rule)."""
    if isinstance(fileobj, (str, os.PathLike)):
        with open(fileobj, newline="") as f:
            return count_rows_to_skip(f)
    return _count_rows_to_skip_delim(fileobj, ",")


def detect_pivot(columns: list[str]) -> dict | None:
    """Pivoted-temporal-table detection (reference detect.py:146-192):
    with >=3 columns, if all but at most max(2, 20%) of the column
    NAMES parse as dates (or as 4-digit years), the table is a wide
    pivot and should unpivot to (carried..., date, value) rows."""
    if len(columns) < 3:
        return None

    def _is_date(name: str) -> bool:
        if len(name) < 4:
            return False
        try:
            from dateutil import parser as duparser

            duparser.parse(name)
            return True
        except Exception:
            return False

    def _is_year(name: str, max_year: int = 2100) -> bool:
        if len(name) != 4:
            return False
        try:
            return 1900 <= int(name) <= max_year
        except ValueError:
            return False

    non_dates = [i for i, n in enumerate(columns) if not _is_date(n)]
    non_years = [i for i, n in enumerate(columns) if not _is_year(n)]
    non_matches = min([non_dates, non_years], key=len)
    if len(non_matches) <= max(2.0, 0.20 * len(columns)):
        return {
            "identifier": "pivot",
            "except_columns": non_matches,
            "date_label": "year" if non_matches is non_years else "date",
        }
    return None


def sniff_format(path: str) -> dict:
    """Detect the file format and build the conversion plan — the
    reference's `materialize['convert']` chain (detect.py:25-193).

    Returns {"format": str, "convert": [entries...]} where entries
    mirror the reference identifiers: `xlsx`/`xls`/`parquet`/`stata`/
    `spss`, `tsv` (with `separator`), `skip_rows` (with `nb_rows`).
    """
    with open(path, "rb") as fp:
        magic = fp.read(16)
    plan: list[dict] = []
    fmt = "csv"
    for prefix, ident in _MAGIC_FORMATS:
        if magic[: len(prefix)] == prefix:
            fmt = ident
            plan.append({"identifier": ident})
            break
    if fmt != "csv":
        return {"format": fmt, "convert": plan}

    # delimiter sniff over >=3 lines / <=5 MB sample (detect.py:95-125)
    with open(path, "r", newline="", errors="replace") as fp:
        sample = fp.read(65536)
        newlines = sample.count("\n")
        while newlines < 3 and len(sample) < 5_242_880:
            more = fp.read(65536)
            if not more:
                break
            sample += more
            newlines += more.count("\n")
    delimiter = ","
    if newlines >= 3:
        # the reference sniffs the raw sample only (detect.py:106-114),
        # which fails when garbage title lines precede a non-comma
        # table; improvement: retry with leading lines dropped (up to
        # the same MAX_SKIPPED_ROWS budget the skip detector uses)
        lines = sample.splitlines(keepends=True)
        for drop in range(0, min(MAX_SKIPPED_ROWS, max(0, len(lines) - 3)) + 1):
            try:
                delimiter = csv.Sniffer().sniff(
                    "".join(lines[drop:]), DELIMITERS
                ).delimiter
                break
            except csv.Error:
                continue
    if delimiter != ",":
        plan.append({"identifier": "tsv", "separator": delimiter})

    # garbage-header skip, evaluated with the detected delimiter. The
    # count is in CSV RECORDS; Arrow's ReadOptions.skip_rows counts
    # PHYSICAL LINES, so convert (a quoted garbage field may span
    # multiple lines)
    nb_records = _count_rows_to_skip_delim(io.StringIO(sample), delimiter)
    nb = _records_to_physical_lines(sample, delimiter, nb_records)
    if nb > 0:
        plan.append({"identifier": "skip_rows", "nb_rows": nb})

    # pivoted-temporal-table detection over the real header RECORD —
    # parsed by the csv reader from the remaining sample, so a quoted
    # header cell containing a newline stays one cell (a single
    # physical line would truncate it and shift except_columns)
    try:
        header = next(
            csv.reader(
                io.StringIO("".join(sample.splitlines(keepends=True)[nb:])),
                delimiter=delimiter,
            )
        )
    except (IndexError, StopIteration):
        header = []
    pivot = detect_pivot(header)
    if pivot is not None:
        plan.append(pivot)
    return {"format": "csv", "convert": plan}


def _records_to_physical_lines(sample: str, delimiter: str, nb_records: int) -> int:
    """How many PHYSICAL lines the first `nb_records` CSV records span
    (a quoted field may contain newlines). Counts lines as the csv
    reader consumes them from a tracking iterator."""
    if nb_records <= 0:
        return 0
    consumed = 0

    def lines():
        nonlocal consumed
        for line in io.StringIO(sample):
            consumed += 1
            yield line

    reader = csv.reader(lines(), delimiter=delimiter)
    for _ in range(nb_records):
        if next(reader, None) is None:
            break
    return consumed


def _count_rows_to_skip_delim(fileobj, delimiter: str) -> int:
    reader = csv.reader(fileobj, delimiter=delimiter)
    budget = MAX_SKIPPED_ROWS + HEADER_CONSISTENT_ROWS
    run_start = 0
    run_cols = None
    run_len = 0
    n_seen = 0
    for i, row in enumerate(itertools.islice(reader, budget)):
        n_seen = i + 1
        if len(row) == run_cols:
            run_len += 1
            if run_len == HEADER_CONSISTENT_ROWS:
                return run_start
        else:
            run_start = i
            run_cols = len(row)
            run_len = 1
    # no HEADER_CONSISTENT_ROWS-stable run inside the budget. Trust a
    # final run ONLY when the file genuinely ended there (short files:
    # garbage + header + one data row) AND it has >= 2 consistent rows.
    # Budget exhaustion is NOT EOF: trusting an unconfirmed tail there
    # could return a skip beyond MAX_SKIPPED_ROWS and silently drop
    # real data rows of a width-shifting file; a length-1 tail is never
    # trusted (ragged alternating widths).
    at_eof = n_seen < budget
    return run_start if (at_eof and run_len >= 2) else 0


_XLSX_NS = "{http://schemas.openxmlformats.org/spreadsheetml/2006/main}"
_XLSX_RELNS = "{http://schemas.openxmlformats.org/package/2006/relationships}"


def _xlsx_col_index(ref: str) -> int:
    """'A1' -> 0, 'AB7' -> 27: the column part of a cell reference."""
    idx = 0
    for ch in ref:
        if not ch.isalpha():
            break
        idx = idx * 26 + (ord(ch.upper()) - 64)
    return idx - 1


def _xlsx_first_sheet(z) -> str:
    """Archive path of the workbook's FIRST sheet (workbook order), via
    workbook.xml -> workbook.xml.rels; sheet1.xml as a fallback."""
    import xml.etree.ElementTree as ET

    try:
        wb = ET.fromstring(z.read("xl/workbook.xml"))
        sheets = wb.find(f"{_XLSX_NS}sheets")
        rid = sheets[0].get(
            "{http://schemas.openxmlformats.org/officeDocument/2006/relationships}id"
        )
        rels = ET.fromstring(z.read("xl/_rels/workbook.xml.rels"))
        for rel in rels.findall(f"{_XLSX_RELNS}Relationship"):
            if rel.get("Id") == rid:
                target = rel.get("Target")
                return target if target.startswith("xl/") else f"xl/{target}"
    except Exception:
        pass
    return "xl/worksheets/sheet1.xml"


def xlsx_to_csv(path: str, out_path: str) -> None:
    """Decode the first worksheet of an xlsx to CSV with the standard
    library only (reference excel.py:10-41 does the same conversion via
    openpyxl). Subset handled: shared strings (incl. rich-text runs),
    inline strings, numbers/booleans/formula results as their stored
    `<v>` text; missing cells become empty fields. Excel omits trailing
    empty <c> elements, and a ragged CSV fails the Arrow read behind
    this converter — so rows FROM the first full-width row on are
    padded to the sheet width. Rows BEFORE it (the title/garbage
    region) stay ragged on purpose: padding a one-cell title to full
    width would hide it from the skip-rows detector (the reference via
    openpyxl pads everything and mis-reads such sheets; divergence
    documented). Driver-side single-file decode, bounded by upload
    size."""
    import xml.etree.ElementTree as ET
    import zipfile

    with zipfile.ZipFile(path) as z:
        shared: list[str] = []
        if "xl/sharedStrings.xml" in z.namelist():
            root = ET.fromstring(z.read("xl/sharedStrings.xml"))
            for si in root.findall(f"{_XLSX_NS}si"):
                shared.append("".join(t.text or "" for t in si.iter(f"{_XLSX_NS}t")))
        # date detection: style index -> "renders as a date" via the
        # SAME numFmt classification the .xls decoder uses (built-in
        # date ids + y/m/d/h/s scan of custom codes); without this a
        # date cell would leak its raw Excel serial ('44197') into the
        # CSV and profile as a numeric column
        from auctus_ray.sources.xls import (
            _BUILTIN_DATE_FMTS,
            _is_date_format_string,
        )

        date_xf: list[bool] = []
        if "xl/styles.xml" in z.namelist():
            sroot = ET.fromstring(z.read("xl/styles.xml"))
            custom = {}
            for nf in sroot.iter(f"{_XLSX_NS}numFmt"):
                custom[int(nf.get("numFmtId", "0"))] = nf.get("formatCode", "")
            cellxfs = sroot.find(f"{_XLSX_NS}cellXfs")
            if cellxfs is not None:
                for xf in cellxfs.findall(f"{_XLSX_NS}xf"):
                    fmt = int(xf.get("numFmtId", "0"))
                    date_xf.append(
                        fmt in _BUILTIN_DATE_FMTS
                        or (fmt in custom and _is_date_format_string(custom[fmt]))
                    )
        date1904 = False
        if "xl/workbook.xml" in z.namelist():
            wroot = ET.fromstring(z.read("xl/workbook.xml"))
            pr = wroot.find(f"{_XLSX_NS}workbookPr")
            if pr is not None and pr.get("date1904", "0").lower() in ("1", "true"):
                date1904 = True
        base_date = (
            datetime.datetime(1904, 1, 1)
            if date1904
            else datetime.datetime(1899, 12, 30)
        )

        def render_serial(val: str) -> str:
            try:
                serial = float(val)
            except ValueError:
                return val
            return (base_date + datetime.timedelta(days=serial)).isoformat()

        sheet = _xlsx_first_sheet(z)
        rows: list[list[str]] = []
        with z.open(sheet) as sf:
            for _, el in ET.iterparse(sf):
                if el.tag != f"{_XLSX_NS}row":
                    continue
                cells: list[str] = []
                for c in el.findall(f"{_XLSX_NS}c"):
                    ref = c.get("r")
                    col = _xlsx_col_index(ref) if ref else len(cells)
                    while len(cells) <= col:
                        cells.append("")
                    ctype = c.get("t", "n")
                    if ctype == "inlineStr":
                        is_el = c.find(f"{_XLSX_NS}is")
                        val = (
                            "".join(t.text or "" for t in is_el.iter(f"{_XLSX_NS}t"))
                            if is_el is not None
                            else ""
                        )
                    else:
                        v = c.find(f"{_XLSX_NS}v")
                        val = v.text or "" if v is not None else ""
                        if ctype == "s" and val != "":
                            val = shared[int(val)]
                        elif ctype == "n" and val != "":
                            s_attr = c.get("s")
                            if (
                                s_attr is not None
                                and int(s_attr) < len(date_xf)
                                and date_xf[int(s_attr)]
                            ):
                                val = render_serial(val)
                    cells[col] = val
                # trim trailing EMPTY cells: a value-less styled cell
                # (<c r="Z3" s="1"/>) must not inflate the sheet width
                # with phantom columns
                while cells and cells[-1] == "":
                    cells.pop()
                rows.append(cells)
                el.clear()  # free the row subtree
        width = max((len(r) for r in rows), default=0)
        first_full = next(
            (i for i, r in enumerate(rows) if len(r) == width), 0
        )
        with open(out_path, "w", newline="") as out:
            w = csv.writer(out)
            for i, r in enumerate(rows):
                w.writerow(
                    r + [""] * (width - len(r)) if i >= first_full else r
                )


def stata_to_csv(path: str, out_path: str) -> None:
    """Decode a Stata .dta to CSV via pandas' own pure-Python reader
    (reference stata.py:7-18 — same reader, same '%g' float and
    ISO-8601 date formatting; the reference iterates chunksize=1, here
    4096 rows per chunk for the identical output at less overhead)."""
    import pandas

    with open(out_path, "w", newline="") as out:
        with pandas.read_stata(path, chunksize=4096) as reader:
            for i, chunk in enumerate(reader):
                chunk.to_csv(
                    out,
                    header=(i == 0),
                    float_format="%g",
                    date_format="%Y-%m-%dT%H:%M:%S",
                    index=False,
                )


def xls_to_csv(path: str, out_path: str) -> None:
    """Decode a legacy .xls via the stdlib OLE2/BIFF8 reader
    (sources/xls.py; reference excel97.py:9-34 does the same via
    xlrd). Unsupported workbooks (multi-sheet, pre-BIFF8) surface as
    ConversionUnavailable — the reference's UnsupportedConversion."""
    from auctus_ray.sources.xls import XlsError
    from auctus_ray.sources.xls import xls_to_csv as _decode

    import struct as _struct

    try:
        _decode(path, out_path)
    except XlsError as e:
        raise ConversionUnavailable(str(e)) from e
    except (
        _struct.error, IndexError, KeyError, UnicodeDecodeError,
        ValueError, EOFError,
    ) as e:
        # corrupt/truncated BIFF content raises low-level decode errors
        # from deep inside the parser; the documented contract is
        # fail-fast ConversionUnavailable, never a raw struct.error
        raise ConversionUnavailable(f"corrupt .xls: {e!r}") from e


def spss_to_csv(path: str, out_path: str) -> None:
    """Decode an SPSS .sav via the stdlib system-file reader
    (sources/sav.py; reference spss.py:7-16 does the same conversion
    via pyreadstat). Unsupported .sav features (zsav, very long
    strings) surface as ConversionUnavailable, keeping the honest
    fail-fast contract for what the stdlib reader cannot decode."""
    from auctus_ray.sources.sav import SavError, sav_to_csv

    try:
        sav_to_csv(path, out_path)
    except SavError as e:
        raise ConversionUnavailable(str(e)) from e


# format -> single-file CSV decoder for formats Arrow can't read
# directly; each runs once per file and is cached (mtime-invalidated)
_CONVERTERS = {
    "xlsx": xlsx_to_csv,
    "xls": xls_to_csv,
    "stata": stata_to_csv,
    "spss": spss_to_csv,
}


def _converted_path(path: str, fmt: str) -> str:
    """Cached CSV conversion of a binary-format file (mtime-invalidated,
    atomic rename). `.cache` suffix: the watermark sweeper
    (state/cache.py) recognizes the entry as evictable — without it
    every distinct upload would leave an unevictable CSV copy."""
    import hashlib

    tag = hashlib.sha256(os.path.abspath(path).encode()).hexdigest()[:12]
    out_dir = os.path.join("/tmp/auctus_ray_cache", f"{fmt}_{tag}.cache")
    out = os.path.join(out_dir, "converted.csv")
    if os.path.exists(out) and os.path.getmtime(out) >= os.path.getmtime(path):
        return out
    os.makedirs(out_dir, exist_ok=True)
    tmp = out + ".tmp"
    _CONVERTERS[fmt](path, tmp)
    os.replace(tmp, out)
    return out


def read_table_auto(path: str, columns: list[str] | None = None,
                    plan: dict | None = None):
    """ONE distributed read implementing the sniffed conversion plan:
    Parquet reads natively; delimited text reads via `ray.data.read_csv`
    with the detected delimiter and the garbage rows skipped inside the
    Arrow CSV reader (the reference's skip_rows/tsv_to_csv rewrites,
    common.py:10-30 + tsv.py:6-12, fused into read options — no
    intermediate CSV files). Pass an already-computed `plan` to skip
    re-sniffing the file. Returns a ray.data.Dataset.
    """
    import pyarrow.csv as pacsv

    import ray.data

    if plan is None:
        plan = sniff_format(path)
    fmt = plan["format"]
    if fmt == "parquet":
        # strip schema metadata AT the read (schema override), not in a
        # follow-up map stage: blocks leaving ReadParquet are already
        # metadata-free, so Ray's schema-hash dedup works from the first
        # operator (an after-the-fact strip still left the read stage
        # logging 'Failed to hash the schemas' on pandas-metadata files)
        import pyarrow as _pa
        import pyarrow.parquet as _pq

        schema = _pq.read_schema(path)
        fields = [schema.field(i).remove_metadata() for i in range(len(schema))]
        if columns is not None:
            # the schema override must match the pruned column set
            keep = set(columns)
            fields = [f for f in fields if f.name in keep]
        return ray.data.read_parquet(
            path, columns=columns, schema=_pa.schema(fields)
        )
    if fmt in _CONVERTERS:
        # decode -> cached CSV, then the standard chain (fresh sniff
        # handles skip_rows/pivot on the converted file) — the
        # reference's convert-to-csv step (excel.py:10-41,
        # stata.py:7-18). Single-file driver-side decode: these legacy
        # upload formats arrive as individual small files; the
        # DISTRIBUTED read happens on the converted CSV.
        return read_table_auto(_converted_path(path, fmt), columns=columns)
    if fmt != "csv":
        raise ConversionUnavailable(
            f"{fmt!r} detected by magic bytes, but its decoder "
            f"(reference {fmt}.py) needs a library not present in this "
            "environment"
        )
    delimiter = ","
    nb_skip = 0
    pivot = None
    for entry in plan["convert"]:
        if entry["identifier"] == "tsv":
            delimiter = entry["separator"]
        elif entry["identifier"] == "skip_rows":
            nb_skip = entry["nb_rows"]
        elif entry["identifier"] == "pivot":
            pivot = entry
    ds = ray.data.read_csv(
        path,
        read_options=pacsv.ReadOptions(skip_rows=nb_skip),
        parse_options=pacsv.ParseOptions(delimiter=delimiter),
    )
    if pivot is not None:
        # wide temporal layout -> (carried..., date, value) long rows
        # (reference pivot.py via detect.py:176-191; Ray-side unpivot is
        # the S5 operator, functions/augment.py:pivot_wide_to_long)
        from auctus_ray.functions.augment import pivot_wide_to_long

        schema = ds.schema()
        names = schema.names
        keep = [names[i] for i in pivot["except_columns"]]
        vals = [n for i, n in enumerate(names) if i not in set(pivot["except_columns"])]
        # value columns stay numeric only when EVERY one is numeric;
        # otherwise carry as strings (the reference converter never
        # coerces — a stray "N/A" cell must not fail the ingest)
        vtypes = [schema.types[names.index(v)] for v in vals]
        import pyarrow as _pa

        all_numeric = all(
            _pa.types.is_integer(t) or _pa.types.is_floating(t) for t in vtypes
        )
        ds = pivot_wide_to_long(
            ds, carried_cols=keep, value_cols=vals,
            var_name=pivot["date_label"], value_name="value",
            value_cast="float" if all_numeric else "string",
        )
    if columns:
        ds = ds.select_columns(columns)
    return ds


def ingest_to_parquet(path: str, out_dir: str, columns: list[str] | None = None,
                      plan: dict | None = None):
    """Sniff -> read -> write the engine's native format (the end state
    of the reference's conversion chain, with Parquet instead of CSV as
    the canonical format). Returns (dataset, plan). The file is sniffed
    once; callers holding a plan pass it through."""
    if plan is None:
        plan = sniff_format(path)
    ds = read_table_auto(path, columns=columns, plan=plan)
    ds.write_parquet(out_dir, compression="zstd")
    import ray.data

    return ray.data.read_parquet(out_dir), plan
