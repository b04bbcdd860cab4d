"""Guard against code that only tests reach.

Every top-level function, class, method and module-level assignment
under ``auctus_ray/`` must be named somewhere outside ``tests/`` other
than at its own definition. The roots that count as callers are the
package itself (``cli`` included), ``__ray_entry__.py``, ``bench.py``,
``tools/`` and ``perfbench/``. Identifiers are read with ``tokenize``:
every name token, and the identifiers inside string literals (a hook
that names its target as a string reaches it), but nothing in a
comment or a docstring, so a name mentioned only there is not reached.

A second check fails on a name a module under ``auctus_ray/`` imports
but never uses.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
ROOTS = ("auctus_ray", "__ray_entry__.py", "bench.py", "tools", "perfbench")

# Names kept although nothing outside tests names them, each for a reason.
ALLOWED = {
    # The round-trip oracle for the live encode_dataset_id (test_profile).
    "decode_dataset_id",
    # Part of the Discoverer plugin API; its reader _shared_storage_path is live.
    "write_to_shared_storage",
    # Reached only by tests (and docstrings, which no longer count): each
    # is a candidate for a later deletion, or for a live caller.
    # The T2 per-worker resource actor; only test_profile maps with it.
    "AdminAreaTagger",
    # Join alignment of two resolutions; only test_profile calls it.
    "coarser_resolution",
    # Scalar geohash pair; the pipelines use the vectorized hash_locations.
    "decode_hash",
    "hash_location",
    # Discoverer tombstone API; only test_discovery calls it.
    "delete_dataset",
    # Per-term reference encoder that test_codec checks encode_shard_postings against.
    "encode_blocks",
    # Post-search hit enrichment; only test_document calls it.
    "enhance_metadata",
    # Dataset-level exact dedup; only test_functions calls it.
    "exact_dedup",
    # Scalar containment that test_sketchtable checks the batched estimator against.
    "lazo_containment",
    # On-demand discovery search; only test_discovery calls it.
    "search_with_on_demand",
    # Single-document MinHash signature and simhash, the tests' references.
    "signature",
    "simhash64",
}

_IDENT = re.compile(r"[A-Za-z_]\w*")


def _identifiers(source: str) -> list[str]:
    """The identifiers a module's code names: name tokens, and the
    identifiers inside its string literals except docstrings (a string
    that is a statement of its own). Comments are not tokens' text."""
    tree = ast.parse(source)
    docstrings = {
        (n.lineno, n.col_offset)
        for n in ast.walk(tree)
        if isinstance(n, ast.Expr) and isinstance(n.value, ast.Constant)
        and isinstance(n.value.value, str)
    }
    out = []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NAME:
            out.append(tok.string)
        elif tok.type == tokenize.STRING and tok.start not in docstrings:
            out.extend(_IDENT.findall(tok.string))
    return out


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _defined_names(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.append(node.name)
        elif isinstance(node, ast.ClassDef):
            names.append(node.name)
            names.extend(
                m.name
                for m in node.body
                if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
            )
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                names.extend(
                    t.id
                    for t in ast.walk(target)
                    if isinstance(t, ast.Name)
                )
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [n for n in names if not _is_dunder(n)]


def _root_files() -> list[Path]:
    files = []
    for root in ROOTS:
        path = REPO / root
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return files


def test_every_definition_is_reached_outside_tests():
    defined: Counter[str] = Counter()
    for path in sorted((REPO / "auctus_ray").rglob("*.py")):
        defined.update(_defined_names(ast.parse(path.read_text(), str(path))))
    seen: Counter[str] = Counter()
    for path in _root_files():
        seen.update(_identifiers(path.read_text()))
    dead = sorted(
        name
        for name, n_defs in defined.items()
        if seen[name] <= n_defs and name not in ALLOWED
    )
    assert dead == [], f"named only at their definitions: {dead}"
    # An allowlisted name that became reached (or vanished) should leave the list.
    stale = sorted(n for n in ALLOWED if seen[n] > defined[n] or not defined[n])
    assert stale == [], f"allowlisted but reached or gone: {stale}"


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports (``__future__`` aside) but never uses as a
    name. ``import a.b`` binds ``a``."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names if a.name != "*"]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(set(imported) - used)


def test_no_unused_imports():
    unused = {
        str(path.relative_to(REPO)): names
        for path in sorted((REPO / "auctus_ray").rglob("*.py"))
        if (names := _unused_imports(ast.parse(path.read_text(), str(path))))
    }
    assert unused == {}, f"imported but never used: {unused}"
