"""Plain-text edge-list IO.

Format (one record per line, ``#`` comments allowed)::

    n <num_vertices>
    e <u> <v> [weight]

Files are UTF-8 text.  Weights are either present on every edge line
or on none.  A malformed record, or a line holding bytes that are not
UTF-8, raises ``ValueError`` prefixed ``path:lineno:``; a graph the
records cannot form (an endpoint out of range, a duplicate edge, a
weight that is not positive and finite, a vertex count beyond int64 or
too large to allocate) raises one prefixed ``path:``.
"""

from __future__ import annotations

from pathlib import Path

from repro.graphs.graph import Graph


def write_edgelist(g: Graph, path: str | Path) -> None:
    """Serialize ``g`` to ``path`` in the edge-list format above."""
    path = Path(path)
    lines = [f"n {g.n}"]
    for u, v, w in g.iter_weighted_edges():
        if g.weighted:
            lines.append(f"e {u} {v} {w!r}")
        else:
            lines.append(f"e {u} {v}")
    path.write_text("\n".join(lines) + "\n")


def _read_text(path: Path) -> str:
    """``path`` decoded as UTF-8; undecodable bytes name their line."""
    data = path.read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        # The bytes before the bad one decode, so the bad byte's line is
        # the last of that prefix plus one more character.
        lineno = len((data[: e.start].decode("utf-8") + "x").splitlines())
        raise ValueError(
            f"{path}:{lineno}: byte {data[e.start]:#04x} is not UTF-8 "
            f"text ({e.reason})"
        ) from None


def read_edgelist(path: str | Path) -> Graph:
    """Parse a graph written by :func:`write_edgelist`."""
    path = Path(path)
    n: int | None = None
    edges: list[tuple[int, int]] = []
    weights: list[float] = []
    saw_unweighted = False
    for lineno, raw in enumerate(_read_text(path).splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "n":
                if n is not None:
                    raise ValueError("duplicate 'n' line")
                if len(parts) != 2:
                    raise ValueError(f"malformed 'n' line {raw!r}")
                n = int(parts[1])
            elif parts[0] == "e":
                if len(parts) == 3:
                    saw_unweighted = True
                elif len(parts) == 4:
                    weights.append(float(parts[3]))
                else:
                    raise ValueError(f"malformed edge line {raw!r}")
                edges.append((int(parts[1]), int(parts[2])))
            else:
                raise ValueError(f"unknown record {parts[0]!r}")
        except ValueError as e:
            raise ValueError(f"{path}:{lineno}: {e}") from None
    if n is None:
        raise ValueError(f"{path}: missing 'n' line")
    if weights and saw_unweighted:
        raise ValueError(f"{path}: mixed weighted and unweighted edge lines")
    try:
        return Graph(n, edges, weights if weights else None)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
    except MemoryError as e:
        raise ValueError(f"{path}: no memory for a graph with n={n}: {e}") from None
