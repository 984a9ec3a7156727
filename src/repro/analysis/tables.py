"""ASCII rendering for the claim-vs-measured benchmark output."""

from __future__ import annotations

from typing import Any, Sequence


def print_banner(title: str, claim: str) -> None:
    """Header every benchmark prints: experiment id + the paper's claim."""
    bar = "=" * max(len(title), len(claim), 40)
    print(f"\n{bar}\n{title}\n  paper claim: {claim}\n{bar}")


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[Any]], floatfmt: str = ".3f"
) -> str:
    """Fixed-width table (no third-party dependency)."""

    def fmt(x: Any) -> str:
        if isinstance(x, float):
            return format(x, floatfmt)
        return str(x)

    cells = [[fmt(x) for x in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    lines = [
        "  ".join(h.rjust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in cells:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)

