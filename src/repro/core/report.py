"""Small text-reporting helpers shared by the experiment modules."""


def percent(x, digits=1):
    """Format a fraction as a percentage string."""
    return f"{100 * x:.{digits}f}%"


def format_table(headers, rows, title=None):
    """Render an ASCII table; numbers are shown with one decimal."""
    def cell(v):
        if isinstance(v, float):
            return f"{v:.1f}"
        return str(v)

    str_rows = [[cell(v) for v in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in str_rows)) if str_rows else len(h)
        for i, h in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
