"""Terminal line charts for experiment series.

The experiment drivers return (time, value) series; this renders them as
compact ASCII charts so ``python -m repro fig5b``/``fig5c`` can show the
figure's *shape* directly in the terminal, matplotlib-free.
"""

from __future__ import annotations

_GLYPHS = "*o+x#@%&"


def render_series(
    series: dict[str, list[tuple[float, float]]],
    width: int = 72,
    height: int = 16,
    y_label: str = "",
) -> str:
    """Render labelled (t, v) series onto one shared-axis char canvas."""
    points = [(t, v) for s in series.values() for t, v in s]
    if not points:
        return "(no data)"
    t_min = min(t for t, _ in points)
    t_max = max(t for t, _ in points)
    v_min = min(v for _, v in points)
    v_max = max(v for _, v in points)
    if v_max == v_min:
        v_max = v_min + 1.0
    if t_max == t_min:
        t_max = t_min + 1.0

    grid = [[" "] * width for _ in range(height)]
    for index, (label, data) in enumerate(series.items()):
        glyph = _GLYPHS[index % len(_GLYPHS)]
        for t, v in data:
            x = int((t - t_min) / (t_max - t_min) * (width - 1))
            y = int((v - v_min) / (v_max - v_min) * (height - 1))
            grid[height - 1 - y][x] = glyph

    lines = []
    top_label = f"{v_max:.4g}"
    bottom_label = f"{v_min:.4g}"
    margin = max(len(top_label), len(bottom_label), len(y_label)) + 1
    for row_index, row in enumerate(grid):
        if row_index == 0:
            prefix = top_label.rjust(margin)
        elif row_index == height - 1:
            prefix = bottom_label.rjust(margin)
        elif row_index == height // 2 and y_label:
            prefix = y_label.rjust(margin)
        else:
            prefix = " " * margin
        lines.append(f"{prefix}|{''.join(row)}")
    axis = " " * margin + "+" + "-" * width
    xticks = (
        " " * (margin + 1)
        + f"{t_min:.4g}".ljust(width - 10)
        + f"{t_max:.4g}".rjust(10)
    )
    legend = " " * (margin + 1) + "  ".join(
        f"{_GLYPHS[i % len(_GLYPHS)]} = {label}"
        for i, label in enumerate(series)
    )
    xticks += "  t (s)"
    return "\n".join(lines + [axis, xticks, legend])
