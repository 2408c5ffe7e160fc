"""Minimal self-contained SVG line charts for sweep outputs.

No plotting dependency: each chart is a single static SVG 1.1 document with
axes, ticks, optional log scales, point markers, reference vlines and a
legend. Output is deterministic (no ids, no timestamps); the optional desc
text carries the sha256 of the scenario file that produced the data, so a
chart can be traced back to its exact configuration.
"""

import math
from dataclasses import dataclass, field

__all__ = ["LineChart", "PALETTE"]

PALETTE = ("#0072b2", "#d55e00", "#009e73", "#cc79a7", "#e69f00", "#56b4e9")


def _escape(text):
    """Text content for XML: &, < and > as entities, quotes kept, as
    ``html.escape(text, quote=False)`` gives without loading html.entities."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(v):
    """Pixel coordinate with trailing zeros trimmed."""
    s = f"{v:.2f}".rstrip("0").rstrip(".")
    return s if s else "0"


def _label(v):
    return "%g" % v


def _nice_step(span, target):
    raw = span / max(target, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if mult * mag >= raw:
            return mult * mag
    return 10.0 * mag


def _linear_ticks(lo, hi, target=6):
    if hi <= lo:
        hi = lo + 1.0
    step = _nice_step(hi - lo, target)
    first = math.ceil(lo / step - 1e-9) * step
    ticks = []
    v = first
    while v <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(v) < 1e-12 * step else v)
        v += step
    return ticks


def _log_ticks(lo, hi):
    d0 = math.floor(math.log10(lo) + 1e-12)
    d1 = math.ceil(math.log10(hi) - 1e-12)
    decades = [10.0**d for d in range(d0, d1 + 1)]
    ticks = [d for d in decades if lo / 1.001 <= d <= hi * 1.001]
    if len(ticks) <= 2:
        extra = []
        for d in decades:
            for m in (2.0, 5.0):
                v = m * d
                if lo / 1.001 <= v <= hi * 1.001:
                    extra.append(v)
        ticks = sorted(set(ticks) | set(extra))
    return ticks


@dataclass
class _Series:
    label: str
    xs: list
    ys: list
    color: str
    dashed: bool


@dataclass
class LineChart:
    """Build with add(); write() emits the finished SVG document."""

    title: str = ""
    xlabel: str = ""
    ylabel: str = ""
    xlog: bool = False
    ylog: bool = False
    width: int = 720
    height: int = 480
    series: list = field(default_factory=list)
    vlines: list = field(default_factory=list)

    def add(self, label, xs, ys, dashed=False):
        xs = [float(x) for x in xs]
        ys = [float(y) for y in ys]
        if len(xs) != len(ys):
            raise ValueError("x and y lengths differ")
        color = PALETTE[len(self.series) % len(PALETTE)]
        self.series.append(_Series(label, xs, ys, color, dashed))
        return self

    def add_vline(self, x, label=""):
        self.vlines.append((float(x), label))
        return self

    def _usable(self, x, y):
        if not (math.isfinite(x) and math.isfinite(y)):
            return False
        if self.xlog and x <= 0:
            return False
        if self.ylog and y <= 0:
            return False
        return True

    def _limits(self):
        xs, ys = [], []
        for s in self.series:
            for x, y in zip(s.xs, s.ys):
                if self._usable(x, y):
                    xs.append(x)
                    ys.append(y)
        for x, _ in self.vlines:
            if not self.xlog or x > 0:
                xs.append(x)
        if not xs:
            raise ValueError("chart has no plottable points")

        def pad(lo, hi, logscale):
            if logscale:
                if hi / lo < 1.0001:
                    lo, hi = lo / 2.0, hi * 2.0
                return lo / 1.15, hi * 1.15
            if hi - lo < 1e-300:
                lo, hi = lo - 0.5, hi + 0.5
            margin = 0.06 * (hi - lo)
            return lo - margin, hi + margin

        x0, x1 = pad(min(xs), max(xs), self.xlog)
        y0, y1 = pad(min(ys), max(ys), self.ylog)
        return x0, x1, y0, y1

    def write(self, path, desc=""):
        with open(path, "w", newline="\n") as fh:
            fh.write(self.render(desc))

    def render(self, desc=""):
        ml, mr, mt, mb = 74, 22, 40 if self.title else 20, 52
        pw = self.width - ml - mr
        ph = self.height - mt - mb
        x0, x1, y0, y1 = self._limits()

        def sx(v):
            f = (
                (math.log10(v) - math.log10(x0))
                / (math.log10(x1) - math.log10(x0))
                if self.xlog
                else (v - x0) / (x1 - x0)
            )
            return ml + f * pw

        def sy(v):
            f = (
                (math.log10(v) - math.log10(y0))
                / (math.log10(y1) - math.log10(y0))
                if self.ylog
                else (v - y0) / (y1 - y0)
            )
            return mt + (1.0 - f) * ph

        out = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
            f'height="{self.height}" viewBox="0 0 {self.width} {self.height}" '
            f'font-family="sans-serif">',
        ]
        if desc:
            out.append(f"<desc>{_escape(desc)}</desc>")
        out.append(
            f'<rect x="0" y="0" width="{self.width}" height="{self.height}" '
            'fill="#ffffff"/>'
        )
        if self.title:
            out.append(
                f'<text x="{_fmt(ml + pw / 2)}" y="24" text-anchor="middle" '
                f'font-size="15">{_escape(self.title)}</text>'
            )

        xticks = _log_ticks(x0, x1) if self.xlog else _linear_ticks(x0, x1)
        yticks = _log_ticks(y0, y1) if self.ylog else _linear_ticks(y0, y1, 5)
        for v in xticks:
            px = sx(v)
            out.append(
                f'<line x1="{_fmt(px)}" y1="{_fmt(mt)}" x2="{_fmt(px)}" '
                f'y2="{_fmt(mt + ph)}" stroke="#dddddd" stroke-width="1"/>'
            )
            out.append(
                f'<text x="{_fmt(px)}" y="{_fmt(mt + ph + 18)}" '
                f'text-anchor="middle" font-size="12">{_label(v)}</text>'
            )
        for v in yticks:
            py = sy(v)
            out.append(
                f'<line x1="{_fmt(ml)}" y1="{_fmt(py)}" x2="{_fmt(ml + pw)}" '
                f'y2="{_fmt(py)}" stroke="#dddddd" stroke-width="1"/>'
            )
            out.append(
                f'<text x="{_fmt(ml - 8)}" y="{_fmt(py + 4)}" text-anchor="end" '
                f'font-size="12">{_label(v)}</text>'
            )
        out.append(
            f'<rect x="{_fmt(ml)}" y="{_fmt(mt)}" width="{_fmt(pw)}" '
            f'height="{_fmt(ph)}" fill="none" stroke="#333333" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(ml + pw / 2)}" y="{_fmt(self.height - 12)}" '
            f'text-anchor="middle" font-size="13">{_escape(self.xlabel)}</text>'
        )
        out.append(
            f'<text x="18" y="{_fmt(mt + ph / 2)}" text-anchor="middle" '
            f'font-size="13" transform="rotate(-90 18 {_fmt(mt + ph / 2)})">'
            f"{_escape(self.ylabel)}</text>"
        )

        for xv, vlabel in self.vlines:
            if self.xlog and xv <= 0:
                continue
            if not x0 <= xv <= x1:
                continue
            px = sx(xv)
            out.append(
                f'<line x1="{_fmt(px)}" y1="{_fmt(mt)}" x2="{_fmt(px)}" '
                f'y2="{_fmt(mt + ph)}" stroke="#888888" stroke-width="1" '
                'stroke-dasharray="2,3"/>'
            )
            if vlabel:
                out.append(
                    f'<text x="{_fmt(px + 4)}" y="{_fmt(mt + 14)}" '
                    f'font-size="11" fill="#555555">{_escape(vlabel)}</text>'
                )

        for s in self.series:
            pts = [
                (sx(x), sy(y)) for x, y in zip(s.xs, s.ys) if self._usable(x, y)
            ]
            if not pts:
                continue
            dash = ' stroke-dasharray="6,4"' if s.dashed else ""
            if len(pts) > 1:
                path = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in pts)
                out.append(
                    f'<polyline points="{path}" fill="none" stroke="{s.color}" '
                    f'stroke-width="1.8"{dash}/>'
                )
            if len(pts) <= 40:
                for px, py in pts:
                    out.append(
                        f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="2.6" '
                        f'fill="{s.color}"/>'
                    )

        ly = mt + 10
        for s in self.series:
            lx = ml + pw - 150
            out.append(
                f'<line x1="{_fmt(lx)}" y1="{_fmt(ly)}" x2="{_fmt(lx + 24)}" '
                f'y2="{_fmt(ly)}" stroke="{s.color}" stroke-width="2"'
                + (' stroke-dasharray="6,4"' if s.dashed else "")
                + "/>"
            )
            out.append(
                f'<text x="{_fmt(lx + 30)}" y="{_fmt(ly + 4)}" font-size="12">'
                f"{_escape(s.label)}</text>"
            )
            ly += 18

        out.append("</svg>")
        return "\n".join(out) + "\n"
