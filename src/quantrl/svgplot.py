"""Standalone SVG charts with no plotting dependency.

Three chart builders cover the run artifacts: reward curve (raw episodes
plus moving average), action timeline (price line with buy/sell markers)
and equity curve. Every plotted series also exists in a CSV artifact, so
the plots carry no exclusive data. Output is deterministic: fixed float
formatting, no timestamps.
"""

from __future__ import annotations

import math
from html import escape

WIDTH, HEIGHT = 860, 420
MARGIN_LEFT, MARGIN_RIGHT = 70, 20
MARGIN_TOP, MARGIN_BOTTOM = 40, 50


class SvgCanvas:
    def __init__(self, comment: str | None = None):
        self._parts = [
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">\n'
        ]
        if comment:
            self._parts.append(f"<!-- {escape(comment, quote=False)} -->\n")
        self._parts.append(
            f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>\n'
        )

    def line(self, x1, y1, x2, y2, color="#444", width=1.0):
        self._parts.append(
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            f'stroke="{color}" stroke-width="{width}"/>\n'
        )

    def polyline(self, points, color="#1f77b4", width=1.5):
        if not points:
            return
        coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
        self._parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="{width}"/>\n'
        )

    def triangle(self, x, y, size, color, up=True):
        s = size
        if up:
            pts = [(x, y - s), (x - s, y + s), (x + s, y + s)]
        else:
            pts = [(x, y + s), (x - s, y - s), (x + s, y - s)]
        coords = " ".join(f"{px:.2f},{py:.2f}" for px, py in pts)
        self._parts.append(f'<polygon points="{coords}" fill="{color}"/>\n')

    def text(self, x, y, content, size=12, color="#222", anchor="start",
             rotate=None):
        transform = f' transform="rotate({rotate} {x:.2f} {y:.2f})"' if rotate else ""
        self._parts.append(
            f'<text x="{x:.2f}" y="{y:.2f}" font-size="{size}" fill="{color}" '
            f'font-family="sans-serif" text-anchor="{anchor}"{transform}>'
            f"{escape(str(content), quote=False)}</text>\n"
        )

    def to_string(self) -> str:
        return "".join(self._parts) + "</svg>\n"


def _nice_ticks(lo: float, hi: float, n: int = 5):
    """About ``n`` round values in [lo, hi], a range that ``_Frame`` widened."""
    span = hi - lo
    raw = span / max(n - 1, 1)
    magnitude = 10.0 ** math.floor(math.log10(raw))
    for mult in (1, 2, 2.5, 5, 10):
        step = mult * magnitude
        if span / step <= n:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    value = first
    while value <= hi + 1e-12 * span:
        ticks.append(0.0 if abs(value) < 1e-12 * span else value)
        value += step
    return ticks


def _tick_labels(ticks):
    """(tick, label) pairs, each label the tick in ``g`` format with the
    fewest significant digits, from ``g``'s 6 up to the 17 that tell any
    two floats apart, that keep the labels distinct."""
    for digits in range(6, 18):
        labels = [f"{tick:.{digits}g}" for tick in ticks]
        if len(set(labels)) == len(labels):
            break
    return zip(ticks, labels)


class _Frame:
    """Maps data coordinates into the plot rectangle and draws axes."""

    def __init__(self, canvas, x_range, y_range, title, x_label, y_label):
        self.canvas = canvas
        self.x_lo, self.x_hi = self._widened(*x_range)
        self.y_lo, self.y_hi = self._widened(*y_range)
        self.left = MARGIN_LEFT
        self.right = WIDTH - MARGIN_RIGHT
        self.top = MARGIN_TOP
        self.bottom = HEIGHT - MARGIN_BOTTOM
        canvas.text(WIDTH / 2, 22, title, size=15, anchor="middle")
        canvas.text(WIDTH / 2, HEIGHT - 12, x_label,
                    anchor="middle")
        canvas.text(18, (self.top + self.bottom) / 2, y_label, anchor="middle",
                    rotate=-90)
        canvas.line(self.left, self.bottom, self.right, self.bottom)
        canvas.line(self.left, self.top, self.left, self.bottom)
        for tick, label in _tick_labels(_nice_ticks(self.y_lo, self.y_hi)):
            y = self.y_pixel(tick)
            canvas.line(self.left - 4, y, self.left, y)
            canvas.line(self.left, y, self.right, y, color="#eee")
            canvas.text(self.left - 8, y + 4, label, size=11, anchor="end")
        for tick, label in _tick_labels(_nice_ticks(self.x_lo, self.x_hi)):
            x = self.x_pixel(tick)
            canvas.line(x, self.bottom, x, self.bottom + 4)
            canvas.text(x, self.bottom + 18, label, size=11,
                        anchor="middle")

    @staticmethod
    def _widened(lo, hi):
        """[lo, hi] if it is wider than 2**-40 of its magnitude, else [lo,
        lo + w] with w the larger of 1.0 and that width: past 2**53 a 1.0
        is rounded away, and a tick step below the float spacing at a tick
        would never move the tick loop."""
        least = 2.0 ** -40 * max(abs(lo), abs(hi))
        return (lo, hi) if hi - lo > least else (lo, lo + max(1.0, least))

    def x_pixel(self, value):
        frac = (value - self.x_lo) / (self.x_hi - self.x_lo)
        return self.left + frac * (self.right - self.left)

    def y_pixel(self, value):
        frac = (value - self.y_lo) / (self.y_hi - self.y_lo)
        return self.bottom - frac * (self.bottom - self.top)

    def series(self, xs, ys):
        return [(self.x_pixel(x), self.y_pixel(y)) for x, y in zip(xs, ys)]

    def date_labels(self, dates):
        """First and last date under the x axis, if any dates are given."""
        if dates:
            self.canvas.text(self.left, self.bottom + 34, str(dates[0]), size=11)
            self.canvas.text(self.right, self.bottom + 34, str(dates[-1]), size=11,
                             anchor="end")


def reward_curve_svg(rewards, moving_avg, title="Training rewards",
                     stamp: str | None = None) -> str:
    """Raw per-episode rewards (light) plus the moving average (dark)."""
    canvas = SvgCanvas(comment=stamp)
    episodes = list(range(len(rewards)))
    lo = min(min(rewards), min(moving_avg))
    hi = max(max(rewards), max(moving_avg))
    frame = _Frame(canvas, (0, max(len(rewards) - 1, 1)), (lo, hi),
                   title, "episode", "episode reward")
    canvas.polyline(frame.series(episodes, rewards), color="#b0c4de", width=1.0)
    canvas.polyline(frame.series(episodes, moving_avg), color="#1f4e9c", width=2.0)
    canvas.text(frame.right, frame.top - 6, "raw / moving average", size=11,
                anchor="end", color="#666")
    return canvas.to_string()


def action_timeline_svg(prices, actions, dates=None, title="Action timeline",
                        stamp: str | None = None) -> str:
    """Price polyline with buy (green, up) and sell (red, down) markers.

    ``actions`` uses the executed-action names: "hold" | "buy" | "sell".
    """
    canvas = SvgCanvas(comment=stamp)
    steps = list(range(len(prices)))
    frame = _Frame(canvas, (0, max(len(prices) - 1, 1)),
                   (min(prices), max(prices)), title, "week", "close")
    canvas.polyline(frame.series(steps, prices), color="#555", width=1.2)
    for i, action in enumerate(actions):
        if action == "buy":
            canvas.triangle(frame.x_pixel(i), frame.y_pixel(prices[i]), 5,
                            "#2a9d2a", up=True)
        elif action == "sell":
            canvas.triangle(frame.x_pixel(i), frame.y_pixel(prices[i]), 5,
                            "#cc3333", up=False)
    frame.date_labels(dates)
    return canvas.to_string()


def equity_curve_svg(asset_values, dates=None, title="Equity curve",
                     stamp: str | None = None) -> str:
    canvas = SvgCanvas(comment=stamp)
    steps = list(range(len(asset_values)))
    frame = _Frame(canvas, (0, max(len(asset_values) - 1, 1)),
                   (min(asset_values), max(asset_values)),
                   title, "week", "portfolio value")
    canvas.polyline(frame.series(steps, asset_values), color="#1f4e9c", width=1.8)
    frame.date_labels(dates)
    return canvas.to_string()
