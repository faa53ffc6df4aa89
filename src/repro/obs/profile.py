"""Span-tree self-time aggregation and trace renderers.

The ``repro trace`` CLI (and ``repro run --profile-stages``) read one
span tree: :func:`aggregate_self_times` sums each stage's *self time*
(wall minus direct children's wall), :func:`format_top_table` ranks
stages by it, and :func:`format_waterfall` draws the tree as an
offset-scaled waterfall.  All operate on the JSON documents served by
``GET /trace/<id>`` (see :func:`trace_document` for the accepted
shapes).
"""

from __future__ import annotations


# --- span-tree helpers -----------------------------------------------------


def iter_tree(node):
    """Depth-first iteration over a span tree node and its children."""
    if node is None:
        return
    yield node
    for child in node.get("children", ()):
        yield from iter_tree(child)


def aggregate_self_times(root) -> dict:
    """Per-stage ``{self_s, wall_s, count}`` over one span tree."""
    aggregated: dict[str, dict] = {}
    for node in iter_tree(root):
        wall = float(node.get("wall_s", 0.0))
        child_wall = sum(
            float(child.get("wall_s", 0.0)) for child in node.get("children", ())
        )
        entry = aggregated.setdefault(
            node.get("name", "?"), {"self_s": 0.0, "wall_s": 0.0, "count": 0}
        )
        entry["self_s"] += max(0.0, wall - child_wall)
        entry["wall_s"] += wall
        entry["count"] += 1
    return aggregated


def trace_document(doc) -> tuple:
    """Normalize a trace JSON document to ``(trace_id, root_node)``.

    Accepts, in order of preference: a ``GET /trace/<id>`` document
    (or ``repro run --trace-out`` file) with a ``"root"`` key, a saved
    ``POST /query`` response with an inlined ``"trace"``, a raw
    ``{"spans": [...]}`` dump, or a bare span node.
    """
    if not isinstance(doc, dict):
        raise ValueError("trace document must be a JSON object")
    inlined = doc.get("trace")
    if isinstance(inlined, dict):
        doc = inlined
    if "root" in doc:
        return doc.get("trace_id"), doc["root"]
    if isinstance(doc.get("spans"), list):
        from .trace import span_tree

        tree = span_tree(doc["spans"], doc.get("trace_id"))
        return tree["trace_id"], tree["root"]
    if "name" in doc and "wall_s" in doc:
        return doc.get("trace_id"), doc
    raise ValueError(
        "not a trace document: expected a 'root' span tree, a 'spans'"
        " list, or a single span object"
    )


# --- renderers -------------------------------------------------------------


def format_waterfall(root, width: int = 48, max_spans: int = 60) -> str:
    """Render a span tree as an indented, offset-scaled waterfall."""
    if root is None:
        return "(empty trace)"
    t0 = float(root.get("start", 0.0))
    total = max(float(root.get("wall_s", 0.0)), 1e-9)
    lines: list[str] = []
    shown = 0
    omitted = 0

    def walk(node, depth: int) -> None:
        nonlocal shown, omitted
        if shown >= max_spans:
            omitted += sum(1 for _ in iter_tree(node))
            return
        shown += 1
        wall = float(node.get("wall_s", 0.0))
        offset = max(0.0, float(node.get("start", t0)) - t0)
        left = min(width - 1, int(round(offset / total * width)))
        bar_width = max(1, min(width - left, int(round(wall / total * width))))
        bar = " " * left + "#" * bar_width
        label = f"{'  ' * depth}{node.get('name', '?')}"
        lines.append(f"{label:<30s} |{bar:<{width}s}| {wall * 1000.0:10.2f} ms")
        for child in node.get("children", ()):
            walk(child, depth + 1)

    walk(root, 0)
    if omitted:
        lines.append(f"... {omitted} more span(s) omitted (--width/--top)")
    return "\n".join(lines)


def format_top_table(aggregated: dict, top: int | None = 10) -> str:
    """Render per-stage self times as a ranked table."""
    if not aggregated:
        return "(no spans)"
    total_self = sum(entry["self_s"] for entry in aggregated.values()) or 1e-9
    rows = sorted(
        aggregated.items(), key=lambda item: item[1]["self_s"], reverse=True
    )
    if top is not None:
        rows = rows[:top]
    lines = [
        f"{'stage':<20s} {'count':>6s} {'self(s)':>10s} {'self%':>7s}"
        f" {'wall(s)':>10s}"
    ]
    for name, entry in rows:
        lines.append(
            f"{name:<20s} {entry['count']:>6d} {entry['self_s']:>10.3f}"
            f" {entry['self_s'] / total_self * 100.0:>6.1f}%"
            f" {entry['wall_s']:>10.3f}"
        )
    return "\n".join(lines)
