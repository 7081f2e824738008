"""JSON persistence for diagrams and fork scripts, plus DOT export.

Documents are UTF-8 JSON with sorted keys and a trailing newline, so
saving the same structure always produces identical bytes. A diagram
document carries only the ordered upper-cover lists; lower lists are
rebuilt on load.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Union

from .construct import ForkScript
from .diagram import PlanarDiagram, _left_walk, build_diagram
from .errors import LatticeError, ParseError, ValidationError

PathLike = Union[str, Path]


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def diagram_to_obj(diagram: PlanarDiagram) -> dict:
    elements = []
    for i in range(diagram.n):
        entry: dict = {"id": i}
        if diagram.labels is not None and diagram.labels[i] is not None:
            entry["label"] = diagram.labels[i]
        elements.append(entry)
    return {
        "name": diagram.name or f"lattice-{diagram.n}",
        "elements": elements,
        "upper_covers": {str(i): list(diagram.upper[i]) for i in range(diagram.n)},
    }


def obj_to_diagram(obj) -> PlanarDiagram:
    """Decode a diagram document; ids are densified in ascending order."""
    if not isinstance(obj, dict):
        raise ParseError("diagram document must be a JSON object")
    name = obj.get("name")
    if name is not None and not isinstance(name, str):
        raise ParseError('"name" must be a string')
    elements = obj.get("elements")
    covers = obj.get("upper_covers")
    if not isinstance(elements, list) or not isinstance(covers, dict):
        raise ParseError('diagram document needs "elements" and "upper_covers"')

    ids = []
    labels = {}
    for entry in elements:
        if not isinstance(entry, dict) or not _is_int(entry.get("id")):
            raise ParseError('every element needs an integer "id"')
        ident = entry["id"]
        if ident in labels:
            raise ParseError(f"duplicate element id {ident}")
        label = entry.get("label")
        if label is not None and not isinstance(label, str):
            raise ParseError(f'label of element {ident} must be a string')
        labels[ident] = label
        ids.append(ident)
    if not ids:
        raise ParseError("diagram document lists no elements")

    dense = {orig: i for i, orig in enumerate(sorted(ids))}
    upper: list[list[int]] = [[] for _ in ids]
    key_of: dict[int, str] = {}
    for raw_key, row in covers.items():
        try:
            orig = int(raw_key)
        except (TypeError, ValueError):
            raise ParseError(f"upper_covers key {raw_key!r} is not an integer id") from None
        if orig not in dense:
            raise ParseError(f"upper_covers mentions unknown element {orig}")
        first = key_of.setdefault(orig, raw_key)
        if first != raw_key:
            raise ParseError(f"upper_covers keys {first!r} and {raw_key!r} both name element {orig}")
        if not isinstance(row, list) or not all(_is_int(j) for j in row):
            raise ParseError(f"upper covers of {orig} must be a list of integer ids")
        for j in row:
            if j not in dense:
                raise ParseError(f"element {orig} lists unknown cover {j}")
        upper[dense[orig]] = [dense[j] for j in row]

    ordered_labels = [labels[orig] for orig in sorted(ids)]
    has_labels = any(lab is not None for lab in ordered_labels)
    try:
        return build_diagram(
            upper,
            labels=ordered_labels if has_labels else None,
            name=name,
        )
    except LatticeError as exc:
        raise ValidationError(str(exc)) from exc


def save(diagram: PlanarDiagram, path: PathLike) -> None:
    Path(path).write_text(canonical_json(diagram_to_obj(diagram)), encoding="utf-8")


def load(path: PathLike) -> PlanarDiagram:
    return obj_to_diagram(_read_json(path))


def save_script(script: ForkScript, path: PathLike) -> None:
    Path(path).write_text(canonical_json(script.to_obj()), encoding="utf-8")


def load_script(path: PathLike) -> ForkScript:
    return ForkScript.from_obj(_read_json(path))


def _read_json(path: PathLike):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def _unique_keys(pairs: list) -> dict:
    """Build a JSON object, refusing a key that it repeats.

    Plain json.loads keeps only the last value of a repeated key.
    """
    out = {}
    for key, value in pairs:
        if key in out:
            raise ParseError(f"key {key!r} repeated in one JSON object")
        out[key] = value
    return out


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def render_dot(diagram: PlanarDiagram, name: Optional[str] = None) -> str:
    """DOT text with one node per element and one edge per cover.

    Nodes are grouped into same-rank blocks by height, bottom rank
    first, and listed left to right within each rank; output is
    deterministic for a given diagram.
    """
    title = name or diagram.name or "diagram"
    lines = [f'digraph "{_dot_escape(title)}" {{', "  rankdir=BT;"]
    by_height: dict[int, list[int]] = {}
    for x in range(diagram.n):
        by_height.setdefault(diagram.height(x), []).append(x)
    rank, _ = _left_walk(diagram.upper, diagram.bottom)
    for h in sorted(by_height):
        nodes = sorted(by_height[h], key=rank.__getitem__)
        decls = []
        for x in nodes:
            label = str(x)
            if diagram.labels is not None and diagram.labels[x] is not None:
                label = diagram.labels[x]
            decls.append(f'"{x}" [label="{_dot_escape(label)}"];')
        lines.append("  { rank=same; " + " ".join(decls) + " }")
    for x in range(diagram.n):
        for y in diagram.upper[x]:
            lines.append(f'  "{x}" -> "{y}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
