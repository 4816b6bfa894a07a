"""The declaration bundle: phase 1's output as one XML file.

``repro harden`` writes the automated declarations of a run next to
the wrapper source (``declarations.xml``); ``repro diff`` compares two
bundles across releases.  Manual edits are code, not data, so a bundle
holds only the automated declarations.  Phase-1 reuse is the campaign
outcome store's job (:mod:`repro.campaign.store`), which is keyed by
content and so cannot serve a stale declaration.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from pathlib import Path

from repro.declarations import FunctionDeclaration


def save_declarations(
    declarations: dict[str, FunctionDeclaration], path: Path
) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    root = ET.Element("declarations")
    for name in sorted(declarations):
        root.append(ET.fromstring(declarations[name].to_xml()))
    ET.indent(root)
    path.write_text(ET.tostring(root, encoding="unicode"))


def load_declarations(path: Path) -> dict[str, FunctionDeclaration]:
    root = ET.fromstring(path.read_text())
    out: dict[str, FunctionDeclaration] = {}
    for element in root.findall("function"):
        declaration = FunctionDeclaration.from_xml(ET.tostring(element, encoding="unicode"))
        out[declaration.name] = declaration
    return out
