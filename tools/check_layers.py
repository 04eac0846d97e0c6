#!/usr/bin/env python3
"""Fail when a src/ layer includes a header from a layer above it.

The layer order is read from the map in docs/architecture.md: the
`src/<layer>` lines of its diagram, top (highest) to bottom. Two layers
sit outside the stack: `util` may be used by every layer, and `hw` sits
beside ssa/backend (it may use ssa and everything below it; backend and
everything above it may use hw).

Usage:
    check_layers.py [--root DIR]

Exit status 0 when every `#include "<layer>/..."` under src/ points at the
same layer or one below it, 1 otherwise (one line per violation).
"""

import argparse
import re
import sys
from pathlib import Path

INCLUDE = re.compile(r'^\s*#\s*include\s+"([a-z_]+)/')
MAP_LINE = re.compile(r"^\s*src/([a-z_]+)\s")


def layer_ranks(architecture_md):
    """Rank per layer, higher = further up the map."""
    stack = []
    for line in architecture_md.read_text().splitlines():
        match = MAP_LINE.match(line)
        if match and match.group(1) not in ("hw", "util") and match.group(1) not in stack:
            stack.append(match.group(1))
    if "ssa" not in stack or "backend" not in stack:
        sys.exit(f"check_layers: no ssa/backend layers found in {architecture_md}")
    ranks = {name: len(stack) - i for i, name in enumerate(stack)}
    ranks["hw"] = ranks["ssa"] + 0.5  # above ssa, below backend
    ranks["util"] = -1  # everything may use it
    return ranks


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=Path(__file__).resolve().parent.parent, type=Path)
    args = parser.parse_args()

    ranks = layer_ranks(args.root / "docs" / "architecture.md")
    violations = []
    for path in sorted((args.root / "src").rglob("*.[ch]pp")):
        layer = path.relative_to(args.root / "src").parts[0]
        if layer not in ranks:
            violations.append(f"{path}: layer '{layer}' is missing from docs/architecture.md")
            continue
        for number, line in enumerate(path.read_text().splitlines(), start=1):
            match = INCLUDE.match(line)
            if not match or match.group(1) not in ranks:
                continue
            target = match.group(1)
            if ranks[target] > ranks[layer]:
                violations.append(
                    f"{path.relative_to(args.root)}:{number}: {layer} includes {target}/ "
                    f"(a layer above it)")
    for violation in violations:
        print(violation)
    if violations:
        print(f"check_layers: {len(violations)} upward include(s)")
        return 1
    print(f"check_layers: {len(ranks)} layers, no upward includes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
