#!/usr/bin/env python3
"""Write tests/golden/scenario_cells.json from attack_lab reports.

The golden pins every deterministic field of every cell of every
checked-in manifest (wallSeconds is host time and is left out);
`Service.CheckedInManifestsReplayBitIdentically` compares each cold
service report against it.  Cells stay an ordered list, one line
each, because a manifest may repeat a label.

Regenerate only for a deliberate change of simulated results:

  scripts/scenario_cells.py build/examples/attack_lab
"""

import json
import pathlib
import subprocess
import sys
import tempfile

FIELDS = ("outcome", "detail", "attackTime", "hammerPasses",
          "flipsInduced", "ptesCorrupted", "selfReferences",
          "anvilTriggered")


def cells(attack_lab, manifest):
    with tempfile.TemporaryDirectory() as tmp:
        report = pathlib.Path(tmp) / "report.json"
        subprocess.run([attack_lab, "--scenario", str(manifest),
                        "--report", str(report)],
                       check=True, stdout=subprocess.DEVNULL)
        for cell in json.loads(report.read_text())["cells"]:
            row = {"label": cell["cell"]["label"],
                   "attack": cell["cell"]["attack"]}
            row.update((field, cell[field]) for field in FIELDS)
            yield json.dumps(row)


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    root = pathlib.Path(__file__).resolve().parent.parent
    manifests = sorted((root / "scenarios").glob("*.json"))
    blocks = []
    for manifest in manifests:
        rows = ",\n    ".join(cells(sys.argv[1], manifest))
        blocks.append(f'  "{manifest.name}": [\n    {rows}\n  ]')
    golden = root / "tests" / "golden" / "scenario_cells.json"
    golden.write_text("{\n" + ",\n".join(blocks) + "\n}\n")


if __name__ == "__main__":
    main()
