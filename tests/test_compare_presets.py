"""tools/compare_presets.py: closed-form cells byte-identical, oracle cells inside the shared budget."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "compare_presets", Path(__file__).resolve().parents[1] / "tools" / "compare_presets.py"
)
compare_presets = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_presets)

HEADER = "index,strength[1],dx_closed[length],dx_oracle[length],dx_residual[length],chi[1],n_max[1],tail_mass[1],flag"
BASE = "0,0.5,0.25,0.25000000001,1e-11,2.0,64,1e-16,"


def test_passes_inside_the_budget_and_fails_past_it(tmp_path):
    def csv(name, row):
        path = tmp_path / name
        path.write_text(f"{HEADER}\n{row}\n")
        return str(path)

    base = csv("base.csv", BASE)
    # the oracle, residual, chi and tail cells move by less than their budget
    moved = csv("moved.csv", "0,0.5,0.25,0.250000000011,1.05e-11,2.00000001,64,1.1e-16,")
    lines, faults = compare_presets.compare(base, moved)
    assert faults == [] and lines[-1] == "4 moved cells in 1 rows"
    assert compare_presets.main([base, base]) == 0
    # a closed-form cell that moves at all, and an oracle cell past the budget
    broken = csv("broken.csv", "0,0.5,0.2500000000000001,0.2500001,1e-11,2.0,64,1e-16,")
    _, faults = compare_presets.compare(base, broken)
    assert [fault.split(":")[0] for fault in faults] == ["row 0 dx_closed[length]", "row 0 dx_oracle[length]"]
    assert compare_presets.main([base, broken]) == 1
