"""tools/enum_stages.py: per-stage time and calls of enum solves, side by
side for several checkouts in one process."""

import importlib.util
import sys
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "enum_stages.py"
_spec = importlib.util.spec_from_file_location("enum_stages", _TOOL)
enum_stages = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(enum_stages)


def test_one_round_prints_every_stage_for_every_root(capsys):
    root = str(_TOOL.parents[1])
    before = {k: v for k, v in sys.modules.items()
              if k.split(".")[0] == "switchreg"}
    code = enum_stages.main(["--root", root, "--root", root,
                             "--workload", "enum-n3", "--rounds", "1"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    # the checkout was imported as its own modules and this one's restored
    assert {k: v for k, v in sys.modules.items()
            if k.split(".")[0] == "switchreg"} == before
    assert out[0] == ("# enum-n3 seed 1, 1 rounds, 6 solves per root; "
                      "median per solve")
    assert out[1:3] == [f"# root {k}: {root}" for k in (0, 1)]
    assert out[3].split() == ["stage", "µs", "0", "calls", "0", "µs", "1",
                              "calls", "1"]
    rows = {}
    for line in out[4:-1]:
        name, values = line[:16].strip(), [float(v) for v in line[16:].split()]
        assert len(values) == 4, line
        rows[name] = values
    assert list(rows) == list(enum_stages.ROWS)
    # the same code makes the same calls; every stage runs in every solve
    for name, (_, calls0, _, calls1) in rows.items():
        assert calls0 == calls1, name
    assert all(v > 0 for name in ("enumeration", "search", "re-fit",
                                  "_least", "total") for v in rows[name])
    assert out[-1] == "reports identical: yes"
