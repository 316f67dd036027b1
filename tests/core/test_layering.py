"""Layering guard: the protocol layers stay runtime-agnostic.

``repro.core`` and ``repro.baselines`` are written against the neutral
:mod:`repro.transport` seam only; importing a concrete runtime
(``repro.simnet`` or ``repro.runtime``) from them is the inverted
dependency this guard exists to catch (`make lint` greps for the same
patterns).  The runtimes themselves must not import each other either:
``simnet`` is the semantic truth, ``runtime`` the wall-clock truth, and
nothing forces one to load to use the other.
"""

import pathlib
import re
import sys

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"

#: package -> forbidden sibling packages
RULES = {
    "core": ("simnet", "runtime"),
    "baselines": ("simnet", "runtime"),
    "runtime": ("simnet",),
    "simnet": ("runtime",),
}


def _violations(package: str, forbidden: tuple) -> list:
    alts = "|".join(forbidden)
    pattern = re.compile(
        rf"^\s*(?:from\s+(?:repro\.|\.\.)(?:{alts})|import\s+repro\.(?:{alts}))\b",
        re.MULTILINE,
    )
    found = []
    for path in sorted((SRC / package).rglob("*.py")):
        for m in pattern.finditer(path.read_text()):
            line = m.group(0).strip()
            found.append(f"{path.relative_to(SRC.parent)}: {line}")
    return found


def test_protocol_layers_never_import_a_runtime():
    problems = []
    for package, forbidden in RULES.items():
        problems += _violations(package, forbidden)
    assert not problems, "layering violations:\n" + "\n".join(problems)


def test_transport_module_is_runtime_neutral():
    text = (SRC / "transport.py").read_text()
    assert not re.search(r"\b(simnet|runtime)\b\s*import|import\s+(asyncio|socket)",
                         text), "repro.transport must stay dependency-free"


def test_core_loads_without_either_runtime():
    """Importing the protocol layers must not drag in a runtime package."""
    import subprocess

    code = (
        "import sys\n"
        "import repro.core, repro.baselines\n"
        "bad = [m for m in sys.modules if m.startswith(('repro.simnet', 'repro.runtime'))]\n"
        "assert not bad, bad\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


#: the ordering disciplines and disseminations: the only modules that
#: may name a mode engine or branch on the mode knobs
SEAM_MODULES = {"core/romp.py", "core/llft.py", "core/multigroup.py", "core/overlay.py"}
#: old engine attributes and removed mode flags — forbidden everywhere else
MODE_ENGINE = re.compile(r"\bromp\.(?:llft|overlay|multigroup)\b|\b(?:llft|multigroup)_mode\b")
#: reads of the mode selectors
MODE_READ = re.compile(r"\b(?:config|cfg)\.(?:overlay_mode|ordering)\b")


def _construction_site() -> range:
    """Lines of ``ProcessorGroup.__init__``, where a group's ordering
    discipline and dissemination are built."""
    import ast

    tree = ast.parse((SRC / "core" / "datapath.py").read_text())
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and cls.name == "ProcessorGroup":
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == "__init__":
                    return range(fn.lineno, fn.end_lineno + 1)
    raise AssertionError("ProcessorGroup.__init__ not found")


def test_modes_are_chosen_only_at_the_seam():
    """No mode branch outside the ordering/dissemination seam.

    The analysis harness (``repro.analysis``) picks scenario mixes per
    mode, so it may read the selectors; the protocol packages may not.
    """
    site = _construction_site()
    problems = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel in SEAM_MODULES:
            continue
        for n, line in enumerate(path.read_text().splitlines(), 1):
            if MODE_ENGINE.search(line):
                problems.append(f"{rel}:{n}: {line.strip()}")
            elif (MODE_READ.search(line) and not rel.startswith("analysis/")
                  and not (rel == "core/datapath.py" and n in site)):
                problems.append(f"{rel}:{n}: {line.strip()}")
    assert not problems, "mode branches outside the seam:\n" + "\n".join(problems)
