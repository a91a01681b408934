"""The README's library example runs as written and prints what the README quotes,
the records it names list the fields the code has, and every name its module
table quotes still exists."""

import dataclasses
import importlib
import re
from pathlib import Path

import numpy as np

import thzbsa as t
from thzbsa.harness import AXES

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_figures():
    text = README.read_text()
    section = text.split("## Library example", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope: dict = {}
    exec(compile(block, "README.md", "exec"), scope)
    plain, corrected = scope["plain"].sum_rate, scope["corrected"].sum_rate
    assert f"# {plain:.2f} {corrected:.2f}\n" in block
    rates = {m: np.array([r.reports[m].sum_rate for r in scope["trials"]])
             for m in ("omp", "bsa_omp")}
    ahead = int(np.sum(rates["bsa_omp"] > rates["omp"]))
    prose = " ".join(section.split())
    assert (f"Over the {len(scope['trials'])} trials `bsa_omp` averages "
            f"{rates['bsa_omp'].mean():.2f} against {rates['omp'].mean():.2f} for `omp` "
            f"and is ahead on {ahead} of them") in prose


def test_beamformer_set_fields():
    fields = re.search(r"`BeamformerSet\(([^)]*)\)`", README.read_text()).group(1)
    assert re.split(r",\s+", fields) == [f.name for f in dataclasses.fields(t.BeamformerSet)]


def test_cli_default_values():
    sentence = re.search(r"Without `--values` a sweep runs its default values: ([^.]*)\.",
                         " ".join(README.read_text().split())).group(1)
    stated = {sweep: tuple(float(v) for v in values.split(","))
              for sweep, values in re.findall(r"`(\w+)` `([^`]+)`", sentence)}
    assert stated == {sweep: values for sweep, values, _ in AXES.values()}


IDENTIFIER = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def _resolves(module, name: str) -> bool:
    """``name`` is an attribute path in ``module`` or in a class defined there; its last
    part may be a field that a class declares without a default."""
    classes = [c for c in vars(module).values()
               if isinstance(c, type) and c.__module__ == module.__name__]
    return any(_walks(root, name.split(".")) for root in [module, *classes])


def _walks(obj, parts: list[str]) -> bool:
    *head, last = parts
    for part in head:
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return hasattr(obj, last) or last in getattr(obj, "__annotations__", {})


def test_module_table_names_resolve():
    rows = re.findall(r"^\| `(thzbsa\.\w+)` \| (.*) \|$", README.read_text(), re.M)
    assert {name for name, _ in rows} >= {"thzbsa.channel", "thzbsa.omp"}
    stale = [(name, ident) for name, cell in rows for ident in re.findall(r"`([^`]+)`", cell)
             if IDENTIFIER.fullmatch(ident) and not _resolves(importlib.import_module(name), ident)]
    assert stale == []


def test_resolver_refuses_a_stale_name():
    omp = importlib.import_module("thzbsa.omp")
    assert _resolves(omp, "Dictionary") and _resolves(omp, "psi_f") and _resolves(omp, "D_F")
    assert not _resolves(omp, "_AtomTables") and not _resolves(omp, "theta_sines")
    assert not _resolves(importlib.import_module("thzbsa.channel"), "_Sines")
    # a dotted path to a field declared without a default, and to one that is not declared
    assert _resolves(omp, "BeamformerSet.F_RF") and _resolves(omp, "BeamformerSet.R_RF")
    assert not _resolves(omp, "BeamformerSet.Q_RF")
    assert _resolves(importlib.import_module("thzbsa.channel"), "ChannelSet.theta")
    # names that left a module, and where one of them lives now
    harness = importlib.import_module("thzbsa.harness")
    assert not _resolves(harness, "RedrawExhausted")
    assert not _resolves(importlib.import_module("thzbsa.metrics"), "sum_rate_sd_analog")
    assert _resolves(harness, "sum_rate_sd_analog")
