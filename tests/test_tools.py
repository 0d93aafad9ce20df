"""tools/mutants.py's list of equivalent mutants stays in step with src/."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_every_equivalent_mutant_names_a_live_site():
    # The tool skips a listed site by its key (scope, source line, start
    # and end column, change), so an entry whose site was edited away
    # skips nothing, and the mutant it stood for would be sampled and
    # counted as a survivor.
    entries = json.loads(mutants.EQUIVALENT.read_text())
    live = {}
    for module in {e["module"] for e in entries}:
        source = (ROOT / "src" / "mpf" / f"{module}.py").read_text()
        live[module] = {mutants._key(module, site) for site in mutants.sites(source)}
    stale = [e for e in entries if mutants._key(e["module"], e) not in live[e["module"]]]
    assert stale == []
    assert all(e["reason"] for e in entries)


def test_every_site_has_its_own_key():
    # mutate() makes the first site whose key matches, so two sites with one
    # key (the nested operators of a chain such as a // b // c) would leave
    # the second one unreachable, and a sample could draw one mutant twice.
    for module in mutants.TESTS:
        keys = [mutants._key(module, site) for site in mutants.sites((ROOT / "src" / "mpf" / f"{module}.py").read_text())]
        assert len(keys) == len(set(keys)), module


def test_dropping_a_site_keeps_every_other_draw():
    # A site's rank is a hash of the seed and its own key, so removing any
    # one live site leaves every other chosen site chosen; a draw over the
    # list order would reshuffle the whole sample.
    live = mutants.sites((ROOT / "src" / "mpf" / "transforms.py").read_text())
    chosen = mutants.sample("transforms", live, 1, 30)
    assert len(chosen) == 30
    for k in range(len(live)):
        rest = live[:k] + live[k + 1:]
        again = mutants.sample("transforms", rest, 1, 30)
        assert all(site in again for site in chosen if site is not live[k])
    assert mutants.sample("transforms", live, 2, 30) != chosen
