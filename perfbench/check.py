"""Verdict checks for one item: every CLI call exits 0 with JSON output, and
each expected (command, key, value) holds."""

from __future__ import annotations

import json

from workloads import FINITE


def check_item(item, results):
    """Problems found in `results`, a list of (command, exit code, stdout);
    an empty list means the item passed."""
    problems = []
    parsed = {}
    for command, code, out in results:
        if code != 0:
            problems.append(f"{command}: exit {code}")
            continue
        try:
            parsed[command] = json.loads(out)
        except ValueError:
            problems.append(f"{command}: output is not JSON")
    for command, key, want in item.expect:
        if command not in parsed:
            continue  # already reported above
        got = parsed[command].get(key, "<missing>")
        ok = isinstance(got, int) and not isinstance(got, bool) if want == FINITE \
            else got == want and type(got) is type(want)
        if not ok:
            problems.append(f"{command}: {key} = {got!r}, expected {want!r}")
    return problems
