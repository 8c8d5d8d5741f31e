"""The benchmark's workloads: which CLI requests one pass makes, and why.

A workload is a fixed list of ``qoscpoly`` CLI requests run one after the
other in one fresh interpreter (one client, closed loop).  Each request is
keyed by a stable name; ``golden.json`` holds, per key, the facts its output
must reproduce.  The seed of the benchmark is passed through as ``--seed`` to
every request that takes one.
"""

from __future__ import annotations

from dataclasses import dataclass

# Seed at which the golden sha256 of a seeded request's output was taken.
# It is also the CLI's own default seed.
DEFAULT_SEED = 0

POLY_SERIES_CONTEXTS = (("1/2", "0"), ("3/4", "1/3"), ("2/3", "1/5"))
POLY_SERIES_SUITES = ("qkernel", "qseries", "polyfamilies", "operators",
                      "hahncalc")


@dataclass(frozen=True)
class Request:
    key: str
    argv: tuple
    seeded: bool  # the output depends on --seed


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    contexts: tuple  # the (s, omega) pairs the requests run at
    requests: tuple  # Requests, with "{seed}" where the seed goes

    def argv(self, request: Request, seed: int) -> list[str]:
        return [str(seed) if a == "{seed}" else a for a in request.argv]

    def parameters(self) -> dict:
        return {"contexts": [list(c) for c in self.contexts],
                "requests": {r.key: " ".join(r.argv) for r in self.requests}}


def _poly_series_requests() -> tuple:
    out = []
    for s, omega in POLY_SERIES_CONTEXTS:
        at = ("--s", s, "--omega", omega)
        suites = tuple(a for name in POLY_SERIES_SUITES for a in ("--suite", name))
        tag = f"s={s},omega={omega}"
        out.append(Request(f"{tag}/verify",
                           ("verify",) + suites + at
                           + ("--order", "32", "--seed", "{seed}"), True))
        out.append(Request(f"{tag}/table-hahn",
                           ("table", "hahn", "--nmax", "24") + at, False))
        out.append(Request(f"{tag}/table-poly",
                           ("table", "poly", "--nmax", "24") + at, False))
    return tuple(out)


WORKLOADS = {w.name: w for w in (
    Workload(
        "verify-default",
        "The headline run, verify at its defaults (s=1/2, omega=1/8, nmax 12, "
        "order 12) as JSON: thousands of small matrix-element cells and the "
        "only large serialised report.",
        (("1/2", "1/8"),),
        (Request("verify", ("verify", "--format", "json", "--seed", "{seed}"),
                 True),)),
    Workload(
        "matel-large-n",
        "Few large cells: table matel at nmax 24, where the oracle's path "
        "products grow about as N^3.5 over big rationals; no Poly or series "
        "work. Takes no seed.",
        (("1/2", "1/8"),),
        (Request("table-matel",
                 ("table", "matel", "--nmax", "24", "--format", "json"),
                 False),)),
    Workload(
        "poly-series",
        "Poly, series, families and Hahn calculus at three contexts (one with "
        "omega=0) and larger rational heights, text output; no matrix "
        "elements, so it is the control for matel changes.",
        POLY_SERIES_CONTEXTS,
        _poly_series_requests()),
)}
