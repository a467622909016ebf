"""The benchmark's workloads: item pools, seeded sampling, execution and checks.

An item is a string id, ``<kind>/<argument>/...``.  The parent (`run.py`)
turns a seed into a list of item ids without importing jetcalc; a cold child
process (`child.py`) sets up and runs the items, checking each result
exactly against the pinned references in ``reference.json``.

Why these three workloads (each one is dominated by one layer and bypasses
the others, so an optimisation of a layer has one workload that should move
and two that should not):

- ``chi``: dense simplex moments in ``euler``; ``groebner`` and ``invgen``
  are never called and ``polyring`` barely.
- ``verify``: large ``polyring`` expansions (``substitute``, ``*``, ``**``)
  in syzygy verification, plus the reverse use of ``substitute`` (small
  linear images into large invariants) in the integrity checks.
- ``derive``: the Buchberger loop in ``groebner`` behind ``run_generation``,
  and the exact-rank kernel of the dimension oracle.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")
COSTS_PATH = os.path.join(HERE, "costs.json")

WORKLOADS = ("chi", "verify", "derive")

CHI_ARGV = ["chi", "--target", "E43", "--with-h2", "--jobs", "1"]
DERIVE_ARGV = ["derive", "--n", "2", "--kappa", "4", "--jobs", "1"]

# Catalogs whose syzygies and entries make up the verify pool, and the
# syzygy sets drawn from.  Loading them is part of the verify set-up.
VERIFY_SETS = (("E2k4", "fundamental"), ("UE2k5", "loop1"), ("UE2k5", "loop2"),
               ("UE2k5", "loop3"), ("UE2k5", "loop4"), ("UE3k4", "lex41"),
               ("UE4k4", "lex41"))
VERIFY_CATALOGS = ("E2k4", "UE2k5", "UE3k4", "UE4k4")
DERIVE_CATALOGS = ("E2k3", "E2k4", "UE3k3")
GENERATIONS = {"E2k3": (2, 3, "full"), "UE3k3-bi": (3, 3, "bi")}
ORACLE_WEIGHTS = range(0, 11)

# Verify items whose baseline cost exceeds this many seconds are left out of
# the pool: one of them alone (UE3k4.38 takes over 30 s) would exceed a pass.
VERIFY_COST_CAP_S = 5.5
LARGE_WEIGHT = 39

# Strata: (name, predicate on (item id, cost row), items drawn).  Every seed
# draws the same number from each stratum, and the draw is redone until both
# its summed baseline cost and its summed peak RSS (`costs.json`) are within
# BALANCE_TOLERANCE of the strata's expected totals, so every seed does
# comparable work.  The first verify stratum holds the ~10k-term lex41
# expansions, so every sample exercises the large-term path.
BALANCE_TOLERANCE = 0.02


def _syzygy(pred):
    return lambda item, row: (item.startswith("syzygy/")
                              and row["cost_s"] <= VERIFY_COST_CAP_S and pred(item, row))


def _entry(pred):
    return lambda item, row: (item.startswith("integrity/")
                              and row["cost_s"] <= VERIFY_COST_CAP_S and pred(row))


VERIFY_STRATA = (
    ("lex41 weight>=39", _syzygy(lambda i, r: "/lex41/" in i and r["weight"] >= LARGE_WEIGHT), 2),
    ("UE2k5 weight>=39", _syzygy(lambda i, r: "/UE2k5/" in i and r["weight"] >= LARGE_WEIGHT), 4),
    ("weight 30..38", _syzygy(lambda i, r: 30 <= r["weight"] < LARGE_WEIGHT), 10),
    ("weight <30", _syzygy(lambda i, r: r["weight"] < 30), 14),
    ("integrity weight>=17", _entry(lambda r: r["weight"] >= 17), 2),
    ("integrity weight<17", _entry(lambda r: r["weight"] < 17), 5),
)


def _chi_strata(rows: Dict[str, dict]):
    """One dimension-4 family from each third of the baseline costs, dearest first."""
    fams = sorted((r["cost_s"], i) for i, r in rows.items() if i.startswith("family/"))
    third = len(fams) // 3
    bands = [{i for _, i in fams[k * third:(k + 1) * third]} for k in (2, 1, 0)]
    return tuple((f"family cost third {3 - k}", lambda i, r, band=band: i in band, 1)
                 for k, band in enumerate(bands))


# The smoke mode (for the benchmark's own tests) runs one cheap item of each
# kind that needs no more than a few seconds.
SMOKE_ITEMS = {
    "chi": ["assemble/E44"],
    "verify": ["syzygy/E2k4/fundamental/E2k4.1", "integrity/E2k4/L3"],
    "derive": ["generation/E2k3", "generation/UE3k3-bi"],
}


class Mismatch(Exception):
    """An item returned a value that differs from its pinned reference."""


def load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _draw(rng: random.Random, rows: Dict[str, dict], strata) -> List[str]:
    pools = []
    for name, pred, k in strata:
        pool = sorted(i for i, r in rows.items() if pred(i, r))
        if len(pool) < k:
            raise ValueError(f"stratum {name!r} has {len(pool)} items, needs {k}")
        pools.append((pool, k))
    keys = ("cost_s", "rss_mb")
    targets = [sum(k * sum(rows[i][key] for i in pool) / len(pool) for pool, k in pools)
               for key in keys]
    for _ in range(100_000):
        picked = [i for pool, k in pools for i in rng.sample(pool, k)]
        if all(abs(sum(rows[i][key] for i in picked) - want) <= BALANCE_TOLERANCE * want
               for key, want in zip(keys, targets)):
            return picked
    raise ValueError("no balanced draw found")


def sample(workload: str, seed: int, smoke: bool = False) -> List[str]:
    """The item ids of one pass, in run order; a function of the seed only."""
    rng = random.Random(f"{workload}:{seed}")
    if smoke:
        return list(SMOKE_ITEMS[workload])
    rows = load_json(COSTS_PATH)["items"]
    if workload == "chi":
        # a fixed order: the peak memory of a pass depends on it (the first
        # family's memory is only partly reused), so the dearest family,
        # whose peak varies least, goes first
        dear, mid, cheap = _draw(rng, rows, _chi_strata(rows))
        return [dear, "cli/chi-E43", mid, cheap, "assemble/E44"]
    if workload == "verify":
        items = _draw(rng, rows, VERIFY_STRATA)
        rng.shuffle(items)
        return items
    if workload == "derive":
        # the oracle needs the E24 state that the derive command produced
        head = ["cli/derive-E24"] + [f"generation/{g}" for g in GENERATIONS]
        tail = [f"oracle/E24/{m}" for m in ORACLE_WEIGHTS]
        rng.shuffle(head)
        rng.shuffle(tail)
        return head + tail
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# execution (child process only: these import jetcalc)
# ---------------------------------------------------------------------------


class Env:
    """What set-up leaves ready: the jetcalc modules, families, references."""

    def __init__(self, workload: str, reference: Optional[dict] = None):
        from jetcalc import catalog, cli, euler, groebner, invgen, jets, schur

        self.catalog, self.cli, self.euler = catalog, cli, euler
        self.groebner, self.invgen, self.jets, self.schur = groebner, invgen, jets, schur
        self.reference = load_json(REFERENCE_PATH) if reference is None else reference
        self.e24_state = None
        self.workload = workload

    def set_up(self) -> None:
        ids = {"verify": VERIFY_CATALOGS, "derive": DERIVE_CATALOGS}.get(self.workload, ())
        for cid in ids:
            self.catalog.load_catalog(cid)
        self.families = {f.id: f for f in self.schur.enumerate_families()}


def _expect(what: str, got, want) -> None:
    if got != want:
        raise Mismatch(f"{what}: got {got!r}, expected {want!r}")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_cli(env: Env, argv: Sequence[str]) -> Tuple[int, str]:
    """Exit code and report digest of one in-process CLI call."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = env.cli.main(list(argv))
    return code, _sha256(buf.getvalue())


def derive_e24(env: Env):
    """`jetcalc derive --n 2 --kappa 4`, keeping the state it produced."""
    produced = []
    inner = env.cli.run_generation

    def keep(*args, **kwargs):
        state = inner(*args, **kwargs)
        produced.append(state)
        return state

    env.cli.run_generation = keep
    try:
        code, digest = run_cli(env, DERIVE_ARGV)
    finally:
        env.cli.run_generation = inner
    return code, digest, produced[-1]


def generation(env: Env, name: str):
    """run_generation as the CLI runs it, with a caller-owned budget."""
    n, kappa, mode = GENERATIONS[name]
    ctx = env.jets.JetContext(n, kappa)
    return env.invgen.run_generation(ctx, mode, budget=env.groebner.Budget(),
                                     normalizer=env.catalog.normalizer_for(ctx, mode))


def state_digest(state) -> str:
    return _sha256(json.dumps(state.to_json(), sort_keys=True))


def slots_text(slots: Dict[str, Fraction]) -> Dict[str, str]:
    return {k: str(v) for k, v in sorted(slots.items())}


def run_item(env: Env, item: str) -> None:
    """Run one item; raise Mismatch (or whatever the program raised) on failure."""
    ref = env.reference
    kind, _, arg = item.partition("/")
    if kind == "cli" and arg == "chi-E43":
        code, digest = run_cli(env, CHI_ARGV)
        _expect("exit code", code, 0)
        _expect("report sha256", digest, ref["cli_sha256"]["chi-E43"])
    elif kind == "cli" and arg == "derive-E24":
        code, digest, state = derive_e24(env)
        # a budget-exhausted or unterminated derivation is a failure, never a
        # fast success
        _expect("terminated", state.terminated, True)
        _expect("budget exceeded", state.budget_exceeded, False)
        _expect("exit code", code, 0)
        _expect("report sha256", digest, ref["cli_sha256"]["derive-E24"])
        env.e24_state = state
    elif kind == "family":
        contrib = env.euler.family_contribution(env.families[arg], 4)
        _expect(f"family {arg} slots", slots_text(contrib.slots), ref["families"][arg])
    elif kind == "assemble":
        totals = {k: Fraction(v) for k, v in ref["slot_totals"].items()}
        chi = env.euler.assemble_chi(totals, 4)
        _expect("chi(E44) coefficients", [str(c) for c in chi.coeffs],
                ref["chi_e44"]["coefficients"])
        _expect("threshold", env.euler.positivity_threshold(chi), ref["chi_e44"]["threshold"])
    elif kind == "syzygy":
        cid, set_name, sid = arg.split("/")
        data = env.catalog.load_catalog(cid)
        syz = [s for s in data.syzygy_sets[set_name] if s.id == sid]
        _expect(f"syzygy {sid} found", len(syz), 1)
        gens = data.generator_map()
        checks = env.invgen.verify_syzygies(syz, gens, "f1" if "f1" in gens else "f1'")
        _expect(f"{sid} expands to zero", [c.ok for c in checks], [True])
    elif kind == "integrity":
        cid, name = arg.split("/")
        data = env.catalog.load_catalog(cid)
        one = env.catalog.CatalogData(data.id, data.ctx, data.mode, [data.entry(name)])
        issues = env.catalog.integrity_check(one)
        _expect(f"{cid}/{name} integrity issues", [i.problem for i in issues], [])
    elif kind == "generation":
        state = generation(env, arg)
        _expect("terminated", state.terminated, True)
        _expect("budget exceeded", state.budget_exceeded, False)
        _expect("state sha256", state_digest(state), ref["generation_sha256"][arg])
    elif kind == "oracle":
        m = int(arg.split("/")[1])
        if env.e24_state is None:
            raise Mismatch("no E24 state: the derive item did not succeed")
        count = len(env.invgen.state_normal_form_monomials(env.e24_state, m))
        dim = env.invgen.invariant_space_dimension(env.jets.JetContext(2, 4), m)
        _expect(f"normal forms at weight {m}", count, dim)
        _expect(f"dimension at weight {m}", dim, ref["oracle_e24"][m])
    else:
        raise ValueError(f"unknown item {item!r}")
