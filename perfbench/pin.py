"""One-time generator of the benchmark's pinned data.

    python3 perfbench/pin.py reference   # writes perfbench/reference.json
    python3 perfbench/pin.py costs       # writes perfbench/costs.json

``reference`` computes the exact values the workloads are checked against:
all 24 dimension-4 family slot 5-tuples, the slot totals and chi(E44), the
sha256 of the `chi --target E43 --with-h2` and `derive --n 2 --kappa 4`
reports, the generation states, and the E24 oracle dimensions.  It writes
the file only after checking them against the paper's printed values (family
A, the five slot totals, the chi(E44) numerator and threshold 96) and the
normal-form counts against the oracle.  Regenerate it only when the
mathematics changes, never to make a run pass.

``costs`` runs every item of the sampled pools alone in a cold child process
on the current code and records its run time (in seconds at the reference
host speed, see `hostspeed`) and peak RSS.
The sampler balances seeds by these baseline costs, so regenerating them
changes which items each seed draws: that is a new benchmark, not a fix.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import workloads  # noqa: E402

# printed in the source paper (the acceptance suite pins the same numbers)
GOLD_A = {
    "0127": Fraction(157423754766863651482110063939631617713614267,
                     7470130440549849070995762660822781685545412418720000000000000),
    "0136": Fraction(285224611253902544589491011638457808537315047,
                     34860608722565962331313559083839647865878591287360000000000000),
    "0145": Fraction(10306128852122999807705628256770676631371801,
                     5229091308384894349697033862575947179881788693104000000000000),
    "0235": Fraction(2097522233626513305099611552292506537139247,
                     2376859685629497431680469937534521445400813042320000000000000),
    "1234": Fraction(20051359515371820286197508247902844353,
                     2102485347748339169995992868230447983547822240000000000000),
}
GOLD_COEFF = {
    "0127": Fraction(2127566277536547206644157, 65144733745232853829877760000000000000),
    "0136": Fraction(52676407087143116547997, 4053450099703377571636838400000000000),
    "0145": Fraction(164685282124542664946051, 50668126246292219645460480000000000000),
    "0235": Fraction(122298240743566105217737, 114003284054157494202286080000000000000),
    "1234": Fraction(1429957461022772407321, 130289467490465707659755520000000000000),
}
E44_DENOMINATOR = 1313317832303894333210335641600000000000000
E44_NUMERATOR = [0, 1624908955061039283976041114, -928886901354141153880624704,
                 141170475250247662147363941, -6170606622505955255988786,
                 50048511135797034256235]
E44_THRESHOLD = 96


def _check(what: str, ok: bool) -> None:
    if not ok:
        raise SystemExit(f"pin.py: {what} disagrees with the printed value; nothing written")
    print(f"checked: {what}", file=sys.stderr)


def make_reference(env: workloads.Env) -> dict:
    families = {}
    totals = {}
    for fam in env.families.values():
        slots = env.euler.family_contribution(fam, 4).slots
        families[fam.id] = workloads.slots_text(slots)
        for name, v in slots.items():
            totals[name] = totals.get(name, Fraction(0)) + fam.multiplicity * v
        print(f"family {fam.id} done", file=sys.stderr)
    _check("family A slot 5-tuple", {k: Fraction(v) for k, v in families["A"].items()} == GOLD_A)
    _check("multiplicity-weighted slot totals", totals == GOLD_COEFF)
    chi = env.euler.assemble_chi(totals, 4)
    _check("chi(E44) numerator",
           env.euler.scaled_numerator(chi, E44_DENOMINATOR) == E44_NUMERATOR)
    _check("chi(E44) threshold", env.euler.positivity_threshold(chi) == E44_THRESHOLD)

    code, chi_digest = workloads.run_cli(env, workloads.CHI_ARGV)
    _check("chi --target E43 exit code", code == 0)
    code, derive_digest, state = workloads.derive_e24(env)
    _check("derive --n 2 --kappa 4 terminated",
           code == 0 and state.terminated and not state.budget_exceeded)
    generations = {}
    for name in workloads.GENERATIONS:
        st = workloads.generation(env, name)
        _check(f"{name} terminated", st.terminated and not st.budget_exceeded)
        generations[name] = workloads.state_digest(st)
    dims = []
    for m in workloads.ORACLE_WEIGHTS:
        count = len(env.invgen.state_normal_form_monomials(state, m))
        dim = env.invgen.invariant_space_dimension(env.jets.JetContext(2, 4), m)
        _check(f"E24 normal forms = oracle dimension at weight {m}", count == dim)
        dims.append(dim)
    return {
        "families": families,
        "slot_totals": workloads.slots_text(totals),
        "chi_e44": {"coefficients": [str(c) for c in chi.coeffs], "threshold": E44_THRESHOLD},
        "cli_sha256": {"chi-E43": chi_digest, "derive-E24": derive_digest},
        "generation_sha256": generations,
        "oracle_e24": dims,
    }


def _cold_cost(workload: str, item: str) -> dict:
    """Run time and peak RSS of the item alone in a cold child process.

    Median of three runs; one run for items far over any pass budget, or so
    cheap that their cost cannot tip a balanced draw.
    """
    runs = []
    for _ in range(3):
        out = run.run_child({"workload": workload, "items": [item], "trace": False,
                             "setup_only": False}, time.monotonic() + 600)
        if out["failures"]:
            raise SystemExit(f"pin.py: {item} failed: {out['failures'][item]}")
        runs.append(out)
        if not 0.2 < runs[0]["run_s"] < 15:
            break
    return {"cost_s": round(statistics.median(r["run_s"] for r in runs), 4),
            "rss_mb": round(statistics.median(r["rss_mb"] for r in runs), 1)}


def make_costs(env: workloads.Env) -> dict:
    rows = {}
    for fam in env.families:
        rows[f"family/{fam}"] = _cold_cost("chi", f"family/{fam}")
    for cid, set_name in workloads.VERIFY_SETS:
        for syz in env.catalog.load_catalog(cid).syzygy_sets[set_name]:
            item = f"syzygy/{cid}/{set_name}/{syz.id}"
            rows[item] = dict(_cold_cost("verify", item), weight=syz.weight)
    for cid in workloads.VERIFY_CATALOGS:
        for entry in env.catalog.load_catalog(cid).entries:
            item = f"integrity/{cid}/{entry.name}"
            rows[item] = dict(_cold_cost("verify", item), weight=entry.weight)
    return {"machine": f"{os.cpu_count()} cpus, Python {sys.version.split()[0]}",
            "items": rows}


def main() -> None:
    what = sys.argv[1] if len(sys.argv) == 2 else ""
    if what not in ("reference", "costs"):
        raise SystemExit(__doc__)
    env = workloads.Env("verify", reference={})
    env.set_up()
    doc = make_reference(env) if what == "reference" else make_costs(env)
    path = workloads.REFERENCE_PATH if what == "reference" else workloads.COSTS_PATH
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}", file=sys.stderr)


if __name__ == "__main__":
    main()
