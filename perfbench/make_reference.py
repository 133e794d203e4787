"""Regenerate perfbench/reference.json, the frozen values the checks use.

    python3 perfbench/make_reference.py

Theory values are the library's own closed-form outputs for the full
workload definitions.  The ML-approach p_e values come from one large
seeded run whose master seed no benchmark run uses.  Regenerate only when
a change is meant to alter these numbers, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import pathlib
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import sincount as sc  # noqa: E402
import workloads as wl  # noqa: E402

ML_REFERENCE_SEED = 20201111
ML_REFERENCE_TRIALS = 20000
CONSISTENCY_FIELDS = ("rho", "kappa_ir_sup_exact", "kappa_ir_sup_simple",
                      "kappa_i_inf_exact", "kappa_i_inf_simple")


def theory_reference():
    defn = wl.DEFINITIONS["full"]["theory-design"]
    built = wl.build(defn)
    scen = built["scenarios"]
    ql = {}
    for snr, dists in built["ql_dists"].items():
        ql[wl.snr_key(snr)] = {s.name: sc.abridged_for(dists, s).p_a for s in built["specs"]}
    ml = {s.name: sc.abridged_for(built["ml_dists"], s, params_per_signal=3).p_a
          for s in built["specs"]}
    sweep_def = defn["sweep"]
    sweep = sc.ql_sweep(scen[sweep_def["snr_db"]], wl.make_spec(sweep_def["criterion"]),
                        list(sweep_def["deltas"]))
    tune = {}
    for tdef in defn["tune"]:
        kwargs = dict(search_range=tuple(tdef["range"]), grid_points=tdef["grid_points"])
        grid = sc.tune(tdef["family"], scen[tdef["snr_db"]], refine=False, **kwargs)
        best = sc.tune(tdef["family"], scen[tdef["snr_db"]], refine=tdef["refine"], **kwargs)
        tune[tdef["family"]] = {
            "kappa_opt": best.kappa_opt,
            "objective_value": best.objective_value,
            "trace": [[float(k), float(v)] for k, v in grid.search_trace],
        }
    cscen = scen[defn["consistency_snr_db"]]
    _, lambdas = sc.residual_means(cscen, cscen.all_frequencies)
    ranges = sc.consistency_range(lambdas[:cscen.nu0], cscen.max_order, cscen.nu0)
    return {
        "ql": ql, "ml": ml, "sweep": [float(p) for p in sweep.p_a], "tune": tune,
        "consistency": {f: getattr(ranges, f) for f in CONSISTENCY_FIELDS},
    }


def ml_reference():
    defn = wl.DEFINITIONS["full"]["mc-ml"]
    built = wl.build(defn)
    p_e, degenerate = {}, {}
    for snr in defn["snr_db"]:
        reports = sc.estimate(built["scenarios"][snr], built["specs"], built["approach"],
                              ML_REFERENCE_TRIALS, ML_REFERENCE_SEED)
        p_e[wl.snr_key(snr)] = {r.criterion.name: r.p_e for r in reports}
        degenerate[wl.snr_key(snr)] = reports[0].degenerate
    return {"master_seed": ML_REFERENCE_SEED, "trials": ML_REFERENCE_TRIALS, "p_e": p_e,
            "degenerate": degenerate}


def main():
    t0 = time.perf_counter()
    doc = {"theory": theory_reference()}
    print(f"theory references in {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    doc["mc-ml"] = ml_reference()
    print(f"all references in {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    (HERE / "reference.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
