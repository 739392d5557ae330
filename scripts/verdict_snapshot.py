"""Snapshot every condition verdict over the four graph families, or compare two.

The snapshot covers path, ring, star and complete graphs with
n = 4..24, 32 and 48 and four row patterns:

- ``generic``: m = 2, random rows;
- ``pair``: m = 2, rows 1 and 3 parallel;
- ``blind3``: m = 3, the even nodes blind to the third axis;
- ``blind2``: m = 2, every third node blind to the second axis.

For each graph and pattern it records the ``analyze`` payload and the
``check_condition`` verdict (or the error class each raised), keyed
``<graph>/<pattern>/both`` after the checker's name in the analyze
payload, so that older snapshots line up; for each graph it records
``support_report``. Rows come from a seeded generator, so two checkouts
see the same inputs.

    python3 scripts/verdict_snapshot.py --out snap.json
    python3 scripts/verdict_snapshot.py --compare before.json after.json

``--compare`` prints the differences by class: verdicts, witnesses and
their supports, ``zero_space_dim``, epsilon*, eigenvalue lists, minimum
supports and errors. It then prints how far the numbers moved, each split
into holding and failing entries: the largest change in the projector W,
the largest change of a matched eigenvalue over the spectral radius
(each eigenvalue of BEFORE, in turn, is matched to the nearest one of
AFTER not yet taken), and the largest relative change of epsilon*. It
exits 1 when anything but W changed. BLAS runs on one thread, because a
threaded eigen-solve of M can move eigenvalues in their last digits
between runs.

Both modes also print, on stderr so that stdout stays the snapshot,
the smallest Laplacian separation margin over the snapshot graphs,
computed by this checkout: a gap between neighbouring eigenspaces over
the larger spread of the two, or the first nonzero eigenvalue over the
largest modulus in eigenspace 0. The analysis raises when it falls to
``1 / TAU_GAP``.
"""

import argparse
import io
import json
import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

import lsqflow as lf

FAMILIES = ("path", "ring", "star", "complete")
SIZES = tuple(range(4, 25)) + (32, 48)
PATTERNS = ("generic", "pair", "blind3", "blind2")


def rows_for(pattern: str, n: int) -> np.ndarray:
    rng = np.random.default_rng([n, PATTERNS.index(pattern)])
    H = rng.standard_normal((n, 3 if pattern == "blind3" else 2))
    if pattern == "pair":
        H[2] = 1.7 * H[0]
    elif pattern == "blind3":
        H[1::2, 2] = 0.0
    elif pattern == "blind2":
        H[2::3, 1] = 0.0
    return H


def verdict_record(problem, graph) -> dict:
    try:
        v = lf.check_condition(problem, graph)
    except lf.LsqflowError as exc:
        return {"error": type(exc).__name__}
    return {
        "holds": v.holds,
        "witness": None if v.witness is None else [float(v.witness[0]),
                                                   [float(x) for x in v.witness[1]]],
        "witness_support": None if v.witness_support is None else sorted(v.witness_support),
    }


def analyze_record(problem, graph) -> dict:
    out, err = io.StringIO(), io.StringIO()
    code = lf.run(lf.RunConfig(mode="analyze", problem=problem, graph=graph),
                  stdout=out, stderr=err)
    if code != 0:
        return {"error": json.loads(err.getvalue())["error"]}
    return json.loads(out.getvalue())


def snapshot() -> dict:
    entries = {}
    for family in FAMILIES:
        for n in SIZES:
            graph = lf.make_family(family, n)
            report = lf.support_report(lf.spectrum(lf.laplacian(graph)))
            entries[f"{family}-{n}/support"] = {
                "min_support": report.min_support,
                "supports": [sorted(s) for s in report.supports],
                "simple_spectrum": report.simple_spectrum,
            }
            for pattern in PATTERNS:
                H = rows_for(pattern, n)
                problem = lf.NetworkLinearEquation(H, np.ones(n))
                key = f"{family}-{n}/{pattern}"
                entries[f"{key}/analyze"] = analyze_record(problem, graph)
                entries[f"{key}/both"] = verdict_record(problem, graph)
    return entries


def smallest_separation_margin() -> tuple:
    """(margin, graph) of the snapshot graph whose Laplacian eigenspaces
    lie least apart."""
    margins = []
    for family in FAMILIES:
        for n in SIZES:
            spect = lf.spectrum(lf.laplacian(lf.make_family(family, n)))
            w, groups = spect.eigenvalues, spect.eigenspace_groups
            first, last = np.array([g[0] for g in groups]), np.array([g[-1] for g in groups])
            spread = w[last] - w[first]
            inside = np.append(np.maximum(spread[:-1], spread[1:]), np.abs(w[:last[0] + 1]).max())
            outside = np.append(w[first[1:]] - w[last[:-1]], w[first[1]])
            with np.errstate(divide="ignore"):
                margins.append((float((outside / inside).min()), f"{family}-{n}"))
    return min(margins)


def _witness_of(entry: dict):
    if "condition" in entry:
        return entry["condition"]["witness"], entry["condition"]["witness_support"]
    w = entry.get("witness")
    return (None if w is None else {"eigenvalue": w[0], "direction": w[1]},
            entry.get("witness_support"))


def matched_change(before, after) -> float:
    """The largest change of an eigenvalue, as [re, im] pairs, over the
    spectral radius of ``before``: each eigenvalue of ``before``, in turn,
    is matched to the nearest one of ``after`` not yet taken."""
    a, b = (np.array(e, dtype=float) @ [1.0, 1j] for e in (before, after))
    taken, change = np.zeros(b.size, dtype=bool), 0.0
    for z in a:
        gap = np.where(taken, np.inf, np.abs(b - z))
        j = int(np.argmin(gap))
        taken[j], change = True, max(change, gap[j])
    return change / np.abs(a).max(initial=0.0) if change else 0.0


def compare(before: dict, after: dict) -> dict:
    classes = {name: [] for name in ("missing", "error", "verdict", "witness",
                                     "witness_support", "zero_space_dim", "epsilon_star",
                                     "eigenvalues", "support", "W_presence")}
    moved = {name: {"holding": 0.0, "failing": 0.0}
             for name in ("W_max_abs_change", "eigenvalue_max_rel_change",
                          "epsilon_star_max_rel_change")}
    for key in sorted(set(before) | set(after)):
        if key not in before or key not in after:
            classes["missing"].append(key)
            continue
        a, b = before[key], after[key]
        if "error" in a or "error" in b:
            if a.get("error") != b.get("error"):
                classes["error"].append(f"{key}: {a.get('error')} -> {b.get('error')}")
            continue
        if key.endswith("/support"):
            if a != b:
                classes["support"].append(f"{key}: {a['min_support']} -> {b['min_support']}")
            continue
        holds_a = a["condition"]["holds"] if "condition" in a else a["holds"]
        holds_b = b["condition"]["holds"] if "condition" in b else b["holds"]
        if holds_a != holds_b:
            classes["verdict"].append(f"{key}: {holds_a} -> {holds_b}")
        (wit_a, sup_a), (wit_b, sup_b) = _witness_of(a), _witness_of(b)
        if wit_a != wit_b:
            classes["witness"].append(f"{key}: {wit_a} -> {wit_b}")
        if sup_a != sup_b:
            classes["witness_support"].append(f"{key}: {sup_a} -> {sup_b}")
        if "spectral" not in a:
            continue
        sa, sb = a["spectral"], b["spectral"]
        change = {}
        for name in ("zero_space_dim", "epsilon_star"):
            if sa[name] != sb[name]:
                classes[name].append(f"{key}: {sa[name]} -> {sb[name]}")
        ea, eb = sa["epsilon_star"], sb["epsilon_star"]
        if ea != eb and None not in (ea, eb):
            change["epsilon_star_max_rel_change"] = abs(eb - ea) / abs(ea)
        if sa["m_eigenvalues"] != sb["m_eigenvalues"]:
            classes["eigenvalues"].append(key)
            if len(sa["m_eigenvalues"]) == len(sb["m_eigenvalues"]):
                change["eigenvalue_max_rel_change"] = matched_change(sa["m_eigenvalues"],
                                                                     sb["m_eigenvalues"])
        Wa, Wb = sa["projector_W"], sb["projector_W"]
        if (Wa is None) != (Wb is None):
            classes["W_presence"].append(key)
        elif Wa is not None:
            change["W_max_abs_change"] = float(np.abs(np.array(Wa) - np.array(Wb)).max())
        side = "holding" if holds_b else "failing"
        for name, value in change.items():
            moved[name][side] = max(moved[name][side], value)
    return {"entries": len(after), "differences": classes, **moved}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", help="write the snapshot here (default: stdout)")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    args = parser.parse_args()
    if args.compare:
        with open(args.compare[0]) as fa, open(args.compare[1]) as fb:
            before, after = json.load(fa), json.load(fb)
        result = compare(before, after)
        print(f"{result['entries']} entries")
        for name, items in result["differences"].items():
            print(f"{name:16s} {len(items)}")
            for item in items[:10]:
                print(f"    {item}")
        for name, label in (("W_max_abs_change", "W max abs change"),
                            ("eigenvalue_max_rel_change", "eigenvalue max change / radius"),
                            ("epsilon_star_max_rel_change", "epsilon* max relative change")):
            print(f"{label}: holding {result[name]['holding']:.3e}, "
                  f"failing {result[name]['failing']:.3e}")
        print("smallest Laplacian separation margin %.3g (%s)" % smallest_separation_margin(),
              file=sys.stderr)
        return 1 if any(result["differences"].values()) else 0
    entries = snapshot()
    print("smallest Laplacian separation margin %.3g (%s)" % smallest_separation_margin(),
          file=sys.stderr)
    text = json.dumps(entries, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
