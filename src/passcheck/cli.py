"""Command-line front end: check, compare, gen-corpus, dense-check.

Exit codes: 0 passive / agreement, 1 non-passive / disagreement,
2 on any error (parse failure, invalid model, oracle size guard,
metric evaluation failure).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys

import numpy as np

from . import corpus, hamiltonian, verifier
from .model import ModelError, load_model, realize, write_json
from .report import SCHEMA_VERSION, encode_num


def _load(path, hz):
    model = load_model(path)
    if hz:
        two_pi = 2.0 * math.pi
        model = dataclasses.replace(
            model, poles=model.poles * two_pi, residues=model.residues * two_pi,
            omega_max=model.omega_max * two_pi)
    return model


def _write_csv(path, report):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["omega", "zeta", "phi", "subband", "is_violation"])
        for omega, zeta, phi, subband in report.samples:
            writer.writerow([
                encode_num(omega),
                repr(zeta), repr(phi), subband,
                int(phi > report.gamma),
            ])


def cmd_check(args):
    model = _load(args.model, args.hz)
    report = verifier.check_passivity(model, args.mode)
    if args.report:
        write_json(args.report, report.to_dict())
    if args.samples:
        _write_csv(args.samples, report)
    print(
        f"{'passive' if report.passive else 'NON-PASSIVE'}: "
        f"{len(report.bands)} band(s), L={report.subband_count}, "
        f"K={report.total_evaluations}, {report.wall_time:.3f}s"
    )
    return 0 if report.passive else 1


def classify(adaptive_passive, oracle_passive):
    if adaptive_passive == oracle_passive:
        return "TP"
    if adaptive_passive and not oracle_passive:
        return "FP"
    return "FN"


# Points of the dense sweep that settles a disagreement.
DENSE_COUNT = 10 ** 6


def compare_model(model, mode="hard"):
    """Adaptive check vs Hamiltonian oracle, dense sweep as tiebreaker."""
    report = verifier.check_passivity(model, mode)
    ss = realize(model)
    oracle_passive, oracle_bands = hamiltonian.oracle_verdict(ss, model)
    label = classify(report.passive, oracle_passive)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "mode": mode,
        "adaptive_passive": report.passive,
        "oracle_passive": oracle_passive,
        "classification": label,
        "adaptive_bands": [b.to_dict() for b in report.bands],
        "oracle_bands": [b.to_dict() for b in oracle_bands],
        "total_evaluations": report.total_evaluations,
    }
    if label != "TP":
        violated, worst_w, worst_phi = verifier.dense_reference_check(
            model, DENSE_COUNT)
        doc["dense_check"] = {
            "count": DENSE_COUNT,
            "violation_found": violated,
            "worst_omega": encode_num(worst_w),
            "worst_phi": worst_phi,
        }
        if label == "FN" and violated:
            doc["resolution"] = "passive-but-FN: oracle missed a real violation"
        elif label == "FN":
            doc["resolution"] = "adaptive false alarm"
        elif violated:
            doc["resolution"] = "adaptive missed a real violation"
        else:
            doc["resolution"] = "oracle false alarm or tangential touch"
    return doc


def cmd_compare(args):
    model = _load(args.model, args.hz)
    doc = compare_model(model, args.mode)
    if args.report:
        write_json(args.report, doc)
    print(f"{doc['classification']}: adaptive={doc['adaptive_passive']}, "
          f"oracle={doc['oracle_passive']}")
    return 0 if doc["classification"] == "TP" else 1


def cmd_gen_corpus(args):
    manifest = corpus.generate_corpus(args.seed, args.out, count=args.count)
    print(f"wrote {len(manifest['entries'])} models to {args.out}")
    return 0


def cmd_dense_check(args):
    model = _load(args.model, args.hz)
    violated, worst_w, worst_phi = verifier.dense_reference_check(
        model, args.count)
    print(f"{'NON-PASSIVE' if violated else 'passive'}: "
          f"worst phi={worst_phi:.9g} at omega={worst_w:.9g}")
    return 1 if violated else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="passcheck",
        description="Passivity verification of scattering macromodels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--model", required=True, help="model JSON file")
        p.add_argument("--hz", action="store_true",
                       help="interpret model frequencies as Hz, convert to rad/s")

    p = sub.add_parser("check", help="run the adaptive passivity check")
    add_common(p)
    p.add_argument("--mode", default="soft", choices=sorted(verifier.PRESETS))
    p.add_argument("--report", help="write report JSON here")
    p.add_argument("--samples", help="write evaluated samples CSV here")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("compare", help="adaptive check vs Hamiltonian oracle")
    add_common(p)
    p.add_argument("--mode", default="hard", choices=sorted(verifier.PRESETS))
    p.add_argument("--report", help="write comparison JSON here")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("gen-corpus", help="generate a synthetic model corpus")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--count", type=int, default=None)
    p.set_defaults(func=cmd_gen_corpus)

    p = sub.add_parser("dense-check", help="brute-force warped-grid sweep")
    add_common(p)
    p.add_argument("--count", type=int, default=10 ** 5)
    p.set_defaults(func=cmd_dense_check)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # An overflow surfaces as a non-finite metric, which the evaluator
        # reports by name; numpy's own warnings about it would only repeat it.
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON at byte offset {exc.pos}: {exc.msg}",
              file=sys.stderr)
        return 2
    except (ModelError, hamiltonian.OracleUnavailable, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except verifier.EvaluatorError as exc:
        print(f"error: metric evaluation failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
