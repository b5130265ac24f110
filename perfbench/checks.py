"""Output checks for the benchmark's commands.

They run outside every timed region.  None of them pins an output digest:
a run is compared with itself (byte-identical files across repetitions)
and with the generator's ground truth (manifest counts, generating
coefficients), so a declared behaviour fix in the package does not read as
a failure unless it changes what the ground truth fixes.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

#: How many standard errors a fitted mw-ep coefficient may sit from the value
#: it was generated with.
COEFFICIENT_SIGMAS = 5.0


def digests(paths: list[Path]) -> dict[str, str]:
    return {str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}


def _body_lines(path: Path) -> list[str]:
    return path.read_text().splitlines()[1:]


def check_pipeline(out_dir: Path, truth: dict) -> list[str]:
    """Manifest counts against the ground truth, and clean = train + test."""
    problems = []
    manifest = json.loads((out_dir / "manifest.json").read_text())
    if manifest["counts"] != truth["counts"]:
        problems.append(f"counts {manifest['counts']} != {truth['counts']}")
    if sum(manifest["rejections_by_reason"].values()) != truth["counts"]["rejected"]:
        problems.append("rejections by reason do not sum to the rejected count")
    if manifest["derived_audit_violations"] != truth["derived_audit_violations"]:
        problems.append(f"derived audit violations: {manifest['derived_audit_violations']}")
    for device, expected in truth["per_device"].items():
        got = manifest["per_device"].get(device, {})
        if (got.get("rows"), got.get("anomalies")) != (expected["rows"], expected["anomalies"]):
            problems.append(f"per-device counts of {device}: {got}")
    clean = sorted(_body_lines(out_dir / "cleaned.csv"))
    parts = sorted(_body_lines(out_dir / "train.csv") + _body_lines(out_dir / "test.csv"))
    if clean != parts:
        problems.append("cleaned.csv is not the union of train.csv and test.csv")
    return problems


def check_fit_report(path: Path, rows: int) -> list[str]:
    report = json.loads(path.read_text())
    problems = []
    if report["converged"] is not True:
        problems.append(f"{path.name}: fit did not converge")
    if report["n_observations"] != rows:
        problems.append(f"{path.name}: {report['n_observations']} observations, expected {rows}")
    return problems


def check_eval_report(path: Path, rows: int) -> list[str]:
    report = json.loads(path.read_text())
    if report["n_observations"] != rows:
        return [f"{path.name}: {report['n_observations']} observations, expected {rows}"]
    return []


def check_cv_report(path: Path, folds: int, rows: int) -> list[str]:
    report = json.loads(path.read_text())
    problems = []
    if len(report["folds"]) != folds:
        problems.append(f"{path.name}: {len(report['folds'])} folds, expected {folds}")
    validated = sum(f["validation"]["n_observations"] for f in report["folds"])
    if validated != rows:
        problems.append(f"{path.name}: folds validate {validated} rows, expected {rows}")
    return problems


def check_coefficients(train_csv: Path, report_path: Path, true_params: dict) -> list[str]:
    """The CLI's mw-ep fit equals a direct fit, and every coefficient lies
    within ``COEFFICIENT_SIGMAS`` standard errors of its generating value."""
    from loraprop.fitting import fit, standard_errors
    from loraprop.pipeline import ingest
    from loraprop.propagation import ModelVariant

    records = ingest(train_csv).records
    report = fit(records, ModelVariant.MW_EP)
    cli_params = json.loads(report_path.read_text())["params"]
    problems = []
    if cli_params != report.params_by_name():
        problems.append("CLI mw-ep parameters differ from a direct fit")
    errors = standard_errors(report, records)
    for (name, value), se in zip(report.params_by_name().items(), errors):
        if abs(value - true_params[name]) > COEFFICIENT_SIGMAS * se:
            problems.append(f"{name} = {value:.6g}, generated {true_params[name]}, SE {se:.3g}")
    return problems
