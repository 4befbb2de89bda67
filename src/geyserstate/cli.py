"""Command-line driver for the geyser-state pipeline.

Commands: synth | filter | train | classify | eval | pipeline.  Each stage
reads and writes its artifacts in the output directory, so a run can be
resumed or repeated stage by stage with no hidden state.  The series a
stage hands to the next (`signal.f8`, `bh.f8`, `pef.f8`) are binary series
files, written by `save_timeseries`; every other artifact is plain text.
A `.csv` series path that does not exist reads the `.f8` of its stem
(`resolve_series`), so `<out>/pef.csv` still names the residual.  No
command writes plot traces: a view around an event is a slice of the
series files (README).  Each stage's work is one private function that
both its command and `pipeline` call.  `pipeline` runs its stages synth,
highpass, split, pef, train, classify, series and eval in that order: the
four from split to classify are `run_held_out`, which fits and predicts
every arm, one after another in this process, and writes nothing, and
`series` and `eval` write every file, so a pipeline that fails before
`series` leaves `--out` as it found it.  No
command checks config values:
`load_config` refuses any value a stage would, so a config error writes nothing.
All randomness flows from one master seed recorded in the artifact headers.

Exit codes: 0 success, 2 config error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import contextlib
import logging
import os
import sys
import time
from typing import NamedTuple

import numpy as np

from .artifacts import discard, read_artifact, write_table
from .config import (
    dtw_params,
    forest_params,
    label_policy,
    load_config,
    resolve_out_dir,
    resolve_paths,
    synth_config,
)
from .dtw import knn_dtw_classify, load_reference, pool_reference, save_reference
from .errors import ConfigError, DataError, GeyserStateError, NumericError
from .evaluation import Scores, evaluate, render_report
from .features import (
    FeatureCatalog,
    build_feature_matrix,
    check_catalog,
    default_catalog,
    load_feature_mask,
    median_impute,
    save_feature_mask,
    save_feature_matrix,
    select_features,
)
from .filters import (
    ArModel,
    apply_filter,
    ar_predict_one_step,
    design_butterworth_highpass,
    fit_ar,
    pef,
    r2_score,
    save_ar_model,
)
from .forest import Forest, load_forest, predict_forest, save_forest, train_forest
from .synth import generate, save_classes, split_train_test
from .timeseries import (
    ALL_CLASSES,
    EventLog,
    LabeledWindow,
    TimeSeries,
    label_windows,
    load_events,
    load_timeseries,
    remove_series,
    resolve_series,
    sample_classes,
    save_events,
    save_timeseries,
    select_noise_segment,
    series_path,
    slice_windows,
)

_log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


# -- small shared helpers ----------------------------------------------------------


def _seed_header(seed: int) -> list[str]:
    return [f"seed={seed}"]


def _labeled_windows(ts: TimeSeries, events: EventLog, values: dict) -> list[LabeledWindow]:
    windows = slice_windows(ts, values["window.length_s"], values["window.stride_s"])
    return label_windows(windows, events, label_policy(values))


def _class_counts(labeled: list[LabeledWindow]) -> dict[int, int]:
    counts = np.bincount([w.label for w in labeled], minlength=len(ALL_CLASSES) + 1)
    return {c: int(counts[c]) for c in ALL_CLASSES}


def _save_medians(medians: np.ndarray, catalog: FeatureCatalog, path: str, seed: int) -> None:
    """Training-column medians used to impute NaN cells at inference time."""
    write_table(
        path, [*_seed_header(seed), f"catalog={catalog.version}"],
        ("feature_name", "median"), (catalog.names, medians),
    )


def _load_medians(path: str, catalog: FeatureCatalog) -> np.ndarray:
    with read_artifact(path, header=True) as art:
        names, medians = art.columns(str, float)
        if not np.all(np.isfinite(medians)):
            raise ValueError("a non-finite median")
        check_catalog("impute file", art.meta.get("catalog"), names, catalog)
    return medians


def _write_predictions(
    path: str,
    starts: np.ndarray,
    true_labels: np.ndarray,
    pred_labels: np.ndarray,
    votes: np.ndarray,
    seed: int,
) -> None:
    """`window_start_s,true_label,predicted_label,votes_1,votes_2,votes_3`."""
    names = ("window_start_s", "true_label", "predicted_label", "votes_1", "votes_2", "votes_3")
    write_table(path, _seed_header(seed), names, (starts, true_labels, pred_labels, *votes.T))


def _load_predictions(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    with read_artifact(path, header=True) as art:
        starts, true_labels, pred_labels, *_votes = art.columns(float, int, int, int, int, int)
        if not starts.size:
            raise ValueError("no rows")
    _check_class_labels(path, np.concatenate([true_labels, pred_labels]))
    return starts, true_labels, pred_labels


def _write_report(out_dir: str, suffix: str, seed: int, truth, preds) -> tuple[str, Scores]:
    """Score one set of predictions into report<suffix>.txt and .csv;
    returns (the text report, the scores)."""
    scores = evaluate(truth, preds)
    text, csv_text = render_report(scores)
    for ext, body in ((".txt", text), (".csv", csv_text)):
        path = os.path.join(out_dir, f"report{suffix}{ext}")
        write_table(path, _seed_header(seed), None, (body.splitlines(),))
    return text, scores


def _full_votes(raw_votes: np.ndarray, classes: np.ndarray) -> np.ndarray:
    """Expand a votes matrix over forest classes to fixed columns 1..3."""
    out = np.zeros((raw_votes.shape[0], len(ALL_CLASSES)), dtype=np.int64)
    out[:, classes - 1] = raw_votes
    return out


def _check_class_labels(path: str, labels: np.ndarray) -> None:
    """Model and predictions files may name only classes 1..3, the columns
    of every vote table and confusion matrix."""
    bad = np.setdiff1d(labels, ALL_CLASSES)
    if bad.size:
        raise DataError(f"malformed {path}: class labels {bad.tolist()} outside {ALL_CLASSES}")


def _labeled_input(values: dict, out_dir: str, override: str | None) -> tuple:
    """The filtered series (default <out>/pef.f8) and its labeled windows."""
    path = resolve_series(override or os.path.join(out_dir, "pef.f8"))
    if not os.path.exists(path):
        raise DataError(f"input signal {path} not found; run the filter stage first")
    ts = load_timeseries(path, values["synth.fs_hz"])
    events = load_events(resolve_paths(values, out_dir)["events"])
    labeled = _labeled_windows(ts, events, values)
    if not labeled:
        raise DataError(f"no windows in {path}; series shorter than one window")
    return ts, labeled


@contextlib.contextmanager
def _stage(name: str):
    """Tag any failure inside with the stage name; logs
    `stage=<name> seconds=<t>` at INFO when the stage exits."""
    _log.debug("stage %s", name)
    t0 = time.perf_counter()
    try:
        yield
    except GeyserStateError as exc:
        raise type(exc)(f"stage {name}: {exc}") from exc
    finally:
        _log.info("stage=%s seconds=%.3f", name, time.perf_counter() - t0)


# -- one function per stage, shared by the stage's command and the pipeline --------
# These call the library through the names imported above: bench/tracing.py
# times each layer by patching those names in this module.


def _synthesize(values: dict, seed: int) -> tuple[TimeSeries, EventLog]:
    """Generate the labeled signal; writes nothing (`_save_synth` does).  A
    `paths.signal` or `paths.events` set is a ConfigError."""
    for key in ("paths.signal", "paths.events"):
        if values[key]:  # caller supplied data; leave it untouched
            raise ConfigError(f"{key} = {values[key]} names the caller's data, which "
                              "synthesizing would overwrite; unset it to synthesize")
    ts, events = generate(synth_config(values, seed))
    _log.info("synthesized %d samples at %g Hz with %d events", len(ts), ts.fs_hz, len(events))
    return ts, events


def _highpass(ts: TimeSeries, values: dict, out: np.ndarray | None = None) -> TimeSeries:
    """Butterworth high-pass of the raw signal, into `out` (see apply_filter)."""
    cascade = design_butterworth_highpass(
        values["filter.order"], values["filter.corner_hz"], ts.fs_hz
    )
    return apply_filter(cascade, ts, out)


def _prediction_error(
    bh: TimeSeries, fit_on: TimeSeries, fit_events: EventLog, values: dict
) -> tuple:
    """Fit the AR noise model on fit_on's quiet segment, then run the
    prediction-error filter over all of bh; writes nothing.

    Returns (residual, model, held-out one-step R2).  R2 is scored on the
    part of fit_on after the AR segment, skipping its first p samples (they
    have no full lag history inside that slice).
    """
    segment = select_noise_segment(
        fit_on, fit_events, values["ar.train_fraction"], label_policy(values)
    )
    model = fit_ar(segment, values["ar.max_order"], values["ar.criterion"])
    seg_end = int(round((segment.t0_s - fit_on.t0_s) * fit_on.fs_hz)) + len(segment)
    r2 = _held_out_r2(model, fit_on.slice(seg_end, len(fit_on)))
    residual = pef(bh, model)
    _log.info(
        "AR order p=%d, AIC=%.2f, held-out one-step R2=%.4f", model.order_p, model.aic, r2
    )
    return residual, model, r2


def _held_out_r2(model: ArModel, held_out: TimeSeries) -> float:
    """One-step R2 of the model past the first p samples of held_out (NaN when
    too few remain); the prediction is dropped on return."""
    p = model.order_p
    if len(held_out) <= p + 1:
        return float("nan")
    pred = ar_predict_one_step(model, held_out)
    return r2_score(held_out.slice(p, len(held_out)), pred.slice(p, len(held_out)))


# -- rf train/predict shared by cmd_train, cmd_classify, and the pipeline ----------


def _rf_fit(
    labeled: list[LabeledWindow],
    values: dict,
    params,
    catalog: FeatureCatalog,
) -> tuple:
    """Features -> impute -> relevance selection -> forest; writes nothing.

    Returns (forest, selected column indices, training medians, the raw
    (matrix, labels, starts) triple for artifact export, and the mask).
    """
    matrix, labels, starts = build_feature_matrix(labeled, catalog)
    filled, medians = median_impute(matrix)
    mask = select_features(filled, labels, values["features.fdr_q"], values["features.cap"])
    cols = np.flatnonzero(mask.selected)
    _log.info("selected %d of %d features", cols.size, len(catalog))
    names = tuple(catalog.names[j] for j in cols)
    forest = train_forest(filled[:, cols], labels, params, catalog.version, names)
    return forest, cols, medians, (matrix, labels, starts), mask


def _save_rf(
    out_dir: str, seed: int, catalog: FeatureCatalog, forest: Forest, medians, table, mask
) -> None:
    """Writes features.csv, feature_mask.csv, impute.csv and forest.txt."""
    header = _seed_header(seed)
    matrix, labels, starts = table
    save_feature_matrix(
        matrix, labels, starts, catalog, os.path.join(out_dir, "features.csv"), header
    )
    save_feature_mask(mask, catalog, os.path.join(out_dir, "feature_mask.csv"), header)
    _save_medians(medians, catalog, os.path.join(out_dir, "impute.csv"), seed)
    save_forest(forest, os.path.join(out_dir, "forest.txt"))


def _load_rf(out_dir: str, model_path: str | None, catalog: FeatureCatalog) -> tuple:
    """Reads what _save_rf wrote; returns (forest, selected columns, medians)."""
    path = model_path or os.path.join(out_dir, "forest.txt")
    forest = load_forest(path)
    _check_class_labels(path, forest.classes)
    mask_path = os.path.join(out_dir, "feature_mask.csv")
    mask = load_feature_mask(mask_path, catalog)
    medians = _load_medians(os.path.join(out_dir, "impute.csv"), catalog)
    check_catalog("forest", forest.catalog_version, None, catalog)
    cols = np.flatnonzero(mask.selected)
    if cols.size != forest.n_features:
        raise DataError(
            f"{mask_path} selects {cols.size} features but the forest expects "
            f"{forest.n_features}"
        )
    names = tuple(catalog.names[j] for j in cols)
    if forest.feature_names and names != forest.feature_names:
        raise DataError(
            f"{mask_path} selects {', '.join(names)} but the forest was trained on "
            f"{', '.join(forest.feature_names)}"
        )
    return forest, cols, medians


def _rf_predict(
    labeled: list[LabeledWindow],
    forest: Forest,
    cols: np.ndarray,
    medians: np.ndarray,
    catalog: FeatureCatalog,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
    """Returns (starts, true labels, predictions, 3-column votes, mean seconds
    per window of the whole decision: features, imputation and forest)."""
    t0 = time.perf_counter()
    matrix, labels, starts = build_feature_matrix(labeled, catalog)
    filled, _ = median_impute(matrix, medians)
    sub = filled[:, cols]
    preds = np.empty(len(labeled), dtype=np.int64)
    raw_votes = np.empty((len(labeled), forest.classes.size), dtype=np.int64)
    for i in range(sub.shape[0]):
        preds[i], raw_votes[i] = predict_forest(forest, sub[i])
    per_window = (time.perf_counter() - t0) / max(sub.shape[0], 1)
    return starts, labels, preds, _full_votes(raw_votes, forest.classes), per_window


def _dtw_predict(
    refs: np.ndarray,
    ref_labels: np.ndarray,
    labeled: list[LabeledWindow],
    params,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
    starts = np.array([w.start_s for w in labeled])
    labels = np.array([w.label for w in labeled], dtype=np.int64)
    preds = np.empty(len(labeled), dtype=np.int64)
    t0 = time.perf_counter()
    for i, w in enumerate(labeled):
        preds[i] = knn_dtw_classify(refs, ref_labels, w.samples, params)
    per_window = (time.perf_counter() - t0) / max(len(labeled), 1)
    votes = np.zeros((len(labeled), len(ALL_CLASSES)), dtype=np.int64)
    votes[np.arange(len(labeled)), preds - 1] = 1
    return starts, labels, preds, votes, per_window


# -- the synthesized files ---------------------------------------------------------


def _save_synth(values: dict, seed: int, paths: dict, raw: TimeSeries, events: EventLog) -> str:
    """Writes the synthesized events, signal and classes; returns the signal's path."""
    header = _seed_header(seed)
    save_events(events, paths["events"], header)
    path = series_path(paths["signal"])
    save_timeseries(raw, path, header)
    save_classes(raw, sample_classes(raw, events, label_policy(values)), paths["classes"], header)
    return path


# -- commands ----------------------------------------------------------------------


def cmd_synth(values: dict, seed: int, out_dir: str, args: argparse.Namespace) -> int:
    paths = resolve_paths(values, out_dir)
    ts, events = _synthesize(values, seed)
    signal_path = _save_synth(values, seed, paths, ts, events)
    print(f"wrote {signal_path}, {paths['events']}, {paths['classes']}")
    return EXIT_OK


def cmd_filter(values: dict, seed: int, out_dir: str, args: argparse.Namespace) -> int:
    paths = resolve_paths(values, out_dir)
    signal_path = resolve_series(paths["signal"])
    if not os.path.exists(signal_path):
        raise DataError(f"signal file {signal_path} not found; run synth or set paths.signal")
    ts = load_timeseries(signal_path, values["synth.fs_hz"])
    events = load_events(paths["events"])
    # the raw series is not written again: filter it in its own buffer
    bh = _highpass(ts, values, out=ts.values)
    bh_path, pef_path = os.path.join(out_dir, "bh.f8"), os.path.join(out_dir, "pef.f8")
    if args.skip_pef:
        # a residual and model of an earlier run would not match this bh
        remove_series(pef_path)
        discard(os.path.join(out_dir, "ar_model.txt"))
        save_timeseries(bh, bh_path, _seed_header(seed))
        _log.info("high-pass output written; prediction-error stage skipped")
        print(f"wrote {bh_path}")
        return EXIT_OK
    residual, model, r2 = _prediction_error(bh, bh, events, values)
    save_ar_model(model, os.path.join(out_dir, "ar_model.txt"), _seed_header(seed))
    save_timeseries(bh, bh_path, _seed_header(seed))
    save_timeseries(residual, pef_path, _seed_header(seed))
    print(
        f"wrote {bh_path}, {os.path.join(out_dir, 'ar_model.txt')}, "
        f"{pef_path} (p={model.order_p}, R2={r2:.4f})"
    )
    return EXIT_OK


def cmd_train(values: dict, seed: int, out_dir: str, args: argparse.Namespace) -> int:
    ts, labeled = _labeled_input(values, out_dir, args.input)
    counts = _class_counts(labeled)
    if sum(1 for v in counts.values() if v > 0) < 2:
        raise DataError(f"training data has a single class (window counts {counts})")
    print(f"windows per class: {counts}")
    if args.classifier == "dtw":
        ref_path = os.path.join(out_dir, "dtw_reference.csv")
        params = dtw_params(values)
        refs, _ = pool_reference(labeled, params)
        save_reference(labeled, refs, ref_path, params, _seed_header(seed))
        print(f"wrote {ref_path}")
        return EXIT_OK
    catalog = default_catalog(ts.fs_hz, values["features.fft_bins"])
    forest, cols, medians, table, mask = _rf_fit(
        labeled, values, forest_params(values, seed), catalog
    )
    _save_rf(out_dir, seed, catalog, forest, medians, table, mask)
    print(f"selected {cols.size} of {len(catalog)} features")
    print(f"wrote {os.path.join(out_dir, 'forest.txt')}")
    return EXIT_OK


def cmd_classify(values: dict, seed: int, out_dir: str, args: argparse.Namespace) -> int:
    ts, labeled = _labeled_input(values, out_dir, args.input)
    if args.classifier == "dtw":
        ref_path = args.model or os.path.join(out_dir, "dtw_reference.csv")
        refs, ref_labels, params = load_reference(ref_path)
        _check_class_labels(ref_path, ref_labels)
        result = _dtw_predict(refs, ref_labels, labeled, params)
    else:
        catalog = default_catalog(ts.fs_hz, values["features.fft_bins"])
        forest, cols, medians = _load_rf(out_dir, args.model, catalog)
        result = _rf_predict(labeled, forest, cols, medians, catalog)
    starts, truth, preds, votes, per_window = result
    _log.info("mean per-window %s prediction latency: %.3f ms", args.classifier, per_window * 1e3)
    pred_path = os.path.join(out_dir, "predictions.csv")
    _write_predictions(pred_path, starts, truth, preds, votes, seed)
    print(f"classified {len(labeled)} windows")
    print(f"wrote {pred_path}")
    return EXIT_OK


def cmd_eval(values: dict, seed: int, out_dir: str, args: argparse.Namespace) -> int:
    pred_path = args.predictions or os.path.join(out_dir, "predictions.csv")
    starts, truth, preds = _load_predictions(pred_path)
    _, expected = _labeled_input(values, out_dir, args.input)
    by_start = {round(float(s), 6): i for i, s in enumerate(starts)}
    if len(by_start) != starts.size:
        raise DataError(f"duplicate window starts in {pred_path}")
    for w in expected:
        key = round(float(w.start_s), 6)
        if key not in by_start:
            raise DataError(f"predictions missing window starting at {w.start_s!r} s")
        if truth[by_start[key]] != w.label:
            raise DataError(
                f"label mismatch at window {w.start_s!r} s: predictions file says "
                f"{truth[by_start[key]]}, ground truth is {w.label}"
            )
    if starts.size != len(expected):
        extras = set(by_start) - {round(float(w.start_s), 6) for w in expected}
        raise DataError(f"predictions contain unknown windows: {sorted(extras)[:5]}")
    text, _ = _write_report(out_dir, "", seed, truth, preds)
    print(text, end="")
    return EXIT_OK


# -- full pipeline -----------------------------------------------------------------


class HeldOut(NamedTuple):
    """What `run_held_out` fits and predicts; `cmd_pipeline` writes it."""

    model: ArModel  # the AR noise model, fitted on the training side
    residual: TimeSeries  # its prediction-error filter over the whole series
    catalog: FeatureCatalog
    rf_pef: tuple  # `_rf_fit`'s (forest, cols, medians, table, mask) of the rf_pef arm
    reference: tuple | None  # dtw_pef's (training windows, pooled refs), under compare
    arms: dict  # arm name -> (starts, truth, predictions, votes, seconds per window)


def run_held_out(
    bh: TimeSeries, events: EventLog, values: dict, seed: int, compare: bool
) -> HeldOut:
    """Split the high-passed series, fit the AR model on the training side
    and filter the whole series with its PEF, then fit and predict the
    rf_pef arm, and under `compare` rf_nopef and dtw_pef too, on the test
    side; writes nothing.

    Logs the stages split, pef, train and classify.
    """
    with _stage("split"):
        (bh_train, ev_train), (bh_test, ev_test) = split_train_test(
            bh, events, values["split.ratio"], label_policy(values)
        )
        split_idx = len(bh_train)
        _log.info(
            "split at %g s: %d train / %d test samples, %d/%d events",
            bh_test.t0_s, len(bh_train), len(bh_test), len(ev_train), len(ev_test),
        )

    with _stage("pef"):
        # AR model is fitted on training-side noise only, then the filter is
        # run over the full series so the test side has no warm-up gap
        residual, model, _ = _prediction_error(bh, bh_train, ev_train, values)
        train_pef = _labeled_windows(residual.slice(0, split_idx), ev_train, values)
        test_pef = _labeled_windows(residual.slice(split_idx, len(residual)), ev_test, values)

    rf_params = forest_params(values, seed)
    reference = None
    with _stage("train"):
        if not train_pef or not test_pef:
            raise DataError("split leaves an empty window set on one side")
        if compare:
            arm_params = dtw_params(values)
            refs, ref_labels = pool_reference(train_pef, arm_params)
            reference = (train_pef, refs)
        _log.info(
            "train windows per class: %s; test: %s",
            _class_counts(train_pef), _class_counts(test_pef),
        )
        catalog = default_catalog(bh.fs_hz, values["features.fft_bins"])
        rf_pef = _rf_fit(train_pef, values, rf_params, catalog)

    with _stage("classify"):
        forest, cols, medians, _, _ = rf_pef
        results = {"rf_pef": _rf_predict(test_pef, forest, cols, medians, catalog)}
        if compare:
            train_bh = _labeled_windows(bh_train, ev_train, values)
            test_bh = _labeled_windows(bh_test, ev_test, values)
            forest_b, cols_b, medians_b, _, _ = _rf_fit(train_bh, values, rf_params, catalog)
            results["rf_nopef"] = _rf_predict(test_bh, forest_b, cols_b, medians_b, catalog)
            results["dtw_pef"] = _dtw_predict(refs, ref_labels, test_pef, arm_params)
    return HeldOut(model, residual, catalog, rf_pef, reference, results)


def cmd_pipeline(values: dict, seed: int, out_dir: str, args: argparse.Namespace) -> int:
    paths = resolve_paths(values, out_dir)
    header = _seed_header(seed)

    with _stage("synth"):
        if values["paths.signal"]:
            # caller supplied data; leave it untouched
            raw = load_timeseries(paths["signal"], values["synth.fs_hz"])
            events = load_events(paths["events"])
        else:
            raw, events = _synthesize(values, seed)

    with _stage("highpass"):
        bh = _highpass(raw, values)

    run = run_held_out(bh, events, values, seed, args.compare)

    with _stage("series"):
        if not values["paths.signal"]:  # the caller's data is left untouched
            _save_synth(values, seed, paths, raw, events)
        save_timeseries(bh, os.path.join(out_dir, "bh.f8"), header)
        save_timeseries(run.residual, os.path.join(out_dir, "pef.f8"), header)
        save_ar_model(run.model, os.path.join(out_dir, "ar_model.txt"), header)
        if run.reference:
            ref_path = os.path.join(out_dir, "dtw_reference.csv")
            save_reference(*run.reference, ref_path, dtw_params(values), header)
        forest, _, medians, table, mask = run.rf_pef
        _save_rf(out_dir, seed, run.catalog, forest, medians, table, mask)

    with _stage("eval"):
        m, w = Scores.MACRO, Scores.WEIGHTED
        rows = ["method,precision,recall,f1,weighted_f1"]
        for name, (starts, truth, preds, votes, per_window) in run.arms.items():
            suffix = f"_{name}" if args.compare else ""
            pred_path = os.path.join(out_dir, f"predictions{suffix}.csv")
            _write_predictions(pred_path, starts, truth, preds, votes, seed)
            _, s = _write_report(out_dir, suffix, seed, truth, preds)
            _log.info("arm %s: %.3f ms/window", name, per_window * 1e3)
            cells = (s.precision[m], s.recall[m], s.f1[m], s.f1[w])
            rows.append(",".join([name, *(f"{v:.6f}" for v in cells)]))
        if args.compare:
            write_table(os.path.join(out_dir, "comparison.csv"), header, None, (rows,))
            for row in rows:
                print(row)
        else:  # s is the one arm's, rf_pef's
            print(f"macro precision={s.precision[m]:.4f} recall={s.recall[m]:.4f} "
                  f"f1={s.f1[m]:.4f}")
    return EXIT_OK


# -- argument parsing and dispatch -------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS, metavar="PATH",
                        help="config file; omit to run on documented defaults")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS, metavar="N",
                        help="master seed; overrides the config value")
    common.add_argument("--out", default=argparse.SUPPRESS, metavar="DIR",
                        help="output directory; overrides config and environment")
    common.add_argument("--verbose", action="store_true", default=argparse.SUPPRESS,
                        help="debug-level logging")
    parser = argparse.ArgumentParser(
        prog="geyserstate",
        description="noisy-signal state classification pipeline",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("synth", parents=[common], help="generate a labeled synthetic signal")

    p_filter = sub.add_parser("filter", parents=[common],
                              help="high-pass and prediction-error filtering")
    p_filter.add_argument("--skip-pef", action="store_true",
                          help="stop after the high-pass stage")

    p_train = sub.add_parser("train", parents=[common], help="fit a classifier")
    p_train.add_argument("--classifier", choices=("rf", "dtw"), default="rf")
    p_train.add_argument("--input", metavar="PATH",
                         help="filtered series: a .f8 series file or a text table "
                              "(default: <out>/pef.f8)")

    p_classify = sub.add_parser("classify", parents=[common],
                                help="predict window classes with a fitted model")
    p_classify.add_argument("--classifier", choices=("rf", "dtw"), default="rf")
    p_classify.add_argument("--model", metavar="PATH",
                            help="model file (default: <out>/forest.txt or dtw_reference.csv)")
    p_classify.add_argument("--input", metavar="PATH",
                            help="filtered series: a .f8 series file or a text table "
                                 "(default: <out>/pef.f8)")

    p_eval = sub.add_parser("eval", parents=[common],
                            help="score predictions against ground truth")
    p_eval.add_argument("--predictions", metavar="PATH",
                        help="predictions CSV (default: <out>/predictions.csv)")
    p_eval.add_argument("--input", metavar="PATH",
                        help="series the predictions were made on (default: <out>/pef.f8)")

    p_pipe = sub.add_parser("pipeline", parents=[common],
                            help="run every stage end to end with a held-out split")
    p_pipe.add_argument("--compare", action="store_true",
                        help="run all three classifier arms and emit a comparison table")
    return parser


_COMMANDS = {
    "synth": cmd_synth,
    "filter": cmd_filter,
    "train": cmd_train,
    "classify": cmd_classify,
    "eval": cmd_eval,
    "pipeline": cmd_pipeline,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if getattr(args, "verbose", False) else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        values = load_config(getattr(args, "config", None))
        seed = getattr(args, "seed", None)
        if seed is None:
            seed = values["seed"]
        if seed < 0:  # numpy seeds only from a non-negative integer
            raise ConfigError(f"seed must be >= 0, got {seed}")
        out_dir = resolve_out_dir(values, getattr(args, "out", None))
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            raise DataError(f"cannot create directory {out_dir}: {exc}") from None
        with _stage(args.command):
            return _COMMANDS[args.command](values, seed, out_dir, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
