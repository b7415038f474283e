//! Performance-regression detection against fitted scaling laws.
//!
//! A fresh benchmark series should lie on *some* smooth scaling law; a
//! single scale point that the law fitted to the **other** points cannot
//! predict is exactly what a regression (or a broken measurement) looks
//! like. The detector therefore reuses the fitter's leave-one-out
//! machinery: point `i` is flagged when predicting it from the rest
//! misses by more than the fitted model's stated
//! [`FittedModel::flag_threshold_frac`] — a median-based threshold, so
//! the regressed point inflating everyone else's fit does not hide it.
//!
//! [`check_index`] runs this over every `seconds`/`joules` series of a
//! merged `BENCH_INDEX.json`, and [`report_json`]/[`render_text`] shape
//! the outcome for CI (the `perfmodel_check` bin turns flags into a
//! non-zero exit unless `--warn-only`).

use crate::fit::{fit, FitError, FittedModel, SamplePoint};
use crate::ingest::{flatten, BenchDoc, MetricSeries};
use collectives::escape_json as escape;

/// One point the fitted law could not predict.
#[derive(Debug, Clone, PartialEq)]
pub struct Flag {
    /// Scale of the suspicious point.
    pub scale: f64,
    /// Measured value.
    pub measured: f64,
    /// The full fit's prediction at that scale (context for the report;
    /// the flag decision uses the leave-one-out prediction error).
    pub predicted: f64,
    /// Leave-one-out relative error that tripped the flag.
    pub loo_rel_err: f64,
}

/// Outcome of checking one metric series.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckOutcome {
    /// The series was fitted; zero flags means it is regression-clean.
    Checked {
        /// The fitted law.
        fitted: FittedModel,
        /// Points outside the stated threshold.
        flags: Vec<Flag>,
    },
    /// The series could not be gated (too few scales, degenerate fit).
    Skipped {
        /// Why.
        reason: String,
    },
}

/// One series' check result.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesCheck {
    /// `file:series:metric` identifier.
    pub id: String,
    /// Scale axis name.
    pub scale_axis: String,
    /// What happened.
    pub outcome: CheckOutcome,
}

impl SeriesCheck {
    /// Number of flagged points (0 for skipped series).
    pub fn flag_count(&self) -> usize {
        match &self.outcome {
            CheckOutcome::Checked { flags, .. } => flags.len(),
            CheckOutcome::Skipped { .. } => 0,
        }
    }
}

/// Fits `points` and returns the fitted law plus every point whose
/// leave-one-out prediction error exceeds the stated flag threshold.
pub fn check_points(points: &[SamplePoint]) -> Result<(FittedModel, Vec<Flag>), FitError> {
    let fitted = fit(points)?;
    let threshold = fitted.flag_threshold_frac();
    let flags = points
        .iter()
        .zip(&fitted.loo_rel_err)
        .filter(|&(_, &err)| err > threshold)
        .map(|(p, &err)| Flag {
            scale: p.scale,
            measured: p.value,
            predicted: fitted.predict(p.scale),
            loo_rel_err: err,
        })
        .collect();
    Ok((fitted, flags))
}

fn distinct_scales(points: &[SamplePoint]) -> usize {
    let mut scales: Vec<f64> = points.iter().map(|p| p.scale).collect();
    scales.sort_by(f64::total_cmp);
    scales.dedup();
    scales.len()
}

fn check_series(s: &MetricSeries, min_distinct_scales: usize) -> SeriesCheck {
    let distinct = distinct_scales(&s.points);
    let outcome = if distinct < min_distinct_scales {
        CheckOutcome::Skipped {
            reason: format!("only {distinct} distinct scales (need {min_distinct_scales})"),
        }
    } else {
        match check_points(&s.points) {
            Ok((fitted, flags)) => CheckOutcome::Checked { fitted, flags },
            Err(e) => CheckOutcome::Skipped {
                reason: e.to_string(),
            },
        }
    };
    SeriesCheck {
        id: s.id.clone(),
        scale_axis: s.scale_axis.clone(),
        outcome,
    }
}

/// Checks every flattened metric series of a parsed index. Series with
/// fewer than `min_distinct_scales` distinct scale values are skipped
/// (reported, not failed): a law cannot be cross-validated on two
/// points.
pub fn check_index(entries: &[(String, BenchDoc)], min_distinct_scales: usize) -> Vec<SeriesCheck> {
    flatten(entries)
        .iter()
        .map(|s| check_series(s, min_distinct_scales))
        .collect()
}

/// Total flags across checks.
pub fn total_flags(checks: &[SeriesCheck]) -> usize {
    checks.iter().map(SeriesCheck::flag_count).sum()
}

/// Renders the check results as the `perfmodel-check-v1` JSON document
/// (`BENCH_PERFMODEL.json`).
pub fn report_json(checks: &[SeriesCheck]) -> String {
    let mut out = String::from("{\n  \"schema\": \"perfmodel-check-v1\",\n");
    out.push_str(&format!("  \"flagged_total\": {},\n", total_flags(checks)));
    out.push_str("  \"series\": [\n");
    for (i, c) in checks.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"id\": \"{}\",\n", escape(&c.id)));
        out.push_str(&format!("      \"scale_axis\": \"{}\",\n", escape(&c.scale_axis)));
        match &c.outcome {
            CheckOutcome::Skipped { reason } => {
                out.push_str("      \"status\": \"skipped\",\n");
                out.push_str(&format!("      \"reason\": \"{}\"\n", escape(reason)));
            }
            CheckOutcome::Checked { fitted, flags } => {
                out.push_str(&format!(
                    "      \"status\": \"{}\",\n",
                    if flags.is_empty() { "ok" } else { "flagged" }
                ));
                out.push_str(&format!(
                    "      \"model\": \"{}\",\n",
                    escape(&fitted.model.to_string())
                ));
                out.push_str(&format!("      \"n_points\": {},\n", fitted.n_points));
                out.push_str(&format!(
                    "      \"cv_mean_rel_err\": {:.6},\n",
                    fitted.cv_mean_rel_err
                ));
                out.push_str(&format!(
                    "      \"error_band_frac\": {:.6},\n",
                    fitted.error_band_frac()
                ));
                out.push_str(&format!(
                    "      \"flag_threshold_frac\": {:.6},\n",
                    fitted.flag_threshold_frac()
                ));
                out.push_str("      \"flags\": [");
                for (j, f) in flags.iter().enumerate() {
                    out.push_str(&format!(
                        "{}{{\"scale\": {}, \"measured\": {:.6}, \
                         \"predicted\": {:.6}, \"loo_rel_err\": {:.4}}}",
                        if j == 0 { "" } else { ", " },
                        f.scale,
                        f.measured,
                        f.predicted,
                        f.loo_rel_err
                    ));
                }
                out.push_str("]\n");
            }
        }
        out.push_str(if i + 1 == checks.len() { "    }\n" } else { "    },\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Renders a human summary line per series.
pub fn render_text(checks: &[SeriesCheck]) -> String {
    let mut out = String::new();
    for c in checks {
        match &c.outcome {
            CheckOutcome::Skipped { reason } => {
                out.push_str(&format!("  skip  {:<60} ({reason})\n", c.id));
            }
            CheckOutcome::Checked { fitted, flags } => {
                out.push_str(&format!(
                    "  {}  {:<60} {} (cv {:.1}%, threshold {:.0}%)\n",
                    if flags.is_empty() { "ok  " } else { "FLAG" },
                    c.id,
                    fitted.model,
                    fitted.cv_mean_rel_err * 100.0,
                    fitted.flag_threshold_frac() * 100.0
                ));
                for f in flags {
                    out.push_str(&format!(
                        "        {} = {:.1}: measured {:.5}, fit predicts {:.5} \
                         (held-out miss {:.0}%)\n",
                        c.scale_axis,
                        f.scale,
                        f.measured,
                        f.predicted,
                        f.loo_rel_err * 100.0
                    ));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean_series(n: usize) -> Vec<SamplePoint> {
        (0..n)
            .map(|i| {
                let scale = (1 << i) as f64;
                SamplePoint {
                    scale,
                    value: 2.0 + 30.0 / scale,
                }
            })
            .collect()
    }

    #[test]
    fn clean_series_has_no_flags() {
        let (fitted, flags) = check_points(&clean_series(7)).expect("fit");
        assert!(flags.is_empty(), "clean data flagged: {flags:?}");
        assert!(fitted.cv_mean_rel_err < 0.01);
    }

    #[test]
    fn injected_regression_is_flagged_exactly_once() {
        let mut pts = clean_series(7);
        pts[4].value *= 1.6; // +60% at scale 16
        let (_, flags) = check_points(&pts).expect("fit");
        assert_eq!(flags.len(), 1, "flags: {flags:?}");
        assert_eq!(flags[0].scale, 16.0);
        assert!(flags[0].loo_rel_err > 0.15);
    }

    #[test]
    fn report_json_is_parseable_and_complete() {
        let mut pts = clean_series(7);
        pts[2].value *= 1.8;
        let series = MetricSeries {
            id: "BENCH_X.json:epoch_seconds:seconds".into(),
            scale_axis: "workers".into(),
            points: pts,
        };
        let checks = vec![
            check_series(&series, 4),
            check_series(
                &MetricSeries {
                    id: "BENCH_Y.json:tiny:seconds".into(),
                    scale_axis: "workers".into(),
                    points: clean_series(2),
                },
                4,
            ),
        ];
        assert_eq!(total_flags(&checks), 1);
        let json = report_json(&checks);
        let v = crate::json::parse(&json).expect("report parses");
        assert_eq!(v.get("flagged_total").unwrap().as_f64(), Some(1.0));
        let series = v.get("series").unwrap().as_array().unwrap();
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].get("status").unwrap().as_str(), Some("flagged"));
        assert_eq!(series[1].get("status").unwrap().as_str(), Some("skipped"));
        let text = render_text(&checks);
        assert!(text.contains("FLAG"));
        assert!(text.contains("skip"));
    }
}
