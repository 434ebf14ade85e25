//! `pim-benchmark compare A.json B.json`: one row per (workload, metric)
//! with both medians, the ratio and its base, the bound, and a verdict.
//!
//! - `ok`: B's median is no worse than A's by more than the bound.
//! - `worse`: it is.
//! - `unresolved`: neither can be said, because the run-to-run spread (IQR
//!   over the median, the wider side) exceeds the bound, a side has no
//!   value for the metric, or A's median is 0. With one run per side the
//!   spread of that run's own passes stands in for the run-to-run spread.
//!
//! `failed_frac` carries an absolute bound of 0: any rise is `worse`. A
//! metric appears only on the workloads that report it.

use pimulator::report::{Json, Table};

use crate::metrics::{Better, EndToEnd, END_TO_END, WORKLOADS};
use crate::stats::{iqr_frac, median};

pub const RESULTS_SCHEMA: &str = "pim-benchmark-results/1";

pub fn get<'a>(doc: &'a Json, key: &str) -> Option<&'a Json> {
    match doc {
        Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

pub fn num(doc: &Json) -> Option<f64> {
    match doc {
        Json::Num(x) => Some(*x),
        Json::UInt(u) => Some(*u as f64),
        Json::Int(i) => Some(*i as f64),
        _ => None,
    }
}

fn text(doc: &Json) -> Option<&str> {
    match doc {
        Json::Str(s) => Some(s),
        _ => None,
    }
}

/// The untraced runs of one workload in one results file.
struct Side<'a> {
    runs: Vec<&'a Json>,
}

impl<'a> Side<'a> {
    fn of(doc: &'a Json, workload: &str) -> Result<Self, String> {
        if get(doc, "schema").and_then(text) != Some(RESULTS_SCHEMA) {
            return Err(format!("not a `{RESULTS_SCHEMA}` document"));
        }
        let Some(Json::Arr(runs)) = get(doc, "runs") else {
            return Err("no `runs` array".to_string());
        };
        let runs = runs
            .iter()
            .filter(|r| get(r, "workload").and_then(text) == Some(workload))
            .filter(|r| get(r, "traced") == Some(&Json::Bool(false)))
            .collect();
        Ok(Side { runs })
    }

    fn values(&self, metric: &str) -> Vec<f64> {
        self.runs
            .iter()
            .filter_map(|r| get(get(get(r, "end_to_end")?, metric)?, "value").and_then(num))
            .collect()
    }

    /// Run-to-run spread of a metric; with a single run, the spread of
    /// its own passes (every timing metric derives from them).
    fn spread(&self, metric: &str) -> f64 {
        let values = self.values(metric);
        if values.len() >= 2 {
            return iqr_frac(&values);
        }
        if !metric.ends_with("_per_s") && metric != "pass_s" {
            return 0.0;
        }
        self.runs
            .first()
            .and_then(|r| {
                let p = get(r, "timed_passes_s")?;
                let q = |k| get(p, k).and_then(num);
                Some((q("p75")? - q("p25")?) / q("median")?)
            })
            .unwrap_or(0.0)
    }

    fn digests(&self) -> Vec<&str> {
        let mut d: Vec<&str> =
            self.runs.iter().filter_map(|r| get(r, "sim_digest").and_then(text)).collect();
        d.sort_unstable();
        d.dedup();
        d
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The rule for one row: `a` and `b` are the two sides' medians, `None`
/// where a side has no value for the metric.
pub fn judge(a: Option<f64>, b: Option<f64>, m: &EndToEnd, spread: f64) -> Verdict {
    let (Some(a), Some(b)) = (a, b) else { return Verdict::Unresolved };
    let worsening = match m.better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if m.bound == 0.0 {
        return if worsening > 0.0 { Verdict::Worse } else { Verdict::Ok };
    }
    if a == 0.0 || spread > m.bound {
        Verdict::Unresolved
    } else if worsening / a.abs() > m.bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// What a comparison found, beside its table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    pub worse: usize,
    pub unresolved: usize,
}

/// Compares two results documents. Returns the rendered table and the
/// number of `worse` and `unresolved` rows.
pub fn compare(a: &Json, b: &Json) -> Result<(String, Outcome), String> {
    let mut table = Table::new(&[
        "workload", "metric", "A median", "B median", "B/A", "base", "bound", "spread", "verdict",
    ]);
    let mut outcome = Outcome { worse: 0, unresolved: 0 };
    let mut notes = String::new();
    let shown = |x: Option<f64>| x.map_or("-".to_string(), |x| format!("{x:.5}"));
    for w in WORKLOADS {
        let (sa, sb) = (Side::of(a, w.name)?, Side::of(b, w.name)?);
        if sa.runs.is_empty() || sb.runs.is_empty() {
            notes += &format!("{}: missing on one side, skipped\n", w.name);
            continue;
        }
        let same = sa.digests() == sb.digests() && sa.digests().len() == 1;
        notes += &format!(
            "{}: sim_digest {} (A {:?}, B {:?}); runs A={} B={}\n",
            w.name,
            if same { "same" } else { "DIFFERENT" },
            sa.digests(),
            sb.digests(),
            sa.runs.len(),
            sb.runs.len()
        );
        for m in END_TO_END.iter().filter(|m| m.reported_on(w.name)) {
            let side_median = |s: &Side| {
                let values = s.values(m.name);
                (!values.is_empty()).then(|| median(&values))
            };
            let (ma, mb) = (side_median(&sa), side_median(&sb));
            let spread = sa.spread(m.name).max(sb.spread(m.name));
            let verdict = judge(ma, mb, m, spread);
            outcome.worse += usize::from(verdict == Verdict::Worse);
            outcome.unresolved += usize::from(verdict == Verdict::Unresolved);
            let absolute = m.bound == 0.0;
            table.row_owned(vec![
                w.name.to_string(),
                m.name.to_string(),
                shown(ma),
                shown(mb),
                match (ma, mb) {
                    (Some(a), Some(b)) if a != 0.0 => format!("{:.4}", b / a),
                    _ => "-".to_string(),
                },
                format!("A={} {}", shown(ma), m.unit),
                if absolute { "0 abs".to_string() } else { format!("{:.2}", m.bound) },
                if absolute { "-".to_string() } else { format!("{spread:.4}") },
                verdict.label().to_string(),
            ]);
        }
    }
    Ok((format!("{}\n{notes}", table.render()), outcome))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    #[test]
    fn judge_applies_direction_bound_and_spread() {
        let (pass, rate) = (metric("pass_s"), metric("sim_minstr_per_s"));
        assert_eq!(judge(Some(1.0), Some(1.05), pass, 0.01), Verdict::Ok);
        assert_eq!(judge(Some(1.0), Some(1.15), pass, 0.01), Verdict::Worse);
        assert_eq!(judge(Some(1.0), Some(0.5), pass, 0.01), Verdict::Ok, "a gain is never worse");
        assert_eq!(judge(Some(100.0), Some(85.0), rate, 0.01), Verdict::Worse);
        assert_eq!(judge(Some(100.0), Some(95.0), rate, 0.01), Verdict::Ok);
        assert_eq!(judge(Some(1.0), Some(1.5), pass, 0.2), Verdict::Unresolved);
        let stable = metric("sim_digest_stable");
        assert_eq!(judge(Some(1.0), Some(0.0), stable, 0.0), Verdict::Worse, "stability lost");
    }

    #[test]
    fn a_missing_or_zero_metric_is_unresolved_never_a_gain() {
        let rate = metric("sim_minstr_per_s");
        assert_eq!(judge(Some(100.0), None, rate, 0.0), Verdict::Unresolved);
        assert_eq!(judge(None, Some(100.0), rate, 0.0), Verdict::Unresolved);
        assert_eq!(judge(Some(0.0), Some(100.0), rate, 0.0), Verdict::Unresolved);
    }

    #[test]
    fn failed_frac_is_judged_absolutely() {
        let failed = metric("failed_frac");
        assert_eq!(judge(Some(0.0), Some(0.0), failed, 0.0), Verdict::Ok);
        assert_eq!(judge(Some(0.0), Some(0.001), failed, 0.0), Verdict::Worse);
        assert_eq!(judge(Some(0.01), Some(0.0), failed, 0.0), Verdict::Ok);
    }

    /// A results document in which every workload reports its metrics at
    /// 1.0, but for `pass_s`, `failed_frac` and the digest given.
    fn results(pass_s: f64, failed_frac: f64, digest: &str) -> Json {
        let value = |v: f64| Json::obj([("value", Json::from(v)), ("unit", Json::from("x"))]);
        let runs = WORKLOADS.iter().map(|w| {
            let e2e = END_TO_END.iter().filter(|m| m.reported_on(w.name)).map(|m| {
                let v = match m.name {
                    "pass_s" => pass_s,
                    "failed_frac" => failed_frac,
                    _ => 1.0,
                };
                (m.name, value(v))
            });
            Json::obj([
                ("workload", Json::from(w.name)),
                ("traced", Json::from(false)),
                ("sim_digest", Json::from(digest)),
                (
                    "timed_passes_s",
                    Json::obj([
                        ("p25", Json::from(pass_s * 0.99)),
                        ("median", Json::from(pass_s)),
                        ("p75", Json::from(pass_s * 1.01)),
                    ]),
                ),
                ("end_to_end", Json::obj(e2e)),
            ])
        });
        Json::obj([("schema", Json::from(RESULTS_SCHEMA)), ("runs", Json::arr(runs))])
    }

    #[test]
    fn compare_flags_regressions_and_failed_frac_rises() {
        let base = results(1.0, 0.0, "aa");
        let (text, out) = compare(&base, &results(1.02, 0.0, "aa")).unwrap();
        assert_eq!(out, Outcome { worse: 0, unresolved: 0 }, "{text}");
        assert!(text.contains("sim_digest same"));
        let (text, out) = compare(&base, &results(1.3, 0.0, "aa")).unwrap();
        assert_eq!(out.worse, WORKLOADS.len(), "{text}");
        let (_, out) = compare(&base, &results(1.0, 0.01, "aa")).unwrap();
        assert_eq!(out.worse, WORKLOADS.len(), "any rise in failed_frac is worse");
        let (text, _) = compare(&base, &results(1.0, 0.0, "bb")).unwrap();
        assert!(text.contains("DIFFERENT"));
        assert!(compare(&Json::Null, &base).is_err());
    }

    #[test]
    fn each_metric_has_a_row_only_where_it_is_reported() {
        let base = results(1.0, 0.0, "aa");
        let (text, _) = compare(&base, &base).unwrap();
        let rows = |metric: &str| text.lines().filter(|l| l.contains(metric)).count();
        assert_eq!(rows("pass_s"), 6);
        assert_eq!(rows("sim_minstr_per_s"), 4);
        assert_eq!(rows("serve_kreq_per_s"), 1);
        assert_eq!(rows("jobs_per_s"), 1);
    }
}
