//! The comparison rule: one row per (workload, end-to-end metric) of two
//! result files, judged against the metric's bound.
//!
//! `worse_by` is how much worse B is than A as a share of A. A row is
//! `worse` / `better` only when the change exceeds the bound *and* the
//! run-to-run spread; within the bound it is `same` only when the spread
//! is within the bound too. Everything else is `unresolved`: the data
//! cannot tell. The spread is how far the value moves when any one round
//! (a fresh process each) is left out — the range of the leave-one-out
//! estimates over the value — and the wider of the two sides counts.

use crate::json::Value;
use crate::metrics::{Better, EndToEnd, END_TO_END};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub unit: &'static str,
    pub base: f64,
    pub new: f64,
    /// Positive = B is worse than A, as a share of A.
    pub worse_by: f64,
    pub spread: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// Range of the leave-one-out estimates over the value (0 when there are
/// none: a single round, or a metric that is exact).
pub fn spread(value: f64, leave_one_out: &[f64]) -> f64 {
    if leave_one_out.is_empty() || value == 0.0 {
        return 0.0;
    }
    let lo = leave_one_out.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = leave_one_out
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    (hi - lo) / value.abs()
}

pub fn judge(m: &EndToEnd, base: f64, new: f64, spread: f64, same_seed: bool) -> (f64, Verdict) {
    let delta = match m.better {
        Better::Higher => base - new,
        Better::Lower => new - base,
    };
    let worse_by = if delta == 0.0 {
        0.0
    } else if base == 0.0 {
        delta.signum() * f64::INFINITY
    } else {
        delta / base.abs()
    };
    // A metric that is a pure function of the seed has no noise to hide in.
    let bound = if m.exact && same_seed { 0.0 } else { m.bound };
    let verdict = if worse_by.abs() > bound {
        match (worse_by.abs() > spread, worse_by > 0.0) {
            (false, _) => Verdict::Unresolved,
            (true, true) => Verdict::Worse,
            (true, false) => Verdict::Better,
        }
    } else if spread > bound && !(m.exact && same_seed) {
        Verdict::Unresolved
    } else {
        Verdict::Same
    };
    (worse_by, verdict)
}

/// Compares result document `b` against base `a`. Errors name what is
/// missing; a workload or metric present on one side only is an error, not
/// a silently shorter table.
pub fn compare(a: &Value, b: &Value) -> Result<Vec<Row>, String> {
    let same_seed = a.need_num("seed")? == b.need_num("seed")?;
    let wa = a.get("workloads").ok_or("A: no `workloads`")?;
    let wb = b.get("workloads").ok_or("B: no `workloads`")?;
    if wa.members().len() != wb.members().len() {
        return Err("the two files ran different workload sets".into());
    }
    let mut rows = Vec::new();
    for (name, ra) in wa.members() {
        let rb = wb
            .get(name)
            .ok_or_else(|| format!("B lacks workload `{name}`"))?;
        if same_seed && ra.get("inputs_hash") != rb.get("inputs_hash") {
            return Err(format!("{name}: inputs_hash differs for the same seed"));
        }
        for m in &END_TO_END {
            let side = |r: &Value, tag: &str| -> Result<(f64, f64), String> {
                let e = r
                    .get("end_to_end")
                    .and_then(|e| e.get(m.name))
                    .ok_or_else(|| format!("{tag}: {name} lacks `{}`", m.name))?;
                let value = e.need_num("value")?;
                Ok((value, spread(value, &e.nums("leave_one_out"))))
            };
            let (base, spread_a) = side(ra, "A")?;
            let (new, spread_b) = side(rb, "B")?;
            let spread = spread_a.max(spread_b);
            let (worse_by, verdict) = judge(m, base, new, spread, same_seed);
            rows.push(Row {
                workload: name.clone(),
                metric: m.name,
                unit: m.unit,
                base,
                new,
                worse_by,
                spread,
                bound: m.bound,
                verdict,
            });
        }
    }
    Ok(rows)
}

/// Prints the table; returns how many rows are `worse` and `unresolved`.
pub fn print(rows: &[Row]) -> (usize, usize) {
    println!(
        "{:<11} {:<15} {:>14} {:>14} {:>5}  {:>9} {:>8} {:>6}  verdict",
        "workload", "metric", "A (base)", "B", "unit", "B worse by", "spread", "bound"
    );
    for r in rows {
        println!(
            "{:<11} {:<15} {:>14.6} {:>14.6} {:>5}  {:>+9.2}% {:>7.2}% {:>5.1}%  {}",
            r.workload,
            r.metric,
            r.base,
            r.new,
            r.unit,
            100.0 * r.worse_by,
            100.0 * r.spread,
            100.0 * r.bound,
            r.verdict.name()
        );
    }
    let count = |v| rows.iter().filter(|r| r.verdict == v).count();
    let (worse, unresolved) = (count(Verdict::Worse), count(Verdict::Unresolved));
    println!(
        "{} rows: {} better, {} same, {worse} worse, {unresolved} unresolved",
        rows.len(),
        count(Verdict::Better),
        count(Verdict::Same)
    );
    (worse, unresolved)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let rate = metric("req_per_s"); // higher is better, bound 25 %
        assert_eq!(judge(rate, 100.0, 90.0, 0.02, true).1, Verdict::Same);
        assert_eq!(judge(rate, 100.0, 70.0, 0.02, true).1, Verdict::Worse);
        assert_eq!(judge(rate, 100.0, 140.0, 0.02, true).1, Verdict::Better);
        // Within the bound but the runs disagree by more than it.
        assert_eq!(judge(rate, 100.0, 90.0, 0.30, true).1, Verdict::Unresolved);
        // Beyond the bound but not beyond the spread.
        assert_eq!(judge(rate, 100.0, 70.0, 0.40, true).1, Verdict::Unresolved);
        let p50 = metric("p50_ms"); // lower is better
        let (by, v) = judge(p50, 0.020, 0.030, 0.01, true);
        assert!((by - 0.5).abs() < 1e-12);
        assert_eq!(v, Verdict::Worse);
    }

    #[test]
    fn exact_metrics_tolerate_nothing_on_the_same_seed() {
        let hit = metric("hit_ratio");
        assert_eq!(judge(hit, 0.77, 0.77, 0.0, true).1, Verdict::Same);
        assert_eq!(judge(hit, 0.77, 0.7699, 0.0, true).1, Verdict::Worse);
        // Across seeds the inputs differ, so the bound applies.
        assert_eq!(judge(hit, 0.77, 0.7699, 0.0, false).1, Verdict::Same);
        let fail = metric("fail_ratio");
        assert_eq!(judge(fail, 0.0, 0.0, 0.0, true).1, Verdict::Same);
        assert_eq!(judge(fail, 0.0, 0.001, 0.0, false).1, Verdict::Worse);
    }

    #[test]
    fn spread_is_leave_one_out_range_over_value() {
        assert_eq!(spread(10.0, &[]), 0.0);
        assert!((spread(10.0, &[9.0, 10.0, 10.5]) - 0.15).abs() < 1e-12);
    }
}
