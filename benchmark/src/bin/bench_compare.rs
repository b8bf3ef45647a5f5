//! `bench_compare A.json B.json`: judges result file B against base A,
//! one row per (workload, end-to-end metric), by each metric's bound.
//! Exits 1 when any row is `worse`, 3 when none is worse but some are
//! `unresolved`, 0 otherwise.

use baps_benchmark::{compare, json};
use std::process::ExitCode;

fn load(path: &str) -> Result<json::Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [a, b] = args.as_slice() else {
        eprintln!("usage: bench_compare A.json B.json   (A is the base)");
        return ExitCode::from(2);
    };
    let rows = load(a).and_then(|a| load(b).and_then(|b| compare::compare(&a, &b)));
    match rows {
        Ok(rows) => match compare::print(&rows) {
            (0, 0) => ExitCode::SUCCESS,
            (0, _) => ExitCode::from(3),
            _ => ExitCode::FAILURE,
        },
        Err(e) => {
            eprintln!("bench_compare: {e}");
            ExitCode::from(2)
        }
    }
}
