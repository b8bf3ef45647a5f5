//! The `experiments` binary and the table behind it, at `--scale 0.02`.

use std::collections::HashSet;
use std::process::Command;

use baps_bench::experiments::{list, run_all, suite, Experiment, EXPERIMENTS};
use baps_bench::Cli;

const SMALL: Cli = Cli {
    scale: 0.02,
    csv: false,
};

fn report(e: &Experiment, cli: Cli) -> String {
    let mut out = Vec::new();
    (e.run)(cli, &mut out).unwrap_or_else(|err| panic!("{}: {err}", e.name));
    String::from_utf8(out).expect("reports are UTF-8")
}

/// Drops the §6 table's four rows, the only wall-clock numbers in the suite.
fn mask_timings(text: &str) -> String {
    text.lines()
        .filter(|l| {
            !["1 KB ", "8 KB ", "64 KB ", "1024 KB "]
                .iter()
                .any(|p| l.starts_with(p))
        })
        .map(|l| format!("{l}\n"))
        .collect()
}

fn experiments(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("the experiments binary starts")
}

#[test]
fn every_row_runs_and_all_is_the_rows_in_table_order() {
    let mut banners = HashSet::new();
    let mut one_by_one = String::new();
    for e in suite() {
        let plain = report(e, SMALL);
        let banner = plain.lines().nth(1).unwrap_or_default();
        assert!(
            plain.starts_with("\n=== ") && banner.ends_with(" ==="),
            "{} does not open with a banner: {banner:?}",
            e.name
        );
        assert!(
            banners.insert(banner.to_owned()),
            "{banner:?} opens two rows"
        );
        assert!(plain.contains("\n---"), "{}: no table rule", e.name);

        let csv = report(e, Cli { csv: true, ..SMALL });
        assert!(csv.starts_with(&format!("\n{banner}\n")), "{}", e.name);
        assert!(
            !csv.contains("\n---"),
            "{}: --csv drew a table rule",
            e.name
        );
        assert!(
            csv.lines().filter(|l| l.contains(',')).count() >= 3,
            "{}: --csv printed no CSV",
            e.name
        );
        one_by_one.push_str(&plain);
    }

    let all = || {
        let mut out = Vec::new();
        run_all(SMALL, &mut out).expect("writing to a Vec");
        mask_timings(&String::from_utf8(out).expect("reports are UTF-8"))
    };
    let first = all();
    assert_eq!(first, mask_timings(&one_by_one));
    assert_eq!(first, all(), "two runs of `all` differ");
}

#[test]
fn calibrate_is_listed_but_not_part_of_all() {
    let calibrate = EXPERIMENTS
        .iter()
        .find(|e| e.name == "calibrate")
        .expect("calibrate is a row");
    assert!(suite().all(|e| e.name != "calibrate"));
    assert_eq!(suite().count(), EXPERIMENTS.len() - 1);
    let out = report(calibrate, SMALL);
    assert!(out.starts_with("--- NLANR-uc (scale 0.02) ---\n"), "{out}");
    assert_eq!(out.matches("  params: n_docs = ").count(), 5);
}

#[test]
fn names_are_unique_and_list_prints_exactly_the_table() {
    let names: HashSet<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    assert_eq!(names.len(), EXPERIMENTS.len());
    assert!(!names.contains("all"), "`all` is the binary's own word");

    let out = experiments(&["--list"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(stdout, list());
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), EXPERIMENTS.len());
    for (line, e) in lines.iter().zip(EXPERIMENTS) {
        let mut words = line.split_whitespace();
        assert_eq!(words.next(), Some(e.name));
        assert!(line.contains(e.anchor) && line.ends_with(e.about), "{line}");
    }
}

#[test]
fn unknown_name_exits_2_and_lists_the_valid_ones() {
    for bad in [&["fig9"][..], &["runall"], &["fig2", "--parallel"]] {
        let out = experiments(bad);
        assert_eq!(out.status.code(), Some(2), "{bad:?}");
        assert!(out.stdout.is_empty(), "{bad:?} printed a report");
    }
    let stderr = String::from_utf8(experiments(&["fig9"]).stderr).unwrap();
    assert!(stderr.contains("unknown experiment `fig9`"), "{stderr}");
    for e in EXPERIMENTS {
        assert!(stderr.contains(e.name), "{} missing from: {stderr}", e.name);
    }
}

#[test]
fn binary_prints_what_the_table_row_writes() {
    let out = experiments(&["fig7", "--scale", "0.02", "--csv"]);
    assert!(out.status.success());
    let fig7 = EXPERIMENTS.iter().find(|e| e.name == "fig7").unwrap();
    assert_eq!(
        String::from_utf8(out.stdout).unwrap(),
        report(fig7, Cli { csv: true, ..SMALL })
    );
}
