//! Regenerates the paper's tables and figures:
//!
//! ```sh
//! experiments --list                         # what there is to run
//! experiments fig5 --scale 0.2               # one row, fast
//! experiments all | tee experiments_full.txt # the record behind EXPERIMENTS.md
//! ```
//!
//! The rows live in [`baps_bench::experiments::EXPERIMENTS`]; this file only
//! parses the command line.

use baps_bench::experiments::{list, run_all, EXPERIMENTS};
use baps_bench::Cli;

const USAGE: &str =
    "usage: experiments <name>|all [--scale <frac>] [--csv]\n       experiments --list";

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((name, options)) = args.split_first() else {
        eprintln!("{USAGE}");
        std::process::exit(2)
    };
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}\n\n{}", list());
        return;
    }
    if name == "--list" {
        print!("{}", list());
        return;
    }
    let run = match EXPERIMENTS.iter().find(|e| e.name == name) {
        Some(e) => e.run,
        None if name == "all" => run_all,
        None => die(&format!(
            "unknown experiment `{name}`; the valid names are `all` and\n{}",
            list()
        )),
    };
    let cli = Cli::parse(options.iter().cloned()).unwrap_or_else(|e| die(&format!("{e}\n{USAGE}")));
    if let Err(e) = run(cli, &mut std::io::stdout().lock()) {
        eprintln!("error: writing the report: {e}");
        std::process::exit(1);
    }
}
