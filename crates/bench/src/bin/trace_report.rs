//! Assemble `TRACE BAPS/1.0` dumps into causal span trees and print
//! per-kind critical-path attribution.
//!
//! Input is the JSONL span dump a proxy returns for the `TRACE` verb
//! (one span per line; see DESIGN.md §12). The report reconstructs the
//! trees with `baps_obs::span::assemble`, prints how many traces were
//! captured and how deep they stitch, renders the deepest tree as an
//! indented outline, and tabulates per-kind p50/p99 for both the whole
//! span and its *self time* (duration minus children — the share each
//! step contributes to the critical path).
//!
//! Usage:
//!
//! ```text
//! trace_report <dump.jsonl>        # read a saved TRACE body
//! trace_report -                   # read the dump from stdin
//! trace_report --live              # self-contained: start a loopback
//!                                  # deployment, drive a small workload,
//!                                  # scrape TRACE, and report on it
//! ```

use baps_bench::critical_path::{attribution, is_multihop, render_table, render_tree};
use baps_obs::span;
use baps_proxy::{response_code, DocumentStore, Source, TestBed, TestBedConfig};
use std::io::Read;

struct Args {
    input: Option<String>,
    live: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        input: None,
        live: false,
    };
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--live" => args.live = true,
            "--help" | "-h" => {
                println!("usage: trace_report [<dump.jsonl> | -] [--live]");
                std::process::exit(0);
            }
            other if args.input.is_none() && !other.starts_with("--") => {
                args.input = Some(other.to_owned());
            }
            other => {
                eprintln!("error: unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    if args.live == args.input.is_some() {
        eprintln!("error: pass exactly one of <dump.jsonl>, -, or --live");
        std::process::exit(2);
    }
    args
}

/// Drives a small loopback deployment through all three serve paths
/// (origin, proxy, peer) and returns the proxy's `TRACE` dump. Trace ids
/// are deterministic per (client, seq) and head sampling is a pure
/// function of the id, so this workload always yields sampled traces.
fn live_dump() -> String {
    // Small proxy cache so each round's flood evicts the round's seed
    // doc and the follow-up fetch becomes a peer hit (the same shape the
    // live tests use). Enough rounds that head sampling — a pure hash
    // keeping 1 trace in SAMPLE_ONE_IN — deterministically catches both
    // a peer-served and an origin-served fetch.
    let store = DocumentStore::synthetic(512, 200, 2_000, 42);
    let bed = TestBed::start(
        store,
        TestBedConfig {
            n_clients: 3,
            proxy_capacity: 2_500,
            browser_capacity: 64 << 10,
            ..TestBedConfig::default()
        },
    )
    .expect("loopback deployment starts");

    const ROUNDS: u32 = 60;
    let mut peer_hits = 0u32;
    for round in 0..ROUNDS {
        let url0 = format!("http://origin/doc/{}", round * 8);
        bed.clients[0].fetch(&url0).expect("seed fetch");
        for i in 1..8 {
            bed.clients[2]
                .fetch(&format!("http://origin/doc/{}", round * 8 + i))
                .expect("flood fetch");
        }
        let r = bed.clients[1].fetch(&url0).expect("follow-up fetch");
        if r.source == Source::Peer {
            peer_hits += 1;
        }
    }
    assert!(peer_hits > 0, "workload must produce at least one peer hit");

    let reply = bed.clients[0].proxy_trace_raw().expect("TRACE scrape");
    assert_eq!(response_code(&reply), Some(200), "TRACE must answer 200");
    let body = String::from_utf8(reply.body.to_vec()).expect("TRACE body is UTF-8");
    println!(
        "live deployment: {} fetches driven, {} peer hits, \
         TRACE returned {} bytes (Sample-One-In: {})",
        ROUNDS * 9,
        peer_hits,
        body.len(),
        reply.get("Sample-One-In").unwrap_or("?"),
    );
    bed.shutdown();
    body
}

fn main() {
    let args = parse_args();
    let text = if args.live {
        live_dump()
    } else {
        match args.input.as_deref() {
            Some("-") => {
                let mut buf = String::new();
                std::io::stdin()
                    .read_to_string(&mut buf)
                    .expect("read stdin");
                buf
            }
            Some(path) => {
                std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
            }
            None => unreachable!(),
        }
    };

    let records = match span::parse_jsonl(&text) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: bad TRACE dump: {e}");
            std::process::exit(1);
        }
    };
    let trees = span::assemble(&records);
    let traces: std::collections::HashSet<_> = trees.iter().map(|t| t.trace).collect();
    println!(
        "\n{} spans, {} traces, {} trees ({} spanning client+proxy+far side)",
        records.len(),
        traces.len(),
        trees.len(),
        trees.iter().filter(|t| is_multihop(t)).count(),
    );

    if let Some(deepest) = trees.iter().max_by_key(|t| t.root.max_depth()) {
        println!(
            "\ndeepest tree (depth {}):\n{}",
            deepest.root.max_depth(),
            render_tree(deepest)
        );
    }

    println!("critical-path attribution (per span kind):");
    print!("{}", render_table(&attribution(&trees)));
}
