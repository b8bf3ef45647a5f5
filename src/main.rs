//! `baps` — command-line front end for the Browsers-Aware Proxy Server
//! reproduction.
//!
//! ```text
//! baps generate --profile uc --out trace.baps [--scale 0.1] [--squid log.txt]
//! baps info trace.baps
//! baps simulate trace.baps [--org baps] [--proxy-frac 0.10] [--all-orgs]
//! baps demo [--clients 4] [--docs 32]
//! ```

use baps::core::{LatencyParams, Organization, Served, SystemConfig, PROXY_TIERS};
use baps::proxy::{DocumentStore, TestBed, TestBedConfig};
use baps::sim::{pct, run_sweep, Table};
use baps::trace::{
    read_trace, write_squid_log, write_trace, ExportNames, Profile, Trace, TraceStats,
};
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("generate") => cmd_generate(&args[1..]),
        Some("info") => cmd_info(&args[1..]),
        Some("simulate") => cmd_simulate(&args[1..]),
        Some("demo") => cmd_demo(&args[1..]),
        Some("--help") | Some("-h") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown command: {other}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

fn print_usage() {
    println!(
        "baps — browsers-aware proxy server (IPDPS 2002 reproduction)\n\n\
         USAGE:\n  \
         baps generate --profile <uc|bo1|bu95|bu98|canet> --out <file> [--scale <f>] [--squid <file>]\n  \
         baps info <trace-file>\n  \
         baps simulate <trace-file> [--org <p|b|gb|plb|baps>] [--proxy-frac <f>] [--all-orgs]\n  \
         baps demo [--clients <n>] [--docs <n>]\n\n\
         The paper's experiments are `experiments <name>` in baps-bench; see README.md."
    );
}

fn parse_profile(name: &str) -> Result<Profile, String> {
    Ok(match name {
        "uc" => Profile::NlanrUc,
        "bo1" => Profile::NlanrBo1,
        "bu95" => Profile::Bu95,
        "bu98" => Profile::Bu98,
        "canet" => Profile::CaNetII,
        other => return Err(format!("unknown profile {other} (uc|bo1|bu95|bu98|canet)")),
    })
}

/// Extracts `--flag value` pairs and positional arguments.
fn parse_flags(args: &[String]) -> (Vec<String>, Vec<(String, String)>, Vec<String>) {
    let mut positional = Vec::new();
    let mut pairs = Vec::new();
    let mut switches = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        if let Some(name) = arg.strip_prefix("--") {
            match it.peek() {
                Some(value) if !value.starts_with("--") => {
                    pairs.push((name.to_owned(), it.next().expect("peeked").clone()));
                }
                _ => switches.push(name.to_owned()),
            }
        } else {
            positional.push(arg.clone());
        }
    }
    (positional, pairs, switches)
}

fn flag<'a>(pairs: &'a [(String, String)], name: &str) -> Option<&'a str> {
    pairs
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let (_, pairs, _) = parse_flags(args);
    let profile = parse_profile(flag(&pairs, "profile").ok_or("--profile required")?)?;
    let out = flag(&pairs, "out").ok_or("--out required")?;
    let scale: f64 = flag(&pairs, "scale")
        .map(|s| s.parse().map_err(|e| format!("bad --scale: {e}")))
        .transpose()?
        .unwrap_or(1.0);
    if !(0.0 < scale && scale <= 1.0) {
        return Err("--scale must be in (0, 1]".into());
    }

    eprintln!("generating {} at scale {scale}...", profile.name());
    let trace = if scale >= 1.0 {
        profile.generate()
    } else {
        profile.generate_scaled(scale)
    };
    let file = File::create(out).map_err(|e| format!("create {out}: {e}"))?;
    write_trace(&mut BufWriter::new(file), &trace).map_err(|e| format!("write {out}: {e}"))?;
    eprintln!("wrote {} requests to {out}", trace.len());

    if let Some(squid_path) = flag(&pairs, "squid") {
        let file = File::create(squid_path).map_err(|e| format!("create {squid_path}: {e}"))?;
        write_squid_log(&mut BufWriter::new(file), &trace, &ExportNames::default())
            .map_err(|e| format!("write {squid_path}: {e}"))?;
        eprintln!("wrote Squid-format log to {squid_path}");
    }
    Ok(())
}

fn load(path: &str) -> Result<Trace, String> {
    let file = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    read_trace(&mut BufReader::new(file)).map_err(|e| format!("read {path}: {e}"))
}

fn cmd_info(args: &[String]) -> Result<(), String> {
    let (positional, ..) = parse_flags(args);
    let path = positional.first().ok_or("usage: baps info <trace-file>")?;
    let trace = load(path)?;
    let stats = TraceStats::compute(&trace);
    println!("trace:               {}", trace.name);
    println!("requests:            {}", stats.requests);
    println!("clients:             {}", stats.clients);
    println!("unique documents:    {}", stats.unique_docs);
    println!("total volume:        {:.3} GB", stats.total_gb());
    println!("infinite cache:      {:.3} GB", stats.infinite_gb());
    println!("mean document size:  {:.0} B", stats.mean_doc_size);
    println!("size-change misses:  {}", stats.size_changes);
    println!("max hit ratio:       {:.2}%", stats.max_hit_ratio);
    println!("max byte hit ratio:  {:.2}%", stats.max_byte_hit_ratio);
    Ok(())
}

fn cmd_simulate(args: &[String]) -> Result<(), String> {
    let (positional, pairs, switches) = parse_flags(args);
    let path = positional
        .first()
        .ok_or("usage: baps simulate <trace-file> [options]")?;
    let trace = load(path)?;
    let stats = TraceStats::compute(&trace);
    let proxy_frac: f64 = flag(&pairs, "proxy-frac")
        .map(|s| s.parse().map_err(|e| format!("bad --proxy-frac: {e}")))
        .transpose()?
        .unwrap_or(0.10);
    let proxy_capacity = ((stats.infinite_cache_bytes as f64 * proxy_frac) as u64).max(1);

    let orgs: Vec<Organization> = if switches.iter().any(|s| s == "all-orgs") {
        Organization::all().to_vec()
    } else {
        let org = match flag(&pairs, "org").unwrap_or("baps") {
            "p" => Organization::ProxyOnly,
            "b" => Organization::LocalBrowserOnly,
            "gb" => Organization::GlobalBrowsersOnly,
            "plb" => Organization::ProxyAndLocalBrowser,
            "baps" => Organization::BrowsersAware,
            other => return Err(format!("unknown --org {other} (p|b|gb|plb|baps)")),
        };
        vec![org]
    };

    let configs: Vec<SystemConfig> = orgs
        .iter()
        .map(|&org| SystemConfig::paper_default(org, proxy_capacity))
        .collect();
    let results = run_sweep(&trace, &stats, &configs, &LatencyParams::paper());

    let mut table = Table::new(vec![
        "organization",
        "HR %",
        "BHR %",
        "local %",
        "proxy %",
        "remote %",
        "mean svc (ms)",
    ]);
    for (cfg, r) in configs.iter().zip(&results) {
        table.row(vec![
            cfg.organization.name().to_owned(),
            pct(r.hit_ratio()),
            pct(r.byte_hit_ratio()),
            pct(r.metrics.class_ratio(&[Served::LocalBrowser])),
            pct(r.metrics.class_ratio(PROXY_TIERS)),
            pct(r.metrics.class_ratio(&[Served::Peer])),
            format!("{:.1}", r.histograms.all.mean_ms()),
        ]);
    }
    println!(
        "{}: {} requests, proxy at {:.1}% of infinite cache ({} bytes)\n",
        trace.name,
        trace.len(),
        proxy_frac * 100.0,
        proxy_capacity
    );
    print!("{}", table.render());
    Ok(())
}

fn cmd_demo(args: &[String]) -> Result<(), String> {
    let (_, pairs, _) = parse_flags(args);
    let n_clients: u32 = flag(&pairs, "clients")
        .map(|s| s.parse().map_err(|e| format!("bad --clients: {e}")))
        .transpose()?
        .unwrap_or(4);
    let n_docs: usize = flag(&pairs, "docs")
        .map(|s| s.parse().map_err(|e| format!("bad --docs: {e}")))
        .transpose()?
        .unwrap_or(32);
    if n_clients < 2 {
        return Err("--clients must be >= 2".into());
    }

    let store = DocumentStore::synthetic(n_docs, 300, 3_000, 11);
    let bed = TestBed::start(
        store,
        TestBedConfig {
            n_clients,
            proxy_capacity: 4_000,
            browser_capacity: 64 << 10,
            ..TestBedConfig::default()
        },
    )
    .map_err(|e| format!("start test bed: {e}"))?;
    println!(
        "live system up: origin {}, proxy {}, {n_clients} clients",
        bed.origin.addr(),
        bed.proxy.addr(),
    );

    // Drive a workload that produces every hit class:
    // 1. client 0 pulls doc/0 from the origin;
    // 2. every client re-fetches doc/0 (proxy hits, then local hits);
    // 3. the last client churns the tiny proxy cache;
    // 4. client 1 evicts its copy and re-fetches doc/0 — now only peer
    //    browsers hold it.
    let mut sources = std::collections::HashMap::new();
    let mut record = |r: &baps::proxy::FetchResult| {
        *sources.entry(format!("{:?}", r.source)).or_insert(0u32) += 1;
    };
    let url0 = "http://origin/doc/0";
    for pass in 0..2 {
        for (i, client) in bed.clients.iter().enumerate() {
            let r = client.fetch(url0).map_err(|e| format!("fetch: {e}"))?;
            record(&r);
            if pass == 0 && i == 0 {
                println!("  client 0 fetched doc/0 from {:?}", r.source);
            }
        }
    }
    let churner = bed.clients.last().expect(">= 2 clients");
    for doc in 1..n_docs.min(8) {
        let r = churner
            .fetch(&format!("http://origin/doc/{doc}"))
            .map_err(|e| format!("fetch: {e}"))?;
        record(&r);
    }
    bed.clients[1]
        .evict(url0)
        .map_err(|e| format!("evict: {e}"))?;
    let r = bed.clients[1]
        .fetch(url0)
        .map_err(|e| format!("fetch: {e}"))?;
    record(&r);
    println!(
        "  client 1 re-fetched doc/0 after proxy churn: {:?}{}",
        r.source,
        if r.source == Served::Peer {
            " (served from a peer browser cache, watermark verified)"
        } else {
            ""
        }
    );
    let stats = bed.proxy.stats();
    println!("\nfetch sources: {sources:?}");
    println!(
        "proxy: {} requests, {} proxy hits, {} peer hits, {} origin fetches, {} invalidations",
        stats.requests,
        stats.proxy_hits,
        stats.peer_hits,
        stats.origin_fetches,
        stats.invalidations
    );
    bed.shutdown();
    Ok(())
}
