//! `baps_top` — a live terminal dashboard for a running BAPS proxy.
//!
//! Scrapes `METRICS` once per interval (1 Hz by default) over one
//! keep-alive connection — the proxy's one report, SLO windows and
//! verdicts included — and renders an at-a-glance view: rolling
//! request/error rates with a sparkline of recent history, the
//! serve-tier split, executor-queue and event-loop saturation, and the
//! active SLO alerts beside the slowest requests' exemplar trace ids (each
//! fetchable via `TRACE`).
//!
//! ```text
//! baps_top --addr 127.0.0.1:4080            # watch a running proxy
//! baps_top --demo                           # self-hosted demo deployment
//! baps_top --demo --iterations 5 --plain    # bounded, no ANSI (CI/pipes)
//! ```
//!
//! `--interval-ms` tunes the scrape cadence; `--iterations 0` (default
//! with `--addr`) runs until interrupted. `--plain` appends frames as
//! plain text instead of redrawing the screen.

use baps_core::Served;
use baps_obs::prom;
use baps_proxy::{
    read_message, response_code, write_message, DocumentStore, Message, TestBed, TestBedConfig,
};
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Sparkline glyphs, lowest to highest.
const SPARKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
/// Sparkline history length (seconds of req/s kept on screen).
const HISTORY: usize = 60;
/// Verdict names by the value of the `baps_slo_*verdict` gauges.
const VERDICTS: [&str; 3] = ["ok", "warn", "critical"];
/// Most exemplar trace ids listed under the alerts.
const MAX_TRACES: usize = 8;

struct Args {
    addr: Option<SocketAddr>,
    demo: bool,
    iterations: u64,
    interval: Duration,
    plain: bool,
}

fn fail(what: &str) -> ! {
    eprintln!("error: {what}");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut out = Args {
        addr: None,
        demo: false,
        iterations: 0,
        interval: Duration::from_millis(1000),
        plain: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .unwrap_or_else(|| fail(&format!("{what} needs a value")))
        };
        match arg.as_str() {
            "--addr" => {
                out.addr = Some(
                    value("--addr")
                        .parse()
                        .unwrap_or_else(|_| fail("--addr wants host:port")),
                )
            }
            "--demo" => out.demo = true,
            "--iterations" => {
                out.iterations = value("--iterations")
                    .parse()
                    .unwrap_or_else(|_| fail("--iterations wants a number"))
            }
            "--interval-ms" => {
                out.interval = Duration::from_millis(
                    value("--interval-ms")
                        .parse()
                        .unwrap_or_else(|_| fail("--interval-ms wants a number")),
                )
            }
            "--plain" => out.plain = true,
            "--help" | "-h" => {
                println!(
                    "usage: baps_top (--addr <host:port> | --demo) \
                     [--iterations N] [--interval-ms M] [--plain]"
                );
                std::process::exit(0);
            }
            other => fail(&format!("unknown argument {other:?}")),
        }
    }
    if out.addr.is_some() == out.demo {
        fail("pass exactly one of --addr or --demo");
    }
    if out.demo && out.iterations == 0 {
        out.iterations = 10;
    }
    out
}

/// One keep-alive scrape connection speaking the BAPS admin verbs.
struct Scraper {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Scraper {
    fn connect(addr: SocketAddr) -> std::io::Result<Scraper> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(5)))?;
        Ok(Scraper {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    fn roundtrip(&mut self, verb: &str) -> std::io::Result<Message> {
        write_message(&mut self.writer, &Message::new(format!("{verb} BAPS/1.0")))?;
        read_message(&mut self.reader)?.ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "proxy closed connection")
        })
    }
}

/// One frame's input: the samples of one `METRICS` reply.
fn scrape(s: &mut Scraper) -> Result<Vec<prom::Sample>, String> {
    let metrics = s
        .roundtrip("METRICS")
        .map_err(|e| format!("METRICS: {e}"))?;
    if response_code(&metrics) != Some(200) {
        return Err(format!("METRICS answered {:?}", metrics.start()));
    }
    let text = String::from_utf8(metrics.body.to_vec()).map_err(|_| "METRICS not UTF-8")?;
    prom::parse(&text).map_err(|e| format!("bad exposition: {e}"))
}

fn sparkline(history: &[f64]) -> String {
    let max = history.iter().cloned().fold(0.0_f64, f64::max);
    history
        .iter()
        .map(|&v| {
            if max <= 0.0 {
                SPARKS[0]
            } else {
                let idx = ((v / max) * (SPARKS.len() - 1) as f64).round() as usize;
                SPARKS[idx.min(SPARKS.len() - 1)]
            }
        })
        .collect()
}

/// A 20-cell unicode bar for a 0..=1 fraction.
fn gauge(fraction: f64) -> String {
    let filled = (fraction.clamp(0.0, 1.0) * 20.0).round() as usize;
    format!("[{}{}]", "█".repeat(filled), "·".repeat(20 - filled))
}

fn metric(samples: &[prom::Sample], name: &str) -> f64 {
    labelled(samples, name, &[])
}

/// The first sample of `family` carrying `labels` (0 when absent).
fn labelled(samples: &[prom::Sample], family: &str, labels: &[(&str, &str)]) -> f64 {
    prom::find(samples, family, labels).unwrap_or(0.0)
}

fn verdict_name(value: f64) -> &'static str {
    VERDICTS[(value as usize).min(VERDICTS.len() - 1)]
}

/// `family`'s count over the `window` report window, per second of its
/// span (0 before the window has any).
fn per_s(samples: &[prom::Sample], family: &str, window: &str) -> f64 {
    let at = [("window", window)];
    let span = labelled(samples, "baps_window_span_seconds", &at);
    if span > 0.0 {
        labelled(samples, family, &at) / span
    } else {
        0.0
    }
}

/// The smallest bucket edge under which a fraction `q` of a histogram
/// family's observations fall (0 when it has none).
fn bucket_quantile_ms(samples: &[prom::Sample], family: &str, q: f64) -> f64 {
    let bucket = format!("{family}_bucket");
    let cumulative: Vec<(f64, f64)> = samples
        .iter()
        .filter(|s| s.name == bucket)
        .filter_map(|s| Some((s.label("le")?.parse().ok()?, s.value)))
        .collect();
    let total = cumulative.last().map_or(0.0, |&(_, n)| n);
    cumulative
        .iter()
        .find(|&&(_, n)| total > 0.0 && n >= q * total)
        .map_or(0.0, |&(le, _)| le)
}

fn render(samples: &[prom::Sample], history: &[f64], plain: bool) -> String {
    let mut out = String::new();
    if !plain {
        out.push_str("\x1b[2J\x1b[H"); // clear screen, home cursor
    }
    out.push_str(&format!(
        "baps_top — uptime={}s verdict={}\n\n",
        metric(samples, "baps_uptime_seconds"),
        verdict_name(metric(samples, "baps_slo_verdict")).to_uppercase()
    ));

    let windows = samples
        .iter()
        .filter(|s| s.name == "baps_window_span_seconds")
        .filter_map(|s| s.label("window"));
    for window in windows {
        let quantile = |q| {
            labelled(
                samples,
                "baps_window_latency_ms",
                &[("window", window), ("quantile", q)],
            )
        };
        out.push_str(&format!(
            "  {window:>3}s window  {:>9.1} req/s  {:>8.2} err/s  p99 {:>8.2}ms  p999 {:>8.2}ms\n",
            per_s(samples, "baps_window_requests", window),
            per_s(samples, "baps_window_errors", window),
            quantile("0.99"),
            quantile("0.999"),
        ));
    }
    out.push_str(&format!("\n  req/s {}\n", sparkline(history)));

    // Tier split from the cumulative counters: every tier the proxy serves
    // from (a browser's own cache never reaches it).
    let tiers = &Served::LABELS[Served::Proxy.index()..];
    let counts: Vec<f64> = tiers
        .iter()
        .map(|t| labelled(samples, "baps_served_total", &[("tier", t)]))
        .collect();
    let total: f64 = counts.iter().sum();
    out.push_str("\n  tier split   ");
    for (t, c) in tiers.iter().zip(&counts) {
        let pct = if total > 0.0 { 100.0 * c / total } else { 0.0 };
        out.push_str(&format!("{t} {pct:>5.1}%  "));
    }
    out.push('\n');

    // Saturation: the blocking executor's queue (a job waits there only
    // while every executor thread is busy), then the event loops.
    out.push_str(&format!(
        "\n  executor  queue depth {:>4.0} (peak {:.0}, rejected {:.0})   \
         wait p99 <= {:.2}ms over {:.0} jobs\n",
        metric(samples, "baps_queue_depth"),
        metric(samples, "baps_queue_depth_peak"),
        metric(samples, "baps_queue_rejected_total"),
        bucket_quantile_ms(samples, "baps_queue_wait_ms", 0.99),
        metric(samples, "baps_queue_wait_ms_count"),
    ));
    let busy_fraction = metric(samples, "baps_reactor_busy_fraction");
    out.push_str(&format!(
        "  reactor   {} busy {:>4.0}%   fds {:>4.0} (peak {:.0}, ready-batch peak {:.0})\n",
        gauge(busy_fraction),
        busy_fraction * 100.0,
        metric(samples, "baps_reactor_registered_fds"),
        metric(samples, "baps_reactor_registered_fds_peak"),
        metric(samples, "baps_reactor_ready_batch_peak"),
    ));
    out.push_str(&format!(
        "  recorder  {:>6.0} events held, {:>6.0} shed\n",
        metric(samples, "baps_flight_recorder_events"),
        metric(samples, "baps_flight_recorder_dropped_total"),
    ));

    // Active alerts: every rule that is not ok, then the slowest requests'
    // exemplar trace ids, the evidence a request-facing alert points at.
    let offending: Vec<_> = samples
        .iter()
        .filter(|s| s.name == "baps_slo_rule_verdict" && s.value > 0.0)
        .collect();
    if offending.is_empty() {
        out.push_str("\n  alerts: none — all SLO rules ok\n");
        return out;
    }
    out.push_str("\n  alerts:\n");
    for r in offending {
        let (rule, signal) = (
            r.label("rule").unwrap_or("?"),
            r.label("signal").unwrap_or("?"),
        );
        let of = |family| labelled(samples, family, &[("rule", rule)]);
        out.push_str(&format!(
            "    {:<8} {rule:<20} {signal} = {:.3} (warn {:.3}, critical {:.3})\n",
            verdict_name(r.value).to_uppercase(),
            of("baps_slo_rule_value"),
            of("baps_slo_rule_warn"),
            of("baps_slo_rule_critical"),
        ));
    }
    let mut slow: Vec<(f64, &str)> = samples
        .iter()
        .filter(|s| s.name == "baps_request_latency_ms_bucket")
        .filter_map(|s| {
            let e = s.exemplar.as_ref()?;
            Some((e.value, e.trace_id()?))
        })
        .collect();
    slow.sort_by(|a, b| b.0.total_cmp(&a.0));
    let ids: Vec<&str> = slow.iter().map(|&(_, id)| id).take(MAX_TRACES).collect();
    if !ids.is_empty() {
        out.push_str(&format!("    slowest traces: {}\n", ids.join(" ")));
    }
    out
}

/// `--demo`: a self-hosted deployment plus a background load thread, so
/// the dashboard has something to show without a running system. The
/// load thread takes ownership of the client agents and hands them back
/// on join for an orderly shutdown.
type LoadThread = std::thread::JoinHandle<Vec<baps_proxy::ClientAgent>>;

fn demo_bed(stop: Arc<AtomicBool>) -> (TestBed, LoadThread) {
    let store = DocumentStore::synthetic(256, 200, 2_000, 42);
    let mut bed = TestBed::start(
        store,
        TestBedConfig {
            n_clients: 3,
            proxy_capacity: 48 << 10,
            ..TestBedConfig::default()
        },
    )
    .unwrap_or_else(|e| fail(&format!("demo deployment failed to start: {e}")));
    // A deterministic mixed workload: a hot set (proxy/browser hits) and
    // a rotating cold tail (origin fetches), so every dashboard panel
    // has live numbers.
    let clients = std::mem::take(&mut bed.clients);
    let load = std::thread::spawn(move || {
        let mut seq: u64 = 0;
        while !stop.load(Ordering::Acquire) {
            let client = &clients[(seq % clients.len() as u64) as usize];
            let url = if seq.is_multiple_of(4) {
                format!("http://origin/doc/{}", 200 + (seq / 4) % 56)
            } else {
                format!("http://origin/doc/{}", seq % 24)
            };
            let _ = client.fetch(&url);
            seq += 1;
            std::thread::sleep(Duration::from_millis(5));
        }
        clients
    });
    (bed, load)
}

fn main() {
    let args = parse_args();
    let stop = Arc::new(AtomicBool::new(false));
    let demo = if args.demo {
        Some(demo_bed(Arc::clone(&stop)))
    } else {
        None
    };
    let addr = match (&demo, args.addr) {
        (Some((bed, _)), _) => bed.proxy.addr(),
        (None, Some(addr)) => addr,
        _ => unreachable!("parse_args enforces the mode"),
    };
    let mut scraper =
        Scraper::connect(addr).unwrap_or_else(|e| fail(&format!("cannot connect to {addr}: {e}")));

    let mut history: Vec<f64> = Vec::with_capacity(HISTORY);
    let mut iteration: u64 = 0;
    loop {
        iteration += 1;
        match scrape(&mut scraper) {
            Ok(samples) => {
                history.push(per_s(&samples, "baps_window_requests", "1"));
                if history.len() > HISTORY {
                    history.remove(0);
                }
                print!("{}", render(&samples, &history, args.plain));
                if args.plain {
                    println!("--- frame {iteration} ---");
                }
            }
            Err(e) => {
                // A restarting proxy drops the keep-alive connection;
                // reconnect on the next tick instead of dying mid-watch.
                eprintln!("scrape failed ({e}); reconnecting");
                if let Ok(next) = Scraper::connect(addr) {
                    scraper = next;
                }
            }
        }
        if args.iterations != 0 && iteration >= args.iterations {
            break;
        }
        std::thread::sleep(args.interval);
    }

    stop.store(true, Ordering::Release);
    if let Some((mut bed, load)) = demo {
        if let Ok(clients) = load.join() {
            bed.clients = clients;
        }
        bed.shutdown();
    }
}
