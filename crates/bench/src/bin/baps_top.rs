//! `baps_top` — a live terminal dashboard for a running BAPS proxy.
//!
//! Scrapes `METRICS` + `HEALTH` once per interval (1 Hz by default) over
//! one keep-alive connection and renders an at-a-glance view: rolling
//! request/error rates with a sparkline of recent history, the
//! serve-tier split, executor/event-loop saturation gauges, and the
//! active SLO alerts with their exemplar trace ids (each fetchable via
//! `TRACE`).
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

use baps_obs::prom;
use baps_proxy::{
    read_message, response_code, write_message, DocumentStore, HealthReport, Message, TestBed,
    TestBedConfig, Verdict,
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

/// One rendered frame's inputs.
struct Frame {
    samples: Vec<prom::Sample>,
    health: HealthReport,
}

fn scrape(s: &mut Scraper) -> Result<Frame, String> {
    let metrics = s
        .roundtrip("METRICS")
        .map_err(|e| format!("METRICS: {e}"))?;
    let health = s.roundtrip("HEALTH").map_err(|e| format!("HEALTH: {e}"))?;
    for (verb, reply) in [("METRICS", &metrics), ("HEALTH", &health)] {
        if response_code(reply) != Some(200) {
            return Err(format!("{verb} answered {:?}", reply.start));
        }
    }
    let text = String::from_utf8(metrics.body.to_vec()).map_err(|_| "METRICS not UTF-8")?;
    let samples = prom::parse(&text).map_err(|e| format!("bad exposition: {e}"))?;
    let body = std::str::from_utf8(&health.body).map_err(|_| "HEALTH not UTF-8")?;
    let health = HealthReport::parse(body).map_err(|e| format!("bad verdict document: {e}"))?;
    Ok(Frame { samples, health })
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
    prom::find(samples, name, &[]).unwrap_or(0.0)
}

fn tier_count(samples: &[prom::Sample], tier: &str) -> f64 {
    prom::find(samples, "baps_served_total", &[("tier", tier)]).unwrap_or(0.0)
}

fn render(frame: &Frame, history: &[f64], plain: bool) -> String {
    let h = &frame.health;
    let mut out = String::new();
    if !plain {
        out.push_str("\x1b[2J\x1b[H"); // clear screen, home cursor
    }
    let verdict_tag = match h.verdict {
        Verdict::Ok => "OK",
        Verdict::Warn => "WARN",
        Verdict::Critical => "CRITICAL",
    };
    out.push_str(&format!(
        "baps_top — uptime={}s verdict={}\n\n",
        h.uptime_secs, verdict_tag
    ));

    for w in &h.windows {
        out.push_str(&format!(
            "  {:>3}s window  {:>9.1} req/s  {:>8.2} err/s  p99 {:>8.2}ms  p999 {:>8.2}ms\n",
            w.window_secs, w.req_per_s, w.err_per_s, w.p99_ms, w.p999_ms
        ));
    }
    out.push_str(&format!("\n  req/s {}\n", sparkline(history)));

    // Tier split from the cumulative counters.
    let tiers = ["proxy", "disk", "peer", "origin"];
    let counts: Vec<f64> = tiers
        .iter()
        .map(|t| tier_count(&frame.samples, t))
        .collect();
    let total: f64 = counts.iter().sum();
    out.push_str("\n  tier split   ");
    for (t, c) in tiers.iter().zip(&counts) {
        let pct = if total > 0.0 { 100.0 * c / total } else { 0.0 };
        out.push_str(&format!("{t} {pct:>5.1}%  "));
    }
    out.push('\n');

    // Saturation: the blocking executor, then the event loops.
    let workers = metric(&frame.samples, "baps_workers").max(1.0);
    let busy = metric(&frame.samples, "baps_workers_busy");
    out.push_str(&format!(
        "\n  workers   {} {:>4.0}/{:<4.0}",
        gauge(busy / workers),
        busy,
        workers
    ));
    out.push_str(&format!(
        "   queue depth {:>4.0} (peak {:.0}, rejected {:.0})\n",
        metric(&frame.samples, "baps_queue_depth"),
        metric(&frame.samples, "baps_queue_depth_peak"),
        metric(&frame.samples, "baps_queue_rejected_total"),
    ));
    let busy_fraction = metric(&frame.samples, "baps_reactor_busy_fraction");
    out.push_str(&format!(
        "  reactor   {} busy {:>4.0}%   fds {:>4.0} (peak {:.0}, ready-batch peak {:.0})\n",
        gauge(busy_fraction),
        busy_fraction * 100.0,
        metric(&frame.samples, "baps_reactor_registered_fds"),
        metric(&frame.samples, "baps_reactor_registered_fds_peak"),
        metric(&frame.samples, "baps_reactor_ready_batch_peak"),
    ));
    out.push_str(&format!(
        "  recorder  {:>6.0} events held, {:>6.0} shed\n",
        metric(&frame.samples, "baps_flight_recorder_events"),
        metric(&frame.samples, "baps_flight_recorder_dropped_total"),
    ));

    // Active alerts: every rule that is not ok, with its exemplars.
    let offending: Vec<_> = h.offending().collect();
    if offending.is_empty() {
        out.push_str("\n  alerts: none — all SLO rules ok\n");
    } else {
        out.push_str("\n  alerts:\n");
        for r in offending {
            out.push_str(&format!(
                "    {:<8} {:<20} {} = {:.3} (warn {:.3}, critical {:.3})\n",
                r.verdict.name().to_uppercase(),
                r.name,
                r.signal.name(),
                r.value,
                r.warn,
                r.critical
            ));
            if !r.exemplars.is_empty() {
                let ids: Vec<String> = r.exemplars.iter().map(|t| format!("{t:016x}")).collect();
                out.push_str(&format!("             traces: {}\n", ids.join(" ")));
            }
        }
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
            Ok(frame) => {
                let rate = frame
                    .health
                    .windows
                    .iter()
                    .find(|w| w.window_secs == 1)
                    .map(|w| w.req_per_s)
                    .unwrap_or(0.0);
                history.push(rate);
                if history.len() > HISTORY {
                    history.remove(0);
                }
                print!("{}", render(&frame, &history, args.plain));
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
