//! `baps_top` — a live terminal dashboard for a running BAPS proxy.
//!
//! Scrapes `METRICS` once per interval (1 Hz by default) over one
//! keep-alive connection, keeps the scrapes of the last minute, and
//! renders an at-a-glance view: the 1, 10 and 60 s request/error rates
//! and latency quantiles, each the difference of two scrapes, with a
//! sparkline of recent history, the serve-tier split, executor-queue and
//! event-loop saturation, and the SLO verdict `baps_bench::health`
//! judges over the last 10 s, its alerts beside the slowest requests'
//! exemplar trace ids (each fetchable via `TRACE`).
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

use baps_bench::health::{evaluate, Buckets, SloTable, Window};
use baps_core::Served;
use baps_obs::prom;
use baps_proxy::{
    read_message, response_code, write_message, DocumentStore, Message, TestBed, TestBedConfig,
};
use std::collections::VecDeque;
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sparkline glyphs, lowest to highest.
const SPARKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
/// Sparkline history length (seconds of req/s kept on screen).
const HISTORY: usize = 60;
/// The rows printed, seconds; the longest is how far back scrapes are
/// kept.
const WINDOWS: [u64; 3] = [1, 10, 60];
/// The window the verdict line is judged over.
const VERDICT_WINDOW: u64 = 10;
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

/// A scrape and when it was taken, by this reader's clock since it
/// started.
type Stamped = (Duration, Vec<prom::Sample>);

/// The scrapes of the last minute, oldest first.
#[derive(Default)]
struct Scrapes(VecDeque<Stamped>);

impl Scrapes {
    /// Appends the scrape taken at `at`, and drops those no window needs
    /// any more: all but the newest at or before the longest window's
    /// start.
    fn push(&mut self, at: Duration, samples: Vec<prom::Sample>) {
        self.0.push_back((at, samples));
        let longest = Duration::from_secs(WINDOWS[WINDOWS.len() - 1]);
        while self.0.get(1).is_some_and(|(t, _)| *t + longest <= at) {
            self.0.pop_front();
        }
    }

    /// The trailing `secs`: the newest scrape, and the newest at or before
    /// `secs` earlier than it, else the oldest held (the newest itself
    /// when it is the only one). `None` before the first scrape.
    fn window(&self, secs: u64) -> Option<(&Stamped, &Stamped)> {
        let later = self.0.back()?;
        let cutoff = later.0.checked_sub(Duration::from_secs(secs));
        let earlier = self
            .0
            .iter()
            .rev()
            .find(|(t, _)| cutoff.is_some_and(|c| *t <= c))
            .unwrap_or(&self.0[0]);
        Some((earlier, later))
    }

    /// Requests and errors per second over the trailing `secs`, and the
    /// window (0 before two scrapes).
    fn rates(&self, secs: u64) -> Option<(f64, f64, Window)> {
        let ((t0, earlier), (t1, later)) = self.window(secs)?;
        let w = Window::between(earlier, later);
        let elapsed = (*t1 - *t0).as_secs_f64();
        let per_s = |n: u64| {
            if elapsed > 0.0 {
                n as f64 / elapsed
            } else {
                0.0
            }
        };
        Some((per_s(w.requests), per_s(w.errors), w))
    }
}

fn metric(samples: &[prom::Sample], name: &str) -> f64 {
    labelled(samples, name, &[])
}

/// The first sample of `family` carrying `labels` (0 when absent).
fn labelled(samples: &[prom::Sample], family: &str, labels: &[(&str, &str)]) -> f64 {
    prom::find(samples, family, labels).unwrap_or(0.0)
}

fn render(scrapes: &Scrapes, history: &[f64], plain: bool) -> String {
    let ((_, earlier), (_, samples)) = scrapes
        .window(VERDICT_WINDOW)
        .expect("a frame is rendered after its scrape");
    let report = evaluate(earlier, samples, &SloTable::default());
    let mut out = String::new();
    if !plain {
        out.push_str("\x1b[2J\x1b[H"); // clear screen, home cursor
    }
    out.push_str(&format!(
        "baps_top — uptime={}s verdict={}\n\n",
        metric(samples, "baps_uptime_seconds"),
        report.verdict.name().to_uppercase()
    ));

    for secs in WINDOWS {
        let Some((req_s, err_s, w)) = scrapes.rates(secs) else {
            continue;
        };
        out.push_str(&format!(
            "  {secs:>3}s window  {req_s:>9.1} req/s  {err_s:>8.2} err/s  p99 {:>8.2}ms  p999 {:>8.2}ms\n",
            w.request.quantile_ms(0.99),
            w.request.quantile_ms(0.999),
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
    let queue_wait = Buckets::of(samples, "baps_queue_wait_ms");
    out.push_str(&format!(
        "\n  executor  queue depth {:>4.0} (peak {:.0}, rejected {:.0})   \
         wait p99 {:.2}ms over {} jobs\n",
        metric(samples, "baps_queue_depth"),
        metric(samples, "baps_queue_depth_peak"),
        metric(samples, "baps_queue_rejected_total"),
        queue_wait.quantile_ms(0.99),
        queue_wait.count(),
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
        "  recorder  {:>6.0} events held, {:>6.0} dropped, {:>6.0} shed\n",
        metric(samples, "baps_flight_recorder_events"),
        metric(samples, "baps_flight_recorder_dropped_total"),
        metric(samples, "baps_flight_recorder_shed_total"),
    ));

    // Active alerts: every rule that is not ok, then the slowest requests'
    // exemplar trace ids, the evidence a request-facing alert points at.
    if report.offending().count() == 0 {
        out.push_str("\n  alerts: none — all SLO rules ok\n");
        return out;
    }
    out.push_str("\n  alerts:\n");
    for r in report.offending() {
        out.push_str(&format!(
            "    {:<8} {:<20} {} = {:.3} (warn {:.3}, critical {:.3})\n",
            r.verdict.name().to_uppercase(),
            r.name,
            r.signal.name(),
            r.value,
            r.warn,
            r.critical,
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

    let started = Instant::now();
    let mut scrapes = Scrapes::default();
    let mut history: Vec<f64> = Vec::with_capacity(HISTORY);
    let mut iteration: u64 = 0;
    loop {
        iteration += 1;
        match scrape(&mut scraper) {
            Ok(samples) => {
                scrapes.push(started.elapsed(), samples);
                history.push(scrapes.rates(1).map_or(0.0, |(req_s, _, _)| req_s));
                if history.len() > HISTORY {
                    history.remove(0);
                }
                print!("{}", render(&scrapes, &history, args.plain));
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

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A scrape of the two counters the rates read, as the proxy renders
    /// them.
    fn fixture(requests: u64, errors: u64) -> Vec<prom::Sample> {
        let mut out = prom::PromText::new();
        out.counter("baps_requests_total", "GET requests completed.", requests);
        out.counter("baps_errors_total", "GET requests that failed.", errors);
        prom::parse(&out.finish()).unwrap()
    }

    fn secs(s: f64) -> Duration {
        Duration::from_secs_f64(s)
    }

    #[test]
    fn rates_difference_the_scrapes_each_window_spans() {
        let mut scrapes = Scrapes::default();
        scrapes.push(secs(0.0), fixture(1_000, 10));
        let (req_s, err_s, _) = scrapes.rates(1).unwrap();
        assert_eq!((req_s, err_s), (0.0, 0.0), "one scrape spans nothing");
        scrapes.push(secs(9.5), fixture(1_900, 100));
        scrapes.push(secs(10.5), fixture(2_000, 110));
        // 1 s: the scrape one second back.
        let (req_s, err_s, w) = scrapes.rates(1).unwrap();
        assert_eq!((req_s, err_s), (100.0, 10.0));
        assert_eq!((w.requests, w.errors), (100, 10));
        // 10 s: the newest scrape at or before 0.5 s is the first.
        let (req_s, err_s, _) = scrapes.rates(10).unwrap();
        assert_eq!((req_s, err_s), (1_000.0 / 10.5, 100.0 / 10.5));
        // 60 s on a 10.5 s history: everything held.
        assert_eq!(scrapes.rates(60).unwrap().0, 1_000.0 / 10.5);
        // A minute on, the first two scrapes are no window's start.
        scrapes.push(secs(70.5), fixture(8_000, 110));
        assert_eq!(scrapes.0.len(), 2);
        assert_eq!(scrapes.rates(60).unwrap().0, 100.0);
    }

    /// Whatever the scrape cadence (steady, stalled, jumping past the
    /// longest window), every window starts where it would on a history
    /// that kept every scrape: the newest at or before its start, else
    /// the oldest.
    #[test]
    fn retention_keeps_every_window_start() {
        let mut rng = StdRng::seed_from_u64(0x70b);
        for _ in 0..200 {
            let mut scrapes = Scrapes::default();
            let mut all: Vec<Duration> = Vec::new();
            let mut at = Duration::ZERO;
            for _ in 0..rng.gen_range(1..150) {
                at += Duration::from_millis(rng.gen_range(1..40_000u64));
                all.push(at);
                scrapes.push(at, Vec::new());
                for want in WINDOWS {
                    let ((start, _), (end, _)) = scrapes.window(want).unwrap();
                    assert_eq!(*end, at);
                    let expect = all
                        .iter()
                        .rev()
                        .find(|t| **t + Duration::from_secs(want) <= at)
                        .unwrap_or(&all[0]);
                    assert_eq!(start, expect, "{want} s window over {all:?}");
                }
            }
        }
    }
}
