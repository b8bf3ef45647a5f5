//! What always-on recording costs: throughput with recording on
//! ([`baps_obs::set_recording`]) against recording off, over one warm
//! loopback [`TestBed`] whose whole corpus sits in proxy memory.
//!
//! The method: 80 interleaved on/off slice pairs of ≈ 40 ms each, the order
//! inside a pair alternating, the per-pair deltas averaged after trimming
//! the 10 most extreme from each side. The one line it prints, the delta
//! beside the 3 % always-on budget, is a reading, not a verdict: the
//! process exits non-zero only when a fetch fails. `scripts/ci.sh` runs it
//! as a non-gating row, the way it runs the `md5` and `lru` benches.
//!
//! ```text
//! cargo bench -p baps-bench --bench recording
//! ```

use baps_proxy::{DocumentStore, TestBed, TestBedConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Clients driving each slice.
const WORKERS: u32 = 4;

/// Documents in the corpus, all resident in proxy memory.
const N_DOCS: usize = 64;

/// The always-on recording budget the delta is printed beside.
const BUDGET_PCT: f64 = 3.0;

/// On/off slice pairs. Each slice is a short burst of requests against one
/// shared warm deployment; pairing at the tens-of-milliseconds scale puts
/// both sides of a pair inside the same scheduler-burst regime, which
/// whole-run A/B (seconds apart on a shared host) cannot do — identical
/// code measured "+3.5%" that way.
const PAIRS: usize = 80;

/// Requests per worker per slice (~40 ms per slice at loopback rates).
const SLICE_REQUESTS: u32 = 500;

/// Slice pairs trimmed from each extreme before averaging the paired
/// deltas. Scheduler bursts corrupt whole slices; a trimmed mean discards
/// them while using more of the sample than a median does.
const TRIM: usize = 10;

/// Mean of one value per pair after dropping the [`TRIM`] lowest and
/// highest.
fn trimmed_mean(values: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.collect();
    v.sort_by(f64::total_cmp);
    let kept = &v[TRIM..PAIRS - TRIM];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// One burst of [`SLICE_REQUESTS`] per worker; returns the slice's
/// request rate.
fn run_slice(bed: &TestBed, slice: u64) -> f64 {
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for (i, client) in bed.clients.iter().enumerate() {
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0x51ce ^ (slice << 8) ^ i as u64);
                for _ in 0..SLICE_REQUESTS {
                    let url = format!("http://origin/doc/{}", rng.gen_range(0..N_DOCS));
                    client.fetch(&url).expect("fetch succeeds under load");
                }
            });
        }
    });
    (SLICE_REQUESTS as u64 * bed.clients.len() as u64) as f64 / t0.elapsed().as_secs_f64()
}

fn main() {
    // The disk tier is configured so its bookkeeping is live, but the
    // memory cache holds the whole corpus and is warmed before the first
    // measured slice: the A/B prices always-on recording on the in-memory
    // hot path, not disk I/O. A memory miss records a flight-recorder
    // event by design, a cost that rides requests already paying for disk
    // or origin I/O; pricing it against a 14 µs loopback hit would measure
    // the wrong thing.
    let store = DocumentStore::synthetic(N_DOCS, 256, 2048, 0x5eed);
    let disk_root = std::env::temp_dir().join(format!("baps_recording_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&disk_root);
    let bed = TestBed::start(
        store,
        TestBedConfig {
            n_clients: WORKERS,
            proxy_capacity: N_DOCS as u64 * 2048 + (64 << 10),
            browser_capacity: 4 << 10,
            disk_root: Some(disk_root.clone()),
            ..TestBedConfig::default()
        },
    )
    .expect("test bed starts");
    for doc in 0..N_DOCS {
        let url = format!("http://origin/doc/{doc}");
        bed.clients[0].fetch(&url).expect("warmup fetch succeeds");
    }
    // Warmup slices (discarded): allocator arenas, loopback stack.
    for slice in 0..4 {
        run_slice(&bed, slice);
    }

    // `[on_rps, off_rps]` per pair, measured back to back. Drift (CPU
    // frequency, throttling, a noisy neighbour) moves slower than a slice,
    // so it cancels inside each pair.
    let mut pairs = Vec::with_capacity(PAIRS);
    for pair in 0..PAIRS as u64 {
        // Alternate which side runs first: whatever warmth a slice hands
        // its successor then favours each side equally.
        let mut sides = [0f64; 2];
        let on_first = pair % 2 == 0;
        for (i, on) in [on_first, !on_first].into_iter().enumerate() {
            baps_obs::set_recording(on);
            sides[usize::from(!on)] = run_slice(&bed, 100 + pair * 2 + i as u64);
        }
        baps_obs::set_recording(true);
        pairs.push(sides);
    }
    bed.shutdown();
    let _ = std::fs::remove_dir_all(&disk_root);

    // Negative means the instrumented side came out faster: the true
    // delta is below the noise floor.
    let delta_pct = trimmed_mean(pairs.iter().map(|&[on, off]| (off - on) / off * 100.0));
    println!(
        "bench recording/overhead  on {:.0} req/s  off {:.0} req/s  \
         delta {delta_pct:+.2}% (budget {BUDGET_PCT}%; trimmed mean of {PAIRS} pairs, {WORKERS} clients)",
        trimmed_mean(pairs.iter().map(|&[on, _]| on)),
        trimmed_mean(pairs.iter().map(|&[_, off]| off)),
    );
}
