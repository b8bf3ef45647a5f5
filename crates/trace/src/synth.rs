//! Synthetic Web workload generator.
//!
//! The original NLANR / Boston University / CA*netII logs used in the paper
//! are no longer distributable (client identities were sanitised and the
//! archives have rotted), so experiments are driven by synthetic traces that
//! reproduce the *locality structure* the paper's results depend on:
//!
//! * **Popularity skew** — documents in a shared pool are drawn from a
//!   Zipf-like distribution (exponent [`SynthConfig::doc_alpha`]).
//! * **Cross-client sharing vs. privacy** — a fraction of each client's
//!   requests target a private document pool nobody else requests
//!   ([`SynthConfig::p_private`]); the rest hit the shared pool. This knob
//!   controls how much browser-cache content is *sharable*, the quantity the
//!   paper measures.
//! * **Temporal locality** — with probability [`SynthConfig::p_temporal`] a
//!   client re-requests a document from its own recent-history LRU stack,
//!   with stack positions drawn Zipf-like (browser caches live off this).
//! * **Heavy-tailed sizes** — lognormal body + Pareto tail ([`DocSize`]).
//! * **Document churn** — each request mutates its document's size with
//!   probability [`SynthConfig::p_size_change`]; the paper counts requests
//!   that observe a changed size as misses.
//! * **Client activity skew** — requests are attributed to clients with a
//!   Zipf-like activity distribution ([`SynthConfig::client_alpha`]).
//!
//! Generation is fully deterministic given a seed.

use crate::dist::{DocSize, Exponential, WeightedIndex, Zipf};
use crate::types::{ClientId, DocId, Request, Trace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the synthetic workload generator.
#[derive(Debug, Clone)]
pub struct SynthConfig {
    /// Trace name to stamp on the output.
    pub name: String,
    /// Number of client machines.
    pub n_clients: u32,
    /// Number of requests to generate.
    pub n_requests: u64,
    /// Total document universe (shared pool + all private pools).
    pub n_docs: u32,
    /// Zipf exponent of shared-pool document popularity (typically 0.6–0.9).
    pub doc_alpha: f64,
    /// Zipf exponent of client activity (0 = uniform activity).
    pub client_alpha: f64,
    /// Probability that a "fresh" request targets the client's private pool.
    pub p_private: f64,
    /// Fraction of the document universe reserved for private pools.
    pub private_frac: f64,
    /// Probability that a "fresh" request targets the client's *group*
    /// pool: documents shared by a small community of clients (the same
    /// lab, course or department). Group docs are requested by a handful of
    /// clients over long time spans, which is exactly the \"sharable but
    /// proxy-evicted\" locality the browsers-aware proxy harvests.
    pub p_group: f64,
    /// Number of client groups (clients are assigned round-robin).
    pub group_count: u32,
    /// Fraction of the document universe reserved for group pools.
    pub group_frac: f64,
    /// Probability of re-requesting from the client's recent-history stack.
    pub p_temporal: f64,
    /// Depth of the per-client recent-history stack.
    pub stack_depth: usize,
    /// Zipf exponent over stack positions (higher = tighter reuse).
    pub stack_alpha: f64,
    /// Document size model.
    pub size_model: SizeModelConfig,
    /// Per-request probability that the requested document changed size.
    pub p_size_change: f64,
    /// Mean inter-arrival time between consecutive requests, milliseconds.
    pub mean_interarrival_ms: f64,
    /// Popularity–size anti-correlation in `[0, 1]`: 0 leaves sizes
    /// independent of popularity; 1 makes the most popular shared documents
    /// roughly 5× smaller than the least popular. Real traces show popular
    /// objects are small, which is why the paper's *maximum byte hit ratio*
    /// sits well below its *maximum hit ratio*.
    pub pop_size_bias: f64,
}

/// Description of the document-size model.
#[derive(Debug, Clone)]
pub struct SizeModelConfig {
    /// Median of the lognormal body, bytes.
    pub body_median: f64,
    /// Sigma of the lognormal body.
    pub body_sigma: f64,
    /// Scale of the Pareto tail, bytes.
    pub tail_scale: f64,
    /// Shape of the Pareto tail.
    pub tail_shape: f64,
    /// Probability a size is drawn from the tail.
    pub tail_prob: f64,
    /// Minimum size, bytes.
    pub min: u32,
    /// Maximum size, bytes.
    pub max: u32,
}

impl SizeModelConfig {
    /// Early-2000s Web default (median ~4 KB, heavy tail to 8 MB).
    pub fn web_default() -> Self {
        SizeModelConfig {
            body_median: 4096.0,
            body_sigma: 1.2,
            tail_scale: 8192.0,
            tail_shape: 1.2,
            tail_prob: 0.08,
            min: 64,
            max: 8 << 20,
        }
    }

    fn build(&self) -> DocSize {
        DocSize::new(
            crate::dist::LogNormal::from_median(self.body_median, self.body_sigma),
            crate::dist::Pareto::new(self.tail_scale, self.tail_shape),
            self.tail_prob,
            self.min,
            self.max,
        )
    }
}

impl SynthConfig {
    /// A small, fast configuration useful in unit tests and examples.
    pub fn small() -> Self {
        SynthConfig {
            name: "small".to_owned(),
            n_clients: 16,
            n_requests: 20_000,
            n_docs: 4_000,
            doc_alpha: 0.8,
            client_alpha: 0.5,
            p_private: 0.25,
            private_frac: 0.3,
            p_group: 0.15,
            group_count: 4,
            group_frac: 0.2,
            p_temporal: 0.35,
            stack_depth: 64,
            stack_alpha: 0.9,
            size_model: SizeModelConfig::web_default(),
            p_size_change: 0.005,
            mean_interarrival_ms: 150.0,
            pop_size_bias: 0.6,
        }
    }

    /// Validates invariants; returns a description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_clients == 0 {
            return Err("n_clients must be > 0".into());
        }
        if self.n_docs < self.n_clients {
            return Err("n_docs must be >= n_clients (private pools)".into());
        }
        for (name, p) in [
            ("p_private", self.p_private),
            ("private_frac", self.private_frac),
            ("p_group", self.p_group),
            ("group_frac", self.group_frac),
            ("p_temporal", self.p_temporal),
            ("p_size_change", self.p_size_change),
            ("pop_size_bias", self.pop_size_bias),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} must be within [0, 1], got {p}"));
            }
        }
        if self.doc_alpha <= 0.0 || self.stack_alpha <= 0.0 {
            return Err("zipf exponents must be positive".into());
        }
        if self.private_frac + self.group_frac >= 1.0 {
            return Err("private_frac + group_frac must leave a shared pool".into());
        }
        if self.p_group > 0.0 && self.group_count == 0 {
            return Err("p_group > 0 needs group_count > 0".into());
        }
        if self.mean_interarrival_ms <= 0.0 {
            return Err("mean_interarrival_ms must be positive".into());
        }
        Ok(())
    }

    /// Returns a copy with the request count (and document universe) scaled
    /// by `frac`, preserving locality structure. Handy for fast tests.
    pub fn scaled(&self, frac: f64) -> SynthConfig {
        assert!(frac > 0.0 && frac <= 1.0);
        let mut c = self.clone();
        c.n_requests = ((self.n_requests as f64 * frac).round() as u64).max(1);
        c.n_docs = ((self.n_docs as f64 * frac).round() as u32).max(self.n_clients);
        c
    }

    /// Generates the trace deterministically from `seed`.
    pub fn generate(&self, seed: u64) -> Trace {
        self.validate().expect("invalid SynthConfig");
        let mut rng = StdRng::seed_from_u64(seed);

        // --- Partition the document universe: shared | groups | private. ---
        let private_total = ((self.n_docs as f64) * self.private_frac) as u32;
        let group_total = ((self.n_docs as f64) * self.group_frac) as u32;
        let shared_count = (self.n_docs - private_total - group_total).max(1);
        let group_count = self.group_count.max(1);
        let group_pool = if self.p_group > 0.0 {
            group_total / group_count
        } else {
            0
        };
        let group_base = shared_count;
        let private_per_client = private_total / self.n_clients; // may be 0
        let private_base = shared_count + group_total;

        let shared_zipf = Zipf::new(shared_count as u64, self.doc_alpha);
        let group_zipf = if group_pool > 1 {
            Some(Zipf::new(group_pool as u64, self.doc_alpha.min(0.8)))
        } else {
            None
        };
        let private_zipf = if private_per_client > 1 {
            Some(Zipf::new(private_per_client as u64, self.doc_alpha))
        } else {
            None
        };
        let client_pick = WeightedIndex::zipf(self.n_clients as usize, self.client_alpha);
        let interarrival = Exponential::new(self.mean_interarrival_ms);
        let size_model = self.size_model.build();

        // Shuffle shared ranks onto document ids so popularity is not
        // correlated with id order (parsers of real logs have no such order).
        let mut shared_perm: Vec<u32> = (0..shared_count).collect();
        for i in (1..shared_perm.len()).rev() {
            let j = rng.gen_range(0..=i);
            shared_perm.swap(i, j);
        }
        // Inverse permutation: shared doc id -> popularity rank, used by the
        // popularity–size bias below.
        let mut shared_rank: Vec<u32> = vec![0; shared_count as usize];
        for (rank, &doc) in shared_perm.iter().enumerate() {
            shared_rank[doc as usize] = rank as u32;
        }

        // Lazily assigned document sizes.
        let mut sizes: Vec<u32> = vec![0; self.n_docs as usize];

        // Per-client recent-history stacks (front = most recent).
        let mut stacks: Vec<Vec<u32>> = vec![Vec::new(); self.n_clients as usize];
        let stack_zipf_cache: Vec<Option<Zipf>> = (0..=self.stack_depth)
            .map(|n| {
                if n >= 2 {
                    Some(Zipf::new(n as u64, self.stack_alpha))
                } else {
                    None
                }
            })
            .collect();

        let mut trace = Trace::new(self.name.clone());
        trace.n_clients = self.n_clients;
        trace.n_docs = self.n_docs;
        let mut clock_ms = 0f64;

        for _ in 0..self.n_requests {
            clock_ms += interarrival.sample(&mut rng);
            let client = client_pick.sample(&mut rng) as u32;
            let stack = &mut stacks[client as usize];

            let doc: u32 = if !stack.is_empty() && rng.gen::<f64>() < self.p_temporal {
                // Temporal re-reference from the client's own history.
                // Users revisit *pages* far more than large downloads, so
                // with probability `pop_size_bias` we draw two candidate
                // stack positions and keep the smaller document
                // (power-of-two-choices, biased small).
                let zipf = &stack_zipf_cache[stack.len().min(self.stack_depth)];
                let pick = |rng: &mut StdRng| match zipf {
                    Some(z) => (z.sample(rng) as usize).min(stack.len() - 1),
                    None => 0,
                };
                let first = stack[pick(&mut rng)];
                if rng.gen::<f64>() < self.pop_size_bias {
                    let second = stack[pick(&mut rng)];
                    if sizes[second as usize] != 0 && sizes[second as usize] < sizes[first as usize]
                    {
                        second
                    } else {
                        first
                    }
                } else {
                    first
                }
            } else if group_pool > 0 && rng.gen::<f64>() < self.p_group {
                // Community pool shared by this client's group.
                let group = client % group_count;
                let rank = match &group_zipf {
                    Some(z) => z.sample(&mut rng) as u32,
                    None => 0,
                };
                group_base + group * group_pool + rank
            } else if private_per_client > 0 && rng.gen::<f64>() < self.p_private {
                // Private pool of this client.
                let rank = match &private_zipf {
                    Some(z) => z.sample(&mut rng) as u32,
                    None => 0,
                };
                private_base + client * private_per_client + rank
            } else {
                // Shared pool.
                shared_perm[shared_zipf.sample(&mut rng) as usize]
            };

            // Size assignment / churn.
            let slot = &mut sizes[doc as usize];
            if *slot == 0 {
                let base = size_model.sample(&mut rng).max(1);
                // Popularity–size anti-correlation: popular shared docs are
                // scaled down by a power law of their rank fraction. At
                // bias = 1 the most popular documents end up ~2 orders of
                // magnitude smaller than the least popular, matching the
                // strong skew of real Web traces (tiny icons are hot,
                // huge one-shot downloads are cold).
                // Popularity rank fraction of this document within its own
                // pool. Group/private pools are sampled Zipf-by-offset, so
                // the offset *is* the rank there; the shared pool is
                // permuted and uses the inverse permutation.
                let rf = if doc < shared_count {
                    shared_rank[doc as usize] as f64 / shared_count as f64
                } else if doc < private_base {
                    ((doc - group_base) % group_pool.max(1)) as f64 / group_pool.max(1) as f64
                } else {
                    ((doc - private_base) % private_per_client.max(1)) as f64
                        / private_per_client.max(1) as f64
                };
                let mult = if self.pop_size_bias > 0.0 {
                    ((rf + 0.01) / 1.01).powf(2.2 * self.pop_size_bias)
                } else {
                    1.0
                };
                *slot = ((base as f64 * mult).round() as u32).max(1);
            } else if rng.gen::<f64>() < self.p_size_change {
                // Perturb the size by up to ±25%, staying >= 1 byte.
                let factor = 0.75 + rng.gen::<f64>() * 0.5;
                let next = ((*slot as f64) * factor).round().max(1.0) as u32;
                // Guarantee an observable change.
                *slot = if next == *slot { next + 1 } else { next };
            }
            let size = *slot;

            // Maintain the LRU history stack.
            if let Some(pos) = stack.iter().position(|&d| d == doc) {
                stack.remove(pos);
            }
            stack.insert(0, doc);
            stack.truncate(self.stack_depth);

            trace.requests.push(Request {
                time_ms: clock_ms as u64,
                client: ClientId(client),
                doc: DocId(doc),
                size,
            });
        }

        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::TraceStats;

    #[test]
    fn generation_is_deterministic() {
        let cfg = SynthConfig::small();
        let a = cfg.generate(7);
        let b = cfg.generate(7);
        assert_eq!(a.requests, b.requests);
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = SynthConfig::small();
        let a = cfg.generate(1);
        let b = cfg.generate(2);
        assert_ne!(a.requests, b.requests);
    }

    #[test]
    fn respects_universe_bounds() {
        let cfg = SynthConfig::small();
        let t = cfg.generate(3);
        assert_eq!(t.len() as u64, cfg.n_requests);
        for r in t.iter() {
            assert!(r.client.0 < cfg.n_clients);
            assert!(r.doc.0 < cfg.n_docs);
            assert!(r.size >= 1);
        }
    }

    #[test]
    fn timestamps_are_monotone() {
        let t = SynthConfig::small().generate(4);
        for w in t.requests.windows(2) {
            assert!(w[0].time_ms <= w[1].time_ms);
        }
    }

    #[test]
    fn private_docs_stay_private() {
        let cfg = SynthConfig::small();
        let t = cfg.generate(5);
        let private_total = ((cfg.n_docs as f64) * cfg.private_frac) as u32;
        let group_total = ((cfg.n_docs as f64) * cfg.group_frac) as u32;
        let private_base = cfg.n_docs - private_total;
        let _ = group_total;
        let per_client = private_total / cfg.n_clients;
        let mut owner: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
        for r in t.iter() {
            if r.doc.0 >= private_base {
                let expected_owner = (r.doc.0 - private_base) / per_client;
                let prev = owner.insert(r.doc.0, r.client.0);
                assert_eq!(r.client.0, expected_owner);
                if let Some(p) = prev {
                    assert_eq!(p, r.client.0, "private doc requested by two clients");
                }
            }
        }
    }

    #[test]
    fn temporal_locality_raises_max_hit_ratio() {
        let mut hot = SynthConfig::small();
        hot.p_temporal = 0.6;
        let mut cold = SynthConfig::small();
        cold.p_temporal = 0.0;
        let s_hot = TraceStats::compute(&hot.generate(6));
        let s_cold = TraceStats::compute(&cold.generate(6));
        assert!(
            s_hot.max_hit_ratio > s_cold.max_hit_ratio + 2.0,
            "hot {} vs cold {}",
            s_hot.max_hit_ratio,
            s_cold.max_hit_ratio
        );
    }

    #[test]
    fn size_change_rate_tracks_config() {
        let mut cfg = SynthConfig::small();
        cfg.p_size_change = 0.05;
        let s = TraceStats::compute(&cfg.generate(8));
        let rate = s.size_changes as f64 / s.requests as f64;
        // Only repeat touches can mutate; expect the observed rate to be
        // positive and below the configured per-request rate.
        assert!(rate > 0.0 && rate < 0.05 * 1.5, "rate = {rate}");
    }

    #[test]
    fn scaled_preserves_client_count() {
        let cfg = SynthConfig::small().scaled(0.1);
        assert_eq!(cfg.n_clients, SynthConfig::small().n_clients);
        assert_eq!(cfg.n_requests, 2_000);
        let t = cfg.generate(1);
        assert_eq!(t.len(), 2_000);
    }

    #[test]
    fn pop_size_bias_lowers_byte_hit_ratio() {
        let mut biased = SynthConfig::small();
        biased.pop_size_bias = 0.9;
        let mut flat = SynthConfig::small();
        flat.pop_size_bias = 0.0;
        let sb = TraceStats::compute(&biased.generate(11));
        let sf = TraceStats::compute(&flat.generate(11));
        let gap_b = sb.max_hit_ratio - sb.max_byte_hit_ratio;
        let gap_f = sf.max_hit_ratio - sf.max_byte_hit_ratio;
        assert!(gap_b > gap_f, "biased gap {gap_b} <= flat gap {gap_f}");
    }

    #[test]
    fn validate_rejects_bad_probabilities() {
        let mut cfg = SynthConfig::small();
        cfg.p_private = 1.5;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validate_rejects_tiny_universe() {
        let mut cfg = SynthConfig::small();
        cfg.n_docs = cfg.n_clients - 1;
        assert!(cfg.validate().is_err());
    }
}
