//! Prometheus text exposition: rendering (for the `METRICS BAPS/1.0`
//! verb) and a small parser (for the tests and tools that scrape it).
//!
//! The renderer emits the classic text format: `# HELP` / `# TYPE`
//! comments, then `name{label="value",…} value` samples. Histograms
//! follow the cumulative-bucket convention — `name_bucket{le="edge"}`
//! counts observations ≤ edge, ending with `le="+Inf"`, plus `name_sum`
//! and `name_count`. Empty buckets are skipped (the cumulative counts
//! stay correct; scrapers interpolate between the edges that do appear),
//! which keeps a 164-bucket histogram to a handful of lines in practice.
//!
//! The workspace has no serialization crate, so this is hand-rolled, which
//! keeps it dependency-free.

use crate::hist::LatencyHistogram;
use std::fmt::Write as _;

/// Builder for a Prometheus text exposition.
#[derive(Debug, Default)]
pub struct PromText {
    out: String,
}

/// Formats a float the exposition way (`+Inf` for infinity, shortest
/// round-trip digits otherwise).
fn fmt_value(v: f64) -> String {
    if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else {
        format!("{v}")
    }
}

impl PromText {
    /// An empty exposition.
    pub fn new() -> PromText {
        PromText::default()
    }

    /// Emits the `# HELP` / `# TYPE` preamble for a metric family. Call
    /// once per family, before its samples.
    pub fn header(&mut self, name: &str, kind: &str, help: &str) {
        let _ = writeln!(self.out, "# HELP {name} {help}");
        let _ = writeln!(self.out, "# TYPE {name} {kind}");
    }

    /// Emits one sample line.
    pub fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.sample_suffixed(name, labels, value, "");
    }

    /// One sample line with a raw trailer (the exemplar suffix) between
    /// the value and the newline.
    fn sample_suffixed(&mut self, name: &str, labels: &[(&str, &str)], value: f64, suffix: &str) {
        self.out.push_str(name);
        if !labels.is_empty() {
            self.out.push('{');
            for (i, (k, v)) in labels.iter().enumerate() {
                if i > 0 {
                    self.out.push(',');
                }
                let escaped = v.replace('\\', "\\\\").replace('"', "\\\"");
                let _ = write!(self.out, "{k}=\"{escaped}\"");
            }
            self.out.push('}');
        }
        let _ = writeln!(self.out, " {}{suffix}", fmt_value(value));
    }

    /// Header plus a single unlabelled counter sample.
    pub fn counter(&mut self, name: &str, help: &str, value: u64) {
        self.header(name, "counter", help);
        self.sample(name, &[], value as f64);
    }

    /// Header plus a single unlabelled gauge sample.
    pub fn gauge(&mut self, name: &str, help: &str, value: f64) {
        self.header(name, "gauge", help);
        self.sample(name, &[], value);
    }

    /// Emits one histogram series (cumulative `_bucket` lines, `_sum`,
    /// `_count`) under `name` with the given extra labels. Emit the
    /// family [`header`](PromText::header) (kind `histogram`) once before
    /// the first series of the family.
    pub fn histogram(&mut self, name: &str, labels: &[(&str, &str)], h: &LatencyHistogram) {
        self.histogram_with_exemplars(name, labels, h, &[]);
    }

    /// [`histogram`](PromText::histogram) plus OpenMetrics-style exemplar
    /// suffixes: `exemplars[i]` is the retained trace id for raw bucket
    /// `i` (0 = none — see `AtomicHistogram::exemplar_traces`), rendered
    /// on that bucket's line as
    /// `… count # {trace_id="<16-hex>"} <bucket edge>` so a tail spike in
    /// a scrape links to a `TRACE`-fetchable span tree.
    pub fn histogram_with_exemplars(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        h: &LatencyHistogram,
        exemplars: &[u64],
    ) {
        let bucket = format!("{name}_bucket");
        let mut cumulative = 0u64;
        let counts = h.bucket_counts();
        let mut overflow_exemplar = String::new();
        for (idx, &count) in counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            cumulative += count;
            let trace = exemplars.get(idx).copied().unwrap_or(0);
            let upper = crate::hist::bucket_upper_ms(idx);
            if upper.is_infinite() {
                // The overflow bucket is covered by the trailing +Inf
                // line; carry its exemplar there (the exemplar value must
                // stay finite, so it reports the bucket's lower edge).
                if trace != 0 {
                    overflow_exemplar = exemplar_suffix(trace, crate::hist::MAX_FINITE_EDGE_MS);
                }
                continue;
            }
            let le = fmt_value(upper);
            let mut with_le = labels.to_vec();
            with_le.push(("le", le.as_str()));
            self.sample_suffixed(
                &bucket,
                &with_le,
                cumulative as f64,
                &if trace != 0 {
                    exemplar_suffix(trace, upper)
                } else {
                    String::new()
                },
            );
        }
        let mut with_le = labels.to_vec();
        with_le.push(("le", "+Inf"));
        self.sample_suffixed(&bucket, &with_le, h.count() as f64, &overflow_exemplar);
        self.sample(&format!("{name}_sum"), labels, h.sum_ms());
        self.sample(&format!("{name}_count"), labels, h.count() as f64);
    }

    /// The rendered exposition.
    pub fn finish(self) -> String {
        self.out
    }
}

/// Renders the OpenMetrics exemplar trailer for a bucket line.
fn exemplar_suffix(trace: u64, value_ms: f64) -> String {
    format!(" # {{trace_id=\"{trace:016x}\"}} {}", fmt_value(value_ms))
}

/// An OpenMetrics exemplar attached to a `_bucket` sample: the labels
/// (for this exposition always a single `trace_id`) and the exemplar's
/// observed value.
#[derive(Debug, Clone, PartialEq)]
pub struct Exemplar {
    /// Exemplar label pairs in order of appearance.
    pub labels: Vec<(String, String)>,
    /// The exemplar value (an observation within the bucket).
    pub value: f64,
}

impl Exemplar {
    /// The `trace_id` label, if present.
    pub fn trace_id(&self) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == "trace_id")
            .map(|(_, v)| v.as_str())
    }
}

/// One parsed sample line.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric name (`baps_requests_total`, `…_bucket`, …).
    pub name: String,
    /// Label pairs in order of appearance.
    pub labels: Vec<(String, String)>,
    /// The sample value (`+Inf`-aware).
    pub value: f64,
    /// The OpenMetrics exemplar trailer, when the line carried one.
    pub exemplar: Option<Exemplar>,
}

impl Sample {
    /// The value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Parses a text exposition into its samples, validating line syntax.
/// Comment lines must be well-formed `# HELP` / `# TYPE` lines; sample
/// lines must be `name[{labels}] value`.
pub fn parse(text: &str) -> Result<Vec<Sample>, String> {
    let mut samples = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        let err = |what: &str| Err(format!("line {}: {what}: {raw:?}", lineno + 1));
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let mut words = comment.split_whitespace();
            match words.next() {
                Some("HELP") | Some("TYPE") if words.next().is_some() => continue,
                _ => return err("malformed comment"),
            }
        }
        // An OpenMetrics exemplar trailer (` # {labels} value`) hangs off
        // the sample value; split it on the first `#` outside quotes so a
        // `#` inside a label value cannot truncate the line.
        let (line, exemplar_text) = match hash_outside_quotes(line) {
            Some(pos) => (line[..pos].trim_end(), Some(line[pos + 1..].trim_start())),
            None => (line, None),
        };
        let exemplar = match exemplar_text {
            None => None,
            Some(text) => match parse_exemplar(text) {
                Ok(e) => Some(e),
                Err(what) => return err(&what),
            },
        };
        let (series, value) = match line.rsplit_once(' ') {
            Some(split) => split,
            None => return err("no value"),
        };
        let value = match value {
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            v => match v.parse() {
                Ok(v) => v,
                Err(_) => return err("bad value"),
            },
        };
        let (name, labels) = match series.split_once('{') {
            None => (series.to_string(), Vec::new()),
            Some((name, rest)) => {
                let Some(body) = rest.strip_suffix('}') else {
                    return err("unterminated label set");
                };
                let mut labels = Vec::new();
                for pair in split_label_pairs(body) {
                    let Some((k, v)) = pair.split_once('=') else {
                        return err("label without '='");
                    };
                    let v = v.trim();
                    if v.len() < 2 || !v.starts_with('"') || !v.ends_with('"') {
                        return err("unquoted label value");
                    }
                    let unescaped = v[1..v.len() - 1]
                        .replace("\\\"", "\"")
                        .replace("\\\\", "\\");
                    labels.push((k.trim().to_string(), unescaped));
                }
                (name.to_string(), labels)
            }
        };
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return err("bad metric name");
        }
        samples.push(Sample {
            name,
            labels,
            value,
            exemplar,
        });
    }
    Ok(samples)
}

/// Position of the first `#` outside quoted label values, if any (the
/// exemplar separator — comment lines never reach this).
fn hash_outside_quotes(line: &str) -> Option<usize> {
    let (mut in_quotes, mut escaped) = (false, false);
    for (i, c) in line.char_indices() {
        match c {
            _ if escaped => escaped = false,
            '\\' if in_quotes => escaped = true,
            '"' => in_quotes = !in_quotes,
            '#' if !in_quotes => return Some(i),
            _ => {}
        }
    }
    None
}

/// Parses the exemplar trailer body: `{labels} value`.
fn parse_exemplar(text: &str) -> Result<Exemplar, String> {
    let Some(rest) = text.strip_prefix('{') else {
        return Err(format!("exemplar without label set: {text:?}"));
    };
    let Some((body, value)) = rest.split_once('}') else {
        return Err(format!("unterminated exemplar label set: {text:?}"));
    };
    let mut labels = Vec::new();
    for pair in split_label_pairs(body) {
        let Some((k, v)) = pair.split_once('=') else {
            return Err(format!("exemplar label without '=': {pair:?}"));
        };
        let v = v.trim();
        if v.len() < 2 || !v.starts_with('"') || !v.ends_with('"') {
            return Err(format!("unquoted exemplar label value: {pair:?}"));
        }
        labels.push((
            k.trim().to_string(),
            v[1..v.len() - 1]
                .replace("\\\"", "\"")
                .replace("\\\\", "\\"),
        ));
    }
    let value = value.trim();
    let value = match value {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        v => v
            .parse()
            .map_err(|_| format!("bad exemplar value: {value:?}"))?,
    };
    Ok(Exemplar { labels, value })
}

/// Splits `k1="v1",k2="v2"` on commas outside quotes.
fn split_label_pairs(body: &str) -> Vec<&str> {
    let mut pairs = Vec::new();
    let (mut start, mut in_quotes, mut escaped) = (0, false, false);
    for (i, c) in body.char_indices() {
        match c {
            _ if escaped => escaped = false,
            '\\' if in_quotes => escaped = true,
            '"' => in_quotes = !in_quotes,
            ',' if !in_quotes => {
                pairs.push(&body[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    if start < body.len() {
        pairs.push(&body[start..]);
    }
    pairs
}

/// Validates exposition-format conformance beyond what [`parse`] checks:
///
/// * every sample's metric family has both a `# HELP` and a `# TYPE`
///   comment, appearing **before** the family's first sample (histogram
///   `_bucket`/`_sum`/`_count` samples belong to their base family);
/// * metric and label names match `[a-zA-Z_:][a-zA-Z0-9_:]*` /
///   `[a-zA-Z_][a-zA-Z0-9_]*` (no leading digits);
/// * `# TYPE` kinds are valid and declared at most once per family;
/// * per histogram series (grouped by its non-`le` labels): `le` edges
///   strictly increase, cumulative counts never drop, the last bucket is
///   `le="+Inf"`, and its value equals the series' `_count` sample;
/// * counter samples are finite and non-negative.
pub fn check_conformance(text: &str) -> Result<(), String> {
    use std::collections::{HashMap, HashSet};

    fn name_ok(name: &str, allow_colon: bool) -> bool {
        let mut chars = name.chars();
        let first_ok = chars
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || (allow_colon && c == ':'));
        first_ok
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || (allow_colon && c == ':'))
    }

    let mut helped: HashSet<String> = HashSet::new();
    let mut typed: HashMap<String, String> = HashMap::new();
    // Buckets per histogram series, keyed by family + sorted non-le
    // labels, in order of appearance.
    let mut series: Vec<(String, Vec<(f64, f64)>)> = Vec::new();
    let mut series_index: HashMap<String, usize> = HashMap::new();
    let mut counts: HashMap<String, f64> = HashMap::new();

    // The base family of a sample name, honouring declared histograms:
    // `x_bucket`/`x_sum`/`x_count` fold into `x` iff `x` is TYPE histogram.
    let family_of = |name: &str, typed: &HashMap<String, String>| -> String {
        for suffix in ["_bucket", "_sum", "_count"] {
            if let Some(base) = name.strip_suffix(suffix) {
                if typed.get(base).map(String::as_str) == Some("histogram") {
                    return base.to_string();
                }
            }
        }
        name.to_string()
    };
    let series_key = |family: &str, labels: &[(String, String)]| -> String {
        let mut rest: Vec<String> = labels
            .iter()
            .filter(|(k, _)| k != "le")
            .map(|(k, v)| format!("{k}={v:?}"))
            .collect();
        rest.sort();
        format!("{family}{{{}}}", rest.join(","))
    };

    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        let err = |what: String| Err(format!("line {}: {what}: {raw:?}", lineno + 1));
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let mut words = comment.split_whitespace();
            match (words.next(), words.next()) {
                (Some("HELP"), Some(name)) => {
                    if !name_ok(name, true) {
                        return err(format!("bad family name in HELP: {name}"));
                    }
                    helped.insert(name.to_string());
                }
                (Some("TYPE"), Some(name)) => {
                    let kind = words.next().unwrap_or_default();
                    if !["counter", "gauge", "histogram", "summary", "untyped"].contains(&kind) {
                        return err(format!("bad TYPE kind {kind:?} for {name}"));
                    }
                    if typed.insert(name.to_string(), kind.to_string()).is_some() {
                        return err(format!("duplicate TYPE for {name}"));
                    }
                }
                _ => return err("malformed comment".to_string()),
            }
            continue;
        }
        // One sample line: reuse the syntax parser.
        let sample = parse(line)?.pop().expect("one line parses to one sample");
        if !name_ok(&sample.name, true) {
            return err(format!("bad metric name {:?}", sample.name));
        }
        for (k, _) in &sample.labels {
            if !name_ok(k, false) {
                return err(format!("bad label name {k:?}"));
            }
        }
        let family = family_of(&sample.name, &typed);
        if !helped.contains(&family) {
            return err(format!("sample before (or without) # HELP {family}"));
        }
        let Some(kind) = typed.get(&family) else {
            return err(format!("sample before (or without) # TYPE {family}"));
        };
        if kind == "counter" && !(sample.value.is_finite() && sample.value >= 0.0) {
            return err(format!("counter {family} with value {}", sample.value));
        }
        if let Some(exemplar) = &sample.exemplar {
            // Exemplars are only defined for histogram buckets, the
            // labels must be well-formed, and this exposition's exemplars
            // carry a 16-hex `trace_id` resolvable via `TRACE`.
            if kind != "histogram" || !sample.name.ends_with("_bucket") {
                return err(format!("exemplar on non-bucket sample {}", sample.name));
            }
            for (k, _) in &exemplar.labels {
                if !name_ok(k, false) {
                    return err(format!("bad exemplar label name {k:?}"));
                }
            }
            let Some(trace) = exemplar.trace_id() else {
                return err("exemplar without a trace_id label".to_string());
            };
            if trace.len() != 16 || !trace.chars().all(|c| c.is_ascii_hexdigit()) {
                return err(format!("malformed exemplar trace_id {trace:?}"));
            }
            if !exemplar.value.is_finite() || exemplar.value < 0.0 {
                return err(format!("bad exemplar value {}", exemplar.value));
            }
        }
        if kind == "histogram" {
            let key = series_key(&family, &sample.labels);
            if sample.name.ends_with("_bucket") {
                let le = match sample.label("le") {
                    Some("+Inf") => f64::INFINITY,
                    Some(v) => v
                        .parse()
                        .map_err(|e| format!("line {}: bad le {v:?}: {e}", lineno + 1))?,
                    None => return err("histogram bucket without le".to_string()),
                };
                if let Some(exemplar) = &sample.exemplar {
                    if exemplar.value > le {
                        return err(format!(
                            "exemplar value {} above its bucket's le {le}",
                            exemplar.value
                        ));
                    }
                }
                let idx = *series_index.entry(key).or_insert_with(|| {
                    series.push((family.clone(), Vec::new()));
                    series.len() - 1
                });
                series[idx].1.push((le, sample.value));
            } else if sample.name.ends_with("_count") {
                counts.insert(key, sample.value);
            }
        }
    }

    for (key, idx) in &series_index {
        let (family, buckets) = &series[*idx];
        let mut prev_le = f64::NEG_INFINITY;
        let mut prev_count = f64::NEG_INFINITY;
        for &(le, count) in buckets {
            if le <= prev_le {
                return Err(format!("{key}: le edges not strictly increasing"));
            }
            if count < prev_count {
                return Err(format!("{key}: cumulative bucket counts drop"));
            }
            (prev_le, prev_count) = (le, count);
        }
        let Some(&(last_le, last_count)) = buckets.last() else {
            return Err(format!("{key}: histogram series with no buckets"));
        };
        if !last_le.is_infinite() {
            return Err(format!("{key}: last bucket is not le=\"+Inf\""));
        }
        let Some(&total) = counts.get(key) else {
            return Err(format!("{key}: histogram series without a _count"));
        };
        if last_count != total {
            return Err(format!(
                "{key}: +Inf bucket {last_count} != {family}_count {total}"
            ));
        }
    }
    Ok(())
}

/// The value of the first sample matching `name` and all of `labels`
/// (extra labels on the sample are allowed).
pub fn find(samples: &[Sample], name: &str, labels: &[(&str, &str)]) -> Option<f64> {
    samples
        .iter()
        .find(|s| s.name == name && labels.iter().all(|&(k, v)| s.label(k) == Some(v)))
        .map(|s| s.value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_and_parse_roundtrip() {
        let mut h = LatencyHistogram::new();
        for ms in [0.5, 0.5, 2.0, 40.0] {
            h.record(ms);
        }
        let mut text = PromText::new();
        text.counter("baps_requests_total", "GET requests handled.", 4);
        text.gauge("baps_cache_bytes", "Bytes cached.", 1234.0);
        text.header("baps_request_latency_ms", "histogram", "Serve latency.");
        text.histogram("baps_request_latency_ms", &[("tier", "proxy")], &h);
        let rendered = text.finish();

        let samples = parse(&rendered).expect("parses");
        assert_eq!(find(&samples, "baps_requests_total", &[]), Some(4.0));
        assert_eq!(find(&samples, "baps_cache_bytes", &[]), Some(1234.0));
        assert_eq!(
            find(
                &samples,
                "baps_request_latency_ms_count",
                &[("tier", "proxy")]
            ),
            Some(4.0)
        );
        assert_eq!(
            find(
                &samples,
                "baps_request_latency_ms_bucket",
                &[("tier", "proxy"), ("le", "+Inf")]
            ),
            Some(4.0)
        );
        let sum = find(
            &samples,
            "baps_request_latency_ms_sum",
            &[("tier", "proxy")],
        )
        .unwrap();
        assert!((sum - 43.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_monotone() {
        let mut h = LatencyHistogram::new();
        for i in 1..=200 {
            h.record(i as f64 * 0.7);
        }
        let mut text = PromText::new();
        text.header("m", "histogram", "h");
        text.histogram("m", &[], &h);
        let samples = parse(&text.finish()).unwrap();
        let buckets: Vec<&Sample> = samples.iter().filter(|s| s.name == "m_bucket").collect();
        assert!(buckets.len() >= 3);
        let mut prev_le = f64::NEG_INFINITY;
        let mut prev_count = 0.0;
        for b in &buckets {
            let le = match b.label("le").unwrap() {
                "+Inf" => f64::INFINITY,
                v => v.parse().unwrap(),
            };
            assert!(le > prev_le, "le edges must increase");
            assert!(b.value >= prev_count, "cumulative counts must not drop");
            prev_le = le;
            prev_count = b.value;
        }
        assert_eq!(buckets.last().unwrap().value, 200.0);
        assert_eq!(find(&samples, "m_count", &[]), Some(200.0));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("no_value_here").is_err());
        assert!(parse("name{unclosed=\"x\" 3").is_err());
        assert!(parse("name{k=unquoted} 3").is_err());
        assert!(parse("# BOGUS comment").is_err());
        assert!(parse("bad name 3").is_err());
        assert!(parse("name nan-ish").is_err());
    }

    #[test]
    fn conformance_accepts_builder_output() {
        let mut h = LatencyHistogram::new();
        for ms in [0.2, 3.0, 3.0, 700.0] {
            h.record(ms);
        }
        let mut text = PromText::new();
        text.counter("baps_requests_total", "GET requests handled.", 4);
        text.gauge("baps_queue_depth", "Queued jobs.", 3.0);
        text.header("baps_queue_wait_ms", "histogram", "Time in queue.");
        text.histogram("baps_queue_wait_ms", &[("pool", "proxy")], &h);
        text.histogram("baps_queue_wait_ms", &[("pool", "origin")], &h);
        check_conformance(&text.finish()).expect("builder output conforms");
    }

    #[test]
    fn conformance_rejects_violations() {
        // Sample with no HELP/TYPE.
        assert!(check_conformance("m 1\n").is_err());
        // HELP but no TYPE.
        assert!(check_conformance("# HELP m h\nm 1\n").is_err());
        // Sample before its declaration.
        assert!(check_conformance("m 1\n# HELP m h\n# TYPE m counter\n").is_err());
        // Duplicate TYPE.
        assert!(
            check_conformance("# HELP m h\n# TYPE m counter\n# TYPE m counter\nm 1\n").is_err()
        );
        // Bad TYPE kind, bad label name, negative counter.
        assert!(check_conformance("# HELP m h\n# TYPE m banana\nm 1\n").is_err());
        assert!(check_conformance("# HELP m h\n# TYPE m gauge\nm{9bad=\"x\"} 1\n").is_err());
        assert!(check_conformance("# HELP m h\n# TYPE m counter\nm -1\n").is_err());

        let hist_header = "# HELP m h\n# TYPE m histogram\n";
        // Histogram whose last bucket is not +Inf.
        assert!(check_conformance(&format!(
            "{hist_header}m_bucket{{le=\"1\"}} 2\nm_sum 2\nm_count 2\n"
        ))
        .is_err());
        // le edges out of order.
        assert!(check_conformance(&format!(
            "{hist_header}m_bucket{{le=\"5\"}} 1\nm_bucket{{le=\"1\"}} 2\n\
             m_bucket{{le=\"+Inf\"}} 2\nm_sum 2\nm_count 2\n"
        ))
        .is_err());
        // Cumulative counts dropping.
        assert!(check_conformance(&format!(
            "{hist_header}m_bucket{{le=\"1\"}} 3\nm_bucket{{le=\"+Inf\"}} 2\n\
             m_sum 2\nm_count 2\n"
        ))
        .is_err());
        // +Inf bucket disagreeing with _count.
        assert!(check_conformance(&format!(
            "{hist_header}m_bucket{{le=\"+Inf\"}} 2\nm_sum 2\nm_count 3\n"
        ))
        .is_err());
        // A conforming histogram passes.
        assert!(check_conformance(&format!(
            "{hist_header}m_bucket{{le=\"1\"}} 1\nm_bucket{{le=\"+Inf\"}} 2\n\
             m_sum 2\nm_count 2\n"
        ))
        .is_ok());
    }

    #[test]
    fn parse_handles_escapes_and_infinities() {
        let samples = parse("m{u=\"a\\\"b\\\\c\",le=\"+Inf\"} +Inf\n").unwrap();
        assert_eq!(samples[0].label("u"), Some("a\"b\\c"));
        assert_eq!(samples[0].label("le"), Some("+Inf"));
        assert!(samples[0].value.is_infinite());
    }

    #[test]
    fn exemplars_render_parse_and_conform() {
        use crate::hist::{bucket_upper_ms, NBUCKETS, TAIL_BUCKET_FLOOR};
        let mut h = LatencyHistogram::new();
        h.record(0.5); // fast bucket: no exemplar possible
        h.record(80.0); // tail bucket: gets one
        h.record(2e6); // overflow bucket: exemplar folds onto +Inf line
        let mut exemplars = vec![0u64; NBUCKETS];
        let tail_idx = (0..NBUCKETS).find(|&i| 80.0 <= bucket_upper_ms(i)).unwrap();
        assert!(tail_idx >= TAIL_BUCKET_FLOOR);
        exemplars[tail_idx] = 0x0000_0100_0000_002a;
        exemplars[NBUCKETS - 1] = 0x0000_0200_0000_0007;
        let mut text = PromText::new();
        text.header("m", "histogram", "h");
        text.histogram_with_exemplars("m", &[("tier", "origin")], &h, &exemplars);
        let rendered = text.finish();
        check_conformance(&rendered).expect("exemplar exposition conforms");

        let samples = parse(&rendered).unwrap();
        let tail = samples
            .iter()
            .find(|s| s.name == "m_bucket" && s.exemplar.is_some() && s.label("le") != Some("+Inf"))
            .expect("tail bucket carries its exemplar");
        let e = tail.exemplar.as_ref().unwrap();
        assert_eq!(e.trace_id(), Some("000001000000002a"));
        let le: f64 = tail.label("le").unwrap().parse().unwrap();
        assert!(e.value <= le && e.value > 0.0);
        let inf = samples
            .iter()
            .find(|s| s.name == "m_bucket" && s.label("le") == Some("+Inf"))
            .unwrap();
        let e = inf.exemplar.as_ref().expect("overflow exemplar rides +Inf");
        assert_eq!(e.trace_id(), Some("0000020000000007"));
        assert!(e.value.is_finite());
        // The fast bucket has no exemplar.
        let fast = samples
            .iter()
            .find(|s| s.name == "m_bucket" && s.label("le").unwrap().parse::<f64>().unwrap() < 1.0)
            .unwrap();
        assert!(fast.exemplar.is_none());
        // Exemplars do not perturb the histogram semantics.
        assert_eq!(find(&samples, "m_count", &[("tier", "origin")]), Some(3.0));
    }

    #[test]
    fn conformance_rejects_malformed_exemplars() {
        let hist = "# HELP m h\n# TYPE m histogram\n";
        // Exemplar on a counter.
        assert!(check_conformance(
            "# HELP c h\n# TYPE c counter\nc 1 # {trace_id=\"0000000000000001\"} 1\n"
        )
        .is_err());
        // Exemplar on a histogram _count line.
        assert!(check_conformance(&format!(
            "{hist}m_bucket{{le=\"+Inf\"}} 1\nm_sum 1\nm_count 1 # {{trace_id=\"0000000000000001\"}} 1\n"
        ))
        .is_err());
        // Short / non-hex trace ids.
        for bad in ["abc", "zzzzzzzzzzzzzzzz"] {
            assert!(check_conformance(&format!(
                "{hist}m_bucket{{le=\"+Inf\"}} 1 # {{trace_id=\"{bad}\"}} 1\nm_sum 1\nm_count 1\n"
            ))
            .is_err());
        }
        // Missing trace_id label.
        assert!(check_conformance(&format!(
            "{hist}m_bucket{{le=\"+Inf\"}} 1 # {{span=\"x\"}} 1\nm_sum 1\nm_count 1\n"
        ))
        .is_err());
        // Exemplar value above its bucket's le.
        assert!(check_conformance(&format!(
            "{hist}m_bucket{{le=\"5\"}} 1 # {{trace_id=\"0000000000000001\"}} 9\n\
             m_bucket{{le=\"+Inf\"}} 1\nm_sum 1\nm_count 1\n"
        ))
        .is_err());
        // A well-formed exemplar passes.
        assert!(check_conformance(&format!(
            "{hist}m_bucket{{le=\"5\"}} 1 # {{trace_id=\"0000000000000001\"}} 4\n\
             m_bucket{{le=\"+Inf\"}} 1\nm_sum 1\nm_count 1\n"
        ))
        .is_ok());
    }

    #[test]
    fn hash_inside_quoted_label_is_not_an_exemplar() {
        let samples = parse("m{u=\"a#b\"} 3\n").unwrap();
        assert_eq!(samples[0].label("u"), Some("a#b"));
        assert_eq!(samples[0].value, 3.0);
        assert!(samples[0].exemplar.is_none());
    }
}
