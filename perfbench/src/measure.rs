//! Measurement primitives: order statistics, the memory high-water mark,
//! the result report, and the in-memory span recorder of the traced run.

use std::fmt::Write as _;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Nearest-rank `q`-quantile of an ascending slice (`0 < q <= 1`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (sorted in place).
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    quantile(values, 0.5)
}

pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Restricts the calling thread, and every thread it starts from then on,
/// to the first CPU it is allowed to run on. Returns that CPU, or `None`
/// when the affinity calls fail.
pub fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // A `cpu_set_t`: 1024 bits.
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is writable for `size` bytes; pid 0 is this thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..1024).find(|&c| (mask[c / 64] >> (c % 64)) & 1 == 1)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is readable for `size` bytes; pid 0 is this thread.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return None;
    }
    Some(cpu)
}

/// Metrics, request counts and failed output checks of one run.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Report {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            self.errors
                .push(format!("metric {name} is not finite ({value})"));
        }
        self.metrics.push((name.to_owned(), value, unit));
    }

    /// Records a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(msg());
        }
    }

    /// Quantile of raw samples, checked to lie within the samples' range.
    pub fn quantile_checked(&mut self, sorted: &[f64], q: f64, what: &str) -> f64 {
        let v = quantile(sorted, q);
        let (lo, hi) = (sorted.first().copied(), sorted.last().copied());
        self.check(
            matches!((lo, hi), (Some(lo), Some(hi)) if lo <= v && v <= hi),
            || format!("{what}: quantile {q} = {v} outside [{lo:?}, {hi:?}]"),
        );
        v
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }

    /// The one-line result object the benchmark ends its output with.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
                if i > 0 { ", " } else { "" }
            );
        }
        out.push_str("}}");
        out
    }

    /// Human-readable metric table (stderr).
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.metrics {
            let _ = writeln!(out, "  {name:<28} {value:>14.4} {unit}");
        }
        out
    }
}

/// One recorded span: a named interval, the request it belongs to, and
/// the span that caused it (`None` for a root).
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    pub request: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Spans kept in memory and written out when the run ends.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<SpanRec>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, request: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(SpanRec {
            name,
            request,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a child span of `parent`.
    pub fn span<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let request = self.spans[parent].request;
        let id = self.open(name, request, Some(parent));
        let out = f();
        self.close(id);
        out
    }

    /// A recorder for other threads, on this tracer's clock.
    pub fn sink(&self) -> Sink {
        Sink {
            origin: self.origin,
            spans: Arc::default(),
        }
    }

    /// Moves the spans other threads recorded into this tracer. Their
    /// parents already index this tracer's spans.
    pub fn drain(&mut self, sink: &Sink) {
        let mut recorded = sink.spans.lock().unwrap_or_else(PoisonError::into_inner);
        self.spans.append(&mut recorded);
    }

    /// Appends spans recorded by another tracer with the same origin.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Each span's self time: its duration minus the part of it that its
    /// children cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(s, kids)| {
                let mut iv: Vec<(u64, u64)> = kids
                    .iter()
                    .map(|&k| {
                        let c = &self.spans[k];
                        (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                    })
                    .filter(|(a, b)| b > a)
                    .collect();
                iv.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for (a, b) in iv {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.dur_ns().saturating_sub(covered)
            })
            .collect()
    }

    /// The spans in Chrome trace-event format (`chrome://tracing`,
    /// Perfetto): one complete event per span, one lane per request.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"span\": {i}, \"parent\": {}}}}}",
                if i > 0 { ",\n" } else { "" },
                s.name,
                s.request,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.parent
                    .map_or_else(|| "null".to_owned(), |p| p.to_string()),
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Complete spans recorded by other threads, for [`Tracer::drain`]. A
/// span may start in one thread and end in another: its start is a
/// timestamp handed over with the work.
#[derive(Clone)]
pub struct Sink {
    origin: Instant,
    spans: Arc<Mutex<Vec<SpanRec>>>,
}

impl Sink {
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a span from `start_ns` to now.
    pub fn record(&self, name: &'static str, request: u64, parent: usize, start_ns: u64) {
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(SpanRec {
                name,
                request,
                parent: Some(parent),
                start_ns,
                end_ns,
            });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles_stay_within_range() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn self_time_subtracts_covered_child_time() {
        let mut t = Tracer::new(Instant::now());
        t.spans = vec![
            SpanRec {
                name: "root",
                request: 0,
                parent: None,
                start_ns: 0,
                end_ns: 100,
            },
            SpanRec {
                name: "a",
                request: 0,
                parent: Some(0),
                start_ns: 10,
                end_ns: 40,
            },
            SpanRec {
                name: "b",
                request: 0,
                parent: Some(0),
                start_ns: 30,
                end_ns: 60,
            },
        ];
        assert_eq!(t.self_times_ns(), vec![50, 30, 30]);
    }
}
