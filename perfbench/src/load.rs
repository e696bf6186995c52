//! The closed-loop load generator and the metrics every workload derives
//! from its samples.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::fixture::Item;
use crate::measure::{mean, peak_rss_mb, Report, Tracer};

/// One completed request as the client saw it.
pub struct Sample {
    /// Pool index of the explained instance.
    pub key: usize,
    /// The graph id it was requested under (the cache and store key).
    pub graph_id: u64,
    /// Client-observed latency, first attempt to final answer.
    pub latency_us: f64,
    /// The system's own account of the request: admission-queue wait,
    /// preparation, and total time inside the server (or runtime).
    pub queue_us: f64,
    pub prep_us: f64,
    pub served_us: f64,
    /// Optimize epochs run ÷ planned.
    pub epochs_frac: f64,
}

/// Everything one phase of closed-loop load produced.
#[derive(Default)]
pub struct Tally {
    pub samples: Vec<Sample>,
    /// Explain attempts, counting every `Busy` answer as one.
    pub attempts: u64,
    pub busy: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub seconds: f64,
}

impl Tally {
    pub fn merge(&mut self, other: Tally) {
        self.samples.extend(other.samples);
        self.attempts += other.attempts;
        self.busy += other.busy;
        self.failed += other.failed;
        self.errors.extend(other.errors);
        self.seconds += other.seconds;
    }

    pub fn throughput(&self) -> f64 {
        self.samples.len() as f64 / self.seconds.max(1e-9)
    }

    /// Records a failed request or output check (the first few verbatim).
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }
}

/// When a closed loop stops taking new requests.
pub enum Stop {
    /// At a wall-clock deadline.
    At(Instant),
    /// Before stream position `n`.
    Before(u64),
}

impl Stop {
    /// Whether stream position `i` (just taken) falls past the end.
    fn done(&self, i: u64) -> bool {
        match self {
            Stop::At(t) => Instant::now() >= *t,
            Stop::Before(n) => i >= *n,
        }
    }
}

/// Runs `clients` closed-loop clients (at most 2: the benchmark box has 2
/// cores) over the shared stream position `next` until `stop`. Each
/// client sends its next request only after the previous one completed.
/// With `traced`, every request is wrapped in a `system.request` span and
/// `send` is told so (it then sends the request's twin, see
/// [`paired_windows`]).
pub fn closed_loop<C>(
    clients: usize,
    next: &AtomicU64,
    stop: &Stop,
    traced: Option<Instant>,
    connect: impl Fn() -> C + Sync,
    send: impl Fn(&mut C, u64, bool, &mut Tally) + Sync,
) -> (Tally, Option<Tracer>) {
    let start = Instant::now();
    let per_thread: Vec<(Tally, Option<Tracer>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut conn = connect();
                    let mut tally = Tally::default();
                    let mut tracer = traced.map(Tracer::new);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if stop.done(i) {
                            break;
                        }
                        match tracer.as_mut() {
                            Some(t) => {
                                let span = t.open("system.request", i, None);
                                send(&mut conn, i, true, &mut tally);
                                t.close(span);
                            }
                            None => send(&mut conn, i, false, &mut tally),
                        }
                    }
                    (tally, tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let seconds = start.elapsed().as_secs_f64();
    let mut tally = Tally::default();
    let mut tracer = traced.map(Tracer::new);
    for (t, tr) in per_thread {
        tally.merge(t);
        if let (Some(all), Some(tr)) = (tracer.as_mut(), tr) {
            all.absorb(tr);
        }
    }
    tally.seconds = seconds;
    (tally, tracer)
}

/// Pairs of closed-loop windows over the same `n` stream positions: one
/// window untraced, one with every request in a `system.request` span and
/// sent as its twin (same instance and key; on the cold workloads under a
/// graph id of its own, so it misses the cache as the original does).
/// Which window of a pair goes first alternates, so a cache the first
/// window warms favours neither side. Returns the untraced and traced
/// tallies; the traced spans go into `tracer`.
pub fn paired_windows(
    pairs: usize,
    n: u64,
    next: &AtomicU64,
    tracer: &mut Tracer,
    origin: Instant,
    mut window: impl FnMut(Stop, Option<Instant>) -> (Tally, Option<Tracer>),
) -> (Tally, Tally) {
    let (mut untraced, mut traced) = (Tally::default(), Tally::default());
    for pair in 0..pairs {
        let start = next.load(Ordering::Relaxed);
        let order = if pair % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        for with_spans in order {
            next.store(start, Ordering::Relaxed);
            let (tally, spans) = window(Stop::Before(start + n), with_spans.then_some(origin));
            if let Some(spans) = spans {
                tracer.absorb(spans);
                traced.merge(tally);
            } else {
                untraced.merge(tally);
            }
        }
        next.store(start + n, Ordering::Relaxed);
    }
    (untraced, traced)
}

/// Samples a pooled p99 needs for at least ten of them to lie beyond it.
const P99_MIN_SAMPLES: usize = 1000;

/// The end-to-end metrics of an untraced measured phase run as
/// `sub_phases`; returns the sub-phases merged. With fewer than
/// [`P99_MIN_SAMPLES`] samples a pooled p99 is the slowest sample or two,
/// which one stalled request decides; `latency_p99_ms` is then the median
/// over the sub-phases of each one's p99.
pub fn end_to_end(report: &mut Report, sub_phases: Vec<Tally>, setups: &mut [f64]) -> Tally {
    let sorted_ms = |t: &Tally| {
        let mut lat: Vec<f64> = t.samples.iter().map(|s| s.latency_us / 1e3).collect();
        lat.sort_by(f64::total_cmp);
        lat
    };
    let mut sub_p99 = Vec::new();
    for t in &sub_phases {
        sub_p99.push(report.quantile_checked(&sorted_ms(t), 0.99, "sub-phase latency"));
    }
    let rates: Vec<f64> = sub_phases.iter().map(Tally::throughput).collect();
    eprintln!("sub-phase rates (1/s): {rates:.1?}");
    let mut tally = Tally::default();
    for t in sub_phases {
        tally.merge(t);
    }
    let lat = sorted_ms(&tally);
    report.put("throughput_rps", tally.throughput(), "1/s");
    let p50 = report.quantile_checked(&lat, 0.50, "latency");
    let pooled = lat.len() >= P99_MIN_SAMPLES;
    let p99 = if pooled {
        report.quantile_checked(&lat, 0.99, "latency")
    } else {
        crate::measure::median(&mut sub_p99)
    };
    report.put("latency_p50_ms", p50, "ms");
    report.put("latency_p99_ms", p99, "ms");
    report.put("setup_s", crate::measure::median(setups), "s");
    report.put("peak_rss_mb", peak_rss_mb(), "MiB");
    eprintln!(
        "measured: {} requests in {:.2}s; {} latency samples lie beyond p99 ({})",
        tally.samples.len(),
        tally.seconds,
        lat.iter().filter(|&&v| v > p99).count(),
        if pooled {
            "pooled".to_owned()
        } else {
            format!("median of {} sub-phase p99s", sub_p99.len())
        }
    );
    tally
}

/// Input properties of the requests a phase served.
pub fn input_properties(report: &mut Report, tally: &Tally, pool: &[Item]) {
    let flows = tally.samples.iter().map(|s| pool[s.key].flows as f64);
    let edges = tally.samples.iter().map(|s| pool[s.key].layer_edges as f64);
    report.put("graph.flows_mean", mean(flows.clone()), "count");
    report.put("graph.flows_max", flows.fold(0.0, f64::max), "count");
    report.put("graph.layer_edges_mean", mean(edges.clone()), "count");
    report.put("graph.layer_edges_max", edges.fold(0.0, f64::max), "count");
    let mut seen = HashSet::new();
    let repeats = tally
        .samples
        .iter()
        .filter(|s| !seen.insert(s.graph_id))
        .count();
    report.put(
        "workload.repeat_share",
        repeats as f64 / tally.samples.len().max(1) as f64,
        "fraction",
    );
}

/// What the benchmark's spans cost: `(untraced − traced) ÷ untraced`
/// throughput over the same requests (see [`paired_windows`]).
pub fn trace_overhead(report: &mut Report, untraced: &Tally, traced: &Tally) {
    let base = untraced.throughput();
    report.put(
        "trace.overhead_frac",
        (base - traced.throughput()) / base.max(1e-9),
        "fraction",
    );
}

/// Per-layer metrics of the system's own per-request accounts.
pub fn served_breakdown(report: &mut Report, tally: &Tally) {
    let s = &tally.samples;
    report.put(
        "runtime.queue_ms",
        mean(s.iter().map(|x| x.queue_us)) / 1e3,
        "ms",
    );
    report.put(
        "runtime.prep_ms",
        mean(s.iter().map(|x| x.prep_us)) / 1e3,
        "ms",
    );
    report.put(
        "core.epochs_run_frac",
        mean(s.iter().map(|x| x.epochs_frac)),
        "fraction",
    );
    report.put(
        "error_rate",
        tally.failed as f64 / (s.len() as u64 + tally.failed).max(1) as f64,
        "fraction",
    );
}

/// `|histogram p99 − raw p99| ÷ raw p99`: how far the program's own
/// latency histogram misplaces the p99 of the same requests.
pub fn hist_p99_rel_err(report: &mut Report, hist_p99_us: f64, raw_us: &mut [f64]) {
    raw_us.sort_by(f64::total_cmp);
    let raw = report.quantile_checked(raw_us, 0.99, "served latency");
    report.put(
        "runtime.hist_p99_rel_err",
        (hist_p99_us - raw).abs() / raw.max(1.0),
        "fraction",
    );
}

/// Largest share of a live request's time the mirrored path may leave
/// unaccounted for, either way (the mirror may also run slower than the
/// system). On the reference 2-vCPU box the median share measured −0.03
/// to 0.00 on `online-cold`, +0.05 to +0.12 on `online-repeat` (system
/// work the mirror leaves out, such as the gateway's bookkeeping, which
/// shares the request's one CPU) and −0.04 to +0.01 on
/// `offline-flowheavy`. With the frame I/O spans left out of the mirror,
/// `online-repeat` read 0.26 and failed.
const RECONCILE_TOLERANCE: f64 = 0.15;

/// Mean per-request self time of each layer span in the traced replay.
pub fn layer_times(report: &mut Report, tracer: &Tracer, requests: usize, epochs_run_mean: f64) {
    let self_ns = tracer.self_times_ns();
    let total = |name: &str| -> f64 {
        tracer
            .spans
            .iter()
            .zip(&self_ns)
            .filter(|(s, _)| s.name == name)
            .fold(0.0, |acc, (_, &t)| acc + t as f64)
            / requests.max(1) as f64
    };
    for (name, metric, scale) in [
        ("server.encode", "server.encode_us", 1e3),
        ("server.decode", "server.decode_us", 1e3),
        ("server.frame_io", "server.frame_io_us", 1e3),
        ("runtime.handoff", "runtime.handoff_us", 1e3),
        ("graph.flow_index", "graph.flow_index_us", 1e3),
        ("gnn.instance_forward", "gnn.instance_forward_us", 1e3),
        ("gnn.masked_forward", "gnn.masked_forward_us", 1e3),
        ("tensor.sp_matvec", "tensor.sp_matvec_us", 1e3),
        ("tensor.elementwise", "tensor.elementwise_us", 1e3),
        ("tensor.backward", "tensor.backward_us", 1e3),
        ("tensor.adam", "tensor.adam_us", 1e3),
        ("core.explain", "core.explain_ms", 1e6),
        ("core.fixed", "core.fixed_us", 1e3),
        ("store.append", "store.append_us", 1e3),
        ("store.lookup", "store.lookup_us", 1e3),
    ] {
        let unit = if scale == 1e6 { "ms" } else { "us" };
        report.put(metric, total(name) / scale, unit);
    }
    report.put(
        "core.epoch_us",
        (total("core.explain") - total("core.fixed")) / 1e3 / epochs_run_mean.max(1.0),
        "us",
    );
}

/// The reconcile: for each replayed request, `(traced e2e − layer time) ÷
/// traced e2e`, where the traced e2e is the live request's
/// `system.request` span and the layer time is what the layer spans of
/// its mirrored path (`replay` root) cover. Reports the median over the
/// sample and fails the run beyond [`RECONCILE_TOLERANCE`].
pub fn reconcile(report: &mut Report, tracer: &Tracer, requests: usize) {
    let self_ns = tracer.self_times_ns();
    let covered: HashMap<u64, f64> = tracer
        .spans
        .iter()
        .zip(&self_ns)
        .filter(|(s, _)| s.parent.is_none() && s.name == "replay")
        .map(|(s, &own)| (s.request, s.dur_ns().saturating_sub(own) as f64))
        .collect();
    let mut shares: Vec<f64> = tracer
        .spans
        .iter()
        .filter(|s| s.name == "system.request")
        .filter_map(|s| {
            let e2e = s.dur_ns() as f64;
            covered.get(&s.request).map(|c| (e2e - c) / e2e.max(1.0))
        })
        .collect();
    report.check(shares.len() == requests, || {
        format!(
            "reconcile: {} of {requests} replayed requests pair a live and a mirrored span",
            shares.len()
        )
    });
    let share = crate::measure::median(&mut shares);
    report.put("reconcile.unattributed_frac", share, "fraction");
    report.check(share.abs() <= RECONCILE_TOLERANCE, || {
        format!(
            "reconcile: median {share:.4} of a live request's time is in no layer span \
             (tolerance ±{RECONCILE_TOLERANCE})"
        )
    });
}
