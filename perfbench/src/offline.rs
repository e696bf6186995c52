//! The `offline-flowheavy` workload: the paper's Fig. 3/4 protocol on
//! BA-Shapes — sampled 3-hop targets explained by REVELIO through the
//! in-process runtime with 2 workers. No wire, no store: flow enumeration,
//! the Eq. 7 incidence products and the masked GCN dominate.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use revelio_core::Objective;
use revelio_eval::{flow_cap, method_factory, revelio_batch_config};
use revelio_runtime::{ExplainJob, MetricsSnapshot, ModelHandle, Runtime, RuntimeConfig};

use crate::fixture::{ba_shapes_fixture, mix, permutation, Fixture, Item, EFFORT};
use crate::load::{self, closed_loop, Sample, Stop, Tally};
use crate::measure::{mean, Report, Tracer};
use crate::probe::{check_answer, determinism, quality, RUNTIME_SEED};
use crate::replay::{self, Replay, ReplayStore, Replayer, Route};
use crate::Args;

/// Targets in the pool, kept from `POOL * STRIDE` samples so that they span
/// the |F| distribution (see `ba_shapes_fixture`). Each pass explains
/// every one once, in a seed-shuffled order.
const POOL: usize = 9;
const STRIDE: usize = 7;
/// Probe set: every other pool entry, from the second largest down.
const PROBE: [usize; 4] = [1, 3, 5, 7];
/// Requests replayed through the traced public calls.
const REPLAYS: usize = 8;
/// Targets explained before the measured passes.
const WARMUP: u64 = 4;
/// Measured passes per second of `--seconds`, sized so that a run
/// measures about `--seconds` on the reference 2-core box (about 2.1 s a
/// pass). The count is fixed, not timed: the artifact cache keeps the
/// flow index of every target explained, so peak RSS grows with the
/// targets explained, and a faster commit must not explain more of them.
const PASSES_PER_SECOND: f64 = 0.47;
/// Pairs of traced and untraced passes for `trace.overhead_frac`.
const OVERHEAD_PAIRS: usize = 2;
const OBJECTIVES: [Objective; 2] = [Objective::Factual, Objective::Counterfactual];

/// Pool index explained at stream position `i`: pass `i / POOL` visits
/// the pool in an order drawn from the seed and the pass number.
fn key(seed: u64, i: u64) -> usize {
    let pass = i / POOL as u64;
    permutation(mix(seed ^ mix(pass)), POOL)[(i % POOL as u64) as usize]
}

/// Its graph id is fresh per stream position (and per twin, see
/// `load::paired_windows`), so flow enumeration stays in the timed region;
/// the factual and counterfactual jobs of one target share it, and with it
/// one enumeration through the artifact cache, as in the paper's harness.
fn graph_id(i: u64, twin: bool) -> u64 {
    (1 << 63) | (u64::from(twin) << 62) | i
}

fn job(item: &Item, graph_id: u64, objective: Objective) -> ExplainJob {
    ExplainJob::flow_based(
        item.graph.clone(),
        item.target,
        graph_id,
        flow_cap(EFFORT),
        method_factory("REVELIO", objective, EFFORT),
    )
    .with_batch_spec(revelio_batch_config(objective, EFFORT))
}

/// One request: a target explained factual and counterfactual (Figs. 3
/// and 4) as one `explain_batch` of two jobs, so the two workers run the
/// two objectives of the same target side by side. Both explanations
/// count, each with the batch's latency.
fn send(
    rt: &Runtime,
    handle: ModelHandle,
    pool: &[Item],
    (seed, i, twin): (u64, u64, bool),
    tally: &mut Tally,
) {
    let k = key(seed, i);
    let item = &pool[k];
    let gid = graph_id(i, twin);
    tally.attempts += OBJECTIVES.len() as u64;
    let t0 = Instant::now();
    let results = rt.explain_batch(
        handle,
        OBJECTIVES.iter().map(|&o| job(item, gid, o)).collect(),
    );
    let latency_us = t0.elapsed().as_secs_f64() * 1e6;
    for result in results {
        let out = match result {
            Ok(out) => out,
            Err(e) => {
                tally.fail(format!("job {i}: {e}"));
                continue;
            }
        };
        if let Err(e) = check_answer(item, &out.explanation.edge_scores, &out.degradation, false) {
            tally.fail(e);
            continue;
        }
        let us = |d: std::time::Duration| d.as_secs_f64() * 1e6;
        let d = out.degradation;
        tally.samples.push(Sample {
            key: k,
            graph_id: gid,
            latency_us,
            queue_us: us(out.timing.queue_wait),
            prep_us: us(out.timing.prep),
            served_us: us(out.timing.explain),
            epochs_frac: d.epochs_run as f64 / d.epochs_planned.max(1) as f64,
        });
    }
}

pub fn run(args: &Args, report: &mut Report) {
    let origin = Instant::now();
    let mut setups = Vec::new();
    let mut system = None;
    for _ in 0..args.setup_repeats() {
        drop(system.take());
        let t0 = Instant::now();
        let fx = ba_shapes_fixture(POOL, STRIDE);
        let rt = Runtime::with_config(RuntimeConfig {
            workers: 2,
            seed: RUNTIME_SEED,
            ..RuntimeConfig::default()
        });
        let handle = rt.register_model(&fx.model);
        setups.push(t0.elapsed().as_secs_f64());
        system = Some((fx, rt, handle));
    }
    let (fx, rt, handle) = system.expect("at least one set-up");
    let next = AtomicU64::new(0);
    let (pool, seed) = (&fx.pool, args.seed);
    // One client thread: each request already occupies both workers.
    let phase = |stop: Stop, traced: Option<Instant>| {
        closed_loop(
            1,
            &next,
            &stop,
            traced,
            || (),
            |(), i, twin, tally| send(&rt, handle, pool, (seed, i, twin), tally),
        )
    };

    let mut all = phase(Stop::Before(WARMUP), None).0;
    next.store(POOL as u64, Ordering::Relaxed);
    // Whole passes, each a closed-loop sub-phase of its own.
    let passes = |count: u64| -> Vec<Tally> {
        (0..count)
            .map(|_| {
                let end = next.load(Ordering::Relaxed) + POOL as u64;
                let (pass, _) = phase(Stop::Before(end), None);
                // The stopping fetch took position `end`; the next pass starts there.
                next.store(end, Ordering::Relaxed);
                pass
            })
            .collect()
    };
    let measured_passes = ((args.seconds as f64 * PASSES_PER_SECOND).round() as u64).max(1);
    if args.trace {
        // First half: plain passes for the runtime's counters.
        let before = rt.metrics();
        let mut counted = Tally::default();
        for pass in passes(measured_passes.div_ceil(2)) {
            counted.merge(pass);
        }
        let after = rt.metrics();
        per_layer(report, &fx, &counted, &before, &after);
        let mut explain_us: Vec<f64> = all
            .samples
            .iter()
            .chain(&counted.samples)
            .map(|s| s.served_us)
            .collect();
        load::hist_p99_rel_err(
            report,
            after.explain_latency.p99_us() as f64,
            &mut explain_us,
        );
        // Then traced and untraced passes over the same targets.
        let mut tracer = Tracer::new(origin);
        let (untraced, traced) = load::paired_windows(
            OVERHEAD_PAIRS,
            POOL as u64,
            &next,
            &mut tracer,
            origin,
            &phase,
        );
        load::trace_overhead(report, &untraced, &traced);
        replay_sample(report, &fx, (&rt, handle), args, &mut tracer);
        crate::write_trace(args, &tracer);
        report.attempted = counted.attempts + untraced.attempts + traced.attempts;
        for t in [counted, untraced, traced] {
            all.merge(t);
        }
    } else {
        let measured = load::end_to_end(report, passes(measured_passes), &mut setups);
        report.attempted = measured.attempts;
        all.merge(measured);
        let items: Vec<&Item> = PROBE.iter().map(|&k| &fx.pool[k]).collect();
        let scores = determinism(&fx.model, &items, report);
        quality(report, &fx, &PROBE, &scores);
    }
    report.failed = all.failed;
    report.errors.extend(all.errors);
}

/// Per-layer metrics of the measured phase. The wire, gateway and store
/// layers are absent from this workload and read 0.
fn per_layer(
    report: &mut Report,
    fx: &Fixture,
    measured: &Tally,
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
) {
    for (name, unit) in [
        ("server.wire_ms", "ms"),
        ("server.bytes_per_req", "B"),
        ("server.shed_frac", "fraction"),
        ("gateway.rerouted", "count"),
        ("gateway.hop_ms", "ms"),
        ("store.warm_hit_rate", "fraction"),
    ] {
        report.put(name, 0.0, unit);
    }
    let hits = after.cache_hits - before.cache_hits;
    let misses = after.cache_misses - before.cache_misses;
    report.put(
        "runtime.cache_hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
        "fraction",
    );
    load::served_breakdown(report, measured);
    load::input_properties(report, measured, &fx.pool);
}

/// The traced replay of a seed-derived sample of pool entries: each is
/// explained by the runtime, then through the mirror of the in-process
/// path (no wire, no store in the path; see `replay`).
fn replay_sample(
    report: &mut Report,
    fx: &Fixture,
    (rt, handle): (&Runtime, ModelHandle),
    args: &Args,
    tracer: &mut Tracer,
) {
    let requests: Vec<Replay> = (0..REPLAYS as u64)
        .map(|r| {
            let i = (1 << 40) + mix(args.seed ^ mix(r)) % (1 << 30);
            Replay {
                id: i,
                item: &fx.pool[key(args.seed, i)],
                graph_id: graph_id(i, false),
            }
        })
        .collect();
    let stores = [ReplayStore::open(&args.out_dir, 0, None)];
    let replayer = Replayer {
        model: &fx.model,
        model_id: 0,
        stores: &stores,
        route: Route::InProcess,
        store_in_path: false,
    };
    let mut failures = Vec::new();
    let epochs = replayer.run(tracer, &requests, |tr, r| {
        let span = tr.open("system.request", r.id, None);
        let served = rt
            .explain_batch(handle, vec![job(r.item, r.graph_id, Objective::Factual)])
            .pop();
        tr.close(span);
        let checked = match served {
            Some(Ok(out)) => check_answer(
                r.item,
                &out.explanation.edge_scores,
                &out.degradation,
                false,
            ),
            other => Err(format!("{:?}", other.map(|r| r.err()))),
        };
        if let Err(e) = checked {
            failures.push(format!("replayed job {}: {e}", r.id));
        }
    });
    report.errors.extend(failures);
    load::layer_times(report, tracer, REPLAYS, mean(epochs));
    load::reconcile(report, tracer, REPLAYS);
    replay::finish_stores(report, stores.into());
}
