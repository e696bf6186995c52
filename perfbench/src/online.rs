//! The online workloads: explanation requests over loopback TCP to an
//! in-process `revelio-server` (`online-cold`) or to an in-process
//! `revelio-gateway` over two store-backed shards (`online-repeat`).

use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicU64;
use std::time::{Duration, Instant};

use revelio_core::Objective;
use revelio_gateway::{route_key, Gateway, GatewayConfig, Ring};
use revelio_gnn::Gnn;
use revelio_runtime::RuntimeConfig;
use revelio_server::{Client, ClientConfig, ClientError, Server, ServerConfig, ServerStats};

use crate::fixture::{mix, request, tree_cycles_fixture, unit, Fixture, Item};
use crate::load::{self, closed_loop, Sample, Stop, Tally};
use crate::measure::{mean, pin_to_one_cpu, Report, Tracer};
use crate::probe::{check_answer, determinism, probe_graph_id, quality, RUNTIME_SEED};
use crate::replay::{self, Replay, ReplayStore, Replayer, Route};
use crate::Args;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Every request carries a fresh graph id: each one misses the
    /// artifact cache and pays flow enumeration plus a full optimize.
    Cold,
    /// Zipf-popular keys through a gateway over two store-backed shards,
    /// with warm starts.
    Repeat,
}

impl Shape {
    /// Closed-loop clients. `online-cold` runs two, so its admission queue
    /// and worker pool see concurrent requests. `online-repeat` runs one:
    /// with two, its run-to-run spread of throughput and p50 doubled
    /// (about 0.10 of the median against 0.05, five seeds of 15 s pinned
    /// to one CPU of the 2-vCPU box) while throughput did not rise.
    fn clients(self) -> usize {
        match self {
            Shape::Cold => 2,
            Shape::Repeat => 1,
        }
    }
}

/// Instances in the `online-cold` pool (fresh graph ids make every
/// request a cache miss regardless of pool size).
const COLD_POOL: usize = 256;
/// Distinct keys of `online-repeat`: each of the two shards owns more
/// keys than its artifact cache (256 entries by default) holds.
const REPEAT_KEYS: usize = 640;
/// Zipf exponent of key popularity.
const ZIPF_S: f64 = 1.0;
/// Share of `online-repeat` requests that bring a graph never seen before
/// (a pool instance drawn uniformly, under a fresh graph id): they miss
/// cache and store and pay a full cold optimize. The p99 then lies inside
/// that population, not on the few warm requests the host happened to
/// stall.
const FRESH_SHARE: f64 = 0.05;
/// Probe-set size (per objective).
const PROBE: usize = 16;
/// Requests replayed through the traced public calls.
const REPLAYS: usize = 24;
/// Pairs of traced and untraced windows for `trace.overhead_frac`.
const OVERHEAD_PAIRS: usize = 4;
/// The untraced measured phase runs as this many closed-loop sub-phases,
/// each with fresh client threads: where the scheduler places a set of
/// client threads moves that set's rate by as much as a fifth on the
/// 2-core box, so one placement must not decide a whole run.
const SUB_PHASES: u32 = 10;

/// The system under test: shards, an optional gateway in front, and the
/// model id clients use.
struct Fleet {
    shards: Vec<Server>,
    /// The shards' store logs (`online-repeat`).
    store_paths: Vec<PathBuf>,
    gateway: Option<Gateway>,
    addr: std::net::SocketAddr,
    model: u32,
}

fn client_config() -> ClientConfig {
    ClientConfig {
        max_attempts: 20,
        backoff_base: Duration::from_millis(5),
        ..ClientConfig::default()
    }
}

impl Fleet {
    /// Starts the shape's fleet with shipped defaults (`max_batch` 1, no
    /// deadline, trace sampling 0) and registers `model` through it.
    fn start(shape: Shape, model: &Gnn, dir: &Path) -> Fleet {
        let server = |workers: usize, store: Option<PathBuf>| {
            Server::start(ServerConfig {
                runtime: RuntimeConfig {
                    workers,
                    seed: RUNTIME_SEED,
                    ..RuntimeConfig::default()
                },
                store,
                ..ServerConfig::default()
            })
            .expect("start server")
        };
        let store_paths: Vec<PathBuf> = match shape {
            Shape::Cold => Vec::new(),
            Shape::Repeat => (0..2).map(|i| dir.join(format!("shard{i}.log"))).collect(),
        };
        let (shards, gateway) = match shape {
            Shape::Cold => (vec![server(2, None)], None),
            Shape::Repeat => {
                let _ = std::fs::remove_dir_all(dir);
                std::fs::create_dir_all(dir).expect("create store directory");
                let shards: Vec<Server> = store_paths
                    .iter()
                    .map(|p| server(1, Some(p.clone())))
                    .collect();
                let gateway = Gateway::start(GatewayConfig {
                    shards: shards.iter().map(|s| s.local_addr().to_string()).collect(),
                    ..GatewayConfig::default()
                })
                .expect("start gateway");
                (shards, Some(gateway))
            }
        };
        let addr = gateway
            .as_ref()
            .map_or_else(|| shards[0].local_addr(), Gateway::local_addr);
        let model = Client::connect_with_retry(addr, client_config())
            .and_then(|mut c| c.register_model(model))
            .expect("register model");
        Fleet {
            shards,
            store_paths,
            gateway,
            addr,
            model,
        }
    }

    /// Wire and runtime counters summed over the shards, and the
    /// gateway's re-routed forwards.
    fn stats(&self) -> (ServerStats, u64) {
        let mut total = self.shards[0].stats();
        for s in &self.shards[1..] {
            total.merge(&s.stats());
        }
        let rerouted = self
            .gateway
            .as_ref()
            .map_or(0, |g| g.gateway_stats().rerouted);
        (total, rerouted)
    }

    fn stop(self) {
        if let Some(g) = self.gateway {
            g.shutdown();
        }
        for s in self.shards {
            s.stop();
            s.shutdown();
        }
    }
}

/// The seed-derived request stream over the pool. On `online-repeat`,
/// pool index `r` is the key of popularity rank `r` in every run (the
/// pool itself is a fixed random sample): which instances are hot is part
/// of the deployment, while the seed draws the request sequence.
struct Stream {
    shape: Shape,
    seed: u64,
    pool: usize,
    /// Leading positions that visit every key once, least popular first
    /// (`online-repeat`'s warm-up; 0 on `online-cold`).
    prefill: u64,
    /// `online-repeat`: the Zipf CDF over popularity ranks.
    cdf: Vec<f64>,
}

impl Stream {
    fn new(shape: Shape, seed: u64, pool: usize) -> Stream {
        let weights: Vec<f64> = (1..=pool).map(|r| (r as f64).powf(-ZIPF_S)).collect();
        let total: f64 = weights.iter().sum();
        let cdf = weights
            .iter()
            .scan(0.0, |acc, w| {
                *acc += w / total;
                Some(*acc)
            })
            .collect();
        let prefill = match shape {
            Shape::Cold => 0,
            Shape::Repeat => pool as u64,
        };
        Stream {
            shape,
            seed,
            pool,
            prefill,
            cdf,
        }
    }

    /// Whether stream position `i` brings a graph never seen before.
    fn fresh(&self, i: u64) -> bool {
        match self.shape {
            Shape::Cold => true,
            Shape::Repeat => i >= self.prefill && unit(!self.seed, i) < FRESH_SHARE,
        }
    }

    /// Pool index requested at stream position `i`.
    fn key(&self, i: u64) -> usize {
        if i < self.prefill {
            return self.pool - 1 - i as usize;
        }
        let u = unit(self.seed, i);
        if self.fresh(i) {
            ((u * self.pool as f64) as usize).min(self.pool - 1)
        } else {
            self.cdf.partition_point(|&c| c < u).min(self.pool - 1)
        }
    }

    /// The graph id of stream position `i`, or of its twin (see
    /// `load::paired_windows`): a fresh id per position and per twin where
    /// the position brings a new graph, otherwise the instance's own.
    fn graph_id(&self, i: u64, item: &Item, twin: bool) -> u64 {
        if self.fresh(i) {
            (1 << 63) | (u64::from(twin) << 62) | i
        } else {
            item.graph_id
        }
    }
}

/// Sends one explanation, retrying `Busy` answers (each counted as an
/// attempt); a transport or server error fails the request.
fn send(
    client: &mut Client,
    pool: &[Item],
    model: u32,
    stream: &Stream,
    i: u64,
    twin: bool,
    tally: &mut Tally,
) {
    let key = stream.key(i);
    let item = &pool[key];
    let warm = stream.shape == Shape::Repeat;
    let graph_id = stream.graph_id(i, item, twin);
    let req = request(model, item, graph_id, Objective::Factual, warm);
    let t0 = Instant::now();
    let answer = loop {
        tally.attempts += 1;
        match client.explain(&req) {
            Err(ClientError::Busy { .. }) if tally.busy < 100_000 => {
                tally.busy += 1;
                std::thread::sleep(Duration::from_micros(200));
            }
            other => break other,
        }
    };
    let latency_us = t0.elapsed().as_secs_f64() * 1e6;
    match answer {
        Ok(served) => match check_answer(item, &served.edge_scores, &served.degradation, warm) {
            Ok(()) => {
                let d = served.degradation;
                tally.samples.push(Sample {
                    key,
                    graph_id,
                    latency_us,
                    queue_us: served.timing.queue_us as f64,
                    prep_us: served.timing.prep_us as f64,
                    served_us: served.timing.total_us as f64,
                    epochs_frac: d.epochs_run as f64 / d.epochs_planned.max(1) as f64,
                });
            }
            Err(e) => tally.fail(e),
        },
        Err(e) => tally.fail(format!("request {i}: {e}")),
    }
}

pub fn run(shape: Shape, args: &Args, report: &mut Report) {
    // The whole system runs on one CPU. Over both of the box's 2 vCPUs,
    // every hand-off between the request path's threads could wait on
    // the host to wake the other vCPU, and the host decided the figures:
    // on `online-cold`, throughput spread 0.27 of its median over five
    // seeds, against 0.07 pinned.
    report.check(pin_to_one_cpu().is_some(), || {
        "cannot pin the run to one CPU".to_owned()
    });
    let origin = Instant::now();
    let name = match shape {
        Shape::Cold => "online-cold",
        Shape::Repeat => "online-repeat",
    };
    let dir = args.out_dir.join(format!("{name}-{}", std::process::id()));
    let pool = match shape {
        Shape::Cold => COLD_POOL,
        Shape::Repeat => REPEAT_KEYS,
    };

    // Set-up: dataset, fresh training, pool sampling, fleet start and
    // registration — repeated so `setup_s` can report a median.
    let mut setups = Vec::new();
    let mut system: Option<(Fixture, Fleet)> = None;
    for _ in 0..args.setup_repeats() {
        if let Some((_, fleet)) = system.take() {
            fleet.stop();
        }
        let t0 = Instant::now();
        let fx = tree_cycles_fixture(pool);
        let fleet = Fleet::start(shape, &fx.model, &dir.join("fleet"));
        setups.push(t0.elapsed().as_secs_f64());
        system = Some((fx, fleet));
    }
    let (fx, fleet) = system.expect("at least one set-up");
    let stream = Stream::new(shape, args.seed, fx.pool.len());
    let next = AtomicU64::new(0);
    let (pool, addr, model) = (&fx.pool, fleet.addr, fleet.model);
    let phase = |stop: Stop, traced: Option<Instant>| {
        closed_loop(
            shape.clients(),
            &next,
            &stop,
            traced,
            || Client::connect_with_retry(addr, client_config()).expect("connect"),
            |client, i, twin, tally| send(client, pool, model, &stream, i, twin, tally),
        )
    };

    // `online-repeat` first sends every key once, so that no measured
    // request is a key's first: a first request pays a cold optimize of
    // all epochs, and how many of them fell into the measured phase (about
    // 1% of it, right at the p99) would otherwise depend on how fast the
    // warm-up ran.
    let mut all = phase(Stop::Before(stream.prefill), None).0;
    all.merge(phase(Stop::At(Instant::now() + args.warmup()), None).0);
    if args.trace {
        // First half: plain closed-loop load for the system's counters.
        let (before, rerouted_before) = fleet.stats();
        let (counted, _) = phase(Stop::At(Instant::now() + args.run_for() / 2), None);
        let (after, rerouted_after) = fleet.stats();
        per_layer(report, &fx, &counted, &before, &after);
        report.put(
            "gateway.rerouted",
            (rerouted_after - rerouted_before) as f64,
            "count",
        );
        let mut served_us: Vec<f64> = all
            .samples
            .iter()
            .chain(&counted.samples)
            .map(|s| s.served_us)
            .collect();
        load::hist_p99_rel_err(
            report,
            after.request_latency.p99_us() as f64,
            &mut served_us,
        );
        // Second half: traced and untraced windows over the same requests.
        let window_s = args.run_for().as_secs_f64() / 2.0 / (2 * OVERHEAD_PAIRS) as f64;
        let n = (counted.throughput() * window_s).round().max(8.0) as u64;
        let mut tracer = Tracer::new(origin);
        let (untraced, traced) =
            load::paired_windows(OVERHEAD_PAIRS, n, &next, &mut tracer, origin, &phase);
        load::trace_overhead(report, &untraced, &traced);
        replay_sample(report, shape, &fx, &fleet, &stream, args, &mut tracer);
        crate::write_trace(args, &tracer);
        report.attempted = counted.attempts + untraced.attempts + traced.attempts;
        for t in [counted, untraced, traced] {
            all.merge(t);
        }
    } else {
        let sub_phases = (0..SUB_PHASES)
            .map(|_| phase(Stop::At(Instant::now() + args.run_for() / SUB_PHASES), None).0)
            .collect();
        let measured = load::end_to_end(report, sub_phases, &mut setups);
        report.attempted = measured.attempts;
        all.merge(measured);
        probe(shape, &fx, &dir.join("probe"), report);
    }
    report.failed = all.failed;
    report.errors.extend(all.errors);
    fleet.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Counter-derived per-layer metrics of the measured phase, plus the
/// tracing overhead.
fn per_layer(
    report: &mut Report,
    fx: &Fixture,
    measured: &Tally,
    before: &ServerStats,
    after: &ServerStats,
) {
    let s = &measured.samples;
    report.put(
        "server.wire_ms",
        mean(s.iter().map(|x| x.latency_us - x.served_us)) / 1e3,
        "ms",
    );
    let bytes = (after.bytes_in + after.bytes_out) - (before.bytes_in + before.bytes_out);
    let requests = after.requests - before.requests;
    report.put(
        "server.bytes_per_req",
        bytes as f64 / requests.max(1) as f64,
        "B",
    );
    report.put(
        "server.shed_frac",
        measured.busy as f64 / measured.attempts.max(1) as f64,
        "fraction",
    );
    let ratio = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
    let (a, b) = (&after.runtime, &before.runtime);
    report.put(
        "runtime.cache_hit_rate",
        ratio(a.cache_hits - b.cache_hits, a.cache_misses - b.cache_misses),
        "fraction",
    );
    report.put(
        "store.warm_hit_rate",
        ratio(a.store_hits - b.store_hits, a.store_misses - b.store_misses),
        "fraction",
    );
    load::served_breakdown(report, measured);
    load::input_properties(report, measured, &fx.pool);
}

/// The traced replay of a seed-derived sample of the stream: each sampled
/// request is sent through the system, then through the mirror of its
/// path (see `replay`). On `online-repeat` the same requests also go via
/// the gateway and directly to their ring owner, for the gateway hop.
fn replay_sample(
    report: &mut Report,
    shape: Shape,
    fx: &Fixture,
    fleet: &Fleet,
    stream: &Stream,
    args: &Args,
    tracer: &mut Tracer,
) {
    let positions: Vec<u64> = (0..REPLAYS as u64)
        .map(|r| (1 << 40) + mix(args.seed ^ mix(r)) % (1 << 30))
        .collect();
    let requests: Vec<Replay> = positions
        .iter()
        .map(|&i| {
            let item = &fx.pool[stream.key(i)];
            Replay {
                id: i,
                item,
                graph_id: stream.graph_id(i, item, false),
            }
        })
        .collect();
    let warm = shape == Shape::Repeat;
    let ring = Ring::new(fleet.shards.len(), GatewayConfig::default().vnodes);
    let stores: Vec<ReplayStore> = if warm {
        fleet
            .store_paths
            .iter()
            .enumerate()
            .map(|(n, live)| ReplayStore::open(&args.out_dir, n, Some(live)))
            .collect()
    } else {
        vec![ReplayStore::open(&args.out_dir, 0, None)]
    };
    let replayer = Replayer {
        model: &fx.model,
        model_id: fleet.model,
        stores: &stores,
        route: match shape {
            Shape::Cold => Route::Server,
            Shape::Repeat => Route::Gateway(&ring),
        },
        store_in_path: warm,
    };
    let mut client = Client::connect_with_retry(fleet.addr, client_config()).expect("connect");
    let mut failures = Vec::new();
    let epochs = replayer.run(tracer, &requests, |tr, r| {
        let req = request(fleet.model, r.item, r.graph_id, Objective::Factual, warm);
        let span = tr.open("system.request", r.id, None);
        let served = client.explain(&req);
        tr.close(span);
        let checked = served
            .map_err(|e| e.to_string())
            .and_then(|s| check_answer(r.item, &s.edge_scores, &s.degradation, warm));
        if let Err(e) = checked {
            failures.push(format!("replayed request {}: {e}", r.id));
        }
    });
    report.errors.extend(failures);
    load::layer_times(report, tracer, REPLAYS, mean(epochs));
    load::reconcile(report, tracer, REPLAYS);
    replay::finish_stores(report, stores);

    let hop = if warm {
        gateway_hop(report, fx, fleet, stream, &positions, tracer)
    } else {
        0.0
    };
    report.put("gateway.hop_ms", hop, "ms");
}

/// Mean latency of the same requests via the gateway minus directly to
/// the shard that owns their key (both warm, alternating).
fn gateway_hop(
    report: &mut Report,
    fx: &Fixture,
    fleet: &Fleet,
    stream: &Stream,
    positions: &[u64],
    tracer: &mut Tracer,
) -> f64 {
    let ring = Ring::new(fleet.shards.len(), GatewayConfig::default().vnodes);
    let mut via = Client::connect_with_retry(fleet.addr, client_config()).expect("connect");
    let mut direct: Vec<Client> = fleet
        .shards
        .iter()
        .map(|s| Client::connect_with_retry(s.local_addr(), client_config()).expect("connect"))
        .collect();
    let (mut gw, mut shard) = (Vec::new(), Vec::new());
    for round in 0..3 {
        for (n, &i) in positions.iter().enumerate() {
            let item = &fx.pool[stream.key(i)];
            let req = request(
                fleet.model,
                item,
                stream.graph_id(i, item, false),
                Objective::Factual,
                true,
            );
            let owner = ring
                .owner_where(route_key(req.model, req.graph_id, req.target), |_| true)
                .expect("a ring with shards has an owner");
            let mut legs = [
                ("gateway.request", &mut via, &mut gw),
                ("shard.request", &mut direct[owner], &mut shard),
            ];
            // Each answer refines the stored mask, so the second leg
            // warm-starts from a mask one refinement further on: the legs
            // take turns going first.
            if (round + n) % 2 == 1 {
                legs.reverse();
            }
            for (name, client, out) in legs {
                let span = tracer.open(name, i, None);
                let answer = client.explain(&req);
                tracer.close(span);
                match answer {
                    Ok(_) => out.push(tracer.spans[span].dur_ns() as f64 / 1e6),
                    Err(e) => report.errors.push(format!("{name} {i}: {e}")),
                }
            }
        }
    }
    mean(gw) - mean(shard)
}

/// The quality probe and determinism check (see `probe`). A fresh fleet
/// of the workload's shape serves the probe set from one client, so the
/// answers do not depend on how the measured phase interleaved; on
/// `online-repeat` the set is sent twice and the warm-started second
/// answers are the ones scored.
fn probe(shape: Shape, fx: &Fixture, dir: &Path, report: &mut Report) {
    let probe: Vec<usize> = (0..PROBE).collect();
    let items: Vec<&Item> = probe.iter().map(|&k| &fx.pool[k]).collect();
    determinism(&fx.model, &items, report);
    let fleet = Fleet::start(shape, &fx.model, dir);
    let mut client = Client::connect_with_retry(fleet.addr, client_config()).expect("connect");
    let warm = shape == Shape::Repeat;
    let scores = [Objective::Factual, Objective::Counterfactual].map(|objective| {
        let mut scores = Vec::new();
        for _ in 0..if warm { 2 } else { 1 } {
            scores = items
                .iter()
                .map(|item| {
                    let req = request(
                        fleet.model,
                        item,
                        probe_graph_id(item, objective),
                        objective,
                        warm,
                    );
                    match client.explain(&req) {
                        Ok(s) => {
                            let checked = check_answer(item, &s.edge_scores, &s.degradation, warm);
                            report.check(checked.is_ok(), || format!("probe: {checked:?}"));
                            s.edge_scores
                        }
                        Err(e) => {
                            report.errors.push(format!("probe request: {e}"));
                            vec![0.0; item.graph.num_edges()]
                        }
                    }
                })
                .collect();
        }
        scores
    });
    quality(report, fx, &probe, &scores);
    fleet.stop();
}
