//! The traced replay: a sampled request's input pushed again through a
//! mirror of its serving path, assembled from the crates' public calls,
//! with a benchmark-side span around each call. No tracing runs inside
//! the program.
//!
//! The mirror has the threads of the serving path: the client (this
//! thread), a gateway thread on `online-repeat`, a server connection
//! thread, and a runtime worker behind the runtime's own admission queue
//! ([`PoolCore`]). Frames cross real loopback sockets. Spans that hand
//! work from one thread to the next — `server.frame_io` (write start to
//! read end) and `runtime.handoff` (submit to worker start, reply send to
//! receive) — start in one thread and end in the other, so every interval
//! from the client's first encode to its last decode lies in some layer
//! span. The live request's time (`system.request`) minus the time those
//! spans cover is what the mirror does not account for: the reconcile.
//!
//! Three kinds of root span per replayed request:
//! * `replay` — the mirrored request path;
//! * `store` — the store calls on the request's record, on workloads whose
//!   serving path has no store;
//! * `epoch` — REVELIO's fixed cost (zero epochs) and one optimize epoch
//!   rebuilt from the public tensor and GNN calls the loop makes.

use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use revelio_core::{
    ConvergedMask, Degradation, ExplainControl, Explanation, Objective, Revelio, RevelioConfig,
};
use revelio_eval::{flow_cap, revelio_batch_config};
use revelio_gateway::{route_key, Ring};
use revelio_gnn::{Gnn, Instance};
use revelio_graph::FlowIndex;
use revelio_runtime::{CachedFlows, FlowKey, ModelSpec, PoolCore, ShardedLru};
use revelio_server::wire::{read_frame, write_frame};
use revelio_server::{
    read_frame_cancellable, ExplainRequest, Request, Response, ServedExplanation, WireTiming,
    DEFAULT_MAX_FRAME_LEN, POLL_INTERVAL,
};
use revelio_store::{
    fingerprint_model, ExplanationRecord, FlowsRecord, LogStore, MaskKey, PhaseSummary, Store as _,
    StoredMask,
};
use revelio_tensor::{uniform, Adam, Optimizer as _, Tensor};

use crate::fixture::{request, Item, EFFORT};
use crate::measure::{Report, Sink, Tracer};

/// A log store the mirror reads and appends to, deleted by
/// [`finish_stores`].
pub struct ReplayStore {
    store: Arc<LogStore>,
    appends: Arc<AtomicUsize>,
    path: PathBuf,
    /// File length before the replay appended to it.
    base_len: u64,
}

impl ReplayStore {
    /// Store `n` of the replay: empty, or with `from` a copy of a live
    /// shard's log, so that the mirror warm-starts from the masks the
    /// system holds (warm-start cost depends on how often a mask was
    /// refined before).
    pub fn open(dir: &Path, n: usize, from: Option<&Path>) -> ReplayStore {
        let path = dir.join(format!("replay-{}-{n}.log", std::process::id()));
        let _ = std::fs::remove_file(&path);
        if let Some(live) = from {
            std::fs::copy(live, &path).expect("copy live store");
        }
        let base_len = std::fs::metadata(&path).map_or(0, |m| m.len());
        let store = Arc::new(LogStore::open(&path).expect("open replay store"));
        ReplayStore {
            store,
            appends: Arc::default(),
            path,
            base_len,
        }
    }
}

/// Reports `store.bytes_per_record` over the records the replay appended
/// and deletes the files.
pub fn finish_stores(report: &mut Report, stores: Vec<ReplayStore>) {
    let (mut bytes, mut records) = (0, 0);
    for s in stores {
        let len = std::fs::metadata(&s.path).map_or(0, |m| m.len());
        bytes += len.saturating_sub(s.base_len);
        records += s.appends.load(Ordering::Relaxed);
        drop(s.store);
        let _ = std::fs::remove_file(&s.path);
    }
    report.put(
        "store.bytes_per_record",
        bytes as f64 / records.max(1) as f64,
        "B",
    );
}

/// How a request reaches the runtime.
pub enum Route<'a> {
    /// Submitted in-process (`Runtime::explain_batch`).
    InProcess,
    /// Over one loopback connection to a server.
    Server,
    /// Through a gateway that routes on `ring` and forwards to a server.
    Gateway(&'a Ring),
}

/// One request to replay: its id (stream position), input and graph id.
pub struct Replay<'a> {
    pub id: u64,
    pub item: &'a Item,
    pub graph_id: u64,
}

/// What the replay needs besides the requests.
pub struct Replayer<'a> {
    pub model: &'a Gnn,
    pub model_id: u32,
    /// One store per shard, picked by the ring on a gateway route.
    pub stores: &'a [ReplayStore],
    pub route: Route<'a>,
    /// The serving path consults the store (warm start) and appends to it.
    pub store_in_path: bool,
}

/// The request the mirror is serving: its id and its `replay` root span.
#[derive(Default)]
struct Current {
    request: AtomicU64,
    root: AtomicUsize,
}

/// Span recording for the mirror's threads.
#[derive(Clone)]
struct Rec {
    sink: Sink,
    current: Arc<Current>,
}

impl Rec {
    fn now_ns(&self) -> u64 {
        self.sink.now_ns()
    }

    /// Records a span of the current request from `start_ns` to now.
    fn since(&self, name: &'static str, start_ns: u64) {
        let request = self.current.request.load(Ordering::Acquire);
        let root = self.current.root.load(Ordering::Acquire);
        self.sink.record(name, request, root, start_ns);
    }

    fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.now_ns();
        let out = f();
        self.since(name, start);
        out
    }
}

/// One end of a loopback connection, with the send marks of both
/// directions: a `server.frame_io` span runs from the writer's mark to the
/// reader's return.
struct End {
    stream: TcpStream,
    sent: Arc<AtomicU64>,
    peer_sent: Arc<AtomicU64>,
}

impl End {
    /// A connected pair: the client end first. The server end polls its
    /// reads as the server's connection loop does.
    fn pair(listener: &TcpListener) -> (End, End) {
        let client = TcpStream::connect(listener.local_addr().expect("listener address"))
            .expect("connect mirror");
        let (server, _) = listener.accept().expect("accept mirror");
        for s in [&client, &server] {
            s.set_nodelay(true).expect("nodelay");
        }
        server
            .set_read_timeout(Some(POLL_INTERVAL))
            .expect("read timeout");
        let (up, down) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
        (
            End {
                stream: client,
                sent: Arc::clone(&up),
                peer_sent: Arc::clone(&down),
            },
            End {
                stream: server,
                sent: down,
                peer_sent: up,
            },
        )
    }

    fn send(&mut self, rec: &Rec, payload: &[u8]) {
        self.sent.store(rec.now_ns(), Ordering::Release);
        write_frame(&mut self.stream, payload, DEFAULT_MAX_FRAME_LEN).expect("mirror frame write");
    }

    /// Client side: the answer to the last frame sent.
    fn answer(&mut self, rec: &Rec) -> Vec<u8> {
        let (payload, _) = read_frame(&mut self.stream, DEFAULT_MAX_FRAME_LEN)
            .expect("mirror frame read")
            .expect("mirror peer closed");
        rec.since("server.frame_io", self.peer_sent.load(Ordering::Acquire));
        payload
    }

    /// Server side: the next frame, or `None` once the peer has closed.
    fn next(&mut self, rec: &Rec) -> Option<Vec<u8>> {
        let stop = AtomicBool::new(false);
        let frame = read_frame_cancellable(
            &mut self.stream,
            DEFAULT_MAX_FRAME_LEN,
            Duration::from_secs(5),
            &stop,
        )
        .expect("mirror frame read")?;
        rec.since("server.frame_io", self.peer_sent.load(Ordering::Acquire));
        Some(frame.0)
    }
}

/// A job on the mirror's admission queue.
struct Job {
    req: ExplainRequest,
    id: u64,
    submitted_ns: u64,
    reply: mpsc::Sender<Reply>,
}

/// The worker's answer, and when it was handed back.
struct Reply {
    explanation: Explanation,
    degradation: Degradation,
    sent_ns: u64,
}

/// What the off-path roots need from the mirrored request.
struct Extras {
    record: ExplanationRecord,
    index: Arc<FlowIndex>,
    epochs_run: usize,
}

/// State the mirror's worker shares with the benchmark.
struct Worker {
    rec: Rec,
    flows: ShardedLru<FlowKey, CachedFlows>,
    /// The shard stores, and the ring that picks one when there are several.
    stores: Vec<(Arc<LogStore>, Arc<AtomicUsize>)>,
    ring: Option<Ring>,
    store_in_path: bool,
    model_id: u32,
    fingerprint: u64,
    extras: mpsc::Sender<Extras>,
}

impl Worker {
    /// Serves one job as the runtime's worker does: instance forward,
    /// flow index through the artifact cache, warm-start lookup, REVELIO,
    /// the write-behind record.
    fn serve(&self, model: &Gnn, job: Job) {
        let rec = &self.rec;
        rec.since("runtime.handoff", job.submitted_ns);
        let req = job.req;
        let shard = self.ring.as_ref().map_or(0, |ring| {
            ring.owner_where(route_key(req.model, req.graph_id, req.target), |_| true)
                .unwrap_or(0)
        });
        let store = &self.stores[shard];
        let layers = model.num_layers();
        let cap = flow_cap(EFFORT);
        let inst = rec.span("gnn.instance_forward", || {
            Instance::for_prediction(model, req.graph, req.target)
        });
        let key: FlowKey = (req.graph_id, inst.target, layers, cap);
        let index = match rec.span("runtime.cache", || self.flows.get(&key)) {
            Some(hit) => hit.index,
            None => {
                let capped = rec.span("graph.flow_index", || {
                    FlowIndex::build_capped(&inst.mp, layers, inst.target, cap)
                });
                let index = Arc::new(capped.index);
                let flows = CachedFlows {
                    index: Arc::clone(&index),
                    dropped: capped.dropped,
                };
                rec.span("runtime.cache", || self.flows.insert(key, flows));
                if self.store_in_path {
                    let flows = FlowsRecord {
                        graph_id: req.graph_id,
                        target: inst.target,
                        layers: layers as u32,
                        max_flows: cap as u64,
                        layer_edge_count: inst.mp.layer_edge_count() as u32,
                        flow_edges: index.flow_edges().to_vec(),
                        dropped: capped.dropped,
                    };
                    self.append(store, |s| s.put_flows(&flows));
                }
                index
            }
        };
        let key = MaskKey {
            model_id: self.model_id,
            graph_id: req.graph_id,
            target: inst.target,
            layers: layers as u32,
        };
        let warm_start = if self.store_in_path {
            rec.span("store.lookup", || store.0.newest_mask(&key))
                .expect("store lookup")
                .filter(|hit| hit.model_fingerprint == self.fingerprint)
                .map(|hit| {
                    Arc::new(ConvergedMask {
                        mask_params: hit.mask.mask_params,
                        layer_weights: hit.mask.layer_weights,
                        selected: hit.mask.selected,
                    })
                })
        } else {
            None
        };
        let ctl = ExplainControl {
            flow_index: Some(Arc::clone(&index)),
            shrink_on_overflow: true,
            warm_start,
            ..ExplainControl::default()
        };
        let revelio = Revelio::new(RevelioConfig {
            seed: job.id,
            ..revelio_batch_config(Objective::Factual, EFFORT)
        });
        let out = rec
            .span("core.explain", || {
                revelio.try_explain_controlled(model, &inst, &ctl)
            })
            .expect("REVELIO with a capped flow index cannot fail");
        let record = ExplanationRecord {
            job_id: job.id,
            key,
            model_fingerprint: self.fingerprint,
            edge_scores: out.explanation.edge_scores.clone(),
            layer_edge_scores: out.explanation.layer_edge_scores.clone(),
            flow_scores: out.explanation.flows.as_ref().map(|f| f.scores.clone()),
            degradation: out.degradation,
            phases: PhaseSummary::default(),
            mask: out.converged_mask.as_ref().map(|m| StoredMask {
                mask_params: m.mask_params.clone(),
                layer_weights: m.layer_weights.clone(),
                selected: m.selected.clone(),
            }),
        };
        if self.store_in_path {
            self.append(store, |s| s.put_explanation(&record));
        }
        let epochs_run = out.degradation.epochs_run;
        let _ = job.reply.send(Reply {
            explanation: out.explanation,
            degradation: out.degradation,
            sent_ns: rec.now_ns(),
        });
        let _ = self.extras.send(Extras {
            record,
            index,
            epochs_run,
        });
    }

    fn append<E: std::fmt::Debug>(
        &self,
        (store, appends): &(Arc<LogStore>, Arc<AtomicUsize>),
        put: impl FnOnce(&LogStore) -> Result<(), E>,
    ) {
        self.rec
            .span("store.append", || put(store))
            .expect("store append");
        appends.fetch_add(1, Ordering::Relaxed);
    }
}

/// Submits `req` to the mirror's queue and waits for the worker's reply.
fn submit(pool: &PoolCore<Job>, rec: &Rec, req: ExplainRequest) -> Reply {
    let (reply, answer) = mpsc::channel();
    let job = Job {
        req,
        id: rec.current.request.load(Ordering::Acquire),
        submitted_ns: rec.now_ns(),
        reply,
    };
    assert!(pool.submit(job).is_ok(), "mirror queue closed");
    let reply = answer.recv().expect("mirror worker answers");
    rec.since("runtime.handoff", reply.sent_ns);
    reply
}

/// The mirror's server connection loop.
fn serve_connection(mut conn: End, pool: &PoolCore<Job>, rec: &Rec) {
    while let Some(frame) = conn.next(rec) {
        let req = match rec.span("server.decode", || Request::decode(&frame)) {
            Ok(Request::Explain(req)) => req,
            _ => panic!("mirror server received no Explain"),
        };
        let reply = submit(pool, rec, req);
        let bytes = rec.span("server.encode", || {
            Response::Explained(ServedExplanation {
                edge_scores: reply.explanation.edge_scores,
                layer_edge_scores: reply.explanation.layer_edge_scores,
                flow_scores: reply.explanation.flows.map(|f| f.scores),
                degradation: reply.degradation,
                timing: WireTiming::default(),
                trace_id: None,
            })
            .encode()
        });
        conn.send(rec, &bytes);
    }
}

/// The mirror's gateway connection loop: decode, route on the ring,
/// forward to the server, relay the answer.
fn serve_gateway(mut conn: End, mut shard: End, ring: &Ring, rec: &Rec) {
    while let Some(frame) = conn.next(rec) {
        let req = match rec.span("server.decode", || Request::decode(&frame)) {
            Ok(Request::Explain(req)) => req,
            _ => panic!("mirror gateway received no Explain"),
        };
        rec.span("gateway.route", || {
            ring.owner_where(route_key(req.model, req.graph_id, req.target), |_| true)
        })
        .expect("a ring with shards has an owner");
        let bytes = rec.span("server.encode", || Request::Explain(req).encode());
        shard.send(rec, &bytes);
        let answer = shard.answer(rec);
        let resp = rec
            .span("server.decode", || Response::decode(&answer))
            .expect("mirror shard answer decodes");
        let bytes = rec.span("server.encode", || resp.encode());
        conn.send(rec, &bytes);
    }
}

impl Replayer<'_> {
    /// Replays `requests` in order. Each is first sent through the system
    /// by `live` (which records its `system.request` span), then through
    /// the mirror. With the store in the path, the whole sample is sent
    /// once unrecorded first, so that live and mirror both hold each
    /// request's flows in their caches, as in the workload's steady state,
    /// and refine the same stored masks alike.
    /// Returns the optimize epochs each mirrored request ran.
    pub fn run(
        &self,
        tr: &mut Tracer,
        requests: &[Replay<'_>],
        mut live: impl FnMut(&mut Tracer, &Replay<'_>),
    ) -> Vec<f64> {
        let rec = Rec {
            sink: tr.sink(),
            current: Arc::default(),
        };
        let (extras_tx, extras) = mpsc::channel();
        let worker = Arc::new(Worker {
            rec: rec.clone(),
            flows: ShardedLru::new(1, 1024),
            stores: self
                .stores
                .iter()
                .map(|s| (Arc::clone(&s.store), Arc::clone(&s.appends)))
                .collect(),
            ring: match self.route {
                Route::Gateway(ring) => Some(ring.clone()),
                _ => None,
            },
            store_in_path: self.store_in_path,
            model_id: self.model_id,
            fingerprint: fingerprint_model(self.model.config(), &self.model.state_dict()),
            extras: extras_tx,
        });
        let spec = Arc::new(ModelSpec::of(self.model));
        let pool = PoolCore::spawn(
            "mirror",
            1,
            move |_| spec.materialize(),
            move |model: &mut Gnn, job: Job| worker.serve(model, job),
        )
        .expect("spawn mirror worker");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind mirror");

        std::thread::scope(|scope| {
            // The client's connection; `None` for in-process submission.
            let mut client = match self.route {
                Route::InProcess => None,
                Route::Server => {
                    let (client, conn) = End::pair(&listener);
                    scope.spawn(|| serve_connection(conn, &pool, &rec));
                    Some(client)
                }
                Route::Gateway(ring) => {
                    let (client, conn) = End::pair(&listener);
                    let (shard, shard_conn) = End::pair(&listener);
                    scope.spawn(|| serve_gateway(conn, shard, ring, &rec));
                    scope.spawn(|| serve_connection(shard_conn, &pool, &rec));
                    Some(client)
                }
            };
            let passes: &[bool] = if self.store_in_path {
                &[false, true]
            } else {
                &[true]
            };
            let mut epochs = Vec::new();
            for &recorded in passes {
                let mut scratch = Tracer::new(std::time::Instant::now());
                let tr: &mut Tracer = if recorded { &mut *tr } else { &mut scratch };
                for r in requests {
                    live(tr, r);
                    self.mirror(tr, &rec, client.as_mut(), &pool, r);
                    let done = extras.recv().expect("mirror worker sends its extras");
                    tr.drain(&rec.sink);
                    if recorded {
                        self.off_path(tr, r, done.record, &done.index);
                        epochs.push(done.epochs_run as f64);
                    }
                }
            }
            // Closing the client's end ends the mirror's threads in turn.
            drop(client);
            epochs
        })
    }

    /// The `replay` root: one request through the mirrored path.
    fn mirror(
        &self,
        tr: &mut Tracer,
        rec: &Rec,
        client: Option<&mut End>,
        pool: &PoolCore<Job>,
        r: &Replay<'_>,
    ) {
        let req = request(
            self.model_id,
            r.item,
            r.graph_id,
            Objective::Factual,
            self.store_in_path,
        );
        let root = tr.open("replay", r.id, None);
        rec.current.request.store(r.id, Ordering::Release);
        rec.current.root.store(root, Ordering::Release);
        match client {
            None => {
                submit(pool, rec, req);
            }
            Some(conn) => {
                let bytes = tr.span("server.encode", root, || Request::Explain(req).encode());
                conn.send(rec, &bytes);
                let answer = conn.answer(rec);
                let resp = tr.span("server.decode", root, || Response::decode(&answer));
                assert!(
                    matches!(resp, Ok(Response::Explained(_))),
                    "mirrored request was not explained"
                );
            }
        }
        tr.close(root);
    }

    /// The `store` and `epoch` roots of one replayed request.
    fn off_path(
        &self,
        tr: &mut Tracer,
        r: &Replay<'_>,
        record: ExplanationRecord,
        index: &Arc<FlowIndex>,
    ) {
        if !self.store_in_path {
            let store = &self.stores[0].store;
            let root = tr.open("store", r.id, None);
            tr.span("store.append", root, || store.put_explanation(&record))
                .expect("store append");
            tr.span("store.lookup", root, || store.newest_mask(&record.key))
                .expect("store lookup");
            tr.close(root);
            self.stores[0].appends.fetch_add(1, Ordering::Relaxed);
        }
        let inst = Instance::for_prediction(self.model, r.item.graph.clone(), r.item.target);
        let cfg = RevelioConfig {
            seed: r.id,
            ..revelio_batch_config(Objective::Factual, EFFORT)
        };
        self.epoch(tr, r.id, cfg, &inst, index);
    }

    /// The `epoch` root: REVELIO's fixed cost, then one factual optimize
    /// epoch built as the loop builds it (Eqs. 4, 5, 7 mask transform,
    /// masked forward, Eq. 1 objective plus the Eqs. 8–9 sparsity term over
    /// the used layer edges, gradient reset, backward, Adam).
    fn epoch(
        &self,
        tr: &mut Tracer,
        id: u64,
        cfg: RevelioConfig,
        inst: &Instance,
        index: &Arc<FlowIndex>,
    ) {
        let model = self.model;
        let layers = index.num_layers();
        let fixed = Revelio::new(RevelioConfig { epochs: 0, ..cfg });
        let ctl = ExplainControl {
            flow_index: Some(Arc::clone(index)),
            shrink_on_overflow: true,
            ..ExplainControl::default()
        };
        let params = uniform(index.num_flows(), 1, 0.1, cfg.seed).requires_grad();
        let weights: Vec<Tensor> = (0..layers)
            .map(|_| Tensor::zeros(1, 1).requires_grad())
            .collect();
        let mut all = vec![params.clone()];
        all.extend(weights.iter().cloned());
        let mut opt = Adam::new(all, cfg.lr);
        let class = inst.class;
        let edges = inst.mp.layer_edge_count();
        let used: Vec<Vec<usize>> = (0..layers)
            .map(|l| {
                (0..edges)
                    .filter(|&e| !index.incidence(l).row(e).is_empty())
                    .collect()
            })
            .collect();

        let root = tr.open("epoch", id, None);
        tr.span("core.fixed", root, || {
            fixed.try_explain_controlled(model, inst, &ctl)
        })
        .expect("zero-epoch REVELIO cannot fail");
        tr.span("tensor.adam", root, || opt.zero_grad());
        let omega = tr.span("tensor.elementwise", root, || params.tanh_t());
        let raw: Vec<Tensor> = tr.span("tensor.sp_matvec", root, || {
            (0..layers)
                .map(|l| omega.sp_matvec(index.incidence(l)))
                .collect()
        });
        let masks: Vec<Tensor> = tr.span("tensor.elementwise", root, || {
            raw.iter()
                .zip(&weights)
                .map(|(s, w)| s.sigmoid_scale(&w.exp()))
                .collect()
        });
        let logits = tr.span("gnn.masked_forward", root, || {
            model.target_logits(&inst.mp, &inst.x, Some(&masks), inst.target)
        });
        let loss = tr.span("tensor.elementwise", root, || {
            let objective = logits.log_softmax_rows().slice_cols(class, class + 1).neg();
            let mut reg: Option<Tensor> = None;
            let mut used_count = 0usize;
            for (mask, used) in masks.iter().zip(&used) {
                if used.is_empty() {
                    continue;
                }
                let term = mask.gather_rows(used).sum_all();
                used_count += used.len();
                reg = Some(match reg {
                    None => term,
                    Some(r) => r.add(&term),
                });
            }
            match reg {
                Some(r) => objective.add(&r.mul_scalar(cfg.alpha / used_count as f32)),
                None => objective,
            }
        });
        tr.span("tensor.backward", root, || loss.backward());
        tr.span("tensor.adam", root, || opt.step());
        tr.close(root);
    }
}
