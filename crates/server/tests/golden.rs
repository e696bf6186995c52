//! Golden bytes: the exact encoding of one frame per `Request` and
//! `Response` variant, one payload per store record kind, and the
//! persisted model fingerprint.
//!
//! The round-trip property tests accept any layout that the encoder and
//! decoder agree on, so a consistent reordering of fields would pass them
//! while breaking every peer and every store file written before it. These
//! constants fail instead. A deliberate layout change must bump
//! `PROTOCOL_VERSION` (or the store `FORMAT_VERSION`) and regenerate them.

#![allow(clippy::unwrap_used)]

use revelio_core::wire::ControlSpec;
use revelio_core::{Degradation, Objective};
use revelio_eval::Effort;
use revelio_gnn::{GnnConfig, GnnKind, Task};
use revelio_graph::{Graph, Target};
use revelio_runtime::{HistogramSnapshot, MetricsSnapshot, SizeHistogramSnapshot};
use revelio_server::wire::{
    encode_frame, ErrorKind, ExplainRequest, GatewayBackendStats, GatewayStats, Request, Response,
    ServedExplanation, ServerStats, WireEvent, WireEventKind, WireExplanationSummary,
    WireStoredExplanation, WireTiming, WireTrace, DEFAULT_MAX_FRAME_LEN, PROTOCOL_VERSION,
};
use revelio_store::{
    fingerprint_model, ExplanationRecord, FlowsRecord, MaskKey, ModelRecord, PhaseSummary,
    StoredMask, FORMAT_VERSION,
};
use revelio_trace::{AssembledSpan, AssembledTrace, Phase, TraceContext};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Compares every case and reports all mismatches at once, so a layout
/// change shows its whole footprint in one run.
#[derive(Default)]
struct Golden {
    mismatches: Vec<String>,
}

impl Golden {
    fn check(&mut self, name: &str, got: &str, want: &str) {
        if got != want {
            self.mismatches
                .push(format!("{name}:\n  got  {got}\n  want {want}"));
        }
    }

    fn frame(&mut self, name: &str, payload: &[u8], want: &str) {
        let frame = encode_frame(payload, DEFAULT_MAX_FRAME_LEN).unwrap();
        self.check(name, &hex(&frame), want);
    }

    fn finish(self) {
        assert!(
            self.mismatches.is_empty(),
            "{} golden mismatches:\n{}",
            self.mismatches.len(),
            self.mismatches.join("\n")
        );
    }
}

fn config() -> GnnConfig {
    GnnConfig {
        kind: GnnKind::Gat,
        task: Task::NodeClassification,
        in_dim: 3,
        hidden_dim: 5,
        num_classes: 2,
        num_layers: 2,
        heads: 4,
        seed: 0x0102_0304_0506_0708,
    }
}

fn graph() -> Graph {
    let mut b = Graph::builder(3, 2);
    b.edge(0, 1).edge(1, 2).edge(2, 0);
    b.all_features(vec![0.5, -1.0, 2.0, 0.0, 0.25, 8.0]);
    b.node_labels(vec![1, 0, 1]);
    b.build()
}

fn context() -> TraceContext {
    TraceContext {
        trace_hi: 0x1111_2222_3333_4444,
        trace_lo: 0x5555_6666_7777_8888,
        parent_span: 9,
        sampled: true,
    }
}

fn degradation() -> Degradation {
    Degradation {
        deadline_hit: true,
        epochs_run: 17,
        epochs_planned: 30,
        flows_dropped: 4,
    }
}

fn histogram(seed: u64) -> HistogramSnapshot {
    HistogramSnapshot {
        buckets: [seed, 2, 0, 0, 1, 0, 3],
        count: seed + 6,
        total_us: 1_000 + seed,
        max_us: 20_000_000,
    }
}

fn server_stats() -> ServerStats {
    ServerStats {
        connections_accepted: 1,
        connections_active: 2,
        bytes_in: 3,
        bytes_out: 4,
        requests: 5,
        shed: 6,
        protocol_errors: 7,
        request_latency: histogram(1),
        trace_sampled: 8,
        trace_dropped: 9,
        runtime: MetricsSnapshot {
            jobs_submitted: 10,
            jobs_started: 11,
            jobs_completed: 12,
            jobs_degraded: 13,
            jobs_failed: 14,
            jobs_rejected: 15,
            queue_depth: 16,
            cache_hits: 17,
            cache_misses: 18,
            queue_wait: histogram(2),
            prep_latency: histogram(3),
            explain_latency: histogram(4),
            phase_extraction: histogram(5),
            phase_flow_index: histogram(6),
            phase_optimize: histogram(7),
            phase_readout: histogram(8),
            epochs_total: 19,
            store_hits: 20,
            store_misses: 21,
            batches: 22,
            batched_jobs: 23,
            batch_size: SizeHistogramSnapshot {
                buckets: [1, 0, 2, 0, 0, 1],
                count: 4,
                total: 40,
                max: 32,
            },
        },
    }
}

#[test]
fn versions_are_pinned() {
    assert_eq!(PROTOCOL_VERSION, 6);
    assert_eq!(FORMAT_VERSION, 1);
}

#[test]
fn request_frames_are_golden() {
    let mut g = Golden::default();
    g.frame(
        "Ping",
        &Request::Ping.encode(),
        "52564c4f0600010000008def02d200",
    );
    g.frame(
        "RegisterModel",
        &Request::RegisterModel {
            config: config(),
            state: vec![vec![1.0, -0.5], vec![], vec![3.25]],
        }
        .encode(),
        concat!(
            "52564c4f06003b0000000ac26cc0010200030000000500000002000000020000",
            "0004000000080706050403020103000000020000000000803f000000bf000000",
            "000100000000005040",
        ),
    );
    g.frame(
        "Explain",
        &Request::Explain(ExplainRequest {
            model: 2,
            graph_id: 0xABCD,
            method: "REVELIO".to_owned(),
            objective: Objective::Counterfactual,
            effort: Effort::Paper,
            target: Target::Node(1),
            control: ControlSpec {
                deadline_ms: Some(250),
                max_flows: 1000,
                shrink_on_overflow: true,
                trace: true,
                warm_start: false,
            },
            graph: graph(),
            context: Some(context()),
        })
        .encode(),
        concat!(
            "52564c4f0600a1000000cef83e510202000000cdab0000000000000700524556",
            "454c494f010101010000000000000001fa00000000000000e803000000000000",
            "0101000300000002000000030000000000000001000000010000000200000002",
            "00000000000000060000000000003f000080bf00000040000000000000803e00",
            "0000410103000000010000000000000001000000000144443333222211118888",
            "777766665555090000000000000001",
        ),
    );
    g.frame(
        "Stats",
        &Request::Stats.encode(),
        "52564c4f06000100000037be0b4b03",
    );
    g.frame(
        "Shutdown",
        &Request::Shutdown.encode(),
        "52564c4f060001000000942b6fd504",
    );
    g.frame(
        "Trace",
        &Request::Trace(41, Some(context())).encode(),
        concat!(
            "52564c4f0600230000003334af78052900000000000000014444333322221111",
            "8888777766665555090000000000000001",
        ),
    );
    g.frame(
        "FetchExplanation",
        &Request::FetchExplanation(42, None).encode(),
        "52564c4f06000a0000000c104bf9062a0000000000000000",
    );
    g.frame(
        "ListExplanations",
        &Request::ListExplanations.encode(),
        "52564c4f0600010000002e7a664c07",
    );
    g.frame(
        "AssembledTrace",
        &Request::AssembledTrace { hi: 1, lo: 2 }.encode(),
        "52564c4f060011000000cf28b2c30801000000000000000200000000000000",
    );
    g.finish();
}

#[test]
fn response_frames_are_golden() {
    let mut g = Golden::default();
    g.frame(
        "Pong",
        &Response::Pong { version: 6 }.encode(),
        "52564c4f060003000000947e1ba9000600",
    );
    g.frame(
        "ModelRegistered",
        &Response::ModelRegistered { model: 3 }.encode(),
        "52564c4f0600050000004371f7e90103000000",
    );
    g.frame(
        "Explained",
        &Response::Explained(ServedExplanation {
            edge_scores: vec![0.25, 0.75, 1.0],
            layer_edge_scores: Some(vec![vec![0.5], vec![0.125, 0.0]]),
            flow_scores: Some(vec![0.9]),
            degradation: degradation(),
            timing: WireTiming {
                queue_us: 1,
                prep_us: 2,
                explain_us: 3,
                total_us: 4,
            },
            trace_id: Some(77),
        })
        .encode(),
        concat!(
            "52564c4f060075000000714ec67a02030000000000803e0000403f0000803f01",
            "02000000010000000000003f020000000000003e000000000101000000666666",
            "3f0111000000000000001e000000000000000400000000000000010000000000",
            "0000020000000000000003000000000000000400000000000000014d00000000",
            "000000",
        ),
    );
    g.frame(
        "Busy",
        &Response::Busy {
            in_flight: 64,
            limit: 64,
        }
        .encode(),
        "52564c4f060009000000bbb20d6d034000000040000000",
    );
    g.frame(
        "Error",
        &Response::Error {
            kind: ErrorKind::UnknownTrace,
            message: "no such trace".to_owned(),
        }
        .encode(),
        "52564c4f0600110000001accfd2204070d006e6f2073756368207472616365",
    );
    g.frame(
        "Stats without gateway tail",
        &Response::Stats(Box::new(server_stats()), None).encode(),
        concat!(
            "52564c4f060082030000ade5d949050100000000000000020000000000000003",
            "0000000000000004000000000000000500000000000000060000000000000007",
            "0000000000000001000000000000000200000000000000000000000000000000",
            "0000000000000001000000000000000000000000000000030000000000000007",
            "00000000000000e903000000000000002d3101000000000a000000000000000b",
            "000000000000000c000000000000000d000000000000000e000000000000000f",
            "0000000000000010000000000000001100000000000000120000000000000013",
            "0000000000000002000000000000000200000000000000000000000000000000",
            "0000000000000001000000000000000000000000000000030000000000000008",
            "00000000000000ea03000000000000002d310100000000030000000000000002",
            "0000000000000000000000000000000000000000000000010000000000000000",
            "0000000000000003000000000000000900000000000000eb0300000000000000",
            "2d31010000000004000000000000000200000000000000000000000000000000",
            "000000000000000100000000000000000000000000000003000000000000000a",
            "00000000000000ec03000000000000002d310100000000050000000000000002",
            "0000000000000000000000000000000000000000000000010000000000000000",
            "0000000000000003000000000000000b00000000000000ed0300000000000000",
            "2d31010000000006000000000000000200000000000000000000000000000000",
            "000000000000000100000000000000000000000000000003000000000000000c",
            "00000000000000ee03000000000000002d310100000000070000000000000002",
            "0000000000000000000000000000000000000000000000010000000000000000",
            "0000000000000003000000000000000d00000000000000ef0300000000000000",
            "2d31010000000008000000000000000200000000000000000000000000000000",
            "000000000000000100000000000000000000000000000003000000000000000e",
            "00000000000000f003000000000000002d310100000000140000000000000015",
            "0000000000000016000000000000001700000000000000010000000000000000",
            "0000000000000002000000000000000000000000000000000000000000000001",
            "0000000000000004000000000000002800000000000000200000000000000000",
            "08000000000000000900000000000000",
        ),
    );
    g.frame(
        "Stats with gateway tail",
        &Response::Stats(
            Box::new(server_stats()),
            Some(Box::new(GatewayStats {
                routed: 1,
                fanout: 2,
                rerouted: 3,
                scatter: 4,
                backends: vec![GatewayBackendStats {
                    addr: "10.0.0.1:7141".to_owned(),
                    healthy: true,
                    consecutive_failures: 5,
                    forwarded: 6,
                    errors: 7,
                    busy: 8,
                    health_checks: 9,
                    cache_hits: 10,
                    cache_misses: 11,
                    jobs_completed: 12,
                }],
            })),
        )
        .encode(),
        concat!(
            "52564c4f0600f20300004a9967d0050100000000000000020000000000000003",
            "0000000000000004000000000000000500000000000000060000000000000007",
            "0000000000000001000000000000000200000000000000000000000000000000",
            "0000000000000001000000000000000000000000000000030000000000000007",
            "00000000000000e903000000000000002d3101000000000a000000000000000b",
            "000000000000000c000000000000000d000000000000000e000000000000000f",
            "0000000000000010000000000000001100000000000000120000000000000013",
            "0000000000000002000000000000000200000000000000000000000000000000",
            "0000000000000001000000000000000000000000000000030000000000000008",
            "00000000000000ea03000000000000002d310100000000030000000000000002",
            "0000000000000000000000000000000000000000000000010000000000000000",
            "0000000000000003000000000000000900000000000000eb0300000000000000",
            "2d31010000000004000000000000000200000000000000000000000000000000",
            "000000000000000100000000000000000000000000000003000000000000000a",
            "00000000000000ec03000000000000002d310100000000050000000000000002",
            "0000000000000000000000000000000000000000000000010000000000000000",
            "0000000000000003000000000000000b00000000000000ed0300000000000000",
            "2d31010000000006000000000000000200000000000000000000000000000000",
            "000000000000000100000000000000000000000000000003000000000000000c",
            "00000000000000ee03000000000000002d310100000000070000000000000002",
            "0000000000000000000000000000000000000000000000010000000000000000",
            "0000000000000003000000000000000d00000000000000ef0300000000000000",
            "2d31010000000008000000000000000200000000000000000000000000000000",
            "000000000000000100000000000000000000000000000003000000000000000e",
            "00000000000000f003000000000000002d310100000000140000000000000015",
            "0000000000000016000000000000001700000000000000010000000000000000",
            "0000000000000002000000000000000000000000000000000000000000000001",
            "0000000000000004000000000000002800000000000000200000000000000001",
            "0100000000000000020000000000000003000000000000000400000000000000",
            "010000000d0031302e302e302e313a3731343101050000000600000000000000",
            "0700000000000000080000000000000009000000000000000a00000000000000",
            "0b000000000000000c0000000000000008000000000000000900000000000000",
        ),
    );
    g.frame(
        "ShutdownAck",
        &Response::ShutdownAck.encode(),
        "52564c4f060001000000b84a613b06",
    );
    g.frame(
        "Trace",
        &Response::Trace(Some(Box::new(WireTrace {
            id: 5,
            dropped: 1,
            events: vec![
                WireEvent {
                    at_ns: 10,
                    kind: WireEventKind::SpanStart {
                        phase: Phase::Optimize,
                    },
                },
                WireEvent {
                    at_ns: 20,
                    kind: WireEventKind::Epoch {
                        index: 0,
                        loss: 1.5,
                        grad_norm: 0.25,
                    },
                },
                WireEvent {
                    at_ns: 30,
                    kind: WireEventKind::CacheProbe { hit: true },
                },
                WireEvent {
                    at_ns: 40,
                    kind: WireEventKind::DeadlineHit { epoch: 1 },
                },
                WireEvent {
                    at_ns: 50,
                    kind: WireEventKind::Note("warm".to_owned()),
                },
                WireEvent {
                    at_ns: 60,
                    kind: WireEventKind::SpanEnd {
                        phase: Phase::Readout,
                        dur_ns: 50,
                    },
                },
            ],
        })))
        .encode(),
        concat!(
            "52564c4f06006d0000002c7c67a1070105000000000000000100000000000000",
            "060000000a000000000000000002140000000000000002000000000000c03f00",
            "00803e1e00000000000000030128000000000000000401000000320000000000",
            "00000504007761726d3c0000000000000001033200000000000000",
        ),
    );
    g.frame(
        "Trace miss",
        &Response::Trace(None).encode(),
        "52564c4f0600020000003884980e0700",
    );
    g.frame(
        "Assembled",
        &Response::Assembled(Box::new(AssembledTrace {
            trace_hi: 1,
            trace_lo: 2,
            lanes: vec!["gateway".to_owned(), "backend".to_owned()],
            spans: vec![AssembledSpan {
                lane: 1,
                name: "optimize".to_owned(),
                start_us: 3,
                dur_us: 4,
            }],
            dropped: 0,
        }))
        .encode(),
        concat!(
            "52564c4f06005100000011629f7d0a0100000000000000020000000000000000",
            "000000000000000200000007006761746577617907006261636b656e64010000",
            "000100000008006f7074696d697a6503000000000000000400000000000000",
        ),
    );
    g.frame(
        "Explanation",
        &Response::Explanation(Some(Box::new(WireStoredExplanation {
            job_id: 41,
            model: 1,
            graph_id: 7,
            target: Target::Graph,
            layers: 2,
            edge_scores: vec![0.5],
            layer_edge_scores: None,
            flow_scores: Some(vec![0.25, 0.75]),
            degradation: degradation(),
            queue_us: 5,
            prep_us: 6,
            explain_us: 7,
            has_mask: true,
        })))
        .encode(),
        concat!(
            "52564c4f0600630000004d9f19d6080129000000000000000100000007000000",
            "000000000002000000010000000000003f0001020000000000803e0000403f01",
            "11000000000000001e0000000000000004000000000000000500000000000000",
            "0600000000000000070000000000000001",
        ),
    );
    g.frame(
        "ExplanationList",
        &Response::ExplanationList(vec![WireExplanationSummary {
            job_id: 41,
            model: 1,
            graph_id: 7,
            target: Target::Node(3),
            layers: 2,
            degraded: false,
            has_mask: true,
        }])
        .encode(),
        concat!(
            "52564c4f060028000000baf71d0f090100000029000000000000000100000007",
            "00000000000000010300000000000000020000000001",
        ),
    );
    g.finish();
}

#[test]
fn store_records_are_golden() {
    let state = vec![vec![1.0, -0.5], vec![], vec![3.25]];
    let mut g = Golden::default();

    let mut buf = Vec::new();
    ModelRecord {
        model_id: 2,
        fingerprint: fingerprint_model(&config(), &state),
        config: config(),
        state,
    }
    .encode(&mut buf);
    g.check(
        "ModelRecord",
        &hex(&buf),
        concat!(
            "020000007ed132d6fbf028b00200030000000500000002000000020000000400",
            "0000080706050403020103000000020000000000803f000000bf000000000100",
            "000000005040",
        ),
    );

    let mut buf = Vec::new();
    FlowsRecord {
        graph_id: 9,
        target: Target::Node(2),
        layers: 2,
        max_flows: 100,
        layer_edge_count: 5,
        flow_edges: vec![0, 1, 4, 2],
        dropped: 3,
    }
    .encode(&mut buf);
    g.check(
        "FlowsRecord",
        &hex(&buf),
        concat!(
            "0900000000000000010200000000000000020000006400000000000000050000",
            "0004000000000000000100000004000000020000000300000000000000",
        ),
    );

    let mut buf = Vec::new();
    ExplanationRecord {
        job_id: 41,
        key: MaskKey {
            model_id: 0,
            graph_id: 7,
            target: Target::Node(2),
            layers: 2,
        },
        model_fingerprint: 0xDEAD_BEEF,
        edge_scores: vec![0.25, 0.75],
        layer_edge_scores: Some(vec![vec![0.1, 0.2], vec![0.3]]),
        flow_scores: Some(vec![0.9, 0.1]),
        degradation: degradation(),
        phases: PhaseSummary {
            queue_us: 5,
            prep_us: 14,
            explain_us: 2000,
        },
        mask: Some(StoredMask {
            mask_params: vec![0.4, -0.1],
            layer_weights: vec![vec![0.5]],
            selected: vec![0, 2],
        }),
    }
    .encode(&mut buf);
    g.check(
        "ExplanationRecord",
        &hex(&buf),
        concat!(
            "2900000000000000000000000700000000000000010200000000000000020000",
            "00efbeadde00000000020000000000803e0000403f010200000002000000cdcc",
            "cc3dcdcc4c3e010000009a99993e01020000006666663fcdcccc3d0111000000",
            "000000001e00000000000000040000000000000005000000000000000e000000",
            "00000000d0070000000000000102000000cdcccc3ecdccccbd01000000010000",
            "000000003f020000000000000002000000",
        ),
    );
    g.finish();
}

#[test]
fn model_fingerprint_is_golden() {
    let mut g = Golden::default();
    for (name, state, want) in [
        ("empty state", vec![], "5512876a37c8be9d"),
        (
            "three tensors",
            vec![vec![1.0, -0.5], vec![], vec![3.25]],
            "b028f0fbd632d17e",
        ),
    ] {
        let got = format!("{:016x}", fingerprint_model(&config(), &state));
        g.check(name, &got, want);
    }
    g.finish();
}
