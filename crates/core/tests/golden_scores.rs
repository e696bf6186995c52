//! Golden REVELIO scores.
//!
//! Every case explains a fixed small instance with a fixed configuration
//! and pins the exact bits of the answer: an FNV-1a digest over the
//! little-endian `to_bits` of the edge scores, then the layer-edge scores
//! layer by layer, then the flow scores. A change to the optimize path that
//! moves a single bit of any score fails here, so a pure speed-up must leave
//! this file untouched.
//!
//! Cases cover GCN, GIN and GAT; node and graph targets; factual and
//! counterfactual objectives; the serving controls (cold, warm start applied
//! and rejected, an expired deadline, the `shrink_on_overflow` flow cap,
//! flow preselection); and the fused multi-job batch.

#![allow(clippy::unwrap_used)]

use std::sync::Arc;
use std::time::Duration;

use revelio_core::{
    BatchItem, BatchedOptimizer, ConvergedMask, Deadline, ExplainControl, Explanation, Objective,
    Revelio, RevelioConfig,
};
use revelio_gnn::{
    train_graph_classifier, train_node_classifier, Gnn, GnnConfig, GnnKind, Instance, Task,
    TrainConfig,
};
use revelio_graph::{khop_subgraph, Graph, Target};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(h: &mut u64, scores: &[f32]) {
    for s in scores {
        for b in s.to_bits().to_le_bytes() {
            *h ^= u64::from(b);
            *h = h.wrapping_mul(FNV_PRIME);
        }
    }
}

/// Digest of every score an explanation carries, in a fixed order.
fn digest(e: &Explanation) -> u64 {
    let mut h = FNV_OFFSET;
    fnv(&mut h, &e.edge_scores);
    for layer in e.layer_edge_scores.as_ref().expect("REVELIO layer scores") {
        fnv(&mut h, layer);
    }
    fnv(
        &mut h,
        &e.flows.as_ref().expect("REVELIO flow scores").scores,
    );
    h
}

/// A 14-node tree with a 4-cycle hung off node 5 and a pendant node 13.
/// Cycle nodes are class 1, tree leaves class 2, the rest class 0.
fn node_graph() -> Graph {
    let mut b = Graph::builder(14, 3);
    for (u, v) in [
        (0, 1),
        (0, 2),
        (1, 3),
        (1, 4),
        (2, 5),
        (2, 6),
        (3, 7),
        (4, 8),
        (5, 9),
        (9, 10),
        (10, 11),
        (11, 12),
        (12, 9),
        (6, 13),
    ] {
        b.undirected_edge(u, v);
    }
    for v in 0..14 {
        let f = [
            f32::from(u8::from(v % 3 == 0)),
            f32::from(u8::from(v % 3 == 1)),
            0.1 * v as f32 / 14.0,
        ];
        b.node_features(v, &f);
    }
    let labels = (0..14)
        .map(|v| match v {
            9..=12 => 1,
            7 | 8 | 13 => 2,
            _ => 0,
        })
        .collect();
    b.node_labels(labels);
    b.build()
}

/// Six small graphs: a triangle with a tail (class 1) or a path (class 0).
fn graph_set() -> Vec<Graph> {
    (0..6)
        .map(|i| {
            let n = 5 + i % 2;
            let mut b = Graph::builder(n, 2);
            for v in 0..n - 1 {
                b.undirected_edge(v, v + 1);
            }
            let label = i % 2;
            if label == 1 {
                b.undirected_edge(0, 2);
            }
            for v in 0..n {
                b.node_features(v, &[1.0, 0.2 * v as f32]);
            }
            b.graph_label(label);
            b.build()
        })
        .collect()
}

fn node_model(kind: GnnKind, g: &Graph) -> Gnn {
    let model = Gnn::new(GnnConfig::standard(
        kind,
        Task::NodeClassification,
        3,
        3,
        17,
    ));
    let train: Vec<usize> = (0..14).collect();
    train_node_classifier(
        &model,
        g,
        &train,
        &TrainConfig {
            epochs: 40,
            ..Default::default()
        },
    );
    model
}

fn graph_model(kind: GnnKind, graphs: &[Graph]) -> Gnn {
    let model = Gnn::new(GnnConfig::standard(
        kind,
        Task::GraphClassification,
        2,
        2,
        23,
    ));
    let train: Vec<usize> = (0..graphs.len()).collect();
    train_graph_classifier(
        &model,
        graphs,
        &train,
        &TrainConfig {
            epochs: 15,
            batch_size: 3,
            ..Default::default()
        },
    );
    model
}

/// The 3-hop computation subgraph of cycle node 9.
fn khop_instance(model: &Gnn, g: &Graph) -> Instance {
    let sub = khop_subgraph(g, 9, 3);
    Instance::for_prediction(model, sub.graph, Target::Node(sub.target))
}

/// Leaf 7 explained on the whole graph: most nodes lie outside its
/// receptive field.
fn whole_graph_instance(model: &Gnn, g: &Graph) -> Instance {
    Instance::for_prediction(model, g.clone(), Target::Node(7))
}

fn cfg(epochs: usize, objective: Objective) -> RevelioConfig {
    RevelioConfig {
        epochs,
        objective,
        seed: 5,
        ..Default::default()
    }
}

fn explain(model: &Gnn, inst: &Instance, cfg: RevelioConfig, ctl: &ExplainControl) -> u64 {
    let out = Revelio::new(cfg)
        .try_explain_controlled(model, inst, ctl)
        .unwrap();
    digest(&out.explanation)
}

fn cold(model: &Gnn, inst: &Instance, cfg: RevelioConfig) -> u64 {
    explain(model, inst, cfg, &ExplainControl::default())
}

/// Computes every case's digest, in a fixed order.
fn all_cases() -> Vec<(String, u64)> {
    let g = node_graph();
    let graphs = graph_set();
    let mut out: Vec<(String, u64)> = Vec::new();

    for kind in [GnnKind::Gcn, GnnKind::Gin, GnnKind::Gat] {
        let name = kind.name();
        let model = node_model(kind, &g);
        let khop = khop_instance(&model, &g);
        let whole = whole_graph_instance(&model, &g);
        out.push((
            format!("{name} node khop factual"),
            cold(&model, &khop, cfg(25, Objective::Factual)),
        ));
        out.push((
            format!("{name} node khop counterfactual"),
            cold(&model, &khop, cfg(25, Objective::Counterfactual)),
        ));
        out.push((
            format!("{name} node whole-graph factual"),
            cold(&model, &whole, cfg(25, Objective::Factual)),
        ));
        out.push((
            format!("{name} node khop preselect"),
            cold(
                &model,
                &khop,
                RevelioConfig {
                    preselect: Some(12),
                    ..cfg(20, Objective::Factual)
                },
            ),
        ));

        let gmodel = graph_model(kind, &graphs);
        let ginst = Instance::for_prediction(&gmodel, graphs[1].clone(), Target::Graph);
        out.push((
            format!("{name} graph factual"),
            cold(&gmodel, &ginst, cfg(25, Objective::Factual)),
        ));
        out.push((
            format!("{name} graph counterfactual"),
            cold(&gmodel, &ginst, cfg(25, Objective::Counterfactual)),
        ));
    }

    // Serving controls on the GCN node model.
    let model = node_model(GnnKind::Gcn, &g);
    let khop = khop_instance(&model, &g);
    let base = cfg(200, Objective::Factual);
    let cold_run = Revelio::new(base)
        .try_explain_controlled(&model, &khop, &ExplainControl::default())
        .unwrap();
    let converged = cold_run.converged_mask.clone().unwrap();
    out.push(("GCN control cold".into(), digest(&cold_run.explanation)));
    let warm = Revelio::new(base)
        .try_explain_controlled(
            &model,
            &khop,
            &ExplainControl {
                warm_start: Some(Arc::new(converged.clone())),
                ..Default::default()
            },
        )
        .unwrap();
    assert!(
        warm.degradation.epochs_run < base.epochs,
        "the warm start must be applied and stop early"
    );
    out.push((
        "GCN control warm start applied".into(),
        digest(&warm.explanation),
    ));
    out.push((
        "GCN control warm start rejected".into(),
        explain(
            &model,
            &khop,
            base,
            &ExplainControl {
                warm_start: Some(Arc::new(ConvergedMask {
                    mask_params: vec![3.0],
                    layer_weights: converged.layer_weights.clone(),
                    selected: vec![0],
                })),
                ..Default::default()
            },
        ),
    ));
    out.push((
        "GCN control expired deadline".into(),
        explain(
            &model,
            &khop,
            base,
            &ExplainControl::with_deadline(Deadline::within(Duration::ZERO)),
        ),
    ));
    let capped = Revelio::new(RevelioConfig {
        max_flows: 9,
        ..cfg(25, Objective::Factual)
    })
    .try_explain_controlled(
        &model,
        &khop,
        &ExplainControl {
            shrink_on_overflow: true,
            ..Default::default()
        },
    )
    .unwrap();
    assert!(
        capped.degradation.flows_dropped > 0,
        "the cap must cut flows"
    );
    out.push((
        "GCN control shrink_on_overflow cap".into(),
        digest(&capped.explanation),
    ));
    out.push((
        "GCN control counterfactual preselect".into(),
        cold(
            &model,
            &whole_graph_instance(&model, &g),
            RevelioConfig {
                preselect: Some(5),
                ..cfg(20, Objective::Counterfactual)
            },
        ),
    ));

    // The fused multi-job batch.
    for (kind, objective) in [
        (GnnKind::Gcn, Objective::Factual),
        (GnnKind::Gat, Objective::Counterfactual),
    ] {
        let model = node_model(kind, &g);
        let insts = [
            khop_instance(&model, &g),
            whole_graph_instance(&model, &g),
            Instance::for_prediction(&model, g.clone(), Target::Node(12)),
        ];
        let items: Vec<BatchItem<'_>> = insts
            .iter()
            .enumerate()
            .map(|(j, instance)| BatchItem {
                instance,
                seed: 30 + j as u64,
                flow_index: None,
            })
            .collect();
        let opt = BatchedOptimizer::new(cfg(20, objective));
        assert!(
            opt.fusable(&model, &items),
            "the batch must take the fused path"
        );
        for (j, e) in opt
            .explain_batch(&model, &items)
            .unwrap()
            .iter()
            .enumerate()
        {
            out.push((format!("{} fused batch job {j}", kind.name()), digest(e)));
        }
    }
    out
}

const GOLDEN: &[(&str, u64)] = &[
    ("GCN node khop factual", 0xcb92d82cbbc46649),
    ("GCN node khop counterfactual", 0x71f21210e7949741),
    ("GCN node whole-graph factual", 0xf33ab5663a5fb83c),
    ("GCN node khop preselect", 0x86545dbb7cfcf91b),
    ("GCN graph factual", 0x32ffeaba3e7b608d),
    ("GCN graph counterfactual", 0x16116002c0eb5455),
    ("GIN node khop factual", 0xa18ea56c861e3fbe),
    ("GIN node khop counterfactual", 0x1a5db5f0e75d6520),
    ("GIN node whole-graph factual", 0x0a43a1b8e29b17b1),
    ("GIN node khop preselect", 0x54fc491e30c922a2),
    ("GIN graph factual", 0x2750351c12ae4d42),
    ("GIN graph counterfactual", 0x64f96ed770fdaca6),
    ("GAT node khop factual", 0x4c1f3d8f0355c280),
    ("GAT node khop counterfactual", 0xfcba7047c2100420),
    ("GAT node whole-graph factual", 0xdc30990e9d62c067),
    ("GAT node khop preselect", 0xb7fbf2909f5ebc47),
    ("GAT graph factual", 0xc15e33ce2fb1d371),
    ("GAT graph counterfactual", 0xf90803247766c82f),
    ("GCN control cold", 0xedf45afb06d7433d),
    ("GCN control warm start applied", 0xa1c97fc3742ae630),
    ("GCN control warm start rejected", 0xedf45afb06d7433d),
    ("GCN control expired deadline", 0x83c5fef68d250d08),
    ("GCN control shrink_on_overflow cap", 0xeae5d5d8cd36c75c),
    ("GCN control counterfactual preselect", 0x6963502afb3177dc),
    ("GCN fused batch job 0", 0x3d929c407793257d),
    ("GCN fused batch job 1", 0x6b78b1db2c777353),
    ("GCN fused batch job 2", 0xaf711301c5a1ff97),
    ("GAT fused batch job 0", 0x4ce96d06c860fc01),
    ("GAT fused batch job 1", 0xf5618685115cb4b5),
    ("GAT fused batch job 2", 0x4fcd8503ee8947ca),
];

#[test]
fn revelio_scores_match_golden_bits() {
    let got = all_cases();
    let mismatches: Vec<String> = got
        .iter()
        .enumerate()
        .filter(|(i, (name, h))| GOLDEN.get(*i) != Some(&(name.as_str(), *h)))
        .map(|(_, (name, h))| format!("    (\"{name}\", 0x{h:016x}),"))
        .collect();
    assert!(
        mismatches.is_empty() && GOLDEN.len() == got.len(),
        "{} of {} golden digests differ; computed:\n{}",
        mismatches.len(),
        got.len(),
        mismatches.join("\n")
    );
}
