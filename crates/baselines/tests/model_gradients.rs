//! Explaining a model must not write gradients into it.
//!
//! Every explainer that backpropagates — REVELIO (including its
//! preselection probe and the fused batch), GNNExplainer, FlowX, GraphMask,
//! PGExplainer, GradCAM and DeepLIFT — differentiates only with respect to
//! its own parameters. The model's weights are constants while it is
//! explained: a serving worker explains request after request with the same
//! model, and gradients written into its weights would never be cleared.
//!
//! Each method's scores are pinned too (an FNV-1a digest of their `to_bits`),
//! so restricting the backward pass cannot change any answer.

#![allow(clippy::unwrap_used)]

use revelio_baselines::{
    DeepLift, FlowX, FlowXConfig, GnnExplainer, GnnExplainerConfig, GradCam, GraphMask,
    GraphMaskConfig, PgExplainer, PgExplainerConfig,
};
use revelio_core::{BatchItem, BatchedOptimizer, Explainer, Explanation, Revelio, RevelioConfig};
use revelio_gnn::{
    train_graph_classifier, train_node_classifier, Gnn, GnnConfig, GnnKind, Instance, Task,
    TrainConfig,
};
use revelio_graph::{Graph, Target};

fn digest(e: &Explanation) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |scores: &[f32]| {
        for s in scores {
            for b in s.to_bits().to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    };
    eat(&e.edge_scores);
    for layer in e.layer_edge_scores.iter().flatten() {
        eat(layer);
    }
    if let Some(flows) = &e.flows {
        eat(&flows.scores);
    }
    h
}

/// Two communities joined by a bridge; the label is the community.
fn node_graph() -> Graph {
    let mut b = Graph::builder(8, 2);
    b.undirected_edge(0, 1)
        .undirected_edge(1, 2)
        .undirected_edge(2, 3)
        .undirected_edge(0, 2)
        .undirected_edge(4, 5)
        .undirected_edge(5, 6)
        .undirected_edge(6, 7)
        .undirected_edge(3, 4);
    let labels = vec![0, 0, 0, 0, 1, 1, 1, 1];
    for (v, &label) in labels.iter().enumerate() {
        let c = label as f32;
        b.node_features(v, &[1.0 - c, c]);
    }
    b.node_labels(labels);
    b.build()
}

/// Triangles (class 1) and paths (class 0).
fn graph_set() -> Vec<Graph> {
    (0..4)
        .map(|i| {
            let mut b = Graph::builder(4, 2);
            b.undirected_edge(0, 1)
                .undirected_edge(1, 2)
                .undirected_edge(2, 3);
            if i % 2 == 1 {
                b.undirected_edge(0, 2);
            }
            for v in 0..4 {
                b.node_features(v, &[1.0, 0.25 * v as f32]);
            }
            b.graph_label(i % 2);
            b.build()
        })
        .collect()
}

/// The positions in [`Gnn::params`] of the parameters holding a gradient.
fn params_with_grad(model: &Gnn) -> Vec<usize> {
    model
        .params()
        .iter()
        .enumerate()
        .filter(|(_, p)| p.has_grad())
        .map(|(i, _)| i)
        .collect()
}

/// Runs `explain` on a trained model whose training gradients were
/// cleared, and records which parameters it left a gradient on.
fn run(
    out: &mut Vec<(String, u64, Vec<usize>)>,
    name: &str,
    model: &Gnn,
    explain: impl FnOnce() -> Vec<Explanation>,
) {
    for p in model.params() {
        p.zero_grad();
    }
    let exps = explain();
    let dirty = params_with_grad(model);
    for (j, e) in exps.iter().enumerate() {
        out.push((format!("{name} {j}"), digest(e), dirty.clone()));
    }
}

fn all_methods() -> Vec<(String, u64, Vec<usize>)> {
    let mut out = Vec::new();
    let g = node_graph();
    let model = Gnn::new(GnnConfig::standard(
        GnnKind::Gcn,
        Task::NodeClassification,
        2,
        2,
        17,
    ));
    train_node_classifier(
        &model,
        &g,
        &(0..8).collect::<Vec<_>>(),
        &TrainConfig {
            epochs: 60,
            weight_decay: 0.0,
            ..Default::default()
        },
    );
    let inst = Instance::for_prediction(&model, g.clone(), Target::Node(1));
    let other = Instance::for_prediction(&model, g, Target::Node(6));
    let revelio = |preselect| {
        Revelio::new(RevelioConfig {
            epochs: 20,
            preselect,
            ..Default::default()
        })
    };

    run(&mut out, "REVELIO", &model, || {
        vec![revelio(None).explain(&model, &inst)]
    });
    run(&mut out, "REVELIO preselect", &model, || {
        vec![revelio(Some(4)).explain(&model, &inst)]
    });
    run(&mut out, "REVELIO fused batch", &model, || {
        let items = [&inst, &other].map(|instance| BatchItem {
            instance,
            seed: 3,
            flow_index: None,
        });
        let opt = BatchedOptimizer::new(RevelioConfig {
            epochs: 20,
            ..Default::default()
        });
        assert!(opt.fusable(&model, &items));
        opt.explain_batch(&model, &items).unwrap()
    });
    run(&mut out, "GNNExplainer", &model, || {
        vec![GnnExplainer::new(GnnExplainerConfig {
            epochs: 20,
            ..Default::default()
        })
        .explain(&model, &inst)]
    });
    run(&mut out, "FlowX", &model, || {
        vec![FlowX::new(FlowXConfig {
            samples: 5,
            epochs: 10,
            ..Default::default()
        })
        .explain(&model, &inst)]
    });
    run(&mut out, "GraphMask", &model, || {
        vec![GraphMask::new(GraphMaskConfig {
            epochs: 4,
            ..Default::default()
        })
        .explain(&model, &inst)]
    });
    run(&mut out, "PGExplainer", &model, || {
        vec![PgExplainer::new(PgExplainerConfig {
            epochs: 3,
            ..Default::default()
        })
        .explain(&model, &inst)]
    });
    run(&mut out, "GradCAM", &model, || {
        vec![GradCam.explain(&model, &inst)]
    });
    run(&mut out, "DeepLIFT", &model, || {
        vec![DeepLift.explain(&model, &inst)]
    });

    let graphs = graph_set();
    let gmodel = Gnn::new(GnnConfig::standard(
        GnnKind::Gin,
        Task::GraphClassification,
        2,
        2,
        19,
    ));
    train_graph_classifier(
        &gmodel,
        &graphs,
        &[0, 1, 2, 3],
        &TrainConfig {
            epochs: 10,
            batch_size: 2,
            ..Default::default()
        },
    );
    let ginst = Instance::for_prediction(&gmodel, graphs[1].clone(), Target::Graph);
    run(&mut out, "REVELIO graph", &gmodel, || {
        vec![revelio(None).explain(&gmodel, &ginst)]
    });
    run(&mut out, "GradCAM graph", &gmodel, || {
        vec![GradCam.explain(&gmodel, &ginst)]
    });
    out
}

/// Digests computed before explainers restricted their backward pass.
const GOLDEN: &[(&str, u64)] = &[
    ("REVELIO 0", 0x8428e003a84330bf),
    ("REVELIO preselect 0", 0x86037651ce28229a),
    ("REVELIO fused batch 0", 0xdbe533045b5fd17f),
    ("REVELIO fused batch 1", 0xffc199a6f428ef19),
    ("GNNExplainer 0", 0x715b753d2617f88d),
    ("FlowX 0", 0xc49901ee4c8d8bcf),
    ("GraphMask 0", 0xc75b932ce1aa4bbe),
    ("PGExplainer 0", 0x49b327ff456980d4),
    ("GradCAM 0", 0x88fd8c7427ed7985),
    ("DeepLIFT 0", 0x88c6c363f31385e9),
    ("REVELIO graph 0", 0x966d2a84806b6bb2),
    ("GradCAM graph 0", 0x5d3cd615fafd977d),
];

#[test]
fn explaining_leaves_no_gradient_on_the_model_and_scores_unchanged() {
    let got = all_methods();
    let dirty: Vec<String> = got
        .iter()
        .filter(|(_, _, params)| !params.is_empty())
        .map(|(name, _, params)| format!("{name}: parameters {params:?} hold a gradient"))
        .collect();
    let moved: Vec<String> = got
        .iter()
        .enumerate()
        .filter(|(i, (name, h, _))| GOLDEN.get(*i) != Some(&(name.as_str(), *h)))
        .map(|(_, (name, h, _))| format!("    (\"{name}\", 0x{h:016x}),"))
        .collect();
    assert!(
        dirty.is_empty() && moved.is_empty() && GOLDEN.len() == got.len(),
        "explaining wrote gradients into the model:\n{}\n{} of {} score digests differ; \
         computed:\n{}",
        dirty.join("\n"),
        moved.len(),
        got.len(),
        moved.join("\n")
    );
}
