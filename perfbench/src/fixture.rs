//! The fixed deployment every workload runs against: a synthetic dataset,
//! a GCN trained on it fresh in every run, and a pool of sampled
//! explanation instances. The workload seed never reaches this module; it
//! only decides which pool entries the request stream draws, and in which
//! order.

use revelio_core::wire::ControlSpec;
use revelio_core::Objective;
use revelio_datasets::{ba_shapes, tree_cycles, Dataset, NodeDataset};
use revelio_eval::{flow_cap, sample_instances, train_config_for, Effort, SamplingConfig};
use revelio_gnn::{train_node_classifier, Gnn, GnnConfig, GnnKind, Instance, Task};
use revelio_graph::{count_flows, Graph, Target};
use revelio_server::ExplainRequest;

/// Seeds of the fixed deployment (dataset, model, instance pool).
const DATA_SEED: u64 = 1;
const MODEL_SEED: u64 = 2;
const POOL_SEED: u64 = 3;

/// Every request runs at Quick effort: 100 REVELIO epochs, flow cap 60k.
pub const EFFORT: Effort = Effort::Quick;

/// One pool entry: the request input and its properties (shareable across
/// client threads, unlike the prepared [`Instance`]).
pub struct Item {
    pub graph: Graph,
    pub target: Target,
    /// Stable id of the instance (its artifact-cache and store key).
    pub graph_id: u64,
    /// |F|: message flows reaching the target through all layers.
    pub flows: u64,
    /// Layer edges (original edges plus self-loops).
    pub layer_edges: usize,
}

pub struct Fixture {
    pub model: Gnn,
    pub pool: Vec<Item>,
    /// `pool[i]` prepared for the model (forward pass done).
    pub instances: Vec<Instance>,
}

/// Tree-Cycles with a 3-layer GCN; `pool` sampled 3-hop instances, in
/// sampling order.
pub fn tree_cycles_fixture(pool: usize) -> Fixture {
    build(tree_cycles(DATA_SEED), pool, 1)
}

/// BA-Shapes with a 3-layer GCN; `pool` 3-hop instances spanning the
/// heavy-tailed |F| distribution: `pool * stride` are sampled, ranked by
/// |F| from the largest, and every `stride`-th is kept.
pub fn ba_shapes_fixture(pool: usize, stride: usize) -> Fixture {
    build(ba_shapes(DATA_SEED), pool, stride)
}

fn build(data: NodeDataset, pool: usize, stride: usize) -> Fixture {
    let model = Gnn::new(GnnConfig::standard(
        GnnKind::Gcn,
        Task::NodeClassification,
        data.graph.feat_dim(),
        data.num_classes,
        MODEL_SEED,
    ));
    let dataset = Dataset::Node(data);
    let Dataset::Node(d) = &dataset else {
        unreachable!()
    };
    train_node_classifier(
        &model,
        &d.graph,
        &d.split.train,
        &train_config_for(&dataset, EFFORT, MODEL_SEED),
    );
    let sampled = sample_instances(
        &dataset,
        &model,
        &SamplingConfig {
            count: pool * stride,
            max_flows: flow_cap(EFFORT) as u64,
            only_motif_correct: false,
            seed: POOL_SEED,
        },
    );
    assert_eq!(
        sampled.len(),
        pool * stride,
        "dataset too small for the pool"
    );
    let layers = model.num_layers();
    let mut sampled: Vec<(u64, _)> = sampled
        .into_iter()
        .map(|e| (count_flows(&e.instance.mp, layers, e.instance.target), e))
        .collect();
    if stride > 1 {
        sampled.sort_by_key(|(flows, _)| std::cmp::Reverse(*flows));
    }
    let sampled: Vec<_> = sampled.into_iter().step_by(stride).collect();
    let pool = sampled
        .iter()
        .map(|(flows, e)| Item {
            graph: e.instance.graph.clone(),
            target: e.instance.target,
            graph_id: e.graph_id,
            flows: *flows,
            layer_edges: e.instance.mp.layer_edge_count(),
        })
        .collect();
    let instances = sampled.into_iter().map(|(_, e)| e.instance).collect();
    Fixture {
        model,
        pool,
        instances,
    }
}

/// The wire request explaining `item` under `graph_id`.
pub fn request(
    model: u32,
    item: &Item,
    graph_id: u64,
    objective: Objective,
    warm_start: bool,
) -> ExplainRequest {
    ExplainRequest {
        model,
        graph_id,
        method: "REVELIO".to_owned(),
        objective,
        effort: EFFORT,
        target: item.target,
        control: ControlSpec {
            max_flows: flow_cap(EFFORT) as u64,
            warm_start,
            ..ControlSpec::default()
        },
        graph: item.graph.clone(),
        context: None,
    }
}

/// SplitMix64: the benchmark's only source of randomness.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform draw in `[0, 1)` for stream position `i` under `seed`.
pub fn unit(seed: u64, i: u64) -> f64 {
    (mix(seed ^ mix(i)) >> 11) as f64 / (1u64 << 53) as f64
}

/// A seed-derived permutation of `0..n` (Fisher–Yates).
pub fn permutation(seed: u64, n: usize) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (unit(seed, i as u64) * (i + 1) as f64) as usize;
        p.swap(i, j.min(i));
    }
    p
}
