//! Sampling explanation instances from datasets (§V-B "Specification":
//! randomly selected target instances per dataset).

use std::collections::HashSet;
use std::fmt;
use std::hash::Hasher;
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use revelio_core::wire::Fnv1a;
use revelio_datasets::Dataset;
use revelio_gnn::{Gnn, Instance};
use revelio_graph::{count_flows, khop_subgraph, MpGraph, Target};
use revelio_runtime::ArtifactCache;

/// How instances are sampled.
#[derive(Debug, Clone, Copy)]
pub struct SamplingConfig {
    /// Number of instances (the paper uses 50).
    pub count: usize,
    /// Skip instances whose message-flow count exceeds this cap (keeps
    /// flow-based methods tractable; skipped instances are reported).
    pub max_flows: u64,
    /// Restrict to motif-member targets with correct predictions (the
    /// Table IV AUC protocol).
    pub only_motif_correct: bool,
    pub seed: u64,
}

impl Default for SamplingConfig {
    fn default() -> Self {
        SamplingConfig {
            count: 50,
            max_flows: 300_000,
            only_motif_correct: false,
            seed: 0,
        }
    }
}

/// One sampled evaluation instance.
pub struct EvalInstance {
    /// The prepared instance (for node tasks: the `L`-hop subgraph).
    pub instance: Instance,
    /// The sampled node or graph id in the original dataset.
    pub dataset_index: usize,
    /// Stable content id of `instance.graph`, derived from the dataset name
    /// and the sampled index. Used as the serving runtime's artifact-cache
    /// key, so every explainer run against this instance shares one flow
    /// enumeration.
    pub graph_id: u64,
    /// Ground-truth motif edge labels per instance-graph edge, when the
    /// dataset has planted motifs.
    pub ground_truth: Option<Vec<bool>>,
}

/// FNV-1a over the dataset name plus a task/index tag: a stable,
/// collision-resistant-enough id for artifact-cache keys (distinct datasets
/// and indices map to distinct ids with overwhelming probability).
fn stable_graph_id(dataset_name: &str, tag: u8, index: usize) -> u64 {
    let mut h = Fnv1a::default();
    h.write(dataset_name.as_bytes());
    h.write(&[tag]);
    h.write(&(index as u64).to_le_bytes());
    h.finish()
}

/// Why [`try_sample_instances`] could not sample from a dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplingError {
    /// `only_motif_correct` needs node labels the dataset does not carry.
    MissingNodeLabels,
    /// `only_motif_correct` needs a graph label this graph does not carry.
    MissingGraphLabel {
        /// Index of the unlabelled graph in the dataset.
        graph: usize,
    },
}

impl fmt::Display for SamplingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SamplingError::MissingNodeLabels => {
                write!(
                    f,
                    "only_motif_correct requires node labels, but the dataset has none"
                )
            }
            SamplingError::MissingGraphLabel { graph } => {
                write!(
                    f,
                    "only_motif_correct requires a label for graph {graph}, which has none"
                )
            }
        }
    }
}

impl std::error::Error for SamplingError {}

/// Samples explanation instances from `dataset` for `model`.
///
/// Infallible wrapper over [`try_sample_instances`].
///
/// # Panics
///
/// Panics when `cfg.only_motif_correct` is set and the dataset lacks the
/// labels the filter needs; use [`try_sample_instances`] to handle that as
/// a value.
pub fn sample_instances(dataset: &Dataset, model: &Gnn, cfg: &SamplingConfig) -> Vec<EvalInstance> {
    try_sample_instances(dataset, model, cfg).unwrap_or_else(|e| panic!("sample_instances: {e}"))
}

/// [`sample_instances`], routed through a runtime artifact cache.
///
/// # Panics
///
/// As [`sample_instances`].
pub fn sample_instances_cached(
    dataset: &Dataset,
    model: &Gnn,
    cfg: &SamplingConfig,
    cache: &ArtifactCache,
) -> Vec<EvalInstance> {
    try_sample_instances_cached(dataset, model, cfg, cache)
        .unwrap_or_else(|e| panic!("sample_instances: {e}"))
}

/// Samples explanation instances from `dataset` for `model`.
///
/// Node-classification instances are the 3-hop computation subgraphs around
/// randomly chosen target nodes; graph-classification instances are randomly
/// chosen graphs. Instances with no edges or with more than
/// `cfg.max_flows` message flows are skipped (sampling continues until
/// `cfg.count` instances are collected or candidates run out).
///
/// # Errors
///
/// Returns a [`SamplingError`] when `cfg.only_motif_correct` is set and the
/// dataset lacks the node or graph labels the filter needs.
pub fn try_sample_instances(
    dataset: &Dataset,
    model: &Gnn,
    cfg: &SamplingConfig,
) -> Result<Vec<EvalInstance>, SamplingError> {
    sample_inner(dataset, model, cfg, None)
}

/// [`try_sample_instances`], routed through a runtime artifact cache:
/// `L`-hop subgraphs are fetched from (or inserted into) the cache, and the
/// flow index of every *accepted* instance is pre-built into it, so the
/// explainers served against these instances start with cache hits instead
/// of re-enumerating flows per method.
///
/// # Errors
///
/// As [`try_sample_instances`].
pub fn try_sample_instances_cached(
    dataset: &Dataset,
    model: &Gnn,
    cfg: &SamplingConfig,
    cache: &ArtifactCache,
) -> Result<Vec<EvalInstance>, SamplingError> {
    sample_inner(dataset, model, cfg, Some(cache))
}

fn sample_inner(
    dataset: &Dataset,
    model: &Gnn,
    cfg: &SamplingConfig,
    cache: Option<&ArtifactCache>,
) -> Result<Vec<EvalInstance>, SamplingError> {
    let layers = model.num_layers();
    let warm_cap = usize::try_from(cfg.max_flows).unwrap_or(usize::MAX);
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut out = Vec::with_capacity(cfg.count);

    match dataset {
        Dataset::Node(d) => {
            let mut candidates: Vec<usize> = (0..d.graph.num_nodes()).collect();
            candidates.shuffle(&mut rng);
            for v in candidates {
                if out.len() >= cfg.count {
                    break;
                }
                if cfg.only_motif_correct {
                    let in_motif = d.node_motif.as_ref().is_some_and(|nm| nm[v].is_some());
                    if !in_motif {
                        continue;
                    }
                }
                let dataset_id = stable_graph_id(d.name, 0, 0);
                let sub = match cache {
                    Some(c) => c.subgraph(dataset_id, &d.graph, v, layers),
                    None => Arc::new(khop_subgraph(&d.graph, v, layers)),
                };
                if sub.graph.num_edges() == 0 {
                    continue;
                }
                let mp = MpGraph::new(&sub.graph);
                if count_flows(&mp, layers, Target::Node(sub.target)) > cfg.max_flows {
                    continue;
                }
                let graph_id = stable_graph_id(d.name, 1, v);
                let instance =
                    Instance::for_prediction(model, sub.graph.clone(), Target::Node(sub.target));
                if let Some(c) = cache {
                    // Warm the flow index for the accepted instance; every
                    // flow-based explainer served against it reuses this
                    // enumeration (the count check above guarantees the
                    // build completes uncapped).
                    let _ = c.flow_index(graph_id, &instance.mp, layers, instance.target, warm_cap);
                }
                if cfg.only_motif_correct {
                    let label = d
                        .graph
                        .node_labels()
                        .ok_or(SamplingError::MissingNodeLabels)?[v];
                    if instance.class != label {
                        continue;
                    }
                }
                let ground_truth = d.ground_truth_for(v).map(|gt| {
                    let gt_set: HashSet<usize> = gt.iter().copied().collect();
                    (0..sub.graph.num_edges())
                        .map(|e| gt_set.contains(&sub.original_edge(e)))
                        .collect()
                });
                out.push(EvalInstance {
                    instance,
                    dataset_index: v,
                    graph_id,
                    ground_truth,
                });
            }
        }
        Dataset::Graph(d) => {
            let mut candidates: Vec<usize> = (0..d.graphs.len()).collect();
            candidates.shuffle(&mut rng);
            for gi in candidates {
                if out.len() >= cfg.count {
                    break;
                }
                let g = &d.graphs[gi];
                if g.num_edges() == 0 {
                    continue;
                }
                let mp = MpGraph::new(g);
                if count_flows(&mp, layers, Target::Graph) > cfg.max_flows {
                    continue;
                }
                let graph_id = stable_graph_id(d.name, 2, gi);
                let instance = Instance::for_prediction(model, g.clone(), Target::Graph);
                if let Some(c) = cache {
                    let _ = c.flow_index(graph_id, &instance.mp, layers, instance.target, warm_cap);
                }
                if cfg.only_motif_correct {
                    let label = g
                        .graph_label()
                        .ok_or(SamplingError::MissingGraphLabel { graph: gi })?;
                    if instance.class != label || d.ground_truth_for(gi).is_none() {
                        continue;
                    }
                }
                let ground_truth = d.ground_truth_for(gi).map(|gt| {
                    let gt_set: HashSet<usize> = gt.iter().copied().collect();
                    (0..g.num_edges()).map(|e| gt_set.contains(&e)).collect()
                });
                out.push(EvalInstance {
                    instance,
                    dataset_index: gi,
                    graph_id,
                    ground_truth,
                });
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use revelio_datasets::{ba_2motifs, tree_cycles};
    use revelio_gnn::{GnnConfig, GnnKind, Task};
    use revelio_graph::Graph;

    #[test]
    fn node_sampling_produces_subgraph_instances() {
        let d = tree_cycles(0);
        let model = Gnn::new(GnnConfig::standard(
            GnnKind::Gcn,
            Task::NodeClassification,
            d.graph.feat_dim(),
            d.num_classes,
            1,
        ));
        let ds = Dataset::Node(d);
        let cfg = SamplingConfig {
            count: 5,
            ..Default::default()
        };
        let instances = sample_instances(&ds, &model, &cfg);
        assert_eq!(instances.len(), 5);
        for ei in &instances {
            assert!(ei.instance.graph.num_edges() > 0);
            assert!(matches!(ei.instance.target, Target::Node(_)));
        }
    }

    #[test]
    fn graph_sampling_with_motif_filter_has_ground_truth() {
        let d = ba_2motifs(0);
        let model = Gnn::new(GnnConfig::standard(
            GnnKind::Gcn,
            Task::GraphClassification,
            10,
            2,
            2,
        ));
        let ds = Dataset::Graph(d);
        let cfg = SamplingConfig {
            count: 4,
            only_motif_correct: true,
            ..Default::default()
        };
        let instances = sample_instances(&ds, &model, &cfg);
        for ei in &instances {
            let gt = ei.ground_truth.as_ref().expect("motif ground truth");
            assert!(gt.iter().any(|&b| b));
            assert!(gt.iter().any(|&b| !b));
        }
    }

    #[test]
    fn motif_filter_without_labels_is_a_typed_error() {
        use revelio_datasets::{NodeDataset, Split};
        let mut b = Graph::builder(3, 2);
        b.edge(0, 1).edge(1, 2).edge(2, 0);
        let d = NodeDataset {
            name: "unlabelled",
            graph: b.build(), // no node labels attached
            num_classes: 2,
            split: Split {
                train: vec![],
                val: vec![],
                test: vec![],
            },
            node_motif: Some(vec![Some(0); 3]),
            motif_edges: Some(vec![vec![0, 1, 2]]),
        };
        let model = Gnn::new(GnnConfig::standard(
            GnnKind::Gcn,
            Task::NodeClassification,
            2,
            2,
            0,
        ));
        let cfg = SamplingConfig {
            count: 1,
            only_motif_correct: true,
            ..Default::default()
        };
        let err = try_sample_instances(&Dataset::Node(d), &model, &cfg)
            .err()
            .expect("filter must fail on the unlabelled dataset");
        assert_eq!(err, SamplingError::MissingNodeLabels);
    }

    #[test]
    fn cached_sampling_warms_the_flow_cache_for_every_explainer() {
        use crate::Effort;
        use revelio_core::ExplainControl;

        let d = tree_cycles(2);
        let model = Gnn::new(GnnConfig::standard(
            GnnKind::Gcn,
            Task::NodeClassification,
            d.graph.feat_dim(),
            d.num_classes,
            5,
        ));
        let ds = Dataset::Node(d);
        let cfg = SamplingConfig {
            count: 2,
            ..Default::default()
        };
        let cache = ArtifactCache::new(2, 64);
        let instances = sample_instances_cached(&ds, &model, &cfg, &cache);
        assert_eq!(instances.len(), 2);
        let (_, misses_after_sampling) = cache.stats();

        // Serve two different flow-based explainers against the same
        // instance, each resolving its flow index through the cache the way
        // the runtime's prep stage does.
        let e = &instances[0];
        let layers = model.num_layers();
        let cap = usize::try_from(cfg.max_flows).unwrap_or(usize::MAX);
        let mut indexes = Vec::new();
        for explainer in [
            crate::make_method(
                "GNN-LRP",
                revelio_core::Objective::Factual,
                Effort::Quick,
                0,
            ),
            crate::make_method(
                "REVELIO",
                revelio_core::Objective::Factual,
                Effort::Quick,
                0,
            ),
        ] {
            let cached =
                cache.flow_index(e.graph_id, &e.instance.mp, layers, e.instance.target, cap);
            assert_eq!(cached.dropped, 0);
            let ctl = ExplainControl {
                flow_index: Some(Arc::clone(&cached.index)),
                ..Default::default()
            };
            let out = explainer.explain_controlled(&model, &e.instance, &ctl);
            indexes.push(out.explanation.flows.expect("flow scores").index);
        }
        // Sampling built each accepted instance's index exactly once; both
        // explainers were pure cache hits on the same Arc.
        let (hits, misses) = cache.stats();
        assert_eq!(
            misses, misses_after_sampling,
            "explainers must not re-enumerate flows"
        );
        assert!(hits >= 2, "each explainer prep must hit the warmed cache");
        assert!(Arc::ptr_eq(&indexes[0], &indexes[1]));
    }

    #[test]
    fn cached_and_uncached_sampling_agree() {
        let d = tree_cycles(4);
        let model = Gnn::new(GnnConfig::standard(
            GnnKind::Gcn,
            Task::NodeClassification,
            d.graph.feat_dim(),
            d.num_classes,
            6,
        ));
        let ds = Dataset::Node(d);
        let cfg = SamplingConfig {
            count: 5,
            ..Default::default()
        };
        let cache = ArtifactCache::new(4, 64);
        let plain = sample_instances(&ds, &model, &cfg);
        let cached = sample_instances_cached(&ds, &model, &cfg, &cache);
        assert_eq!(plain.len(), cached.len());
        for (a, b) in plain.iter().zip(&cached) {
            assert_eq!(a.dataset_index, b.dataset_index);
            assert_eq!(a.graph_id, b.graph_id);
            assert_eq!(a.instance.graph.num_edges(), b.instance.graph.num_edges());
            assert_eq!(a.instance.class, b.instance.class);
        }
    }

    #[test]
    fn graph_ids_are_unique_per_dataset_and_index() {
        assert_ne!(
            super::stable_graph_id("Tree-Cycles", 1, 3),
            super::stable_graph_id("Tree-Cycles", 1, 4)
        );
        assert_ne!(
            super::stable_graph_id("Tree-Cycles", 1, 3),
            super::stable_graph_id("BA-Shapes", 1, 3)
        );
        assert_ne!(
            super::stable_graph_id("MUTAG", 1, 3),
            super::stable_graph_id("MUTAG", 2, 3)
        );
    }

    #[test]
    fn graph_ids_are_golden() {
        // Graph ids key the artifact cache and the persistent store, so
        // their values must not drift between releases.
        for (name, tag, index, want) in [
            ("Tree-Cycles", 1, 3, 0xefff_f395_5b55_9659),
            ("BA-Shapes", 0, 0, 0x919b_3ad7_265f_e307),
            ("MUTAG", 2, 187, 0x44fe_6ac9_bf9b_4316),
            ("", 0, 0, 0xe604_823a_2490_29bf),
        ] {
            assert_eq!(
                super::stable_graph_id(name, tag, index),
                want,
                "{name}/{tag}/{index}"
            );
        }
    }

    #[test]
    fn sampling_is_deterministic() {
        let d = tree_cycles(1);
        let model = Gnn::new(GnnConfig::standard(
            GnnKind::Gcn,
            Task::NodeClassification,
            d.graph.feat_dim(),
            d.num_classes,
            3,
        ));
        let ds = Dataset::Node(d);
        let cfg = SamplingConfig {
            count: 6,
            ..Default::default()
        };
        let a: Vec<usize> = sample_instances(&ds, &model, &cfg)
            .iter()
            .map(|e| e.dataset_index)
            .collect();
        let b: Vec<usize> = sample_instances(&ds, &model, &cfg)
            .iter()
            .map(|e| e.dataset_index)
            .collect();
        assert_eq!(a, b);
    }
}
