//! Batched multi-job mask optimization: several explain jobs that share one
//! model are fused into a single wider optimize pass.
//!
//! The serving runtime frequently receives bursts of explain requests
//! against the same registered model. Optimising their flow masks one job
//! at a time runs the model forward/backward over one small graph per
//! epoch — matrices too narrow to amortise loop and dispatch overhead.
//! [`BatchedOptimizer`] instead builds the **disjoint union** of the batch's
//! instance graphs (block-diagonal incidence, node/edge/flow offsets) and
//! learns every job's masks in one stacked parameter set driven by a single
//! summed loss. Each epoch then runs one forward/backward over a matrix
//! with `Σ nodes` rows instead of `B` separate passes.
//!
//! # Equivalence
//!
//! The union graph is disjoint, the stacked losses are summed (so each
//! job's sub-tape receives the same upstream gradient `1.0` it gets when
//! optimised alone), and Adam is elementwise — the batched trajectory is
//! designed to match per-job serial runs exactly, and on every test shape
//! it does bitwise. The *documented contract* is weaker: batched scores
//! match serial scores within [`BATCH_TOLERANCE`] (`1e-6` absolute), which
//! the equivalence suite enforces. Rely on the tolerance, not on bitwise
//! equality.
//!
//! Jobs are fused only when they are plain cold-start node-classification
//! runs (no preselection). Anything else falls back to per-job serial
//! optimisation and still returns correct results.

use std::sync::Arc;

use revelio_gnn::{Gnn, Instance, Task};
use revelio_graph::{Blocks, FlowIndex, Graph, MpGraph, Target};
use revelio_tensor::{uniform, Adam, BinCsr, Optimizer, Tensor};

use crate::control::ExplainControl;
use crate::explanation::{Explanation, FlowScores, Objective};
use crate::revelio::{ExplainError, LayerWeight, Revelio, RevelioConfig};

/// Maximum absolute divergence of batched from serial scores (see the
/// module docs: empirically bitwise, contractually `1e-6`).
pub const BATCH_TOLERANCE: f32 = 1e-6;

/// One job of a batch: the instance plus its mask-initialisation seed
/// (which overrides [`RevelioConfig::seed`] for that job).
pub struct BatchItem<'a> {
    /// The instance to explain.
    pub instance: &'a Instance,
    /// Per-job mask-initialisation seed.
    pub seed: u64,
    /// A pre-built flow index for this instance (e.g. from the serving
    /// runtime's artifact cache). Used when its layer count matches the
    /// model; otherwise the optimizer enumerates flows itself.
    pub flow_index: Option<Arc<FlowIndex>>,
}

/// Fuses the mask optimisation of several explain jobs against one model
/// into a single wider forward/backward pass per epoch.
pub struct BatchedOptimizer {
    cfg: RevelioConfig,
}

impl BatchedOptimizer {
    /// Creates a batched optimizer; all jobs of a batch share `cfg` (their
    /// seeds come from the [`BatchItem`]s).
    pub fn new(cfg: RevelioConfig) -> BatchedOptimizer {
        BatchedOptimizer { cfg }
    }

    /// The shared configuration.
    pub fn config(&self) -> &RevelioConfig {
        &self.cfg
    }

    /// Whether a batch of jobs with this configuration would take the fused
    /// path (as opposed to the serial fallback).
    pub fn fusable(&self, model: &Gnn, items: &[BatchItem<'_>]) -> bool {
        items.len() >= 2
            && self.cfg.preselect.is_none()
            && model.config().task == Task::NodeClassification
            && items.iter().all(|it| {
                matches!(it.instance.target, Target::Node(_))
                    && it.instance.graph.feat_dim() == items[0].instance.graph.feat_dim()
            })
    }

    /// Explains every item, fusing the optimisation into one pass when the
    /// batch is eligible ([`BatchedOptimizer::fusable`]) and falling back
    /// to per-job serial runs otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`ExplainError::TooManyFlows`] when any item exceeds
    /// [`RevelioConfig::max_flows`]; no partial results are returned.
    pub fn explain_batch(
        &self,
        model: &Gnn,
        items: &[BatchItem<'_>],
    ) -> Result<Vec<Explanation>, ExplainError> {
        if !self.fusable(model, items) {
            return self.explain_serial(model, items);
        }
        self.explain_fused(model, items)
    }

    /// Per-job fallback: plain [`Revelio::try_explain`] runs.
    fn explain_serial(
        &self,
        model: &Gnn,
        items: &[BatchItem<'_>],
    ) -> Result<Vec<Explanation>, ExplainError> {
        items
            .iter()
            .map(|it| {
                let cfg = RevelioConfig {
                    seed: it.seed,
                    ..self.cfg
                };
                let ctl = ExplainControl {
                    flow_index: it.flow_index.clone(),
                    ..Default::default()
                };
                Revelio::new(cfg)
                    .try_explain_controlled(model, it.instance, &ctl)
                    .map(|c| c.explanation)
            })
            .collect()
    }

    fn explain_fused(
        &self,
        model: &Gnn,
        items: &[BatchItem<'_>],
    ) -> Result<Vec<Explanation>, ExplainError> {
        let cfg = &self.cfg;
        let layers = model.num_layers();
        let b = items.len();

        // Flow enumeration stays per-job (indexes are also part of the
        // returned explanations); cache-shared indexes are reused.
        let mut indexes: Vec<Arc<FlowIndex>> = Vec::with_capacity(b);
        for it in items {
            let idx = match &it.flow_index {
                Some(idx) if idx.num_layers() == layers => Arc::clone(idx),
                _ => Arc::new(
                    FlowIndex::build(&it.instance.mp, layers, it.instance.target, cfg.max_flows)
                        .map_err(ExplainError::TooManyFlows)?,
                ),
            };
            indexes.push(idx);
        }

        // Disjoint-union offsets. A layer edge of the union MpGraph is the
        // stored edges of every job in job order, then the self-loops of
        // every node in job order (MpGraph's stored-then-self-loop layout
        // applied to the union graph).
        let node_off = prefix_sums(items.iter().map(|it| it.instance.mp.num_nodes()));
        let edge_off = prefix_sums(items.iter().map(|it| it.instance.mp.num_orig_edges()));
        let flow_off = prefix_sums(indexes.iter().map(|idx| idx.num_flows()));
        let n_total = node_off[b];
        let m_total = edge_off[b];
        let k_total = flow_off[b];
        let union_edge = |j: usize, e: usize| {
            let m_j = items[j].instance.mp.num_orig_edges();
            if e < m_j {
                edge_off[j] + e
            } else {
                m_total + node_off[j] + (e - m_j)
            }
        };

        // Union graph + features. Per-job node/edge ids shift by their
        // offsets; degrees (hence the GCN normalisation) are unchanged.
        let feat_dim = items[0].instance.graph.feat_dim();
        let mut gb = Graph::builder(n_total, feat_dim);
        let mut feats = Vec::with_capacity(n_total * feat_dim);
        for (j, it) in items.iter().enumerate() {
            for &(s, d) in it.instance.graph.edges() {
                gb.edge(node_off[j] + s as usize, node_off[j] + d as usize);
            }
            feats.extend_from_slice(it.instance.graph.features());
        }
        gb.all_features(feats);
        let union_g = gb.build();
        let mp = MpGraph::new(&union_g);
        let x = Gnn::features_tensor(&union_g);
        let e_total = mp.layer_edge_count();

        // Which job each union layer edge belongs to (for expanding the
        // per-job layer weights onto edges).
        let mut edge_job = vec![0usize; e_total];
        for (j, it) in items.iter().enumerate() {
            let mpj = &it.instance.mp;
            for e in 0..mpj.layer_edge_count() {
                edge_job[union_edge(j, e)] = j;
            }
        }

        // Block-diagonal incidence: union row `union_edge(j, e)` is job
        // `j`'s row `e` with flow columns shifted by `flow_off[j]`.
        let union_incidence: Vec<Arc<BinCsr>> = (0..layers)
            .map(|l| {
                let mut rows: Vec<Vec<u32>> = vec![Vec::new(); e_total];
                for (j, idx) in indexes.iter().enumerate() {
                    let mpj = &items[j].instance.mp;
                    for e in 0..mpj.layer_edge_count() {
                        let cols = idx.incidence(l).row(e);
                        if !cols.is_empty() {
                            rows[union_edge(j, e)] = cols
                                .iter()
                                .map(|&c| (flow_off[j] + c as usize) as u32)
                                .collect();
                        }
                    }
                }
                Arc::new(BinCsr::from_rows(e_total, k_total, &rows))
            })
            .collect();

        // The union's receptive-field blocks for the batch's targets: each
        // epoch runs only the edges whose messages reach some target.
        let target_rows: Vec<usize> = items
            .iter()
            .enumerate()
            .map(|(j, it)| match it.instance.target {
                Target::Node(v) => node_off[j] + v,
                Target::Graph => unreachable!("fusable() requires node targets"),
            })
            .collect();
        let blocks = Blocks::build(&mp, layers, &target_rows);
        let norms = Gnn::block_norms(&mp, &blocks);
        let block_incidence = crate::revelio::block_rows(&union_incidence, &blocks);
        let block_edge_job: Vec<Vec<usize>> = (0..layers)
            .map(|l| {
                blocks
                    .layer(l)
                    .edges()
                    .iter()
                    .map(|&e| edge_job[e])
                    .collect()
            })
            .collect();
        let full_edge_job = vec![edge_job; layers];

        // Stacked parameters: one mask leaf holding every job's segment
        // (each initialised from its own seed, so segments match the cold
        // per-job init exactly), and one `[B, 1]` weight leaf per layer.
        let mut init = Vec::with_capacity(k_total);
        for (j, idx) in indexes.iter().enumerate() {
            init.extend(uniform(idx.num_flows(), 1, 0.1, items[j].seed).to_vec());
        }
        let mask_params = Tensor::from_vec(init, k_total, 1).requires_grad();
        let layer_weights: Vec<Tensor> = match cfg.layer_weight {
            LayerWeight::None => Vec::new(),
            LayerWeight::Exp => (0..layers)
                .map(|_| Tensor::zeros(b, 1).requires_grad())
                .collect(),
            LayerWeight::Softplus => (0..layers)
                .map(|_| Tensor::full(0.5413, b, 1).requires_grad())
                .collect(),
        };
        let mut params = vec![mask_params.clone()];
        params.extend(layer_weights.iter().cloned());

        let flow_scores = || match cfg.squash {
            crate::revelio::MaskSquash::Tanh => mask_params.tanh_t(),
            crate::revelio::MaskSquash::Sigmoid => mask_params.sigmoid(),
        };
        // Masks over the rows of `incidence`, whose row `r` of layer `l`
        // belongs to job `edge_job[l][r]`: the block rows for the epochs,
        // every union layer edge for the readout.
        let layer_masks = |incidence: &[Arc<BinCsr>], edge_job: &[Vec<usize>]| {
            let omega_f = flow_scores();
            (0..layers)
                .map(|l| {
                    let s = omega_f.sp_matvec(&incidence[l]);
                    match cfg.layer_weight {
                        LayerWeight::Exp => {
                            s.sigmoid_scale(&layer_weights[l].exp().gather_rows(&edge_job[l]))
                        }
                        LayerWeight::Softplus => {
                            s.sigmoid_scale(&layer_weights[l].softplus().gather_rows(&edge_job[l]))
                        }
                        LayerWeight::None => s.sigmoid(),
                    }
                })
                .collect::<Vec<Tensor>>()
        };

        // Per-job sparsity supports: block positions of the union layer edges
        // carrying at least one of the job's flows, ascending — the same
        // values in the same visit order the serial run uses.
        let used: Vec<Vec<Vec<usize>>> = items
            .iter()
            .enumerate()
            .map(|(j, it)| {
                (0..layers)
                    .map(|l| {
                        let block_edges = blocks.layer(l).edges();
                        (0..it.instance.mp.layer_edge_count())
                            .filter(|&e| !indexes[j].incidence(l).row(e).is_empty())
                            .map(|e| {
                                block_edges
                                    .binary_search(&union_edge(j, e))
                                    .expect("a flow-carrying edge lies in its block")
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect();

        let output_rows: Vec<usize> = target_rows
            .iter()
            .map(|&v| {
                blocks
                    .output_row(v)
                    .expect("every target is a block output")
            })
            .collect();

        let build_loss = || {
            let masks = layer_masks(&block_incidence, &block_edge_job);
            let logits = model
                .forward_blocks(&blocks, &norms, &x, Some(&masks))
                .gather_rows(&output_rows);
            let logp = logits.log_softmax_rows();
            let mut total: Option<Tensor> = None;
            for (j, it) in items.iter().enumerate() {
                let lp_c = logp
                    .gather_rows(&[j])
                    .slice_cols(it.instance.class, it.instance.class + 1);
                let objective = match cfg.objective {
                    Objective::Factual => lp_c.neg(),
                    Objective::Counterfactual => {
                        lp_c.exp().neg().add_scalar(1.0).clamp_min(1e-6).ln().neg()
                    }
                };
                let mut reg: Option<Tensor> = None;
                let mut used_count = 0usize;
                for (l, mask) in masks.iter().enumerate() {
                    if used[j][l].is_empty() {
                        continue;
                    }
                    let vals = mask.gather_rows(&used[j][l]);
                    let term = match cfg.objective {
                        Objective::Factual => vals.sum_all(),
                        Objective::Counterfactual => vals.neg().add_scalar(1.0).sum_all(),
                    };
                    used_count += used[j][l].len();
                    reg = Some(match reg {
                        None => term,
                        Some(r) => r.add(&term),
                    });
                }
                let loss_j = match reg {
                    Some(r) if used_count > 0 => {
                        objective.add(&r.mul_scalar(cfg.alpha / used_count as f32))
                    }
                    _ => objective,
                };
                total = Some(match total {
                    None => loss_j,
                    Some(t) => t.add(&loss_j),
                });
            }
            total.expect("batch has at least one job")
        };

        #[cfg(debug_assertions)]
        crate::revelio::assert_audit_clean(
            "batched REVELIO: static tape audit",
            &revelio_analysis::audit_tape_with_params(&build_loss(), &params),
        );

        let mut opt = Adam::new(params.clone(), cfg.lr);
        for _ in 0..cfg.epochs {
            opt.zero_grad();
            build_loss().backward_to(&params);
            opt.step();
        }

        // Per-job readout: slice the stacked state back apart and apply the
        // same score mapping as the serial path.
        let learned_all = flow_scores().to_vec();
        let union_mask_vals: Vec<Vec<f32>> = layer_masks(&union_incidence, &full_edge_job)
            .iter()
            .map(Tensor::to_vec)
            .collect();
        let out = items
            .iter()
            .enumerate()
            .map(|(j, it)| {
                let index = Arc::clone(&indexes[j]);
                let k_j = index.num_flows();
                let mut flow_scores: Vec<f32> =
                    learned_all[flow_off[j]..flow_off[j] + k_j].to_vec();
                let e_j = it.instance.mp.layer_edge_count();
                let mut layer_edge_scores: Vec<Vec<f32>> = union_mask_vals
                    .iter()
                    .map(|vals| (0..e_j).map(|e| vals[union_edge(j, e)]).collect())
                    .collect();
                if cfg.objective == Objective::Counterfactual {
                    for s in &mut flow_scores {
                        *s = -*s;
                    }
                    for ls in &mut layer_edge_scores {
                        for v in ls.iter_mut() {
                            *v = 1.0 - *v;
                        }
                    }
                }
                let m_j = it.instance.mp.num_orig_edges();
                let mut edge_scores = vec![f32::NEG_INFINITY; m_j];
                for l in 0..layers {
                    for (e, es) in edge_scores.iter_mut().enumerate() {
                        for &f in index.flows_through(l, e) {
                            *es = es.max(flow_scores[f as usize]);
                        }
                    }
                }
                for es in &mut edge_scores {
                    *es = if es.is_finite() {
                        (1.0 + *es) / 2.0
                    } else {
                        0.0
                    };
                }
                Explanation {
                    edge_scores,
                    layer_edge_scores: Some(layer_edge_scores),
                    flows: Some(FlowScores {
                        index,
                        scores: flow_scores,
                    }),
                }
            })
            .collect();
        Ok(out)
    }
}

/// `[0, x0, x0+x1, ...]` — offsets plus a trailing total.
fn prefix_sums(xs: impl Iterator<Item = usize>) -> Vec<usize> {
    let mut out = vec![0usize];
    let mut acc = 0usize;
    for x in xs {
        acc += x;
        out.push(acc);
    }
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use revelio_gnn::{GnnConfig, GnnKind};

    fn model(kind: GnnKind, seed: u64) -> Gnn {
        Gnn::new(GnnConfig::standard(
            kind,
            Task::NodeClassification,
            3,
            2,
            seed,
        ))
    }

    /// Three structurally different small instances against one model.
    fn instances(model: &Gnn) -> Vec<Instance> {
        let mut b1 = Graph::builder(3, 3);
        b1.edge(0, 1).edge(1, 2).edge(2, 0);
        b1.node_features(0, &[1.0, 0.0, 0.2]);
        b1.node_features(1, &[0.0, 1.0, 0.1]);
        let g1 = b1.build();

        let mut b2 = Graph::builder(4, 3);
        b2.edge(1, 0).edge(2, 0).edge(3, 0);
        b2.node_features(0, &[0.3, 0.3, 1.0]);
        b2.node_features(3, &[0.9, 0.1, 0.0]);
        let g2 = b2.build();

        let mut b3 = Graph::builder(3, 3);
        b3.undirected_edge(0, 1).undirected_edge(1, 2);
        b3.node_features(2, &[0.5, 0.5, 0.5]);
        let g3 = b3.build();

        vec![
            Instance::for_prediction(model, g1, Target::Node(1)),
            Instance::for_prediction(model, g2, Target::Node(0)),
            Instance::for_prediction(model, g3, Target::Node(2)),
        ]
    }

    fn assert_close(a: &[f32], b: &[f32], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length mismatch");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x - y).abs() <= BATCH_TOLERANCE,
                "{what}[{i}]: batched {x} vs serial {y} exceeds tolerance"
            );
        }
    }

    fn check_equivalence(kind: GnnKind, cfg: RevelioConfig) {
        let m = model(kind, 11);
        let insts = instances(&m);
        let items: Vec<BatchItem<'_>> = insts
            .iter()
            .enumerate()
            .map(|(j, instance)| BatchItem {
                instance,
                seed: 40 + j as u64,
                flow_index: None,
            })
            .collect();
        let opt = BatchedOptimizer::new(cfg);
        assert!(
            opt.fusable(&m, &items),
            "fixture should take the fused path"
        );
        let batched = opt.explain_batch(&m, &items).unwrap();

        for (j, inst) in insts.iter().enumerate() {
            let serial = Revelio::new(RevelioConfig {
                seed: 40 + j as u64,
                ..cfg
            })
            .try_explain(&m, inst)
            .unwrap();
            assert_close(&batched[j].edge_scores, &serial.edge_scores, "edge_scores");
            assert_close(
                &batched[j].flows.as_ref().unwrap().scores,
                &serial.flows.as_ref().unwrap().scores,
                "flow_scores",
            );
            let bl = batched[j].layer_edge_scores.as_ref().unwrap();
            let sl = serial.layer_edge_scores.as_ref().unwrap();
            assert_eq!(bl.len(), sl.len());
            for (lb, ls) in bl.iter().zip(sl) {
                assert_close(lb, ls, "layer_edge_scores");
            }
        }
    }

    #[test]
    fn batched_gcn_matches_serial_within_tolerance() {
        check_equivalence(
            GnnKind::Gcn,
            RevelioConfig {
                epochs: 40,
                ..Default::default()
            },
        );
    }

    #[test]
    fn batched_gat_matches_serial_within_tolerance() {
        check_equivalence(
            GnnKind::Gat,
            RevelioConfig {
                epochs: 20,
                ..Default::default()
            },
        );
    }

    #[test]
    fn batched_counterfactual_matches_serial() {
        check_equivalence(
            GnnKind::Gin,
            RevelioConfig {
                epochs: 20,
                objective: Objective::Counterfactual,
                ..Default::default()
            },
        );
    }

    #[test]
    fn single_item_batch_is_bit_identical_to_serial() {
        let m = model(GnnKind::Gcn, 7);
        let insts = instances(&m);
        let cfg = RevelioConfig {
            epochs: 25,
            seed: 5,
            ..Default::default()
        };
        let opt = BatchedOptimizer::new(cfg);
        let items = [BatchItem {
            instance: &insts[0],
            seed: 5,
            flow_index: None,
        }];
        assert!(!opt.fusable(&m, &items), "singletons must stay serial");
        let batched = opt.explain_batch(&m, &items).unwrap();
        let serial = Revelio::new(cfg).try_explain(&m, &insts[0]).unwrap();
        assert_eq!(batched[0].edge_scores, serial.edge_scores);
        assert_eq!(
            batched[0].flows.as_ref().unwrap().scores,
            serial.flows.as_ref().unwrap().scores
        );
    }
}
