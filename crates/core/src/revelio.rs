//! The REVELIO algorithm (§IV of the paper).

use std::fmt;
use std::sync::Arc;

use revelio_gnn::{Gnn, Instance};
use revelio_graph::{Blocks, FlowIndex, TooManyFlows};
use revelio_tensor::{uniform, Adam, BinCsr, Optimizer, Tensor};
use revelio_trace::{EventKind, Phase, TraceHandle};

use crate::control::{ControlledExplanation, ConvergedMask, Degradation, ExplainControl};
use crate::explanation::{Explainer, Explanation, FlowScores, Objective};

/// How flow-mask parameters are squashed into flow scores (Eq. 4).
///
/// The paper chooses `tanh` so that scores can be negative, preventing
/// "excessive accumulation" on layer edges that carry many unimportant flows;
/// `Sigmoid` is provided for the ablation of that choice (§IV-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MaskSquash {
    #[default]
    Tanh,
    Sigmoid,
}

/// Activation applied to the per-layer weight `w_l` (Eq. 5).
///
/// The paper selects `exp` after comparing candidates with positive outputs,
/// low gradient on `(0, 1)` and high gradient on `(1, ∞)`; `Softplus` is the
/// runner-up candidate it names, and `None` drops the per-layer weighting
/// entirely — both provided for ablations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LayerWeight {
    #[default]
    Exp,
    Softplus,
    None,
}

/// REVELIO hyperparameters. Defaults follow §V-A: learning rate `1e-2`,
/// 500 learning epochs, dataset-tuned sparsity strength `α`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RevelioConfig {
    /// Learning epochs per instance (the paper uses 500).
    pub epochs: usize,
    /// Adam learning rate (the paper uses 1e-2).
    pub lr: f32,
    /// Sparsity-constraint strength `α` of Eqs. 8–9.
    pub alpha: f32,
    /// Factual (Eq. 1) or counterfactual (Eq. 2) objective.
    pub objective: Objective,
    /// Flow-enumeration cap; exceeding it panics with a clear message
    /// rather than silently truncating.
    pub max_flows: usize,
    /// Mask-initialisation seed.
    pub seed: u64,
    /// Flow-score squashing (Eq. 4); `Tanh` is the paper's choice.
    pub squash: MaskSquash,
    /// Per-layer weight activation (Eq. 5); `Exp` is the paper's choice.
    pub layer_weight: LayerWeight,
    /// The paper's future-work optimisation (§VI): when `Some(k)` and the
    /// instance has more than `k` flows, a one-shot gradient-saliency pass
    /// preselects the `k` most promising flows and only their masks are
    /// learned (unselected flows keep a neutral zero score). Cuts memory
    /// and per-epoch time on flow-heavy instances.
    pub preselect: Option<usize>,
}

impl Default for RevelioConfig {
    fn default() -> Self {
        RevelioConfig {
            epochs: 500,
            lr: 1e-2,
            alpha: 0.05,
            objective: Objective::Factual,
            max_flows: 2_000_000,
            seed: 0,
            squash: MaskSquash::Tanh,
            layer_weight: LayerWeight::Exp,
            preselect: None,
        }
    }
}

/// The REVELIO explainer.
pub struct Revelio {
    cfg: RevelioConfig,
}

/// The per-instance learning state: parameters plus the (possibly
/// flow-restricted) incidence matrices.
struct MaskModel {
    /// `[k, 1]` learnable flow-mask parameters (k = selected flows).
    mask_params: Tensor,
    /// One `[1, 1]` weight per layer (empty when `LayerWeight::None`).
    layer_weights: Vec<Tensor>,
    /// Per layer, `|E| × k` incidence over the selected flows (readout).
    incidence: Vec<Arc<BinCsr>>,
    /// Per layer, the rows of `incidence` at block `l`'s edges: the only
    /// masks an optimize epoch needs.
    block_incidence: Vec<Arc<BinCsr>>,
    /// Selected flow ids (identity when no preselection ran).
    selected: Vec<u32>,
    squash: MaskSquash,
    layer_weight: LayerWeight,
}

impl MaskModel {
    fn params(&self) -> Vec<Tensor> {
        let mut p = vec![self.mask_params.clone()];
        p.extend(self.layer_weights.iter().cloned());
        p
    }

    fn flow_scores(&self) -> Tensor {
        match self.squash {
            MaskSquash::Tanh => self.mask_params.tanh_t(),
            MaskSquash::Sigmoid => self.mask_params.sigmoid(),
        }
    }

    /// `ω[E] = σ(I · squash(M) ⊙ act(w))` (Eqs. 4, 5, 7) over every layer
    /// edge.
    fn layer_masks(&self) -> Vec<Tensor> {
        self.masks_over(&self.incidence)
    }

    /// The same masks at the block edges only, bit for bit.
    fn block_masks(&self) -> Vec<Tensor> {
        self.masks_over(&self.block_incidence)
    }

    fn masks_over(&self, incidence: &[Arc<BinCsr>]) -> Vec<Tensor> {
        let omega_f = self.flow_scores();
        incidence
            .iter()
            .enumerate()
            .map(|(l, inc)| {
                let s = omega_f.sp_matvec(inc);
                // Fused scale + sigmoid: bit-identical to the unfused
                // `s.mul(&w.gather_rows(..)).sigmoid()` chain but a single
                // pass over the edge column per epoch.
                match self.layer_weight {
                    LayerWeight::Exp => s.sigmoid_scale(&self.layer_weights[l].exp()),
                    LayerWeight::Softplus => s.sigmoid_scale(&self.layer_weights[l].softplus()),
                    LayerWeight::None => s.sigmoid(),
                }
            })
            .collect()
    }
}

/// Panics with every finding when a debug-build audit reports any.
#[cfg(debug_assertions)]
pub(crate) fn assert_audit_clean(what: &str, diags: &[revelio_analysis::Diagnostic]) {
    assert!(
        diags.is_empty(),
        "{what} found {} defect(s):\n{}",
        diags.len(),
        diags
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Each layer's incidence restricted to the rows of its block's edges.
pub(crate) fn block_rows(incidence: &[Arc<BinCsr>], blocks: &Blocks) -> Vec<Arc<BinCsr>> {
    incidence
        .iter()
        .enumerate()
        .map(|(l, inc)| Arc::new(inc.select_rows(blocks.layer(l).edges())))
        .collect()
}

impl Revelio {
    /// Creates an explainer with the given configuration.
    pub fn new(cfg: RevelioConfig) -> Revelio {
        Revelio { cfg }
    }

    /// Paper-default factual explainer.
    pub fn factual() -> Revelio {
        Revelio::new(RevelioConfig::default())
    }

    /// Paper-default counterfactual explainer.
    pub fn counterfactual() -> Revelio {
        Revelio::new(RevelioConfig {
            objective: Objective::Counterfactual,
            ..Default::default()
        })
    }

    /// The active configuration.
    pub fn config(&self) -> &RevelioConfig {
        &self.cfg
    }

    fn fresh_layer_weights(&self, layers: usize) -> Vec<Tensor> {
        match self.cfg.layer_weight {
            LayerWeight::None => Vec::new(),
            // Softplus(0.54) ≈ 1, exp(0) = 1: start as identity weighting.
            LayerWeight::Exp => (0..layers)
                .map(|_| Tensor::zeros(1, 1).requires_grad())
                .collect(),
            LayerWeight::Softplus => (0..layers)
                .map(|_| Tensor::full(0.5413, 1, 1).requires_grad())
                .collect(),
        }
    }

    /// Builds the mask model, optionally preselecting top-k flows via a
    /// one-shot gradient-saliency pass (§VI future work).
    fn build_mask_model(
        &self,
        model: &Gnn,
        instance: &Instance,
        index: &FlowIndex,
        blocks: &Blocks,
        norms: &[Tensor],
    ) -> MaskModel {
        let cfg = &self.cfg;
        let layers = index.num_layers();
        let ne = instance.mp.layer_edge_count();
        let nf = index.num_flows();
        let full: Vec<Arc<BinCsr>> = (0..layers)
            .map(|l| Arc::clone(index.incidence(l)))
            .collect();

        let selected: Vec<u32> = match cfg.preselect {
            Some(k) if nf > k => {
                // Saliency pass: gradient of the factual objective w.r.t.
                // the flow masks at the neutral point.
                let probe = MaskModel {
                    mask_params: Tensor::zeros(nf, 1).requires_grad(),
                    layer_weights: self.fresh_layer_weights(layers),
                    block_incidence: block_rows(&full, blocks),
                    incidence: full.clone(),
                    selected: (0..nf as u32).collect(),
                    squash: cfg.squash,
                    layer_weight: cfg.layer_weight,
                };
                let masks = probe.block_masks();
                let lp_c = model
                    .block_target_logits(blocks, norms, &instance.x, Some(&masks), instance.target)
                    .log_softmax_rows()
                    .slice_cols(instance.class, instance.class + 1);
                lp_c.neg().backward_to(&probe.params());
                let grad = probe.mask_params.grad_vec();
                let mut order: Vec<u32> = (0..nf as u32).collect();
                order.sort_by(|&a, &b| grad[b as usize].abs().total_cmp(&grad[a as usize].abs()));
                let mut sel: Vec<u32> = order.into_iter().take(k).collect();
                sel.sort_unstable();
                sel
            }
            _ => (0..nf as u32).collect(),
        };

        // Incidence restricted to the selected flows (columns renumbered).
        let incidence: Vec<Arc<BinCsr>> = if selected.len() == nf {
            full
        } else {
            (0..layers)
                .map(|l| {
                    let mut rows: Vec<Vec<u32>> = vec![Vec::new(); ne];
                    for (new_id, &f) in selected.iter().enumerate() {
                        let e = index.flow(f as usize)[l] as usize;
                        rows[e].push(new_id as u32);
                    }
                    Arc::new(BinCsr::from_rows(ne, selected.len(), &rows))
                })
                .collect()
        };

        MaskModel {
            mask_params: uniform(selected.len(), 1, 0.1, cfg.seed).requires_grad(),
            layer_weights: self.fresh_layer_weights(layers),
            block_incidence: block_rows(&incidence, blocks),
            incidence,
            selected,
            squash: cfg.squash,
            layer_weight: cfg.layer_weight,
        }
    }
}

/// Why [`Revelio::try_explain`] could not produce an explanation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExplainError {
    /// Flow enumeration exceeded [`RevelioConfig::max_flows`].
    TooManyFlows(TooManyFlows),
}

impl fmt::Display for ExplainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExplainError::TooManyFlows(e) => {
                write!(
                    f,
                    "{e}; extract a smaller computation subgraph or raise max_flows"
                )
            }
        }
    }
}

impl std::error::Error for ExplainError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExplainError::TooManyFlows(e) => Some(e),
        }
    }
}

impl Revelio {
    /// Learns flow masks for `instance` and returns flow, layer-edge, and
    /// edge scores.
    ///
    /// # Errors
    ///
    /// Returns [`ExplainError::TooManyFlows`] when the instance has more
    /// than [`RevelioConfig::max_flows`] message flows.
    pub fn try_explain(
        &self,
        model: &Gnn,
        instance: &Instance,
    ) -> Result<Explanation, ExplainError> {
        self.try_explain_controlled(model, instance, &ExplainControl::default())
            .map(|c| c.explanation)
    }

    /// Deadline- and budget-aware variant of [`Revelio::try_explain`]
    /// (the serving runtime's entry point).
    ///
    /// * Reuses `ctl.flow_index` when its layer count matches the model,
    ///   skipping flow enumeration entirely.
    /// * When `ctl.shrink_on_overflow` is set, an instance over
    ///   [`RevelioConfig::max_flows`] is explained over the deterministic
    ///   enumeration prefix of `max_flows` flows instead of failing
    ///   (`flows_dropped` records the cut).
    /// * Polls `ctl.deadline` each learning epoch; on expiry the best
    ///   (lowest-loss) mask seen so far is returned with
    ///   `deadline_hit = true`.
    /// * When `ctl.warm_start` carries a converged mask whose flow
    ///   selection exactly matches this run's, the optimisation starts
    ///   from it instead of the cold random init and may stop once the
    ///   loss plateaus (relative change below `1e-3` for 8 consecutive
    ///   epochs). The warm answer is the seed *refined*, not replayed —
    ///   scores drift from a cold run as optimisation continues — but a
    ///   mismatched selection or parameter shape rejects the seed,
    ///   leaving the run bit-identical to a cold one.
    ///
    /// # Errors
    ///
    /// Returns [`ExplainError::TooManyFlows`] only when the cap trips and
    /// `ctl.shrink_on_overflow` is off.
    pub fn try_explain_controlled(
        &self,
        model: &Gnn,
        instance: &Instance,
        ctl: &ExplainControl,
    ) -> Result<ControlledExplanation, ExplainError> {
        let cfg = &self.cfg;
        let layers = model.num_layers();
        let flow_target = instance.target;
        let mut degradation = Degradation {
            epochs_planned: cfg.epochs,
            ..Default::default()
        };
        // Tracing: emit through the request's handle, or the shared noop
        // handle (disabled collector — every emit below is one branch).
        let noop = TraceHandle::noop();
        let tr = ctl.trace.as_ref().unwrap_or(&noop);
        let index: Arc<FlowIndex> = match &ctl.flow_index {
            Some(idx) if idx.num_layers() == layers => {
                tr.event(EventKind::Note("flow-index-reused"));
                Arc::clone(idx)
            }
            _ if ctl.shrink_on_overflow => {
                let _span = tr.span(Phase::FlowIndex);
                let capped =
                    FlowIndex::build_capped(&instance.mp, layers, flow_target, cfg.max_flows);
                degradation.flows_dropped = capped.dropped;
                Arc::new(capped.index)
            }
            _ => {
                let _span = tr.span(Phase::FlowIndex);
                Arc::new(
                    FlowIndex::build(&instance.mp, layers, flow_target, cfg.max_flows)
                        .map_err(ExplainError::TooManyFlows)?,
                )
            }
        };
        // The target's receptive-field blocks: every optimize epoch runs the
        // masked forward over these edges only. Edges outside them carry no
        // message the target can see, so scores are bit-identical to a
        // full-graph epoch (DESIGN §13).
        let blocks = Blocks::for_target(&instance.mp, layers, flow_target);
        let norms = Gnn::block_norms(&instance.mp, &blocks);
        #[cfg(debug_assertions)]
        assert_audit_clean(
            "REVELIO: block audit",
            &revelio_analysis::audit_blocks(&instance.mp, &index, &blocks),
        );

        let mask_model = self.build_mask_model(model, instance, &index, &blocks, &norms);

        // Warm start: seed the parameters from a previously converged mask,
        // but only when it is aligned with this run's exact flow selection
        // and parameter shapes — anything else is silently stale (a changed
        // cap, a different preselection, another layer-weight mode) and is
        // rejected so the run stays bit-identical to a cold one.
        let mut warm_applied = false;
        if let Some(ws) = &ctl.warm_start {
            let weights_match = ws.layer_weights.len() == mask_model.layer_weights.len()
                && ws
                    .layer_weights
                    .iter()
                    .zip(&mask_model.layer_weights)
                    .all(|(stored, w)| stored.len() == w.to_vec().len());
            if ws.selected == mask_model.selected
                && ws.mask_params.len() == mask_model.selected.len()
                && weights_match
            {
                mask_model.mask_params.set_data(&ws.mask_params);
                for (w, data) in mask_model.layer_weights.iter().zip(&ws.layer_weights) {
                    w.set_data(data);
                }
                warm_applied = true;
                tr.event(EventKind::Note("warm-start"));
            } else {
                tr.event(EventKind::Note("warm-start-rejected"));
            }
        }

        let params = mask_model.params();
        let mut opt = Adam::new(params.clone(), cfg.lr);

        // "Skip layer edges unused by GNN layers" (Eq. 8): only layer edges
        // that carry at least one (selected) flow enter the sparsity penalty.
        // Positions are block-local; every such edge lies in its block, in
        // the same ascending order.
        let used: Vec<Vec<usize>> = mask_model
            .block_incidence
            .iter()
            .map(|inc| {
                (0..inc.rows())
                    .filter(|&p| !inc.row(p).is_empty())
                    .collect()
            })
            .collect();

        let build_loss = || {
            let masks = mask_model.block_masks();

            let logits = model.block_target_logits(
                &blocks,
                &norms,
                &instance.x,
                Some(&masks),
                instance.target,
            );
            let logp = logits.log_softmax_rows();
            let lp_c = logp.slice_cols(instance.class, instance.class + 1);
            let objective = match cfg.objective {
                // Eq. 1: -log P(Y = c | G, F̂).
                Objective::Factual => lp_c.neg(),
                // Eq. 2: -log(1 - P(Y = c | G, F̂)).
                Objective::Counterfactual => {
                    lp_c.exp().neg().add_scalar(1.0).clamp_min(1e-6).ln().neg()
                }
            };

            // Eqs. 8–9: mean mask value over used layer edges.
            let mut reg: Option<Tensor> = None;
            let mut used_count = 0usize;
            for (l, mask) in masks.iter().enumerate() {
                if used[l].is_empty() {
                    continue;
                }
                let vals = mask.gather_rows(&used[l]);
                let term = match cfg.objective {
                    Objective::Factual => vals.sum_all(),
                    Objective::Counterfactual => vals.neg().add_scalar(1.0).sum_all(),
                };
                used_count += used[l].len();
                reg = Some(match reg {
                    None => term,
                    Some(r) => r.add(&term),
                });
            }
            match reg {
                Some(r) if used_count > 0 => {
                    objective.add(&r.mul_scalar(cfg.alpha / used_count as f32))
                }
                _ => objective,
            }
        };

        // Debug builds statically audit the first recorded loss tape before
        // any training step: shape consistency, numeric-stability patterns,
        // and that every mask parameter is reachable from the loss.
        #[cfg(debug_assertions)]
        assert_audit_clean(
            "REVELIO: static tape audit",
            &revelio_analysis::audit_tape_with_params(&build_loss(), &params),
        );

        // Deadline-bounded runs track the best (lowest-loss) parameters so
        // an early stop returns the best mask seen, not the latest one.
        let track_best = ctl.deadline.is_set();
        // Per-epoch loss/grad-norm emission reads tensors the untraced loop
        // never materialises, so it is gated on `verbose` (a ring collector),
        // not merely `enabled` (which an always-on metrics bridge sets).
        let trace_epochs = tr.verbose();
        let mut best: Option<(f32, Vec<f32>, Vec<Vec<f32>>)> = None;
        // Warm-started runs stop once the loss plateaus: a relative change
        // below `WARM_PLATEAU_TOL` for `WARM_PLATEAU_EPOCHS` consecutive
        // epochs. Cold runs never evaluate this (extra `loss.item()` reads
        // included), keeping them bit-identical to a warm-start-free build.
        const WARM_PLATEAU_TOL: f32 = 1e-3;
        const WARM_PLATEAU_EPOCHS: usize = 8;
        let mut prev_loss: Option<f32> = None;
        let mut plateau = 0usize;
        let optimize_span = tr.span(Phase::Optimize);
        for epoch in 0..cfg.epochs {
            if ctl.deadline.expired() {
                degradation.deadline_hit = true;
                tr.event(EventKind::DeadlineHit {
                    epoch: epoch as u32,
                });
                break;
            }
            opt.zero_grad();
            let loss = build_loss();
            // Gradients for the mask parameters only: the model's weights
            // and the instance's features are constants here.
            loss.backward_to(&params);
            // The loss corresponds to the parameters *before* the step.
            let loss_val = if track_best || trace_epochs || warm_applied {
                Some(loss.item())
            } else {
                None
            };
            if track_best {
                if let Some(l) = loss_val {
                    if l.is_finite() && best.as_ref().is_none_or(|(b, _, _)| l < *b) {
                        best = Some((
                            l,
                            mask_model.mask_params.to_vec(),
                            mask_model
                                .layer_weights
                                .iter()
                                .map(Tensor::to_vec)
                                .collect(),
                        ));
                    }
                }
            }
            if trace_epochs {
                if let Some(l) = loss_val {
                    let g = mask_model.mask_params.grad_vec();
                    let grad_norm = g.iter().map(|v| v * v).sum::<f32>().sqrt();
                    tr.event(EventKind::Epoch {
                        index: epoch as u32,
                        loss: l,
                        grad_norm,
                    });
                }
            }
            if warm_applied {
                if let Some(l) = loss_val {
                    if let Some(p) = prev_loss {
                        let rel = (p - l).abs() / p.abs().max(1e-8);
                        plateau = if rel < WARM_PLATEAU_TOL {
                            plateau + 1
                        } else {
                            0
                        };
                    }
                    prev_loss = Some(l);
                    if l.is_finite() && plateau >= WARM_PLATEAU_EPOCHS {
                        // The parameters already match this loss (the step
                        // below would move past it), so stop here.
                        degradation.epochs_run = epoch + 1;
                        tr.event(EventKind::Note("warm-start-early-stop"));
                        break;
                    }
                }
            }
            opt.step();
            degradation.epochs_run = epoch + 1;
        }
        drop(optimize_span);
        if degradation.deadline_hit {
            if let Some((_, mask, weights)) = best {
                mask_model.mask_params.set_data(&mask);
                for (w, data) in mask_model.layer_weights.iter().zip(&weights) {
                    w.set_data(data);
                }
            }
        }

        // Final scores. Counterfactual: ω'[F] = -ω[F] and
        // ω'[e] = 1 - ω[e], so higher always means more important.
        let readout_span = tr.span(Phase::Readout);
        let masks = mask_model.layer_masks();
        let learned: Vec<f32> = mask_model.flow_scores().to_vec();
        // Scatter learned scores back over the full flow set (unselected
        // flows keep the neutral score 0).
        let mut flow_scores = vec![0.0f32; index.num_flows()];
        for (new_id, &f) in mask_model.selected.iter().enumerate() {
            flow_scores[f as usize] = learned[new_id];
        }
        let mut layer_edge_scores: Vec<Vec<f32>> = masks.iter().map(Tensor::to_vec).collect();
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

        // Edge scores: Eq. 3 with `f = max` — an edge is as important as the
        // strongest flow it carries. Sum/mask aggregation suffers the
        // "excessive accumulation" problem of §IV-B (an edge crossed by many
        // weakly-negative flows outranks a motif edge), which empirically
        // inverts motif rankings; max does not. Edges carrying no flow
        // cannot influence the target at all and rank strictly lowest.
        let m = instance.mp.num_orig_edges();
        let mut edge_scores = vec![f32::NEG_INFINITY; m];
        for l in 0..layers {
            for (e, es) in edge_scores.iter_mut().enumerate() {
                for &f in index.flows_through(l, e) {
                    *es = es.max(flow_scores[f as usize]);
                }
            }
        }
        // Map from the squash range (-1, 1) into (0, 1), flowless edges to 0.
        for es in &mut edge_scores {
            *es = if es.is_finite() {
                (1.0 + *es) / 2.0
            } else {
                0.0
            };
        }
        drop(readout_span);

        // Export the converged state so a persistence layer can seed the
        // next run on the same instance through `ctl.warm_start`.
        let converged_mask = Some(ConvergedMask {
            mask_params: mask_model.mask_params.to_vec(),
            layer_weights: mask_model
                .layer_weights
                .iter()
                .map(Tensor::to_vec)
                .collect(),
            selected: mask_model.selected.clone(),
        });

        Ok(ControlledExplanation {
            explanation: Explanation {
                edge_scores,
                layer_edge_scores: Some(layer_edge_scores),
                flows: Some(FlowScores {
                    index,
                    scores: flow_scores,
                }),
            },
            degradation,
            converged_mask,
        })
    }
}

impl Explainer for Revelio {
    fn name(&self) -> &'static str {
        "REVELIO"
    }

    /// Infallible trait entry point, delegating to [`Revelio::try_explain`].
    ///
    /// # Panics
    ///
    /// Panics if the instance has more than `max_flows` message flows; call
    /// [`Revelio::try_explain`] to handle that case as a value.
    fn explain(&self, model: &Gnn, instance: &Instance) -> Explanation {
        self.try_explain(model, instance)
            .unwrap_or_else(|e| panic!("REVELIO: {e}"))
    }

    /// Budget-aware entry point (see [`Revelio::try_explain_controlled`]).
    ///
    /// # Panics
    ///
    /// Panics on [`ExplainError::TooManyFlows`], which can only occur when
    /// `ctl.shrink_on_overflow` is off.
    fn explain_controlled(
        &self,
        model: &Gnn,
        instance: &Instance,
        ctl: &ExplainControl,
    ) -> ControlledExplanation {
        self.try_explain_controlled(model, instance, ctl)
            .unwrap_or_else(|e| panic!("REVELIO: {e}"))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use revelio_gnn::{GnnConfig, GnnKind, Task, TrainConfig};
    use revelio_graph::{Graph, Target};

    /// Builds a node-classification toy where node 0's class is decided by
    /// its neighbour 1's feature (and node 2 is noise), then checks REVELIO
    /// scores the informative edge above the noise edge.
    fn informative_neighbour_setup() -> (Gnn, Graph) {
        // Star: 1 -> 0, 2 -> 0 (directed toward the target).
        // Training set: many stars where the label of the centre equals the
        // feature of node of type A; realised as one graph with several
        // disjoint stars.
        let stars = 30;
        let mut b = Graph::builder(3 * stars, 3);
        let mut labels = vec![0usize; 3 * stars];
        for s in 0..stars {
            let (c, a, n) = (3 * s, 3 * s + 1, 3 * s + 2);
            b.edge(a, c).edge(n, c);
            let class = s % 2;
            // Node a's feature encodes the class; node n is random-ish noise.
            b.node_features(a, &[1.0 - class as f32, class as f32, 0.0]);
            b.node_features(n, &[0.3, 0.3, (s % 3) as f32 * 0.2]);
            b.node_features(c, &[0.0, 0.0, 1.0]);
            labels[c] = class;
            labels[a] = class;
            labels[n] = class;
        }
        b.node_labels(labels);
        let g = b.build();
        let model = Gnn::new(GnnConfig::standard(
            GnnKind::Gcn,
            Task::NodeClassification,
            3,
            2,
            21,
        ));
        let centres: Vec<usize> = (0..stars).map(|s| 3 * s).collect();
        revelio_gnn::train_node_classifier(
            &model,
            &g,
            &centres,
            &TrainConfig {
                epochs: 150,
                weight_decay: 0.0,
                ..Default::default()
            },
        );
        (model, g)
    }

    fn instance_for(model: &Gnn, g: &Graph) -> (Instance, revelio_graph::KhopSubgraph) {
        let sub = revelio_graph::khop_subgraph(g, 0, 3);
        let inst = Instance::for_prediction(model, sub.graph.clone(), Target::Node(sub.target));
        (inst, sub)
    }

    #[test]
    fn factual_scores_informative_edge_higher() {
        let (model, g) = informative_neighbour_setup();
        let acc = revelio_gnn::evaluate_node_accuracy(
            &model,
            &g,
            &(0..10).map(|s| 3 * s).collect::<Vec<_>>(),
        );
        assert!(acc > 0.9, "model failed to learn the toy task: {acc}");

        let (inst, sub) = instance_for(&model, &g);
        let r = Revelio::new(RevelioConfig {
            epochs: 150,
            alpha: 0.01,
            ..Default::default()
        });
        let exp = r.explain(&model, &inst);

        // Edge from node a (old id 1) should outrank edge from noise node
        // (old id 2).
        let mut score_a = f32::NAN;
        let mut score_n = f32::NAN;
        for (eid, &(s, _)) in inst.graph.edges().iter().enumerate() {
            match sub.original_node(s as usize) {
                1 => score_a = exp.edge_scores[eid],
                2 => score_n = exp.edge_scores[eid],
                _ => {}
            }
        }
        assert!(
            score_a > score_n,
            "informative edge ({score_a}) should beat noise edge ({score_n})"
        );

        // Structure invariants.
        let flows = exp.flows.as_ref().unwrap();
        assert!(flows.scores.iter().all(|s| (-1.0..=1.0).contains(s)));
        let ls = exp.layer_edge_scores.as_ref().unwrap();
        assert_eq!(ls.len(), 3);
        assert!(ls.iter().all(|l| l.iter().all(|v| (0.0..=1.0).contains(v))));
    }

    #[test]
    fn counterfactual_scores_are_negated_flows() {
        let (model, g) = informative_neighbour_setup();
        let (inst, _) = instance_for(&model, &g);
        let r = Revelio::new(RevelioConfig {
            epochs: 30,
            objective: Objective::Counterfactual,
            ..Default::default()
        });
        let exp = r.explain(&model, &inst);
        let ls = exp.layer_edge_scores.as_ref().unwrap();
        // ω'[e] = 1 − σ(...) stays in (0, 1).
        assert!(ls.iter().all(|l| l.iter().all(|v| (0.0..=1.0).contains(v))));
    }

    #[test]
    #[should_panic(expected = "REVELIO:")]
    fn flow_cap_panics_with_context() {
        let (model, g) = informative_neighbour_setup();
        let (inst, _) = instance_for(&model, &g);
        let r = Revelio::new(RevelioConfig {
            max_flows: 1,
            ..Default::default()
        });
        let _ = r.explain(&model, &inst);
    }

    #[test]
    fn flow_cap_surfaces_typed_error() {
        let (model, g) = informative_neighbour_setup();
        let (inst, _) = instance_for(&model, &g);
        let r = Revelio::new(RevelioConfig {
            max_flows: 1,
            ..Default::default()
        });
        let err = r.try_explain(&model, &inst).err().expect("cap must trip");
        let ExplainError::TooManyFlows(inner) = &err;
        assert_eq!(inner.max, 1);
        assert!(err.to_string().contains("smaller computation subgraph"));
    }

    #[test]
    fn higher_alpha_yields_sparser_masks() {
        let (model, g) = informative_neighbour_setup();
        let (inst, _) = instance_for(&model, &g);
        let mean_mask = |alpha: f32| {
            let r = Revelio::new(RevelioConfig {
                epochs: 120,
                alpha,
                ..Default::default()
            });
            let exp = r.explain(&model, &inst);
            let ls = exp.layer_edge_scores.unwrap();
            let total: f32 = ls.iter().flatten().sum();
            total / ls.iter().map(|l| l.len()).sum::<usize>() as f32
        };
        let loose = mean_mask(0.0);
        let tight = mean_mask(2.0);
        assert!(
            tight < loose,
            "alpha=2 mean mask {tight} should be below alpha=0 mean mask {loose}"
        );
    }

    #[test]
    fn ablation_variants_run_and_score_all_flows() {
        let (model, g) = informative_neighbour_setup();
        let (inst, _) = instance_for(&model, &g);
        for squash in [MaskSquash::Tanh, MaskSquash::Sigmoid] {
            for lw in [LayerWeight::Exp, LayerWeight::Softplus, LayerWeight::None] {
                let r = Revelio::new(RevelioConfig {
                    epochs: 20,
                    squash,
                    layer_weight: lw,
                    ..Default::default()
                });
                let exp = r.explain(&model, &inst);
                let flows = exp.flows.expect("flow scores");
                assert_eq!(flows.scores.len(), flows.index.num_flows());
                if squash == MaskSquash::Sigmoid {
                    assert!(flows.scores.iter().all(|s| (0.0..=1.0).contains(s)));
                }
            }
        }
    }

    #[test]
    fn expired_deadline_degrades_but_masks_stay_valid() {
        use crate::control::Deadline;
        let (model, g) = informative_neighbour_setup();
        let (inst, _) = instance_for(&model, &g);
        let r = Revelio::new(RevelioConfig {
            epochs: 200,
            ..Default::default()
        });
        let ctl = ExplainControl::with_deadline(Deadline::within(std::time::Duration::ZERO));
        let out = r.try_explain_controlled(&model, &inst, &ctl).unwrap();
        assert!(out.degraded());
        assert!(out.degradation.deadline_hit);
        assert!(out.degradation.epochs_run < 200);
        assert_eq!(out.degradation.epochs_planned, 200);
        // Degraded results are still structurally valid explanations.
        let exp = &out.explanation;
        let flows = exp.flows.as_ref().unwrap();
        assert_eq!(flows.scores.len(), flows.index.num_flows());
        assert!(flows.scores.iter().all(|s| (-1.0..=1.0).contains(s)));
        assert!(exp.edge_scores.iter().all(|s| (0.0..=1.0).contains(s)));
    }

    #[test]
    fn shrink_on_overflow_degrades_instead_of_failing() {
        let (model, g) = informative_neighbour_setup();
        let (inst, _) = instance_for(&model, &g);
        let r = Revelio::new(RevelioConfig {
            epochs: 10,
            max_flows: 2,
            ..Default::default()
        });
        // Without shrink the cap trips...
        assert!(r.try_explain(&model, &inst).is_err());
        // ...with shrink the job degrades to the 2-flow prefix instead.
        let ctl = ExplainControl {
            shrink_on_overflow: true,
            ..Default::default()
        };
        let out = r.try_explain_controlled(&model, &inst, &ctl).unwrap();
        assert!(out.degraded());
        assert!(out.degradation.flows_dropped > 0);
        let flows = out.explanation.flows.as_ref().unwrap();
        assert_eq!(flows.index.num_flows(), 2);
    }

    #[test]
    fn prebuilt_flow_index_is_reused_and_matches_fresh_run() {
        let (model, g) = informative_neighbour_setup();
        let (inst, _) = instance_for(&model, &g);
        let cfg = RevelioConfig {
            epochs: 25,
            ..Default::default()
        };
        let r = Revelio::new(cfg);
        let index = Arc::new(
            FlowIndex::build(&inst.mp, model.num_layers(), inst.target, cfg.max_flows).unwrap(),
        );
        let ctl = ExplainControl {
            flow_index: Some(Arc::clone(&index)),
            ..Default::default()
        };
        let cached = r.try_explain_controlled(&model, &inst, &ctl).unwrap();
        assert!(!cached.degraded());
        // The explanation references the caller's index, not a rebuild.
        let flows = cached.explanation.flows.as_ref().unwrap();
        assert!(Arc::ptr_eq(&flows.index, &index));
        // Scores are bit-identical to a from-scratch run (same seed).
        let fresh = r.try_explain(&model, &inst).unwrap();
        assert_eq!(
            cached.explanation.edge_scores, fresh.edge_scores,
            "cache-shared index must not change results"
        );
    }

    #[test]
    fn warm_start_seeds_and_early_stops_while_rejection_stays_cold() {
        use crate::control::ConvergedMask;
        let (model, g) = informative_neighbour_setup();
        let (inst, _) = instance_for(&model, &g);
        let r = Revelio::new(RevelioConfig {
            epochs: 500,
            ..Default::default()
        });
        let cold = r
            .try_explain_controlled(&model, &inst, &ExplainControl::default())
            .unwrap();
        assert_eq!(cold.degradation.epochs_run, 500);
        let mask = cold.converged_mask.clone().expect("REVELIO exports a mask");

        // Seeding from the converged state plateaus well before the budget,
        // without being reported as degraded.
        let warm = r
            .try_explain_controlled(
                &model,
                &inst,
                &ExplainControl {
                    warm_start: Some(Arc::new(mask.clone())),
                    ..Default::default()
                },
            )
            .unwrap();
        assert!(
            warm.degradation.epochs_run < 500,
            "warm start ran all {} epochs",
            warm.degradation.epochs_run
        );
        assert!(!warm.degraded(), "early stop is not a degradation");
        // The warm answer is the seed refined, not replayed: scores stay
        // within the documented drift tolerance and preserve the ranking
        // the cold run found.
        for (w, c) in warm
            .explanation
            .edge_scores
            .iter()
            .zip(&cold.explanation.edge_scores)
        {
            assert!((w - c).abs() < 0.35, "warm score drifted: {w} vs {c}");
        }
        let top = |scores: &[f32]| {
            scores
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
        };
        assert_eq!(
            top(&warm.explanation.edge_scores),
            top(&cold.explanation.edge_scores),
            "warm start changed the top-ranked edge"
        );

        // A stale selection is rejected: the run is bit-identical to cold.
        let stale = ConvergedMask {
            mask_params: vec![3.0],
            layer_weights: mask.layer_weights.clone(),
            selected: vec![0],
        };
        let rejected = r
            .try_explain_controlled(
                &model,
                &inst,
                &ExplainControl {
                    warm_start: Some(Arc::new(stale)),
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(
            rejected.explanation.edge_scores, cold.explanation.edge_scores,
            "rejected warm start must not perturb the cold path"
        );
        assert_eq!(rejected.degradation.epochs_run, 500);
    }

    #[test]
    fn preselection_limits_learned_flows_and_still_ranks_informative_edge() {
        let (model, g) = informative_neighbour_setup();
        let (inst, sub) = instance_for(&model, &g);
        let full_flows = {
            let r = Revelio::new(RevelioConfig {
                epochs: 1,
                ..Default::default()
            });
            r.explain(&model, &inst)
                .flows
                .expect("flows")
                .index
                .num_flows()
        };
        assert!(full_flows > 4, "toy instance should have several flows");

        let r = Revelio::new(RevelioConfig {
            epochs: 150,
            alpha: 0.01,
            preselect: Some(4),
            ..Default::default()
        });
        let exp = r.explain(&model, &inst);
        let flows = exp.flows.as_ref().expect("flows");
        // Exactly 4 flows carry non-zero learned scores.
        let nonzero = flows.scores.iter().filter(|s| **s != 0.0).count();
        assert!(
            nonzero <= 4,
            "preselection must cap learned flows: {nonzero}"
        );

        // The informative edge still wins.
        let mut score_a = f32::NAN;
        let mut score_n = f32::NAN;
        for (eid, &(s, _)) in inst.graph.edges().iter().enumerate() {
            match sub.original_node(s as usize) {
                1 => score_a = exp.edge_scores[eid],
                2 => score_n = exp.edge_scores[eid],
                _ => {}
            }
        }
        assert!(score_a > score_n, "preselected REVELIO lost the signal");
    }
}
