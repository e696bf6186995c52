//! Output checks and the quality probe.
//!
//! The probe set is a fixed slice of the instance pool. It is explained
//! after the measured phase, factual and counterfactual, so a change that
//! buys speed with worse explanations shows as a worse `keep_prob` /
//! `drop_prob`. The same set is served by a 1-worker and a 2-worker
//! runtime, whose scores must agree bit for bit (the determinism
//! contract: scores do not depend on the worker count).

use revelio_core::{Degradation, Explanation, Objective};
use revelio_eval::{fidelity_minus, fidelity_plus, flow_cap, method_factory, revelio_batch_config};
use revelio_gnn::Gnn;
use revelio_runtime::{ExplainJob, Runtime, RuntimeConfig};

use crate::fixture::{Fixture, Item, EFFORT};
use crate::measure::{mean, Report};

/// Base seed of every runtime the benchmark starts.
pub const RUNTIME_SEED: u64 = 7;

/// Sparsity of the fidelity metrics (Figs. 3–4 report 0.5–0.9).
pub const SPARSITY: f64 = 0.7;

/// Probe-set graph ids are tagged per objective: the store keys converged
/// masks by graph id, not by objective.
pub fn probe_graph_id(item: &Item, objective: Objective) -> u64 {
    match objective {
        Objective::Factual => item.graph_id,
        Objective::Counterfactual => item.graph_id ^ 0x00C0_FFEE,
    }
}

/// Checks one served explanation: exactly one finite score per instance
/// edge, no dropped flows and no deadline hit (no workload sets a deadline
/// and every pooled instance is under the flow cap), and all planned epochs
/// unless a warm start may stop early.
pub fn check_answer(
    item: &Item,
    scores: &[f32],
    deg: &Degradation,
    warm_start: bool,
) -> Result<(), String> {
    let edges = item.graph.num_edges();
    if scores.len() != edges {
        return Err(format!(
            "graph {}: {} scores for {edges} edges",
            item.graph_id,
            scores.len()
        ));
    }
    if let Some(bad) = scores.iter().find(|s| !s.is_finite()) {
        return Err(format!("graph {}: non-finite score {bad}", item.graph_id));
    }
    if deg.deadline_hit || deg.flows_dropped > 0 {
        return Err(format!("graph {}: degraded answer {deg:?}", item.graph_id));
    }
    let epochs_ok = if warm_start {
        deg.epochs_run >= 1 && deg.epochs_run <= deg.epochs_planned
    } else {
        deg.epochs_run == deg.epochs_planned
    };
    if !epochs_ok {
        return Err(format!("graph {}: epochs {deg:?}", item.graph_id));
    }
    Ok(())
}

/// The quality metrics of probe answers (`[factual, counterfactual]`
/// scores over the pool entries `probe`), at [`SPARSITY`]:
///
/// * `keep_prob` — mean probability of the predicted class when only the
///   top 30% of edges of the factual explanation remain: `P(y|G) −
///   Fidelity−` (Eq. 10), higher is better;
/// * `drop_prob` — mean probability of the predicted class when the top
///   70% of edges of the counterfactual explanation are removed: `P(y|G)
///   − Fidelity+` (Eq. 11), lower is better.
///
/// Fidelity± themselves are printed alongside. They are differences that
/// can sit at or below zero, where a relative regression bound means
/// nothing; the probabilities cannot.
pub fn quality(
    report: &mut Report,
    fx: &Fixture,
    probe: &[usize],
    [factual, counterfactual]: &[Vec<Vec<f32>>; 2],
) {
    let explained = |s: &[f32]| Explanation {
        edge_scores: s.to_vec(),
        layer_edge_scores: None,
        flows: None,
    };
    let (mut keep, mut fid_minus, mut drop, mut fid_plus) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let instances = || probe.iter().map(|&k| &fx.instances[k]);
    for (inst, s) in instances().zip(factual) {
        let f = f64::from(fidelity_minus(&fx.model, inst, &explained(s), SPARSITY));
        keep.push(f64::from(inst.orig_prob()) - f);
        fid_minus.push(f);
    }
    for (inst, s) in instances().zip(counterfactual) {
        let f = f64::from(fidelity_plus(&fx.model, inst, &explained(s), SPARSITY));
        drop.push(f64::from(inst.orig_prob()) - f);
        fid_plus.push(f);
    }
    report.put("keep_prob", mean(keep), "prob");
    report.put("drop_prob", mean(drop), "prob");
    eprintln!(
        "probe: mean Fidelity- {:.4}, Fidelity+ {:.4} at sparsity {SPARSITY} over {} instances",
        mean(fid_minus),
        mean(fid_plus),
        factual.len()
    );
}

/// Explains `items` under `objective` on a fresh `workers`-worker runtime.
fn runtime_scores(
    model: &Gnn,
    items: &[&Item],
    objective: Objective,
    workers: usize,
    report: &mut Report,
) -> Vec<Vec<f32>> {
    let rt = Runtime::with_config(RuntimeConfig {
        workers,
        seed: RUNTIME_SEED,
        ..RuntimeConfig::default()
    });
    let handle = rt.register_model(model);
    let jobs = items
        .iter()
        .map(|item| {
            ExplainJob::flow_based(
                item.graph.clone(),
                item.target,
                probe_graph_id(item, objective),
                flow_cap(EFFORT),
                method_factory("REVELIO", objective, EFFORT),
            )
            .with_batch_spec(revelio_batch_config(objective, EFFORT))
        })
        .collect();
    rt.explain_batch(handle, jobs)
        .into_iter()
        .zip(items)
        .map(|(r, item)| match r {
            Ok(out) => {
                let checked =
                    check_answer(item, &out.explanation.edge_scores, &out.degradation, false);
                report.check(checked.is_ok(), || {
                    format!("probe: {}", checked.unwrap_err())
                });
                out.explanation.edge_scores
            }
            Err(e) => {
                report.errors.push(format!("probe job failed: {e}"));
                vec![0.0; item.graph.num_edges()]
            }
        })
        .collect()
}

/// The determinism check: both objectives on a 1-worker and a 2-worker
/// runtime. Returns the 2-worker scores, factual then counterfactual.
pub fn determinism(model: &Gnn, items: &[&Item], report: &mut Report) -> [Vec<Vec<f32>>; 2] {
    [Objective::Factual, Objective::Counterfactual].map(|objective| {
        let one = runtime_scores(model, items, objective, 1, report);
        let two = runtime_scores(model, items, objective, 2, report);
        let same = one.len() == two.len()
            && one.iter().zip(&two).all(|(a, b)| {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
            });
        report.check(same, || {
            format!("{objective:?} probe scores differ between 1 and 2 workers")
        });
        two
    })
}
