//! A forward over receptive-field blocks is bit-identical to the full-graph
//! forward at the block outputs, and so are the mask gradients at the block
//! edges; every other layer edge gets an exact zero gradient on the full
//! graph, since its message reaches no output.

#![allow(clippy::unwrap_used)]

use proptest::prelude::*;
use revelio_gnn::{Gnn, GnnConfig, GnnKind, Task};
use revelio_graph::{Blocks, Graph, MpGraph};
use revelio_tensor::Tensor;

fn random_graph(n: usize, pairs: &[(usize, usize)]) -> Graph {
    let mut b = Graph::builder(n, 3);
    for &(u, v) in pairs {
        let (u, v) = (u % n, v % n);
        if u != v && !b.has_edge(u, v) {
            b.edge(u, v);
        }
    }
    for v in 0..n {
        let f: Vec<f32> = (0..3).map(|j| ((v * 3 + j) as f32 * 0.9).sin()).collect();
        b.node_features(v, &f);
    }
    b.build()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn block_forward_and_mask_gradients_match_the_full_graph(
        n in 2usize..10,
        pairs in prop::collection::vec((0usize..10, 0usize..10), 0..24),
        outputs in prop::collection::vec(0usize..10, 1..3),
        kind in 0usize..3,
        seed in 0u64..1000,
    ) {
        let kind = [GnnKind::Gcn, GnnKind::Gin, GnnKind::Gat][kind];
        let g = random_graph(n, &pairs);
        let mp = MpGraph::new(&g);
        let x = Gnn::features_tensor(&g);
        let model = Gnn::new(GnnConfig {
            hidden_dim: 8,
            heads: 2,
            ..GnnConfig::standard(kind, Task::NodeClassification, 3, 3, seed)
        });
        let layers = model.num_layers();
        let outputs: Vec<usize> = outputs.iter().map(|v| v % n).collect();
        let blocks = Blocks::build(&mp, layers, &outputs);
        let norms = Gnn::block_norms(&mp, &blocks);
        let ne = mp.layer_edge_count();
        let full_masks: Vec<Tensor> = (0..layers)
            .map(|l| {
                let vals = (0..ne).map(|e| 0.2 + 0.6 * ((l * ne + e) as f32 * 0.61).sin().abs());
                Tensor::from_vec(vals.collect(), ne, 1).requires_grad()
            })
            .collect();
        let block_masks: Vec<Tensor> = (0..layers)
            .map(|l| {
                let vals = full_masks[l].to_vec();
                let edges = blocks.layer(l).edges();
                let picked: Vec<f32> = edges.iter().map(|&e| vals[e]).collect();
                Tensor::from_vec(picked, edges.len(), 1).requires_grad()
            })
            .collect();

        let rows: Vec<usize> = blocks.outputs().to_vec();
        let full = model
            .forward_layers(&mp, &x, Some(&full_masks))
            .pop()
            .unwrap()
            .gather_rows(&rows);
        let block = model.forward_blocks(&blocks, &norms, &x, Some(&block_masks));
        prop_assert_eq!(bits(&full.to_vec()), bits(&block.to_vec()));

        // A scalar with a distinct weight per output element.
        let weights = Tensor::from_vec(
            (0..full.len()).map(|i| 0.3 + 0.11 * i as f32).collect(),
            full.rows(),
            full.cols(),
        );
        full.mul(&weights).sum_all().backward_to(&full_masks);
        block.mul(&weights).sum_all().backward_to(&block_masks);
        for l in 0..layers {
            let full_grad = full_masks[l].grad_vec();
            let block_grad = block_masks[l].grad_vec();
            let edges = blocks.layer(l).edges();
            let at_block: Vec<f32> = edges.iter().map(|&e| full_grad[e]).collect();
            prop_assert_eq!(bits(&at_block), bits(&block_grad));
            for (e, g) in full_grad.iter().enumerate() {
                if !edges.contains(&e) {
                    prop_assert_eq!(*g, 0.0, "layer {} edge {} outside the block", l, e);
                }
            }
        }
    }
}
