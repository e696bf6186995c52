//! Receptive-field blocks: per GNN layer, only the layer edges whose
//! messages can reach the explained outputs (DGL calls these blocks
//! "message flow graphs").
//!
//! For an `L`-layer GNN whose last-layer output is needed only at the nodes
//! `O_{L-1}`, layer `l` needs its output at `O_l`, where `O_{l-1}` is the set
//! of sources of the in-edges of `O_l`. Block `l` holds every layer edge
//! whose destination lies in `O_l`, in ascending layer-edge id, with its
//! endpoints renumbered to compact row indices. Every other layer edge
//! carries a message no output can see.
//!
//! Blocks follow the graph structure alone, never a flow selection: under a
//! flow cap or a preselection, an edge that carries no selected flow still
//! carries a message (at mask `σ(0) = 0.5`) and stays in its block.

use crate::flows::Target;
use crate::mp::MpGraph;

/// The edge arrays one GNN layer runs over: the full graph's
/// ([`MpGraph::layer_edges`]) or one block's ([`Block::layer_edges`]).
///
/// Rows are indices into the layer's input matrix (`src`, `dst_input`) or
/// its output matrix (`dst`).
#[derive(Debug, Clone, Copy)]
pub struct LayerEdges<'a> {
    /// Input row of each edge's source.
    pub src: &'a [usize],
    /// Output row of each edge's destination: where its message is summed.
    pub dst: &'a [usize],
    /// Input row of each edge's destination (GAT's destination attention).
    pub dst_input: &'a [usize],
    /// Rows of the layer's output.
    pub num_outputs: usize,
}

impl LayerEdges<'_> {
    /// Number of edges.
    pub fn len(&self) -> usize {
        self.src.len()
    }

    /// Whether there are no edges.
    pub fn is_empty(&self) -> bool {
        self.src.is_empty()
    }
}

/// One layer's block: the layer edges entering the nodes whose output at
/// this layer is needed.
#[derive(Debug, Clone)]
pub struct Block {
    /// Layer-edge ids, ascending.
    edges: Vec<usize>,
    /// Node ids of the input rows, ascending (every node for layer 0).
    inputs: Vec<usize>,
    /// Node ids of the output rows (`O_l`), ascending.
    outputs: Vec<usize>,
    src: Vec<usize>,
    dst: Vec<usize>,
    dst_input: Vec<usize>,
}

impl Block {
    /// The block's layer-edge ids, ascending.
    pub fn edges(&self) -> &[usize] {
        &self.edges
    }

    /// Node ids of the layer's input rows, ascending.
    pub fn inputs(&self) -> &[usize] {
        &self.inputs
    }

    /// Node ids of the layer's output rows (`O_l`), ascending.
    pub fn outputs(&self) -> &[usize] {
        &self.outputs
    }

    /// The compact edge arrays a layer runs over.
    pub fn layer_edges(&self) -> LayerEdges<'_> {
        LayerEdges {
            src: &self.src,
            dst: &self.dst,
            dst_input: &self.dst_input,
            num_outputs: self.outputs.len(),
        }
    }
}

/// The blocks of every layer of an `L`-layer GNN for a set of output nodes.
///
/// Layer 0 reads the full feature matrix (its input rows are every node);
/// layer `l > 0` reads layer `l − 1`'s output rows.
///
/// # Example
///
/// ```
/// use revelio_graph::{Blocks, Graph, MpGraph, Target};
///
/// // 0 -> 1 -> 2; the message-passing view adds self-loops (ids 2, 3, 4).
/// let mut b = Graph::builder(3, 1);
/// b.edge(0, 1).edge(1, 2);
/// let mp = MpGraph::new(&b.build());
///
/// let blocks = Blocks::for_target(&mp, 2, Target::Node(2));
/// // Last layer: the edges entering node 2.
/// assert_eq!(blocks.layer(1).edges(), &[1, 4]);
/// // First layer: the edges entering nodes 1 and 2.
/// assert_eq!(blocks.layer(0).edges(), &[0, 1, 3, 4]);
/// assert_eq!(blocks.outputs(), &[2]);
/// ```
#[derive(Debug, Clone)]
pub struct Blocks {
    blocks: Vec<Block>,
}

impl Blocks {
    /// Builds the blocks of a `layers`-layer GNN whose last-layer output is
    /// needed at `outputs` (any order; duplicates are ignored).
    ///
    /// # Panics
    ///
    /// Panics if `layers` is zero or an output node is out of range.
    pub fn build(mp: &MpGraph, layers: usize, outputs: &[usize]) -> Blocks {
        assert!(layers > 0, "blocks need at least one layer");
        let n = mp.num_nodes();
        let mut needed = vec![false; n];
        for &v in outputs {
            assert!(v < n, "output node {v} out of range for {n} nodes");
            needed[v] = true;
        }
        // Walk from the last layer down: each block's edge sources are the
        // previous layer's outputs.
        let mut rev: Vec<(Vec<usize>, Vec<usize>)> = Vec::with_capacity(layers);
        for _ in 0..layers {
            let outs: Vec<usize> = (0..n).filter(|&v| needed[v]).collect();
            let edges: Vec<usize> = (0..mp.layer_edge_count())
                .filter(|&e| needed[mp.dst()[e]])
                .collect();
            needed.fill(false);
            for &e in &edges {
                needed[mp.src()[e]] = true;
            }
            rev.push((edges, outs));
        }

        let mut blocks = Vec::with_capacity(layers);
        let mut inputs: Vec<usize> = (0..n).collect();
        let mut row = vec![usize::MAX; n];
        for (edges, outputs) in rev.into_iter().rev() {
            let input_row = |v: usize, row: &[usize]| {
                debug_assert_ne!(row[v], usize::MAX, "node {v} is not an input row");
                row[v]
            };
            for (i, &v) in inputs.iter().enumerate() {
                row[v] = i;
            }
            let src: Vec<usize> = edges
                .iter()
                .map(|&e| input_row(mp.src()[e], &row))
                .collect();
            // Every output node's self-loop is in the block, so it is also an
            // input row.
            let dst_input: Vec<usize> = edges
                .iter()
                .map(|&e| input_row(mp.dst()[e], &row))
                .collect();
            for &v in &inputs {
                row[v] = usize::MAX;
            }
            for (i, &v) in outputs.iter().enumerate() {
                row[v] = i;
            }
            let dst: Vec<usize> = edges.iter().map(|&e| row[mp.dst()[e]]).collect();
            for &v in &outputs {
                row[v] = usize::MAX;
            }
            blocks.push(Block {
                edges,
                inputs,
                outputs: outputs.clone(),
                src,
                dst,
                dst_input,
            });
            inputs = outputs;
        }
        Blocks { blocks }
    }

    /// The blocks for one explanation target: its node, or every node for
    /// a graph target (whose blocks are then the full graph).
    pub fn for_target(mp: &MpGraph, layers: usize, target: Target) -> Blocks {
        match target {
            Target::Node(v) => Self::build(mp, layers, &[v]),
            Target::Graph => Self::build(mp, layers, &(0..mp.num_nodes()).collect::<Vec<_>>()),
        }
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.blocks.len()
    }

    /// Layer `l`'s block.
    pub fn layer(&self, l: usize) -> &Block {
        &self.blocks[l]
    }

    /// The last layer's output nodes, ascending: the rows of the GNN's
    /// final output.
    pub fn outputs(&self) -> &[usize] {
        self.blocks.last().map_or(&[], |b| b.outputs())
    }

    /// The final-output row of node `v`, if it is an output.
    pub fn output_row(&self, v: usize) -> Option<usize> {
        self.outputs().binary_search(&v).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    /// 0 -> 1 -> 2 -> 3 plus an isolated node 4.
    fn path_mp() -> MpGraph {
        let mut b = Graph::builder(5, 1);
        b.edge(0, 1).edge(1, 2).edge(2, 3);
        MpGraph::new(&b.build())
    }

    #[test]
    fn node_target_blocks_shrink_toward_the_target() {
        let mp = path_mp();
        // Layer edges: 0:0->1 1:1->2 2:2->3, self-loops 3..8 for nodes 0..4.
        let blocks = Blocks::for_target(&mp, 3, Target::Node(3));
        assert_eq!(blocks.layer(2).outputs(), &[3]);
        assert_eq!(blocks.layer(2).edges(), &[2, 6]);
        assert_eq!(blocks.layer(1).outputs(), &[2, 3]);
        assert_eq!(blocks.layer(1).edges(), &[1, 2, 5, 6]);
        assert_eq!(blocks.layer(0).outputs(), &[1, 2, 3]);
        assert_eq!(blocks.layer(0).edges(), &[0, 1, 2, 4, 5, 6]);
        // Layer 0 reads every node; later layers read the previous outputs.
        assert_eq!(blocks.layer(0).inputs(), &[0, 1, 2, 3, 4]);
        assert_eq!(blocks.layer(2).inputs(), &[2, 3]);
        let last = blocks.layer(2).layer_edges();
        assert_eq!(last.src, &[0, 1]);
        assert_eq!(last.dst, &[0, 0]);
        assert_eq!(last.dst_input, &[1, 1]);
        assert_eq!(last.num_outputs, 1);
        assert_eq!(blocks.output_row(3), Some(0));
        assert_eq!(blocks.output_row(2), None);
    }

    #[test]
    fn graph_target_blocks_are_the_full_graph() {
        let mp = path_mp();
        let blocks = Blocks::for_target(&mp, 2, Target::Graph);
        let full = mp.layer_edges();
        for l in 0..2 {
            let b = blocks.layer(l);
            assert_eq!(b.edges(), (0..mp.layer_edge_count()).collect::<Vec<_>>());
            let e = b.layer_edges();
            assert_eq!(e.src, full.src);
            assert_eq!(e.dst, full.dst);
            assert_eq!(e.dst_input, full.dst_input);
            assert_eq!(e.num_outputs, full.num_outputs);
        }
    }

    #[test]
    fn several_outputs_take_the_union() {
        let mp = path_mp();
        let blocks = Blocks::build(&mp, 1, &[4, 1, 1]);
        assert_eq!(blocks.outputs(), &[1, 4]);
        assert_eq!(blocks.layer(0).edges(), &[0, 4, 7]);
        assert_eq!(blocks.layer(0).layer_edges().dst, &[0, 0, 1]);
    }
}
