//! The message-passing view of a graph: the self-loop-augmented layer-edge
//! set shared by all layers of an `L`-layer GNN.

use crate::blocks::LayerEdges;
use crate::graph::Graph;

/// Gather/scatter-ready layer-edge arrays for message passing.
///
/// Layer edges are the stored directed edges of the [`Graph`] followed by one
/// self-loop per node, so `layer_edge_count() == graph.num_edges() + n`.
/// Edge `e < num_orig_edges` corresponds to original edge id `e`; edge
/// `num_orig_edges + v` is the self-loop of node `v`. All GNN layers share
/// this edge set — a *layer edge* `e_ij^l` of the paper is `(l, e)`.
#[derive(Debug, Clone)]
pub struct MpGraph {
    num_nodes: usize,
    num_orig_edges: usize,
    src: Vec<usize>,
    dst: Vec<usize>,
    /// `in_ptr[v]..in_ptr[v+1]` indexes `in_edges`, the layer-edge ids whose
    /// destination is `v` (used by flow enumeration).
    in_ptr: Vec<usize>,
    in_edges: Vec<u32>,
    /// `out_ptr[v]..out_ptr[v+1]` indexes `out_edges`, the layer-edge ids
    /// whose source is `v`.
    out_ptr: Vec<usize>,
    out_edges: Vec<u32>,
}

impl MpGraph {
    /// Builds the message-passing view of `g`, appending one self-loop per
    /// node after the original edges.
    pub fn new(g: &Graph) -> Self {
        let n = g.num_nodes();
        let m = g.num_edges();
        let total = m + n;
        let mut src = Vec::with_capacity(total);
        let mut dst = Vec::with_capacity(total);
        for &(s, d) in g.edges() {
            src.push(s as usize);
            dst.push(d as usize);
        }
        for v in 0..n {
            src.push(v);
            dst.push(v);
        }

        let (in_ptr, in_edges) = csr_by(&dst, n);
        let (out_ptr, out_edges) = csr_by(&src, n);

        MpGraph {
            num_nodes: n,
            num_orig_edges: m,
            src,
            dst,
            in_ptr,
            in_edges,
            out_ptr,
            out_edges,
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of original (stored) edges, i.e. self-loops excluded.
    pub fn num_orig_edges(&self) -> usize {
        self.num_orig_edges
    }

    /// Total layer edges: original edges plus one self-loop per node.
    pub fn layer_edge_count(&self) -> usize {
        self.src.len()
    }

    /// Source node of each layer edge.
    pub fn src(&self) -> &[usize] {
        &self.src
    }

    /// Destination node of each layer edge.
    pub fn dst(&self) -> &[usize] {
        &self.dst
    }

    /// The full graph's edge arrays, for a layer that runs over every node.
    pub fn layer_edges(&self) -> LayerEdges<'_> {
        LayerEdges {
            src: &self.src,
            dst: &self.dst,
            dst_input: &self.dst,
            num_outputs: self.num_nodes,
        }
    }

    /// Whether layer edge `e` is a self-loop.
    pub fn is_self_loop(&self, e: usize) -> bool {
        e >= self.num_orig_edges
    }

    /// The original edge id of layer edge `e`, or `None` for self-loops.
    pub fn orig_edge_id(&self, e: usize) -> Option<usize> {
        (e < self.num_orig_edges).then_some(e)
    }

    /// The self-loop layer-edge id of node `v`.
    pub fn self_loop_edge(&self, v: usize) -> usize {
        self.num_orig_edges + v
    }

    /// Layer-edge ids entering node `v`.
    pub fn in_edges(&self, v: usize) -> &[u32] {
        &self.in_edges[self.in_ptr[v]..self.in_ptr[v + 1]]
    }

    /// Layer-edge ids leaving node `v`.
    pub fn out_edges(&self, v: usize) -> &[u32] {
        &self.out_edges[self.out_ptr[v]..self.out_ptr[v + 1]]
    }

    /// In-degree of `v` counting the self-loop.
    pub fn in_degree(&self, v: usize) -> usize {
        self.in_ptr[v + 1] - self.in_ptr[v]
    }

    /// GCN symmetric normalisation `1 / sqrt(deg_in(i) * deg_in(j))` per
    /// layer edge, with degrees counted on the self-loop-augmented graph
    /// (matching Kipf & Welling's `D^{-1/2} (A+I) D^{-1/2}` for undirected
    /// inputs).
    pub fn gcn_norm(&self) -> Vec<f32> {
        let deg: Vec<f32> = (0..self.num_nodes)
            .map(|v| self.in_degree(v) as f32)
            .collect();
        self.src
            .iter()
            .zip(&self.dst)
            .map(|(&s, &d)| 1.0 / (deg[s] * deg[d]).sqrt())
            .collect()
    }
}

fn csr_by(keys: &[usize], n: usize) -> (Vec<usize>, Vec<u32>) {
    let mut counts = vec![0usize; n];
    for &k in keys {
        counts[k] += 1;
    }
    let mut ptr = Vec::with_capacity(n + 1);
    let mut running = 0usize;
    ptr.push(running);
    for &c in &counts {
        running += c;
        ptr.push(running);
    }
    let mut cursor = ptr.clone();
    let mut ids = vec![0u32; keys.len()];
    for (e, &k) in keys.iter().enumerate() {
        ids[cursor[k]] = e as u32;
        cursor[k] += 1;
    }
    (ptr, ids)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph() -> Graph {
        // 0 -> 1 -> 2
        let mut b = Graph::builder(3, 1);
        b.edge(0, 1).edge(1, 2);
        b.build()
    }

    #[test]
    fn appends_self_loops() {
        let mp = MpGraph::new(&path_graph());
        assert_eq!(mp.layer_edge_count(), 5);
        assert_eq!(mp.num_orig_edges(), 2);
        assert!(mp.is_self_loop(2));
        assert_eq!(mp.self_loop_edge(1), 3);
        assert_eq!(mp.orig_edge_id(0), Some(0));
        assert_eq!(mp.orig_edge_id(4), None);
    }

    #[test]
    fn in_out_edges() {
        let mp = MpGraph::new(&path_graph());
        // node 1: in = edge 0 (0->1) + self-loop 3
        let mut ins: Vec<u32> = mp.in_edges(1).to_vec();
        ins.sort_unstable();
        assert_eq!(ins, vec![0, 3]);
        let mut outs: Vec<u32> = mp.out_edges(1).to_vec();
        outs.sort_unstable();
        assert_eq!(outs, vec![1, 3]);
        assert_eq!(mp.in_degree(0), 1);
        assert_eq!(mp.in_degree(2), 2);
    }

    #[test]
    fn gcn_norm_symmetric() {
        let mp = MpGraph::new(&path_graph());
        let norm = mp.gcn_norm();
        // deg_in with self loops: [1, 2, 2]
        let expect0 = 1.0 / (1.0f32 * 2.0).sqrt(); // edge 0->1
        assert!((norm[0] - expect0).abs() < 1e-6);
        let self0 = 1.0 / (1.0f32 * 1.0).sqrt();
        assert!((norm[2] - self0).abs() < 1e-6);
    }
}
