// lint: allow-file(L004): group indices are validated against row count at
// pool construction.
//! Neighbourhood aggregators for the §VII-G aggregator study.
//!
//! STGNN-DJD's contribution includes two *custom* aggregators (flow-based
//! and attention-based, in `stgnn-core`). The paper compares them against
//! the two standard GraphSAGE aggregators implemented here:
//!
//! * **Mean** — elementwise mean of the node's own embedding and its
//!   neighbours' (Hamilton et al. 2017).
//! * **Max** — each embedding passes through a shared fully-connected layer,
//!   then an elementwise max-pool over the neighbourhood.

use crate::digraph::DiGraph;
use rand::Rng;
use stgnn_tensor::autograd::{Graph, ParamSet, Var};
use stgnn_tensor::nn::Linear;
use stgnn_tensor::{par, Shape, Tensor};

/// Mean aggregator: `Aggr_i = mean({h_i} ∪ {h_j : j ∈ N(i)})`.
///
/// Implemented as one matmul with a precomputed row-stochastic
/// (uniform-weight) neighbourhood matrix.
pub struct MeanAggregator {
    avg: Tensor,
}

impl MeanAggregator {
    /// Builds the averaging matrix from `graph`'s out-neighbourhoods.
    /// Rows are independent, so the build chunks across the kernel pool.
    pub fn new(graph: &DiGraph) -> Self {
        let n = graph.num_nodes();
        let hoods = graph.neighborhoods_with_self();
        let mut avg = Tensor::zeros(Shape::matrix(n, n));
        par::for_each_row_chunk_mut(avg.data_mut(), n, 16, |first_row, window| {
            for (r, row) in window.chunks_mut(n).enumerate() {
                let hood = &hoods[first_row + r];
                let w = 1.0 / hood.len() as f32;
                for &j in hood {
                    row[j] = w;
                }
            }
        });
        MeanAggregator { avg }
    }

    /// Aggregates node features `h ∈ R^{n×f}`.
    pub fn forward(&self, g: &Graph, h: &Var) -> Var {
        g.leaf(self.avg.clone()).matmul(h)
    }
}

/// Max aggregator: `Aggr_i = max({ FC(h_u) : u ∈ {i} ∪ N(i) })`, elementwise.
pub struct MaxAggregator {
    fc: Linear,
    hoods: Vec<Vec<usize>>,
}

impl MaxAggregator {
    /// Builds the aggregator with a shared `dim → dim` transform.
    pub fn new(
        params: &mut ParamSet,
        rng: &mut impl Rng,
        name: &str,
        graph: &DiGraph,
        dim: usize,
    ) -> Self {
        MaxAggregator {
            fc: Linear::new(params, rng, name, dim, dim, true),
            hoods: graph.neighborhoods_with_self(),
        }
    }

    /// Aggregates node features `h ∈ R^{n×f}`.
    pub fn forward(&self, g: &Graph, h: &Var) -> Var {
        self.fc.forward(g, h).relu().rows_max_pool(&self.hoods)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn graph() -> DiGraph {
        DiGraph::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)])
    }

    #[test]
    fn mean_aggregator_averages_neighborhood() {
        let agg = MeanAggregator::new(&graph());
        let g = Graph::new();
        let h = g.leaf(Tensor::from_rows(&[&[2.0], &[4.0], &[9.0]]));
        let out = agg.forward(&g, &h).value();
        assert!((out.get2(0, 0) - 3.0).abs() < 1e-6); // mean(2,4)
        assert!((out.get2(1, 0) - 6.5).abs() < 1e-6); // mean(4,9)
        assert!((out.get2(2, 0) - 9.0).abs() < 1e-6); // isolated → self
    }

    #[test]
    fn max_aggregator_shapes_and_monotonicity() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(9);
        let agg = MaxAggregator::new(&mut ps, &mut rng, "max", &graph(), 2);
        let g = Graph::new();
        let h = g.leaf(Tensor::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]));
        let out = agg.forward(&g, &h);
        assert_eq!(out.value().shape().dims(), &[3, 2]);
        // Row 0 pools {0,1}: must dominate each pooled row elementwise.
        let pooled = out.value();
        let fc_out = agg.fc.forward(&g, &h).relu().value();
        for c in 0..2 {
            let expect = fc_out.get2(0, c).max(fc_out.get2(1, c));
            assert!((pooled.get2(0, c) - expect).abs() < 1e-6);
        }
    }

    /// The graph-layer half of the `tensor::par` determinism contract:
    /// building and applying the averaging matrix must be bit-for-bit
    /// identical at 1 thread and 4 threads, even on graphs large enough to
    /// cross the parallel dispatch thresholds.
    #[test]
    fn mean_aggregator_is_bitwise_identical_across_thread_counts() {
        let n = 80;
        let edges: Vec<(usize, usize, f32)> = (0..n)
            .flat_map(|i| {
                (1..=5usize).map(move |k| (i, (i * 7 + k * 13) % n, 1.0 + (k as f32) * 0.5))
            })
            .collect();
        let graph = DiGraph::from_edges(n, &edges);
        let h = Tensor::from_vec(
            Shape::matrix(n, 3),
            (0..n * 3)
                .map(|i| (i as f32 * 0.37).sin())
                .collect::<Vec<_>>(),
        )
        .unwrap();

        let run = || {
            let agg = MeanAggregator::new(&graph);
            let g = Graph::new();
            let out = agg.forward(&g, &g.leaf(h.clone())).value();
            (agg.avg, out)
        };
        let (avg1, out1) = {
            let _threads = stgnn_tensor::par::scoped_threads(1);
            run()
        };
        let (avg4, out4) = {
            let _threads = stgnn_tensor::par::scoped_threads(4);
            run()
        };
        assert_eq!(avg1.data(), avg4.data(), "avg matrix differs by threads");
        assert_eq!(out1.data(), out4.data(), "forward differs by threads");
    }

    #[test]
    fn max_aggregator_is_differentiable() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(10);
        let agg = MaxAggregator::new(&mut ps, &mut rng, "max", &graph(), 2);
        // Force positive pre-activations so the ReLU cannot block all paths.
        ps.params()[0].set_value(Tensor::from_rows(&[&[1.0, 0.5], &[0.5, 1.0]]));
        ps.params()[1].set_value(Tensor::from_rows(&[&[0.1, 0.1]]));
        let g = Graph::new();
        let h = g.leaf(Tensor::ones(Shape::matrix(3, 2)));
        agg.forward(&g, &h).sum_all().backward();
        assert!(ps.grad_norm() > 0.0, "no gradient reached the FC layer");
    }
}
