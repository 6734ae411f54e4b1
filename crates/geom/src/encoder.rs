//! The geometry encoder: spatial features → geometry tokens.

use crate::features::GEOM_DIM;
use nettag_nn::{Graph, Layer, Mlp, NodeId, Param};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A small MLP lifting [`GEOM_DIM`](crate::GEOM_DIM)-wide spatial features
/// into `embed_dim`-wide geometry tokens, one per gate.
///
/// Built entirely on `nettag_nn` tape ops, so a training step through the
/// data-parallel driver is bitwise identical at any thread count (pinned
/// by `tests/equivalence.rs`); serving runs the same [`GeomEncoder::forward`]
/// on a no-grad graph inside [`FusionModel::fuse`](crate::FusionModel::fuse).
#[derive(Debug, Clone)]
pub struct GeomEncoder {
    /// The token MLP (`GEOM_DIM → 2·d → d`, fused ReLU on the hidden
    /// layer).
    pub mlp: Mlp,
}

impl GeomEncoder {
    /// New encoder producing `embed_dim`-wide tokens, seeded for
    /// reproducibility (the seed is XOR-tweaked so a sibling encoder built
    /// from the same run seed gets distinct weights).
    pub fn new(embed_dim: usize, seed: u64) -> GeomEncoder {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6E03);
        GeomEncoder {
            mlp: Mlp::new(&[GEOM_DIM, embed_dim * 2, embed_dim], &mut rng),
        }
    }

    /// Tape forward: n×[`GEOM_DIM`](crate::GEOM_DIM) features → n×d
    /// tokens.
    pub fn forward(&self, g: &mut Graph, feats: NodeId) -> NodeId {
        self.mlp.forward(g, feats)
    }
}

impl Layer for GeomEncoder {
    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.mlp.params_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettag_nn::Tensor;
    use rand::Rng;

    #[test]
    fn encode_matches_tape_bitwise() {
        let enc = GeomEncoder::new(16, 7);
        let mut rng = StdRng::seed_from_u64(3);
        let feats = Tensor::from_vec(
            5,
            GEOM_DIM,
            (0..5 * GEOM_DIM)
                .map(|_| rng.gen_range(-1.0..1.0))
                .collect(),
        );
        let encode = |mut g: Graph| {
            let f = g.constant(feats.clone());
            let y = enc.forward(&mut g, f);
            g.take_value(y)
        };
        let served = encode(Graph::no_grad());
        assert_eq!(encode(Graph::new()).data, served.data);
        assert_eq!(served.cols, 16);
    }

    #[test]
    fn sibling_seeds_differ() {
        let mut a = GeomEncoder::new(8, 1);
        let mut b = GeomEncoder::new(8, 2);
        assert_ne!(a.params_mut()[0].value.data, b.params_mut()[0].value.data);
    }
}
