//! Seeded input generation. Everything a workload feeds the program is
//! derived here from the `--seed` argument, so one seed always yields the
//! same relations, query pool and operation streams.

use std::sync::Arc;

use prf_core::live::Mutation;
use prf_core::query::{Algorithm, RankQuery};
use prf_core::weights::TabulatedWeight;
use prf_datasets::{generate_sightings, syn_med_tree};
use prf_pdb::{AndXorTree, NodeId, NodeKind, TreeBuilder, TupleId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Every query in every workload asks for the best 100 tuples.
pub const TOP_K: usize = 100;
/// Distinct query shapes the served workloads draw from.
pub const POOL_SIZE: usize = 256;

/// Independent streams derived from one seed.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// One entry of the served query pool.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Shape {
    /// PT(h).
    Pt(usize),
    /// PRFω with the tabulated weight `ω(i) = 1/(1+i)`, `i ≤ h`. General
    /// ω has no cache key, so these always walk.
    PrfOmega(usize),
    /// PRFe(α) in plain complex arithmetic.
    PrfeExact(f64),
    /// PRFe(α) in the log domain.
    PrfeLog(f64),
    /// Expected ranks.
    ERank,
}

impl Shape {
    /// The query without `top_k` (the served form adds it).
    pub fn query(&self) -> RankQuery {
        match *self {
            Shape::Pt(h) => RankQuery::pt(h),
            Shape::PrfOmega(h) => {
                let table: Vec<f64> = (1..=h).map(|i| 1.0 / (1.0 + i as f64)).collect();
                RankQuery::prf_shared(Arc::new(TabulatedWeight::from_real(&table)))
            }
            Shape::PrfeExact(a) => RankQuery::prfe(a).algorithm(Algorithm::ExactGf),
            Shape::PrfeLog(a) => RankQuery::prfe(a).algorithm(Algorithm::LogDomain),
            Shape::ERank => RankQuery::erank(),
        }
    }

    pub fn kind(&self) -> &'static str {
        match self {
            Shape::Pt(_) => "pt",
            Shape::PrfOmega(_) => "prfw",
            Shape::PrfeExact(_) => "prfe",
            Shape::PrfeLog(_) => "prfe_log",
            Shape::ERank => "erank",
        }
    }
}

/// The served query pool. The kind of pool entry `i` is fixed (`i mod 5`)
/// and its parameter is stratified: the `j`-th entry of a kind sits at the
/// `j`-th point of a golden-ratio sequence over the kind's range, and the
/// seed moves it within ±2% of the range. Every seed then gives the same
/// mix of kinds and costs under the Zipf draw, with different queries.
pub fn shape_pool(seed: u64) -> Vec<Shape> {
    let mut r = rng(seed, 1);
    let mut param = |i: usize, lo: f64, hi: f64| {
        let u = ((i / 5 + 1) as f64 * 0.618_033_988_749_895).fract();
        let jitter: f64 = r.gen_range(-0.02..0.02);
        lo + (u + jitter).clamp(0.0, 0.999) * (hi - lo)
    };
    (0..POOL_SIZE)
        .map(|i| match i % 5 {
            0 => Shape::Pt(param(i, 20.0, 200.0) as usize),
            1 => Shape::PrfOmega(param(i, 20.0, 200.0) as usize),
            2 => Shape::PrfeExact(param(i, 0.9, 0.99)),
            3 => Shape::PrfeLog(param(i, 0.5, 0.99)),
            _ => Shape::ERank,
        })
        .collect()
}

/// Zipf(s) over ranks `0..n` (rank 0 most likely).
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let weights: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// One node of a generated and/xor tree, in creation order (parents before
/// children, leaves in tuple-id order), so replaying the list through a
/// [`TreeBuilder`] rebuilds the identical tree.
#[derive(Clone, Debug, PartialEq)]
pub struct NodeSpec {
    pub parent: u32,
    pub edge_prob: f64,
    /// `Some(score)` for a leaf.
    pub leaf_score: Option<f64>,
    pub xor: bool,
}

/// Generator seed of the Syn-MED tree structure. Walk cost on an and/xor
/// tree follows its structure, so the structure is fixed and `--seed`
/// draws the data on it.
const TREE_STRUCTURE_SEED: u64 = 20090412;

/// A Syn-MED and/xor tree of `n` tuples as a replayable node list: a fixed
/// structure with the seed's leaf scores (uniform in [0, 10000)) and ∨-edge
/// probabilities (the generator's, each scaled by a factor in [0.5, 1), so
/// every ∨ node's sum stays at most 1).
pub fn tree_spec(n: usize, seed: u64) -> Vec<NodeSpec> {
    let mut r = rng(seed, 2);
    let mut spec = spec_of(&syn_med_tree(n, TREE_STRUCTURE_SEED));
    for i in 1..spec.len() {
        if spec[i].leaf_score.is_some() {
            spec[i].leaf_score = Some(r.gen_range(0.0..10_000.0));
        }
        if spec[spec[i].parent as usize].xor {
            let scale: f64 = r.gen_range(0.5..1.0);
            spec[i].edge_prob *= scale;
        }
    }
    spec
}

/// A tree as a replayable node list; the root (node 0) comes first.
fn spec_of(tree: &AndXorTree) -> Vec<NodeSpec> {
    (0..tree.node_count())
        .map(|i| {
            let id = NodeId(i as u32);
            let kind = tree.kind(id);
            NodeSpec {
                parent: tree.parent(id).map_or(0, |p| p.0),
                edge_prob: tree.edge_prob(id),
                leaf_score: match kind {
                    NodeKind::Leaf(t) => Some(tree.score(t)),
                    _ => None,
                },
                xor: kind == NodeKind::Xor,
            }
        })
        .collect()
}

/// The backend constructor the set-up phase times: replays a node list
/// through the [`TreeBuilder`].
pub fn build_tree(spec: &[NodeSpec]) -> AndXorTree {
    let kind = |xor: bool| if xor { NodeKind::Xor } else { NodeKind::And };
    let mut b = TreeBuilder::new(kind(spec[0].xor));
    for s in &spec[1..] {
        let parent = NodeId(s.parent);
        match s.leaf_score {
            Some(score) => {
                b.add_leaf(parent, s.edge_prob, score).expect("valid leaf");
            }
            None => {
                b.add_inner(parent, kind(s.xor), s.edge_prob)
                    .expect("valid inner node");
            }
        }
    }
    b.build().expect("generated trees are valid")
}

/// `(score, probability)` pairs of the simulated IIP iceberg relation.
pub fn iip_pairs(n: usize, seed: u64) -> Vec<(f64, f64)> {
    generate_sightings(n, seed)
        .into_iter()
        .map(|s| (s.drift_days, s.probability))
        .collect()
}

/// The PRFe bases of the sharded top-k batch.
pub const ALPHAS: [f64; 8] = [0.9, 0.9125, 0.925, 0.9375, 0.95, 0.9625, 0.975, 0.9875];

/// One operation of a served closed loop.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// A query: an index into the shape pool.
    Query(usize),
    Mutate(Mutation),
}

/// The operation stream of one live-churn client: a mutation with
/// probability `mutation_share`, otherwise a Zipf-drawn query.
pub fn live_op(
    rng: &mut StdRng,
    zipf: &Zipf,
    mutation_share: f64,
    id_bound: usize,
    score_max: f64,
) -> Op {
    if rng.gen_range(0.0..1.0) < mutation_share {
        Op::Mutate(mutation(rng, id_bound, score_max))
    } else {
        Op::Query(zipf.sample(rng))
    }
}

/// A reweight, insert or delete in equal shares, so the relation size
/// stays stable. Mutated ids stay below `id_bound`, which must be below
/// every size the relation reaches.
pub fn mutation(rng: &mut StdRng, id_bound: usize, score_max: f64) -> Mutation {
    let id = TupleId(rng.gen_range(0..id_bound) as u32);
    match rng.gen_range(0..3u32) {
        0 => Mutation::Reweight(id, rng.gen_range(0.01..0.99)),
        1 => Mutation::Insert {
            score: rng.gen_range(0.0..score_max),
            prob: rng.gen_range(0.01..0.99),
        },
        _ => Mutation::Delete(id),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_yields_the_same_inputs_twice() {
        for seed in [0u64, 1, 20090412] {
            assert_eq!(shape_pool(seed), shape_pool(seed));
            assert_eq!(tree_spec(300, seed), tree_spec(300, seed));
            assert_eq!(iip_pairs(1000, seed), iip_pairs(1000, seed));
            let zipf = Zipf::new(POOL_SIZE, 1.0);
            let ops = |s: u64| {
                let mut r = rng(s, 7);
                (0..500)
                    .map(|_| live_op(&mut r, &zipf, 0.2, 100, 10.0))
                    .collect::<Vec<_>>()
            };
            assert_eq!(ops(seed), ops(seed));
        }
        assert_ne!(shape_pool(1), shape_pool(2));
        assert_ne!(iip_pairs(100, 1), iip_pairs(100, 2));
    }

    #[test]
    fn replayed_tree_matches_the_generator() {
        let tree = syn_med_tree(400, 5);
        let rebuilt = build_tree(&spec_of(&tree));
        assert_eq!(tree.node_count(), rebuilt.node_count());
        assert_eq!(tree.scores(), rebuilt.scores());
        assert_eq!(tree.marginals(), rebuilt.marginals());
    }

    #[test]
    fn seeds_draw_data_on_one_tree_structure() {
        let (a, b) = (tree_spec(400, 1), tree_spec(400, 2));
        let shape = |s: &[NodeSpec]| {
            s.iter()
                .map(|n| (n.parent, n.xor, n.leaf_score.is_some()))
                .collect::<Vec<_>>()
        };
        assert_eq!(shape(&a), shape(&b));
        assert_ne!(a, b);
        // Both are valid trees.
        assert_eq!(build_tree(&a).n_tuples(), 400);
        assert_eq!(build_tree(&b).n_tuples(), 400);
    }

    #[test]
    fn pool_kinds_are_seed_independent_and_zipf_is_skewed() {
        let kinds = |s| shape_pool(s).iter().map(Shape::kind).collect::<Vec<_>>();
        assert_eq!(kinds(3), kinds(4));
        let zipf = Zipf::new(POOL_SIZE, 1.0);
        let mut r = rng(9, 0);
        let mut hist = vec![0usize; POOL_SIZE];
        for _ in 0..20_000 {
            hist[zipf.sample(&mut r)] += 1;
        }
        // P(rank 1) = 1/H_256 ≈ 0.163; P(rank 2) is half of it.
        assert!((2900..3600).contains(&hist[0]), "{}", hist[0]);
        assert!(hist[0] > hist[1] && hist[1] > hist[3]);
    }
}
