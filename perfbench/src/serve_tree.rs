//! `serve_tree_mixed`: two clients draw Zipf-distributed top-100 queries
//! from a 256-shape pool against a served Syn-MED and/xor tree (n = 2,000)
//! under the default `ServeConfig`.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use prf_core::query::{ProbabilisticRelation, RankQuery};
use prf_pdb::AndXorTree;
use prf_serve::{RankServer, RelationId, ServeConfig};

use crate::inputs::{self, NodeSpec, Op, Shape, Zipf, POOL_SIZE, TOP_K};
use crate::oracle::{self, ORACLE_MARGIN};
use crate::report::{Report, SetupTimes};
use crate::served::{closed_loop, LoopConfig, LoopResult};
use crate::stats::median_of;
use crate::{timed_ms, Args, SETUP_REPS};

const N: usize = 2_000;
const CLIENTS: usize = 2;

struct Inputs {
    spec: Vec<NodeSpec>,
    shapes: Vec<Shape>,
    pool: Vec<RankQuery>,
    zipf: Zipf,
}

struct Instance {
    server: RankServer,
    rel: RelationId,
    tree: Arc<AndXorTree>,
}

fn setup(inp: &Inputs) -> (Instance, SetupTimes) {
    let t0 = Instant::now();
    let tree = Arc::new(inputs::build_tree(&inp.spec));
    let t1 = Instant::now();
    let server = RankServer::new(ServeConfig::new());
    let rel = server.register_shared("syn_med", tree.clone());
    let t2 = Instant::now();
    server
        .submit(rel, inp.pool[0].clone())
        .and_then(|h| h.recv())
        .expect("first answer of a fresh server");
    let t3 = Instant::now();
    let times = SetupTimes {
        build: (t1 - t0).as_secs_f64(),
        register: (t2 - t1).as_secs_f64(),
        total: (t3 - t0).as_secs_f64(),
    };
    (Instance { server, rel, tree }, times)
}

pub fn run(args: &Args) -> Report {
    let shapes = inputs::shape_pool(args.seed);
    let inp = Inputs {
        spec: inputs::tree_spec(N, args.seed),
        pool: shapes.iter().map(|s| s.query().top_k(TOP_K)).collect(),
        shapes,
        zipf: Zipf::new(POOL_SIZE, 1.0),
    };
    let mut report = Report::default();
    let mut times = Vec::new();
    let mut inst = None;
    for _ in 0..SETUP_REPS {
        drop(inst.take());
        let (i, t) = setup(&inp);
        times.push(t);
        inst = Some(i);
    }
    report.setup(&times);
    let inst = inst.expect("at least one set-up");

    let next_op = |rng: &mut _| Op::Query(inp.zipf.sample(rng));
    let mut cfg = LoopConfig {
        clients: CLIENTS,
        seed: args.seed,
        warmup: args.warmup(),
        measure: args.measure(),
        trace: false,
        walk_layer: "tree",
        keep_answers: true,
        pool: &inp.pool,
        next_op: &next_op,
    };
    let base = closed_loop(&inst.server, inst.rel, &cfg);
    report.count(&base);
    if !args.trace {
        report.served(&base);
        check(&mut report, &inp, &inst.tree, &[&base]);
        return report;
    }
    // The traced loop runs on a fresh server, so both loops start cold.
    drop(inst);
    let (inst, _) = setup(&inp);
    cfg.trace = true;
    let traced = closed_loop(&inst.server, inst.rel, &cfg);
    report.count(&traced);
    report.served(&traced);
    report.served_layers(&traced, &base);
    check(&mut report, &inp, &inst.tree, &[&base, &traced]);
    crate::write_trace(args, &traced.trace);
    probes(&mut report, &inp, &inst.tree, &traced);
    report
}

/// Every served answer against the same query run directly on the tree.
fn check(report: &mut Report, inp: &Inputs, tree: &AndXorTree, loops: &[&LoopResult]) {
    let mut by_shape: BTreeMap<usize, Vec<(&oracle::Answer, u64)>> = BTreeMap::new();
    for lr in loops {
        for (i, a, n) in &lr.answers {
            by_shape.entry(*i).or_default().push((a, *n));
        }
    }
    for (i, answers) in by_shape {
        let direct = inp.shapes[i].query().top_k(TOP_K + ORACLE_MARGIN).run(tree);
        for (a, n) in answers {
            let verdict = match &direct {
                Ok(d) => oracle::check(a, d, TOP_K),
                Err(e) => Err(format!("oracle failed: {e}")),
            };
            report.verdict(n, || format!("shape {i} {:?}", inp.shapes[i]), verdict);
        }
    }
}

/// Standalone calls timed after the traced loop.
fn probes(report: &mut Report, inp: &Inputs, tree: &AndXorTree, traced: &LoopResult) {
    let prepare: Vec<f64> = (0..3).map(|_| timed_ms(|| tree.prepare()).0).collect();
    report.layer.insert("query.prepare_ms", median_of(&prepare));
    let mut peak = traced
        .queries
        .iter()
        .filter(|q| !q.hit)
        .filter_map(|q| q.peak_coefficients)
        .max()
        .unwrap_or(0);
    for (kind, name) in [
        ("pt", "tree.walk_ms.pt"),
        ("prfw", "tree.walk_ms.prfw"),
        ("prfe", "tree.walk_ms.prfe"),
        ("erank", "tree.walk_ms.erank"),
    ] {
        let shape = inp
            .shapes
            .iter()
            .find(|s| s.kind() == kind)
            .expect("the pool holds every kind");
        let q = shape.query().top_k(TOP_K);
        let mut reps = Vec::new();
        for _ in 0..3 {
            let (ms, res) = timed_ms(|| q.run(tree));
            match res {
                Ok(r) => {
                    peak = peak.max(r.report.memory.map_or(0, |m| m.peak_coefficients));
                    reps.push(ms);
                }
                Err(e) => {
                    report.failed += 1;
                    report.errors.push(format!("probe {shape:?}: {e}"));
                }
            }
        }
        report.layer.insert(name, median_of(&reps));
    }
    report.layer.insert("tree.peak_coefficients", peak as f64);
}
