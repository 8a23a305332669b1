//! Answer checking. A served or sharded answer is compared with the same
//! query run directly on an unserved, unsharded backend, at 1e-9.

use std::collections::HashMap;

use prf_core::query::{RankedResult, Values};

/// Relative tolerance (absolute below magnitude 1) of every comparison.
pub const TOL: f64 = 1e-9;

/// How far past `top_k` the oracle ranks, so a tie straddling the cut can
/// be recognised instead of reported.
pub const ORACLE_MARGIN: usize = 28;

/// The part of an answer the check needs: the ranked ids, their ranking
/// keys, and their values.
#[derive(Clone, Debug)]
pub struct Answer {
    pub ids: Vec<u32>,
    pub keys: Vec<f64>,
    pub values: Vec<[f64; 2]>,
}

impl Answer {
    pub fn of(r: &RankedResult) -> Self {
        let ids: Vec<u32> = r.ranking.order().iter().map(|t| t.0).collect();
        let keys = (0..ids.len()).map(|i| r.ranking.key_at(i)).collect();
        let values = ids
            .iter()
            .map(|&t| value_at(&r.values, t as usize))
            .collect();
        Answer { ids, keys, values }
    }

    /// Bit-for-bit equality, so repeated answers are checked once.
    pub fn same(&self, other: &Answer) -> bool {
        let bits = |a: &Answer| -> Vec<u64> {
            a.keys
                .iter()
                .chain(a.values.iter().flatten())
                .map(|x| x.to_bits())
                .collect()
        };
        self.ids == other.ids && bits(self) == bits(other)
    }
}

/// A tuple's value as two comparable reals: `(re, im)` for complex values,
/// the key for log-domain values, the log-magnitude for scaled values.
fn value_at(values: &Values, t: usize) -> [f64; 2] {
    match values {
        Values::Complex(v) => [v[t].re, v[t].im],
        Values::LogDomain(v) => [v[t], 0.0],
        Values::Scaled(v) => [v[t].log2_magnitude(), 0.0],
    }
}

pub fn close(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= TOL * b.abs().max(1.0)
}

/// Checks a top-`k` answer against an oracle answer ranked to at least
/// `k + ORACLE_MARGIN`. Position by position the keys must agree; each
/// answered id must hold the oracle's key and value for that id (so ids
/// may swap only inside a tie).
pub fn check(served: &Answer, oracle: &RankedResult, k: usize) -> Result<(), String> {
    let want = oracle.ranking.len().min(k);
    if served.ids.len() != want {
        return Err(format!(
            "{} ranked tuples, expected {want}",
            served.ids.len()
        ));
    }
    let oracle_key: HashMap<u32, f64> = oracle
        .ranking
        .order()
        .iter()
        .enumerate()
        .map(|(i, t)| (t.0, oracle.ranking.key_at(i)))
        .collect();
    let mut seen = std::collections::HashSet::new();
    for (i, &id) in served.ids.iter().enumerate() {
        if !seen.insert(id) {
            return Err(format!("tuple {id} ranked twice"));
        }
        let key = served.keys[i];
        let expect = oracle.ranking.key_at(i);
        if !close(key, expect) {
            return Err(format!("position {i}: key {key} vs oracle {expect}"));
        }
        match oracle_key.get(&id) {
            Some(&k_id) if close(key, k_id) => {}
            Some(&k_id) => {
                return Err(format!(
                    "position {i}: tuple {id} has key {key}, oracle {k_id}"
                ))
            }
            None => {
                return Err(format!(
                    "position {i}: tuple {id} is not in the oracle's top"
                ))
            }
        }
        let (got, exp) = (served.values[i], value_at(&oracle.values, id as usize));
        if !(close(got[0], exp[0]) && close(got[1], exp[1])) {
            return Err(format!("tuple {id}: value {got:?} vs oracle {exp:?}"));
        }
    }
    Ok(())
}
