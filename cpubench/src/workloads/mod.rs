//! The four workloads.  Each set-up builds its inputs and the expected
//! outputs from the seed, outside the timed phase; each operation returns its
//! own on-CPU time (the program's work only, not the benchmark's checks) and
//! the outcome of its output check.

mod corpus;
mod ingest;
mod table1;
mod table2;

use crate::layers::Layers;
use mitra_synth::synthesize::SynthConfig;

/// Workload names, as `--workload` takes them.
pub const NAMES: [&str; 4] = [
    "table1-tasks",
    "table2-migrate",
    "ingest-exec",
    "corpus-stream",
];

/// The outcome of one operation.
pub struct Op {
    /// On-CPU seconds of the program's work.
    pub cpu: f64,
    /// Atomic predicates of the programs this operation synthesized.
    pub preds: usize,
    /// `Ok` when every output check passed, else why not.
    pub check: Result<(), String>,
}

/// A set-up workload: a fixed list of operations run in rounds.
pub trait Workload {
    /// Operations per round.
    fn ops(&self) -> usize;
    /// A name for operation `i`, for failure messages.
    fn op_name(&self, i: usize) -> String;
    /// Runs operation `i`, timing the program's calls into `layers`.
    fn run(&mut self, i: usize, layers: &mut Layers) -> Op;
    /// Checks that span the whole round; an error marks the run incorrect.
    fn end_round(&mut self, _layers: &mut Layers) -> Result<(), String> {
        Ok(())
    }
}

/// Builds the named workload for `seed`, including its untimed warm-up.
pub fn setup(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "table1-tasks" => Box::new(table1::Table1::setup(seed)?),
        "table2-migrate" => Box::new(table2::Table2::setup(seed)?),
        "ingest-exec" => Box::new(ingest::Ingest::setup(seed)?),
        "corpus-stream" => Box::new(corpus::CorpusStream::setup(seed)?),
        other => return Err(format!("unknown workload {other}")),
    })
}

/// `base` at one worker thread, with no wall-clock deadline and unlimited
/// fuel, so every synthesis finishes the search it starts.
pub fn bench_config(base: SynthConfig) -> SynthConfig {
    SynthConfig {
        threads: 1,
        timeout: None,
        budget: mitra_synth::budget::Budget::UNLIMITED,
        ..base
    }
}

/// A seeded permutation of `0..n` (splitmix64-driven Fisher–Yates), the
/// order in which a workload with fixed inputs runs its operations.
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed ^ 0x6A09_E667_F3BC_C908;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_is_a_seeded_permutation() {
        let a = permutation(49, 3);
        let mut sorted = a.clone();
        sorted.sort();
        assert_eq!(sorted, (0..49).collect::<Vec<_>>());
        assert_eq!(a, permutation(49, 3));
        assert_ne!(a, permutation(49, 4));
        assert!(permutation(0, 1).is_empty());
    }

    #[test]
    fn bench_config_removes_deadline_and_parallelism() {
        let c = bench_config(SynthConfig::default());
        assert_eq!(c.threads, 1);
        assert_eq!(c.timeout, None);
        assert_eq!(c.budget, mitra_synth::budget::Budget::UNLIMITED);
    }
}
