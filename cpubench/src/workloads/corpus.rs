//! `corpus-stream`: seeded clean mixer corpora through the corpus service.
//!
//! Each operation is one `mitra_migrate::corpus::run` job over its own
//! corpus: thousands of tiny parses, one synthesis per (shape, table) through
//! the per-shape program cache, and the write path (the fsync'd journal,
//! shard files and table files).  The corpora carry no malformed documents
//! and two shapes.  Checks: the data columns of both output tables equal the
//! mixer oracles' per-document tables as a bag, there are zero constraint
//! violations, nothing is quarantined, and `programs_synthesized` equals
//! shapes × tables.
//!
//! The service does not hand back its programs, so `program_preds` comes from
//! synthesizing each shape's exemplar (its first document) during set-up, with
//! the same call and configuration the service makes.

use super::{bench_config, Op, Workload};
use crate::layers::Layers;
use crate::stats::bag_diff;
use crate::sys::Stopwatch;
use mitra_datagen::fuzz::{mixed_corpus, mixer_job, CorpusMix};
use mitra_dsl::Value;
use mitra_migrate::corpus::shard::split_csv_line;
use mitra_migrate::corpus::{parse_corpus_text, run, CorpusJob, CorpusTableSource};
use mitra_synth::fingerprint::fingerprint;
use mitra_synth::synthesize::{learn_transformation, Example};
use std::collections::HashSet;
use std::path::{Path, PathBuf};

/// Jobs per round and documents per job.
const JOBS: usize = 2;
const DOCS: usize = 5_000;
/// Each corpus starts with the same `HEAD_DOCS` documents of a fixed mixer
/// seed, which hold both shapes.  The service synthesizes from each shape's
/// first document, and synthesis is a large part of a job, so a seeded
/// exemplar would make the work of a job depend on the seed.
const HEAD_SEED: u64 = 7;
const HEAD_DOCS: usize = 8;
/// Documents per shard, the checkpoint granularity: each shard costs one
/// shard file and one fsync'd journal record.  The service's default of 32
/// makes fsync's kernel time, which varies with the host's disk, a large part
/// of the job.
const SHARD_SIZE: usize = 250;
/// Share of documents with the second (`<promo>`) shape.
const PROMO_PCT: u32 = 50;

/// Where the jobs write, inside the benchmark's own directory.
const WORK_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/.work");

/// One corpus and what its tables must hold.
struct Job {
    text: String,
    /// Per table, in task order: the expected data-column rows.
    expected: Vec<Vec<Vec<Value>>>,
    /// Distinct shapes in the corpus.
    shapes: usize,
    /// One past the index of the last shape's first document.
    exemplars_in_head: usize,
    /// Atomic predicates of the programs the service synthesizes for it.
    preds: usize,
}

pub struct CorpusStream {
    job: CorpusJob,
    jobs: Vec<Job>,
    dir: PathBuf,
}

impl CorpusStream {
    pub fn setup(seed: u64) -> Result<CorpusStream, String> {
        let mut job = mixer_job();
        job.config.threads = 1;
        job.config.shard_size = SHARD_SIZE;
        job.config.synth = bench_config(job.config.synth);
        let head = mixed_corpus(&CorpusMix {
            seed: HEAD_SEED,
            docs: HEAD_DOCS,
            malformed_pct: 0,
            promo_pct: PROMO_PCT,
        })
        .text;
        let head_docs = head.split_once('\n').map_or("", |(_, docs)| docs);
        let jobs = (0..JOBS)
            .map(|j| {
                let mix = CorpusMix {
                    seed: seed.wrapping_mul(1_000_003).wrapping_add(j as u64),
                    docs: DOCS - HEAD_DOCS,
                    malformed_pct: 0,
                    promo_pct: PROMO_PCT,
                };
                let text = mixed_corpus(&mix).text;
                let (header, docs) = text.split_once('\n').unwrap_or((&text, ""));
                expect(&job, format!("{header}\n{head_docs}{docs}"))
            })
            .collect::<Result<Vec<Job>, String>>()?;
        if jobs
            .iter()
            .any(|j| j.shapes != 2 || j.exemplars_in_head > HEAD_DOCS)
        {
            return Err("the fixed head does not hold both shapes".into());
        }
        let dir = Path::new(WORK_DIR).join(std::process::id().to_string());
        let mut w = CorpusStream { job, jobs, dir };
        // Warm-up: the first job, untimed.
        w.run(0, &mut Layers::disabled()).check?;
        Ok(w)
    }
}

impl Drop for CorpusStream {
    fn drop(&mut self) {
        // Best effort: a leftover directory is ignored by git and harmless.
        let _ = std::fs::remove_dir_all(&self.dir);
        let _ = std::fs::remove_dir(WORK_DIR);
    }
}

/// Parses every document of `text` apart from the service, and builds the
/// expected tables from the job's oracles and the predicate count from one
/// synthesis per (shape, table) on each shape's first document.
fn expect(job: &CorpusJob, text: String) -> Result<Job, String> {
    let (_, docs) = parse_corpus_text(&text);
    let mut expected = vec![Vec::new(); job.tasks.len()];
    let mut seen = HashSet::new();
    let mut preds = 0;
    let mut exemplars_in_head = 0;
    for (d, doc) in docs.iter().enumerate() {
        let tree = job.format.parse(doc.text).map_err(|e| e.to_string())?;
        let first_of_shape = seen.insert(fingerprint(&tree));
        if first_of_shape {
            exemplars_in_head = d + 1;
        }
        for (t, task) in job.tasks.iter().enumerate() {
            let CorpusTableSource::Oracle(oracle) = &task.source else {
                return Err(format!("table {} has no oracle", task.table));
            };
            let table =
                oracle(&tree).ok_or_else(|| format!("oracle gave no {} table", task.table))?;
            if first_of_shape {
                let synthesis = learn_transformation(
                    &[Example::new(tree.clone(), table.clone())],
                    &job.config.synth,
                )
                .map_err(|e| format!("synthesizing {}: {e}", task.table))?;
                preds += synthesis.cost.atoms;
            }
            expected[t].extend(table.rows);
        }
    }
    Ok(Job {
        text,
        expected,
        shapes: seen.len(),
        exemplars_in_head,
        preds,
    })
}

/// The data columns of the table file `name.csv` under `dir/tables`.
fn read_data_columns(
    dir: &Path,
    name: &str,
    columns: &[String],
) -> Result<Vec<Vec<Value>>, String> {
    let path = dir.join("tables").join(format!("{name}.csv"));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut lines = text.lines();
    let header = split_csv_line(lines.next().unwrap_or_default());
    let idx: Vec<usize> = columns
        .iter()
        .map(|c| {
            header
                .iter()
                .position(|h| h == c)
                .ok_or(format!("{name}.csv has no column {c}"))
        })
        .collect::<Result<_, _>>()?;
    Ok(lines
        .map(|line| {
            let cells = split_csv_line(line);
            idx.iter()
                .map(|&i| Value::from_data(cells.get(i).map_or("", String::as_str)))
                .collect()
        })
        .collect())
}

impl Workload for CorpusStream {
    fn ops(&self) -> usize {
        self.jobs.len()
    }

    fn op_name(&self, i: usize) -> String {
        format!("corpus job {i}")
    }

    fn run(&mut self, i: usize, layers: &mut Layers) -> Op {
        let job = &self.jobs[i];
        let dir = self.dir.join(format!("job-{i}"));
        let clock = Stopwatch::start();
        let report = run(&self.job, &job.text, &dir);
        let cpu = clock.cpu();
        let check = (|| {
            let report = report.map_err(|e| e.to_string())?;
            layers.add("corpus.scan_synth_s", report.synth_wall.as_secs_f64());
            layers.add("corpus.exec_s", report.exec_wall.as_secs_f64());
            if !report.quarantined.is_empty() || report.violations != 0 {
                return Err(format!(
                    "{} quarantined, {} violations",
                    report.quarantined.len(),
                    report.violations
                ));
            }
            let tables = self.job.tasks.len();
            if report.shapes != job.shapes || report.programs_synthesized != job.shapes * tables {
                return Err(format!(
                    "{} shapes and {} programs, expected {} and {}",
                    report.shapes,
                    report.programs_synthesized,
                    job.shapes,
                    job.shapes * tables
                ));
            }
            for (task, want) in self.job.tasks.iter().zip(&job.expected) {
                let got = read_data_columns(&dir, &task.table, &task.data_columns)?;
                let (missing, extra) = bag_diff(want, &got);
                if missing + extra > 0 {
                    return Err(format!(
                        "{}: {missing} rows missing, {extra} extra",
                        task.table
                    ));
                }
            }
            Ok(())
        })();
        Op {
            cpu,
            preds: job.preds,
            check,
        }
    }
}
