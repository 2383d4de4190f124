//! `table2-migrate`: the migration plans of the four Table 2 simulators
//! (DBLP, IMDB, MONDIAL, YELP), one table per operation.
//!
//! Each table's program is synthesized from the plan's one example (a sample
//! document with two entities per kind) and executed through
//! `MigrationPlan::run` on a document with `PER_ENTITY` entities per kind.
//! Checks: every table bag-equals the table `DatasetSpec::generate` built next
//! to the document, and the tables that pass form a database with zero
//! constraint violations.
//!
//! Ten tables fail on every run, whatever the seed: the simulators' year and
//! count values depend only on (index, field index), not on the entity kind,
//! so in the two-entity example every kind's years equal the article's and
//! synthesis joins through them by value.  Past 60 entities per kind the
//! values repeat and those tables emit extra rows.  They are kept and counted
//! as failed until the generator is mended.  Any other table that fails is
//! also counted, and marks the run incorrect; a listed table that passes is
//! counted as passed, the fault being mended.

use super::{bench_config, permutation, Op, Workload};
use crate::layers::Layers;
use crate::stats::same_bag;
use crate::sys::Stopwatch;
use mitra_datagen::datasets::{all_datasets, DatasetSpec};
use mitra_dsl::Table;
use mitra_hdt::Hdt;
use mitra_migrate::database::Database;
use mitra_migrate::migrate::{MigrationPlan, TableOutcome};
use mitra_migrate::schema::Schema;
use std::collections::HashMap;

/// Entities per top-level kind in the execution document.  Fixed, not seeded:
/// the failing tables above must fail on the same inputs in every run.
const PER_ENTITY: usize = 100;

/// Tables left out of the round.  YELP's `review` alone takes 18 s of CPU,
/// 45% of all 50 tables: with it a round would take about 41 s instead of
/// 23 s.  `business` and `user` still spend YELP's time in the predicate
/// cover.
const LEFT_OUT: [(&str, &str); 1] = [("YELP", "review")];

/// The (dataset, table) pairs that fail on every run while the simulators'
/// year and count values ignore the entity kind.
const KNOWN_FAILING: [(&str, &str); 10] = [
    ("DBLP", "book"),
    ("DBLP", "incollection"),
    ("DBLP", "inproceedings"),
    ("DBLP", "proceedings"),
    ("DBLP", "phdthesis"),
    ("IMDB", "series"),
    ("IMDB", "person"),
    ("IMDB", "company"),
    ("MONDIAL", "population_data"),
    ("MONDIAL", "politics"),
];

struct Dataset {
    spec: DatasetSpec,
    document: Hdt,
    expected: HashMap<String, Table>,
    /// Tables of this round that passed their check.
    passed: Vec<(String, Table)>,
}

pub struct Table2 {
    datasets: Vec<Dataset>,
    /// One single-table plan per operation, in run order, with its dataset.
    ops: Vec<(usize, MigrationPlan)>,
    /// Tables of this round outside `KNOWN_FAILING` that failed.
    unexpected: Vec<String>,
}

impl Table2 {
    pub fn setup(seed: u64) -> Result<Table2, String> {
        let mut datasets = Vec::new();
        let mut ops = Vec::new();
        for (d, spec) in all_datasets().into_iter().enumerate() {
            let (document, expected) = spec.generate(PER_ENTITY);
            document.ensure_index();
            let plan = spec.migration_plan();
            for task in plan
                .tasks
                .iter()
                .filter(|t| !LEFT_OUT.contains(&(spec.name, t.table.as_str())))
            {
                let mut single = MigrationPlan::new(plan.schema.clone());
                single.synth_config = bench_config(plan.synth_config);
                ops.push((d, single.with_task(task.clone())));
            }
            datasets.push(Dataset {
                passed: Vec::new(),
                spec,
                document,
                expected,
            });
        }
        let order = permutation(ops.len(), seed);
        // Warm-up: the first table of the first dataset, untimed, whatever
        // the seed.
        let first = order.iter().position(|&i| i == 0).unwrap_or(0);
        let ops = order.into_iter().map(|i| ops[i].clone()).collect();
        let mut w = Table2 {
            datasets,
            ops,
            unexpected: Vec::new(),
        };
        w.run(first, &mut Layers::disabled()).check?;
        w.end_round(&mut Layers::disabled())?;
        Ok(w)
    }

    /// Runs operation `i`'s single-table plan and checks its table.
    fn migrate(&mut self, i: usize, layers: &mut Layers) -> Op {
        let (d, plan) = &self.ops[i];
        let dataset = &mut self.datasets[*d];
        let clock = Stopwatch::start();
        let report = plan.run(&dataset.document);
        let cpu = clock.cpu();

        let table = plan.tasks[0].table.as_str();
        let report = match report {
            Ok(r) => r,
            Err(e) => {
                return Op {
                    cpu,
                    preds: 0,
                    check: Err(format!("migration failed: {e}")),
                }
            }
        };
        let Some(outcome) = report.tables.first() else {
            return Op {
                cpu,
                preds: 0,
                check: Err("no table report".into()),
            };
        };
        if let Some(p) = &outcome.profile {
            layers.add_profile(p);
            layers.add("synth.learn_s", outcome.synthesis_time.as_secs_f64());
        }
        layers.add("migrate.execution_s", outcome.execution_time.as_secs_f64());
        layers.add("migrate.rows", outcome.rows as f64);
        let preds = mitra_dsl::parse::parse_program(&outcome.program)
            .map(|p| mitra_dsl::cost(&p).atoms)
            .unwrap_or(0);
        let check = match (&outcome.outcome, report.database.table(table)) {
            (TableOutcome::Ok, Some(got)) => match dataset.expected.get(table) {
                Some(want) if same_bag(got, want) => {
                    dataset.passed.push((table.to_string(), got.clone()));
                    Ok(())
                }
                Some(want) => Err(format!("{} rows, expected {}", got.len(), want.len())),
                None => Err("no expected table".into()),
            },
            (TableOutcome::Ok, None) => Err("no table in the database".into()),
            (other, _) => Err(format!("outcome {}", other.label())),
        };
        Op { cpu, preds, check }
    }
}

impl Workload for Table2 {
    fn ops(&self) -> usize {
        self.ops.len()
    }

    fn op_name(&self, i: usize) -> String {
        let (d, plan) = &self.ops[i];
        format!(
            "table2 {}.{}",
            self.datasets[*d].spec.name.to_lowercase(),
            plan.tasks[0].table
        )
    }

    fn run(&mut self, i: usize, layers: &mut Layers) -> Op {
        let op = self.migrate(i, layers);
        let (d, plan) = &self.ops[i];
        let pair = (self.datasets[*d].spec.name, plan.tasks[0].table.as_str());
        if op.check.is_err() && !KNOWN_FAILING.contains(&pair) {
            let name = self.op_name(i);
            self.unexpected.push(name);
        }
        op
    }

    fn end_round(&mut self, _layers: &mut Layers) -> Result<(), String> {
        let unexpected = std::mem::take(&mut self.unexpected);
        for d in &mut self.datasets {
            let passed = std::mem::take(&mut d.passed);
            let violations = passed_database(&d.spec.schema(), passed).check_constraints();
            if !violations.is_empty() {
                return Err(format!(
                    "{}: {} constraint violations among the tables that passed, first: {}",
                    d.spec.name,
                    violations.len(),
                    violations[0]
                ));
            }
        }
        if !unexpected.is_empty() {
            return Err(format!(
                "tables outside the known-failing ten failed: {}",
                unexpected.join(", ")
            ));
        }
        Ok(())
    }
}

/// The tables that passed, under `schema` cut down to them: foreign keys into
/// a table that failed are dropped, since its rows are already counted as
/// failed and its keys are not there to match.
fn passed_database(schema: &Schema, passed: Vec<(String, Table)>) -> Database {
    let names: Vec<&str> = passed.iter().map(|(n, _)| n.as_str()).collect();
    let mut cut = Schema::new();
    for t in schema
        .tables
        .iter()
        .filter(|t| names.contains(&t.name.as_str()))
    {
        let mut t = t.clone();
        t.foreign_keys
            .retain(|fk| names.contains(&fk.referenced_table.as_str()));
        cut = cut.with_table(t);
    }
    let mut db = Database::new(cut);
    for (name, table) in passed {
        db.set_table(&name, table);
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_failing_tables_are_tables_of_the_round() {
        for (dataset, table) in KNOWN_FAILING {
            assert!(!LEFT_OUT.contains(&(dataset, table)));
            let spec = all_datasets()
                .into_iter()
                .find(|s| s.name == dataset)
                .unwrap_or_else(|| panic!("no dataset {dataset}"));
            assert!(
                spec.migration_plan().tasks.iter().any(|t| t.table == table),
                "{dataset} has no table {table}"
            );
        }
    }
}
