//! `table1-tasks`: every expressible Table 1 task with at most three output
//! columns (49 tasks over XML and JSON, all six DSL families).
//!
//! One operation is one task: synthesis from its example, code generation for
//! its format's back-end, and execution of the program with the planner on a
//! larger document of the task's shape.  Checks: the reference evaluator
//! (`mitra_dsl::eval_program`) reproduces the example's output as a bag, and
//! on the larger document it matches the planner's table.

use super::{bench_config, permutation, Op, Workload};
use crate::layers::Layers;
use crate::stats::same_bag;
use crate::sys::Stopwatch;
use mitra_codegen::{generate, Backend};
use mitra_datagen::corpus::{generate_corpus, DocFormat, Task};
use mitra_dsl::eval_program;
use mitra_hdt::Hdt;
use mitra_synth::exec::execute_with_stats;
use mitra_synth::plan::plan_with_tree;
use mitra_synth::synthesize::{learn_transformation, SynthConfig};

/// Widest output the workload takes; wider tasks run 0.3–65 s each.
const MAX_COLUMNS: usize = 3;
/// Record multiplier of the execution document.
const SCALE: usize = 4;

pub struct Table1 {
    /// Tasks with their scaled execution documents, in run order.
    tasks: Vec<(Task, Hdt)>,
    config: SynthConfig,
}

impl Table1 {
    pub fn setup(seed: u64) -> Result<Table1, String> {
        let chosen: Vec<Task> = generate_corpus()
            .into_iter()
            .filter(|t| t.expressible && t.example.output.arity() <= MAX_COLUMNS)
            .collect();
        let tasks = permutation(chosen.len(), seed)
            .into_iter()
            .map(|i| {
                let task = chosen[i].clone();
                task.example.tree.ensure_index();
                let scaled = task.scaled_document(SCALE);
                scaled.ensure_index();
                (task, scaled)
            })
            .collect();
        let mut w = Table1 {
            tasks,
            config: bench_config(SynthConfig::default()),
        };
        // Warm-up: the task with the lowest id, untimed, whatever the seed.
        let first = (0..w.tasks.len())
            .min_by_key(|&i| w.tasks[i].0.id)
            .unwrap_or(0);
        w.run(first, &mut Layers::disabled()).check?;
        Ok(w)
    }
}

impl Workload for Table1 {
    fn ops(&self) -> usize {
        self.tasks.len()
    }

    fn op_name(&self, i: usize) -> String {
        let t = &self.tasks[i].0;
        format!("table1 task {} ({})", t.id, t.name)
    }

    fn run(&mut self, i: usize, layers: &mut Layers) -> Op {
        let (task, scaled) = &self.tasks[i];
        let clock = Stopwatch::start();
        let synthesis = layers.time("synth.learn_s", || {
            learn_transformation(std::slice::from_ref(&task.example), &self.config)
        });
        let synthesis = match synthesis {
            Ok(s) => s,
            Err(e) => {
                return Op {
                    cpu: clock.cpu(),
                    preds: 0,
                    check: Err(format!("synthesis failed: {e}")),
                }
            }
        };
        let program = &synthesis.program;
        let backend = match task.format {
            DocFormat::Xml => Backend::Xslt,
            DocFormat::Json => Backend::JavaScript,
        };
        let artifact = layers.time("codegen.emit_s", || generate(program, backend));
        // `execute_with_stats` plans again inside; this is a second planning.
        let replan = layers.time_apart("exec.plan_s", || plan_with_tree(program, scaled));
        let (table, _stats) = layers.time("exec.execute_s", || execute_with_stats(scaled, program));
        let cpu = clock.cpu() - replan;

        layers.add_profile(&synthesis.profile);
        layers.add("codegen.loc", artifact.loc() as f64);
        let check = (|| {
            let on_example =
                eval_program(&task.example.tree, program).map_err(|e| e.to_string())?;
            if !same_bag(&on_example, &task.example.output) {
                return Err("the reference evaluator does not reproduce the example".to_string());
            }
            let reference = eval_program(scaled, program).map_err(|e| e.to_string())?;
            if !same_bag(&reference, &table) {
                return Err(format!(
                    "planner emitted {} rows, reference evaluator {}",
                    table.len(),
                    reference.len()
                ));
            }
            Ok(())
        })();
        Op {
            cpu,
            preds: synthesis.cost.atoms,
            check,
        }
    }
}
