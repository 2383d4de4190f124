//! `ingest-exec`: documents of about a million nodes, from bytes to tables.
//!
//! Two documents of the paper's motivating example (§2): attribute-style XML
//! as in Fig. 2a, and the same network as JSON.  The program is synthesized
//! from the canonical three-person example during set-up, so the timed phase
//! spends nothing on synthesis: an operation is one document's parse, arena
//! build, index build and planned execution.  Check: the rows equal
//! `social::expected_table` as a bag.

use super::{bench_config, Op, Workload};
use crate::layers::Layers;
use crate::stats::same_bag;
use crate::sys::Stopwatch;
use mitra_datagen::corpus::hdt_to_json_text;
use mitra_datagen::social::{
    expected_table, social_network, social_network_xml_attrs, training_example,
};
use mitra_dsl::{Program, Table};
use mitra_hdt::{parse_json, parse_xml, Hdt};
use mitra_synth::exec::execute_with_stats;
use mitra_synth::plan::plan_with_tree;
use mitra_synth::synthesize::{learn_transformation, SynthConfig};

/// Persons per document: each contributes seven nodes (Person, id, name,
/// Friendship, Friend, fid, years), so about 10⁶ nodes.  The seed adds up to
/// 256 more.
const PERSONS: usize = 142_600;
const FRIENDS: usize = 1;

#[derive(Clone, Copy, Debug)]
enum Format {
    Xml,
    Json,
}

pub struct Ingest {
    docs: Vec<(Format, String)>,
    program: Program,
    preds: usize,
    expected: Table,
}

impl Ingest {
    pub fn setup(seed: u64) -> Result<Ingest, String> {
        let persons = PERSONS + (seed % 257) as usize;
        let xml = social_network_xml_attrs(persons, FRIENDS);
        let json = hdt_to_json_text(&social_network(persons, FRIENDS));
        let expected = expected_table(persons, FRIENDS);
        let synthesis =
            learn_transformation(&[training_example()], &bench_config(SynthConfig::default()))
                .map_err(|e| format!("synthesizing the motivating program: {e}"))?;
        let mut w = Ingest {
            docs: vec![(Format::Xml, xml), (Format::Json, json)],
            program: synthesis.program,
            preds: synthesis.cost.atoms,
            expected,
        };
        // Warm-up: the XML document, untimed.  Without it the first operation
        // of a process runs about 15% slower than the rest.
        w.run(0, &mut Layers::disabled()).check?;
        Ok(w)
    }
}

impl Workload for Ingest {
    fn ops(&self) -> usize {
        self.docs.len()
    }

    fn op_name(&self, i: usize) -> String {
        format!("ingest {:?} document", self.docs[i].0)
    }

    fn run(&mut self, i: usize, layers: &mut Layers) -> Op {
        let (format, text) = &self.docs[i];
        let clock = Stopwatch::start();
        let tree: Result<Hdt, String> = match format {
            Format::Xml => layers
                .time("hdt.parse_s", || parse_xml(text))
                .map(|doc| layers.time("hdt.arena_s", || doc.to_hdt())),
            Format::Json => layers
                .time("hdt.parse_s", || parse_json(text))
                .map(|doc| layers.time("hdt.arena_s", || doc.to_hdt("root"))),
        }
        .map_err(|e| e.to_string());
        let tree = match tree {
            Ok(t) => t,
            Err(e) => {
                return Op {
                    cpu: clock.cpu(),
                    preds: 0,
                    check: Err(format!("parse failed: {e}")),
                }
            }
        };
        layers.time("hdt.index_s", || tree.ensure_index());
        // `execute_with_stats` plans again inside; this is a second planning.
        let replan = layers.time_apart("exec.plan_s", || plan_with_tree(&self.program, &tree));
        let (table, _stats) = layers.time("exec.execute_s", || {
            execute_with_stats(&tree, &self.program)
        });
        layers.add("hdt.nodes", tree.len() as f64);
        drop(tree);
        let cpu = clock.cpu() - replan;

        let check = if same_bag(&table, &self.expected) {
            Ok(())
        } else {
            Err(format!(
                "{} rows, expected {}",
                table.len(),
                self.expected.len()
            ))
        };
        // The program is synthesized once, in set-up; count it once a round.
        let preds = if i == 0 { self.preds } else { 0 };
        Op { cpu, preds, check }
    }
}
