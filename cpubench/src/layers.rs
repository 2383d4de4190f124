//! Per-layer accounting for the traced run, and the JSON of both metric sets.
//!
//! The benchmark adds no spans inside the program: a layer's time is the
//! on-CPU time of the calls the benchmark itself makes into that layer's
//! public functions, plus the profiles and counters the program already
//! returns (`SynthProfile`, `ExecStats`, `CorpusReport`, the `mitra-trace`
//! counters).  Every value is reported per round.

use crate::sys::Stopwatch;
use mitra_synth::synthesize::SynthProfile;
use mitra_trace::MetricsSnapshot;
use std::collections::BTreeMap;

/// Per-layer metrics in report order, with their units.  Ratios are computed
/// from the totals at the end; everything else is summed and divided by the
/// number of rounds.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("hdt.parse_s", "s"),
    ("hdt.arena_s", "s"),
    ("hdt.index_s", "s"),
    ("hdt.nodes", "count"),
    ("synth.learn_s", "s"),
    ("synth.dfa_build_s", "s"),
    ("synth.dfa_intersect_s", "s"),
    ("synth.dfa_enumerate_s", "s"),
    ("synth.predicate_learn_s", "s"),
    ("synth.validate_s", "s"),
    ("synth.candidates_examined", "count"),
    ("synth.candidates_pruned", "count"),
    ("synth.prune_ratio", "ratio"),
    ("synth.cache_hit_ratio", "ratio"),
    ("exec.plan_s", "s"),
    ("exec.execute_s", "s"),
    ("exec.tuples_considered", "count"),
    ("exec.rows_emitted", "count"),
    ("exec.rows_per_tuple", "ratio"),
    ("migrate.execution_s", "s"),
    ("migrate.rows", "count"),
    ("corpus.scan_synth_s", "s"),
    ("corpus.exec_s", "s"),
    ("corpus.docs_per_program", "ratio"),
    ("corpus.write_bytes", "bytes"),
    ("corpus.write_calls", "count"),
    ("codegen.emit_s", "s"),
    ("codegen.loc", "count"),
    ("host.wall_s", "s"),
    ("host.steal_s", "s"),
];

/// The caches whose `cache.<name>.{hit,miss}` counters make up
/// `synth.cache_hit_ratio`.
const SYNTH_CACHES: [&str; 4] = ["column_nodes", "row_coverage", "phi_data", "constants"];

/// Accumulates per-layer totals; a disabled instance only runs the calls.
#[derive(Debug)]
pub struct Layers {
    enabled: bool,
    totals: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Records nothing (the untraced run).
    pub fn disabled() -> Layers {
        Layers {
            enabled: false,
            totals: BTreeMap::new(),
        }
    }

    /// Records every call it times (the traced run).
    pub fn enabled() -> Layers {
        Layers {
            enabled: true,
            totals: BTreeMap::new(),
        }
    }

    /// Adds `value` to the metric `name`.
    pub fn add(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            *self.totals.entry(name).or_insert(0.0) += value;
        }
    }

    /// Runs `f`, adding its on-CPU seconds to `name` when enabled.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let w = Stopwatch::start();
        let out = f();
        self.add(name, w.cpu());
        out
    }

    /// Runs `f` only when enabled, adding its on-CPU seconds to `name`, and
    /// returns those seconds (0 when disabled).  For a call the program makes
    /// internally but does not time itself: the benchmark makes it once more
    /// and the caller leaves the returned seconds out of the operation's time,
    /// so the extra call does not count in `cpu_s` or `trace.overhead_s`.
    pub fn time_apart<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> f64 {
        if !self.enabled {
            return 0.0;
        }
        let w = Stopwatch::start();
        std::hint::black_box(f());
        let s = w.cpu();
        self.add(name, s);
        s
    }

    /// Adds the phase timers of one synthesis profile.
    /// The profile's timers are the program's own wall-clock accumulators.
    pub fn add_profile(&mut self, p: &SynthProfile) {
        self.add("synth.dfa_build_s", p.dfa_build.as_secs_f64());
        self.add("synth.dfa_intersect_s", p.dfa_intersect.as_secs_f64());
        self.add("synth.dfa_enumerate_s", p.dfa_enumerate.as_secs_f64());
        self.add("synth.predicate_learn_s", p.predicate_learn.as_secs_f64());
        self.add("synth.validate_s", p.validate.as_secs_f64());
    }

    /// Adds what the `mitra-trace` counters saw over the traced phase.
    pub fn add_counters(&mut self, m: &MetricsSnapshot) {
        let c = |name: &str| m.counter(name) as f64;
        self.add("synth.candidates_examined", c("synth.candidates.examined"));
        self.add("synth.candidates_pruned", c("synth.candidates.pruned"));
        self.add("exec.tuples_considered", c("exec.tuples_considered"));
        self.add("exec.rows_emitted", c("exec.rows_emitted"));
        self.add("hdt.nodes", c("ingest.xml.nodes") + c("ingest.json.nodes"));
        self.add("corpus.docs", c("corpus.docs"));
        self.add("corpus.programs", c("corpus.programs_synthesized"));
        for cache in SYNTH_CACHES {
            self.add("cache.hit", c(&format!("cache.{cache}.hit")));
            self.add("cache.miss", c(&format!("cache.{cache}.miss")));
        }
    }

    fn total(&self, name: &str) -> f64 {
        self.totals.get(name).copied().unwrap_or(0.0)
    }

    /// The per-layer metrics as a JSON object, per round over `rounds`, and
    /// `trace.overhead_s`: traced minus untraced CPU seconds of one round.
    pub fn per_layer_json(&self, rounds: usize, trace_overhead_s: f64) -> String {
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let popped =
            self.total("synth.candidates_examined") + self.total("synth.candidates_pruned");
        let mut values: Vec<(&str, f64, &str)> = PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = match name {
                    "synth.prune_ratio" => ratio(self.total("synth.candidates_pruned"), popped),
                    "synth.cache_hit_ratio" => ratio(
                        self.total("cache.hit"),
                        self.total("cache.hit") + self.total("cache.miss"),
                    ),
                    "exec.rows_per_tuple" => ratio(
                        self.total("exec.rows_emitted"),
                        self.total("exec.tuples_considered"),
                    ),
                    "corpus.docs_per_program" => {
                        ratio(self.total("corpus.docs"), self.total("corpus.programs"))
                    }
                    _ => self.total(name) / rounds as f64,
                };
                (name, v, unit)
            })
            .collect();
        values.push(("trace.overhead_s", trace_overhead_s, "s"));
        end_to_end_json(&values)
    }
}

/// `{"name": {"value": v, "unit": u}, ...}` in the given order.
pub fn end_to_end_json(values: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = values
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_layers_run_the_call_and_record_nothing() {
        let mut l = Layers::disabled();
        assert_eq!(l.time("hdt.parse_s", || 7), 7);
        assert_eq!(l.time_apart("exec.plan_s", || panic!("not run")), 0.0);
        l.add("migrate.rows", 5.0);
        assert_eq!(l.total("hdt.parse_s"), 0.0);
        assert_eq!(l.total("migrate.rows"), 0.0);
    }

    #[test]
    fn time_apart_returns_what_it_records() {
        let mut l = Layers::enabled();
        let s = l.time_apart("exec.plan_s", || (0..100_000u64).sum::<u64>());
        assert!(s >= 0.0);
        assert_eq!(l.total("exec.plan_s"), s);
    }

    #[test]
    fn per_layer_values_are_per_round_and_ratios_are_not() {
        let mut l = Layers::enabled();
        l.add("migrate.rows", 300.0);
        l.add("synth.candidates_examined", 30.0);
        l.add("synth.candidates_pruned", 10.0);
        l.add("exec.tuples_considered", 8.0);
        l.add("exec.rows_emitted", 2.0);
        let json = l.per_layer_json(3, 0.5);
        assert!(json.contains("\"migrate.rows\": {\"value\": 100, \"unit\": \"count\"}"));
        assert!(json.contains("\"synth.prune_ratio\": {\"value\": 0.25, \"unit\": \"ratio\"}"));
        assert!(json.contains("\"exec.rows_per_tuple\": {\"value\": 0.25, \"unit\": \"ratio\"}"));
        for (name, _) in PER_LAYER {
            assert!(json.contains(&format!("\"{name}\"")), "{name} missing");
        }
        assert!(json.contains("\"trace.overhead_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
    }

    #[test]
    fn json_prints_every_digit() {
        assert_eq!(
            end_to_end_json(&[("cpu_s", 1.2034567891, "s"), ("n", 3.0, "count")]),
            "{\"cpu_s\": {\"value\": 1.2034567891, \"unit\": \"s\"}, \"n\": {\"value\": 3, \"unit\": \"count\"}}"
        );
    }
}
