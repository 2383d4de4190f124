//! On-CPU-time benchmark of the Mitra reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path cpubench/Cargo.toml -- \
//!     --workload <table1-tasks|table2-migrate|ingest-exec|corpus-stream> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload at one worker thread.  It sets the workload
//! up three times (reporting the median set-up CPU time), then runs whole
//! rounds of the workload's operations until the next round would take the
//! timed phase past `--seconds` of on-CPU time; at least one round always
//! runs.  Every operation's output is checked against tables computed apart
//! from the synthesizer.  The last line of standard output is one JSON object:
//! `correct`, `attempted`, `failed` and `metrics` (the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`).  See README.md.

mod layers;
mod stats;
mod sys;
mod workloads;

use layers::Layers;
use stats::{hd_median, median, Tally};
use sys::Stopwatch;
use workloads::Workload;

/// Set-ups per process; `setup_s` is their median.
const SETUPS: usize = 3;

/// The parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// What one timed phase measured.
struct Phase {
    /// On-CPU seconds of each round's operations.
    rounds: Vec<f64>,
    /// On-CPU seconds of every operation, in run order.
    op_cpu: Vec<f64>,
    /// Atomic predicates of the programs one round synthesizes.
    preds: usize,
}

impl Phase {
    /// On-CPU seconds of the operations of the median round.
    fn cpu_per_round(&self) -> f64 {
        median(&self.rounds)
    }
}

/// Runs whole rounds until the next one would end past `seconds` of on-CPU
/// time since the phase began (always at least one round).
fn timed_phase(
    work: &mut dyn Workload,
    seconds: f64,
    tally: &mut Tally,
    layers: &mut Layers,
    problems: &mut Vec<String>,
) -> Phase {
    let clock = Stopwatch::start();
    let mut phase = Phase {
        rounds: Vec::new(),
        op_cpu: Vec::new(),
        preds: 0,
    };
    loop {
        let round = Stopwatch::start();
        let mut preds = 0;
        let mut round_cpu = 0.0;
        for i in 0..work.ops() {
            let op = work.run(i, layers);
            phase.op_cpu.push(op.cpu);
            round_cpu += op.cpu;
            preds += op.preds;
            tally.record(op.check.map_err(|e| format!("{}: {e}", work.op_name(i))));
        }
        if let Err(e) = work.end_round(layers) {
            problems.push(e);
        }
        if !phase.rounds.is_empty() && preds != phase.preds {
            problems.push(format!(
                "program_preds changed between rounds: {} then {preds}",
                phase.preds
            ));
        }
        phase.preds = preds;
        phase.rounds.push(round_cpu);
        if clock.cpu() + round.cpu() > seconds {
            return phase;
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cpubench: {e}");
            std::process::exit(2);
        }
    };
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        eprintln!(
            "cpubench: unknown workload {:?} (one of {})",
            args.workload,
            workloads::NAMES.join(", ")
        );
        std::process::exit(2);
    }
    // Untraced runs measure the program as it runs with tracing off; the
    // traced run records the `mitra-trace` counters in summary mode.
    mitra_trace::set_mode(mitra_trace::TraceMode::Off);
    // One worker thread for every pool path, the ones a `SynthConfig` or
    // `CorpusConfig` does not reach too (the executor's residual filter reads
    // the process-wide setting), whatever `MITRA_THREADS` or the core count.
    mitra_pool::set_threads(1);

    let run_clock = Stopwatch::start();
    let steal_start = sys::steal_s();

    let mut setup_cpu = Vec::with_capacity(SETUPS);
    let mut work: Option<Box<dyn Workload>> = None;
    for _ in 0..SETUPS {
        // Drop the previous set-up first so peak RSS reflects one of them.
        drop(work.take());
        let w = Stopwatch::start();
        let built = match workloads::setup(&args.workload, args.seed) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("cpubench: set-up of {} failed: {e}", args.workload);
                std::process::exit(1);
            }
        };
        setup_cpu.push(w.cpu());
        work = Some(built);
    }
    let mut work = work.expect("SETUPS is positive");
    let setup_s = median(&setup_cpu);
    eprintln!(
        "cpubench: {} seed {}: {} operations per round, set-up {:.3} s CPU (median of {SETUPS})",
        args.workload,
        args.seed,
        work.ops(),
        setup_s
    );

    let mut tally = Tally::default();
    let mut problems = Vec::new();
    let metrics = if args.trace {
        // The same amount of work untraced, then traced; the difference in
        // per-round CPU is the cost of the tracing itself.
        let mut off = Layers::disabled();
        let plain = timed_phase(
            work.as_mut(),
            args.seconds / 2.0,
            &mut tally,
            &mut off,
            &mut problems,
        );
        mitra_trace::set_mode(mitra_trace::TraceMode::Summary);
        let before = mitra_trace::snapshot();
        let (io_bytes, io_calls) = sys::write_io();
        let wall = Stopwatch::start();
        let steal = sys::steal_s();
        let mut on = Layers::enabled();
        let traced = timed_phase(
            work.as_mut(),
            args.seconds / 2.0,
            &mut tally,
            &mut on,
            &mut problems,
        );
        let (io_bytes_end, io_calls_end) = sys::write_io();
        on.add("host.wall_s", wall.wall());
        on.add("host.steal_s", sys::steal_s() - steal);
        on.add("corpus.write_bytes", (io_bytes_end - io_bytes) as f64);
        on.add("corpus.write_calls", (io_calls_end - io_calls) as f64);
        on.add_counters(&mitra_trace::snapshot().delta(&before));
        on.per_layer_json(
            traced.rounds.len(),
            traced.cpu_per_round() - plain.cpu_per_round(),
        )
    } else {
        let mut off = Layers::disabled();
        let phase = timed_phase(
            work.as_mut(),
            args.seconds,
            &mut tally,
            &mut off,
            &mut problems,
        );
        eprintln!(
            "cpubench: {} rounds, {:.3} s CPU per round, {:.3} s wall and {:.3} s steal over the whole process",
            phase.rounds.len(),
            phase.cpu_per_round(),
            run_clock.wall(),
            sys::steal_s() - steal_start
        );
        layers::end_to_end_json(&[
            ("setup_s", setup_s, "s"),
            ("cpu_s", phase.cpu_per_round(), "s"),
            ("op_p50_s", hd_median(&phase.op_cpu), "s"),
            ("peak_rss_mb", sys::peak_rss_mb(), "MiB"),
            ("program_preds", phase.preds as f64, "count"),
        ])
    };
    drop(work);

    for m in &tally.messages {
        eprintln!("cpubench: failed operation: {m}");
    }
    for p in &problems {
        eprintln!("cpubench: check failed: {p}");
    }
    let correct = problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        tally.attempted, tally.failed
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv(
            "--workload ingest-exec --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: "ingest-exec".into(),
                seed: 7,
                seconds: 10.0,
                trace: true
            }
        );
        assert!(parse_args(&argv("--seed 7")).is_err());
        assert!(parse_args(&argv("--workload x --trace 2")).is_err());
        assert!(parse_args(&argv("--workload x --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload x --seed")).is_err());
    }
}
