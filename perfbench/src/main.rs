//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <name|all> [--seed N] [--seconds N] [--trace 0|1]
//! ```
//!
//! Runs one workload (or all three), checks its outputs, and prints its
//! metrics, the last line of standard output being one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` they are the
//! per-layer ledger. See README.md beside this crate for every metric's
//! definition and why each workload exists.

mod books;
mod catalog;
mod clock;
mod digest;
mod measure;
mod probe;
mod workloads;

use std::collections::BTreeMap;
use std::io::Write as _;
use std::process::ExitCode;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

use catalog::Metric;
use measure::Msg;
use workloads::{SetupTimes, Workload};

const USAGE: &str =
    "usage: perfbench --workload <solo-toolagent-8b|fleet-affinity-70b|fleet-faults-8b|all> \
                     [--seed N] [--seconds N] [--trace 0|1]";

/// Wall-clock guard: a simulation run still going this long after the
/// benchmark last heard from it is recorded as failed, and the process
/// reports and exits without waiting for it.
const RUN_DEADLINE: Duration = Duration::from_secs(60);

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workloads = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workloads = Some(if v == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::parse(&v).ok_or_else(|| format!("unknown workload `{v}`"))?]
                });
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && (0.0..=600.0).contains(&seconds)) {
                    return Err("--seconds must be between 0 and 600".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workloads: workloads.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// What the benchmark learned about one workload.
#[derive(Default)]
struct Outcome {
    attempted: usize,
    failed: usize,
    /// Offered requests of a run that never returned.
    lost_offered: usize,
    setups: Vec<SetupTimes>,
    metrics: BTreeMap<String, f64>,
    checks: Vec<(&'static str, bool)>,
    complete: bool,
}

impl Outcome {
    fn take(&mut self, msg: Msg) {
        match msg {
            Msg::Begin(_) => self.attempted += 1,
            Msg::Failed => self.failed += 1,
            Msg::Setup(t) => self.setups.push(t),
            Msg::Metric(name, v) => {
                self.metrics.insert(name, v);
            }
            Msg::Check(what, ok) => self.checks.push((what, ok)),
            Msg::Done => self.complete = true,
        }
    }

    fn correct(&self) -> bool {
        self.complete && self.checks.iter().all(|&(_, ok)| ok)
    }

    /// The metric values to print, in catalog order.
    fn values(&self, trace: bool) -> Vec<(Metric, f64)> {
        let median = |f: fn(&SetupTimes) -> f64| measure::median(self.setups.iter().map(f));
        let mut derived: BTreeMap<&str, f64> = BTreeMap::new();
        derived.insert("setup_s", median(SetupTimes::total));
        derived.insert("workload.generate_s", median(|t| t.generate_s));
        derived.insert("estimator.profile_s", median(|t| t.profile_s));
        derived.insert("serving.build_s", median(|t| t.build_s));
        let list = if trace {
            catalog::per_layer()
        } else {
            catalog::end_to_end()
        };
        list.into_iter()
            .map(|m| {
                let mut v = derived
                    .get(m.name.as_str())
                    .or_else(|| self.metrics.get(&m.name))
                    .copied()
                    .unwrap_or(0.0);
                if m.name == "finished_frac" && self.lost_offered > 0 {
                    // A run that never returned finished none of its
                    // offered requests.
                    v = 0.0;
                }
                (m, if v.is_finite() { v } else { 0.0 })
            })
            .collect()
    }
}

/// Runs one workload on a worker thread under the wall-clock deadline.
/// Returns the outcome and whether the deadline tripped (the worker is
/// then still running and must not be waited on).
fn supervise(w: Workload, args: &Args) -> (Outcome, bool) {
    let (seed, seconds, trace) = (args.seed, args.seconds, args.trace);
    supervise_with(w.name(), RUN_DEADLINE, move |tx| {
        measure::workload(w, seed, seconds, trace, tx)
    })
}

fn supervise_with(
    label: &str,
    deadline: Duration,
    measure: impl FnOnce(&mpsc::Sender<Msg>) + Send + 'static,
) -> (Outcome, bool) {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || measure(&tx));
    let mut out = Outcome::default();
    let mut open_offered = 0usize;
    loop {
        match rx.recv_timeout(deadline) {
            Ok(msg) => {
                let done = matches!(msg, Msg::Done);
                if let Msg::Begin(offered) = msg {
                    open_offered = offered;
                }
                out.take(msg);
                if done {
                    break;
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                eprintln!(
                    "perfbench: {label}: a run exceeded the {} s deadline; recorded as failed",
                    deadline.as_secs_f64()
                );
                out.failed += 1;
                out.lost_offered = open_offered;
                return (out, true);
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    if worker.join().is_err() {
        eprintln!("perfbench: {label}: the measurement panicked");
        out.complete = false;
    }
    (out, false)
}

fn json_number(v: f64) -> String {
    // Display prints the shortest form that round-trips, never an
    // exponent, so every measured digit reaches the JSON.
    format!("{v}")
}

fn print_table(w: Workload, out: &Outcome, values: &[(Metric, f64)]) {
    println!("== {} ==", w.name());
    for (m, v) in values {
        println!(
            "{:<36} {:>18} {:<8} ({} is better)",
            m.name,
            json_number(*v),
            m.unit,
            m.better.as_str()
        );
    }
    for (what, ok) in &out.checks {
        println!("check {:<32} {}", what, if *ok { "ok" } else { "FAILED" });
    }
    println!(
        "runs attempted {}, failed {}, correct {}",
        out.attempted,
        out.failed,
        out.correct()
    );
}

fn result_json(
    correct: bool,
    attempted: usize,
    failed: usize,
    values: &[(String, Metric, f64)],
) -> String {
    let metrics: Vec<String> = values
        .iter()
        .map(|(name, m, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_number(*v),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let single = args.workloads.len() == 1;
    let mut correct = true;
    let (mut attempted, mut failed) = (0, 0);
    let mut rows: Vec<(String, Metric, f64)> = Vec::new();
    let mut abandoned = false;
    for &w in &args.workloads {
        let (out, tripped) = supervise(w, &args);
        let values = out.values(args.trace);
        print_table(w, &out, &values);
        correct &= out.correct();
        attempted += out.attempted;
        failed += out.failed;
        for (m, v) in values {
            let name = if single {
                m.name.clone()
            } else {
                format!("{}/{}", w.name(), m.name)
            };
            rows.push((name, m, v));
        }
        if tripped {
            abandoned = true;
            break;
        }
    }
    println!("{}", result_json(correct, attempted, failed, &rows));
    let _ = std::io::stdout().flush();
    if abandoned {
        // The runaway run's thread is not joined: exiting ends it.
        std::process::exit(0);
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse("--workload fleet-faults-8b --seed 7 --seconds 20 --trace 1").expect("valid");
        assert_eq!(a.workloads, vec![Workload::Faults]);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 20.0, true));
        assert_eq!(parse("--workload all").expect("valid").workloads.len(), 3);
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--workload nope",
            "--workload all --trace 2",
            "--workload all --seed",
            "--workload all --seconds -1",
            "--workload all --bogus 1",
        ] {
            assert!(parse(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn a_run_past_its_deadline_is_recorded_failed_not_waited_on() {
        let t0 = clock::now();
        let (out, tripped) = supervise_with("stuck", Duration::from_millis(200), |tx| {
            let _ = tx.send(Msg::Begin(42));
            std::thread::sleep(Duration::from_secs(3));
        });
        assert!(tripped);
        assert!(
            clock::secs_since(t0) < 2.0,
            "the supervisor waited on the run"
        );
        assert_eq!((out.attempted, out.failed, out.lost_offered), (1, 1, 42));
        assert!(!out.correct());
        let finished = out
            .values(false)
            .into_iter()
            .find(|(m, _)| m.name == "finished_frac");
        assert_eq!(finished.map(|(_, v)| v), Some(0.0));
    }

    #[test]
    fn a_panicking_measurement_is_not_correct() {
        let (out, tripped) = supervise_with("panics", Duration::from_secs(5), |tx| {
            let _ = tx.send(Msg::Check("reached", true));
            panic!("measurement bug");
        });
        assert!(!tripped && !out.correct());
    }

    #[test]
    fn result_line_has_the_documented_keys() {
        let m = catalog::end_to_end().remove(0);
        let line = result_json(true, 3, 0, &[("setup_s".into(), m, 0.0123)]);
        let v: serde_json::Value = serde_json::from_str(&line).expect("valid JSON");
        assert_eq!(
            v.get("attempted").and_then(serde_json::Value::as_u64),
            Some(3)
        );
        let setup = v
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("metric");
        assert_eq!(
            setup.get("value").and_then(serde_json::Value::as_f64),
            Some(0.0123)
        );
        assert_eq!(
            setup.get("unit").and_then(serde_json::Value::as_str),
            Some("s")
        );
    }
}
