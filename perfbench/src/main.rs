//! The repository's benchmark: closed-loop workloads over the serving
//! stack, each answer checked against an oracle, end-to-end metrics from
//! an untraced run and per-layer metrics from a traced one.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve_tree_mixed|topk_sharded|live_churn> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` with every end-to-end
//! metric (`--trace 0`) or every per-layer metric (`--trace 1`) of
//! `BENCHMARK.json`. A readable summary goes to standard error. The exit
//! code is non-zero when any operation failed or any answer disagreed with
//! its oracle.

mod inputs;
mod live_churn;
mod oracle;
mod procfs;
mod report;
mod serve_tree;
mod served;
mod stats;
mod topk_sharded;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use trace::Trace;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

const WORKLOADS: &[&str] = &["serve_tree_mixed", "topk_sharded", "live_churn"];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10.0f64, false);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or(format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = value.parse().map_err(|_| bad())?,
                "--seconds" => seconds = value.parse().map_err(|_| bad())?,
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload}"));
        }
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err(format!("--seconds must be in (0, 600], got {seconds}"));
        }
        Ok(Args {
            workload,
            seed,
            seconds,
            trace,
        })
    }

    /// The measured window of one loop.
    pub fn measure(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// Unrecorded lead-in before each loop's measured window.
    pub fn warmup(&self) -> Duration {
        Duration::from_secs_f64((self.seconds / 5.0).min(2.0))
    }
}

/// Wall time of `f` in milliseconds, with its result.
pub fn timed_ms<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = std::hint::black_box(f());
    (t.elapsed().as_secs_f64() * 1e3, out)
}

/// Writes a traced loop's spans next to the build output.
pub fn write_trace(args: &Args, trace: &Trace) {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
    let path = dir
        .join("perfbench-trace")
        .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    match trace.write_jsonl(&path) {
        Ok(()) => eprintln!("# spans written to {}", path.display()),
        Err(e) => eprintln!("# could not write spans to {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let report = match args.workload.as_str() {
        "serve_tree_mixed" => serve_tree::run(&args),
        "topk_sharded" => topk_sharded::run(&args),
        _ => live_churn::run(&args),
    };
    eprint!(
        "# workload {} seed {} trace {}\n{}",
        args.workload,
        args.seed,
        args.trace as u8,
        report.summary()
    );
    println!("{}", report.json(args.trace));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse("--workload live_churn --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("live_churn", 7, 12.0, true)
        );
        assert!(parse("--workload nope --seed 1").is_err());
        assert!(parse("--workload live_churn --trace 2").is_err());
        assert!(parse("--seed 1").is_err());
    }
}
