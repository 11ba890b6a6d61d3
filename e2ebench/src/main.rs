//! Whole-network host benchmark for greuse: dense vs f32 reuse vs int8
//! reuse over the model zoo, an open-loop serving workload, and a traced
//! mode that attributes time to the program's layers. See README.md.
//!
//! ```text
//! e2ebench --workload <zoo-smoke|resnet18-paper|serve-camera> --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod plan;
mod schema;
mod serve;
mod stats;
mod timed;
mod trace;
mod zoo;

use std::time::Duration;

/// Collected metrics plus the run's check outcome.
#[derive(Debug)]
pub struct Report {
    metrics: Vec<(schema::Metric, Option<f64>)>,
    /// Samples attempted (zoo: network passes per backend; serve: requests).
    pub attempted: u64,
    /// Samples that failed: forward error, non-finite output, shed,
    /// deadline miss, failed response or failed output check.
    pub failed: u64,
    /// Output checks that did not hold, one line each.
    pub problems: Vec<String>,
}

impl Report {
    /// An empty report over the end-to-end or the per-layer metric list.
    pub fn new(trace: bool) -> Self {
        let list = if trace {
            schema::per_layer()
        } else {
            schema::end_to_end()
        };
        Report {
            metrics: list.into_iter().map(|m| (m, None)).collect(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    /// Sets one metric of the report's list; a non-finite value (an
    /// undefined statistic) is reported as 0.
    ///
    /// # Panics
    ///
    /// Panics on a name outside the list: a bug in the benchmark.
    pub fn put(&mut self, name: &str, value: f64) {
        let slot = self
            .metrics
            .iter_mut()
            .find(|(m, _)| m.name == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the schema"));
        slot.1 = Some(if value.is_finite() { value } else { 0.0 });
    }

    /// Records a failed check.
    pub fn problem(&mut self, what: impl Into<String>) {
        let what = what.into();
        eprintln!("CHECK FAILED: {what}");
        self.problems.push(what);
    }

    /// Shared end-to-end tail: the share of samples that succeeded.
    pub fn finish_e2e(&mut self) {
        let ok = 1.0 - self.failed as f64 / self.attempted.max(1) as f64;
        self.put("ok_frac", ok);
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(m, value)| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    value.unwrap_or(0.0),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured duration.
    pub seconds: Duration,
    /// Traced (per-layer) run instead of the end-to-end run.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Args {
        workload: get("--workload")?.to_string(),
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: Duration::from_secs_f64(seconds),
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    let report = match args.workload.as_str() {
        "zoo-smoke" => zoo::run(&zoo::Workload::smoke(), &args),
        "resnet18-paper" => zoo::run(&zoo::Workload::resnet18_paper(), &args),
        "serve-camera" => serve::run(&args),
        other => Err(format!("unknown workload `{other}`")),
    };
    match report {
        Ok(report) => {
            println!("{}", report.to_json());
            if !report.problems.is_empty() {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(1);
        }
    }
}
