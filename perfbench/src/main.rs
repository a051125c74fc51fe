//! The repository benchmark: one command per workload that drives the
//! compile, sim and serve paths in-process through the same `lucid_core`
//! entry points the CLI calls, checks every output against a reference,
//! and prints the end-to-end metrics (or, with `--trace 1`, the
//! per-layer metrics) as one JSON line.
//!
//! ```text
//! perfbench --workload <compile_apps|sim_mesh|serve_session>
//!           --seed <n> --seconds <s> --trace <0|1> [--tiny] [--wrong-ref]
//! ```
//!
//! `--tiny` shrinks every input for the harness self-test; `--wrong-ref`
//! corrupts one reference value so the self-test can see the check fail.
//! See `perfbench/METRICS.md` for what each metric means.

mod compile;
mod refs;
mod serve;
mod sim;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

/// The per-layer metrics every traced run prints, with their units.
/// Layers a workload does not enter read 0.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("frontend.parse_ms", "ms"),
    ("check.check_ms", "ms"),
    ("backend.elaborate_ms", "ms"),
    ("backend.layout_ms", "ms"),
    ("backend.p4_ms", "ms"),
    ("bytecode.lower_ms", "ms"),
    ("backend.stages", "count"),
    ("backend.p4_lines", "count"),
    ("scenario.parse_ms", "ms"),
    ("scenario.bytes", "B"),
    ("session.open_ms", "ms"),
    ("session.advance_ms_p50", "ms"),
    ("session.advance_ms_p99", "ms"),
    ("session.drain_ms", "ms"),
    ("report.render_ms", "ms"),
    ("machine.ns_per_event", "ns"),
    ("machine.processed", "count"),
    ("machine.recirculated", "count"),
    ("machine.sent_remote", "count"),
    ("machine.pending_max", "count"),
    ("workload.injected", "count"),
    ("serve.open_ms_p50", "ms"),
    ("serve.open_ms_p99", "ms"),
    ("serve.ingest_ms_p50", "ms"),
    ("serve.ingest_ms_p99", "ms"),
    ("serve.advance_ms_p50", "ms"),
    ("serve.advance_ms_p99", "ms"),
    ("serve.query_ms_p50", "ms"),
    ("serve.query_ms_p99", "ms"),
    ("serve.snapshot_ms_p50", "ms"),
    ("serve.snapshot_ms_p99", "ms"),
    ("serve.restore_ms_p50", "ms"),
    ("serve.restore_ms_p99", "ms"),
    ("serve.drain_ms_p50", "ms"),
    ("serve.drain_ms_p99", "ms"),
    ("serve.request_bytes", "B"),
    ("serve.reply_bytes", "B"),
    ("snap.bytes", "B"),
    ("json.parse_ms", "ms"),
    ("json.parse_share", "ratio"),
    ("json.ns_per_byte_open", "ns/B"),
    ("json.ns_per_byte_ingest", "ns/B"),
    ("json.ns_per_byte_restore", "ns/B"),
    ("trace.overhead_share", "ratio"),
    ("trace.unattributed_share", "ratio"),
    ("trace.spans", "count"),
    ("host.available_parallelism", "count"),
];

/// The end-to-end metrics every untraced run prints, with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Fresh-process set-up probes per untraced run.
const SETUP_PROBES: usize = 11;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub tiny: bool,
    pub wrong_ref: bool,
    setup_probe: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut a = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
            tiny: false,
            wrong_ref: false,
            setup_probe: false,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => a.workload = value()?,
                "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                }
                "--trace" => a.trace = value()? == "1",
                "--tiny" => a.tiny = true,
                "--wrong-ref" => a.wrong_ref = true,
                "--setup-probe" => a.setup_probe = true,
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        if !a.seconds.is_finite() || a.seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        Ok(a)
    }

    /// The arguments a set-up probe child needs to rebuild the same inputs.
    fn probe_args(&self) -> Vec<String> {
        let mut v = vec![
            "--workload".to_string(),
            self.workload.clone(),
            "--seed".to_string(),
            self.seed.to_string(),
            "--setup-probe".to_string(),
        ];
        if self.tiny {
            v.push("--tiny".into());
        }
        v
    }
}

/// What one run measured and how many operations it checked.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Record one metric value with the number of samples behind it
    /// (printed on the human-readable lines).
    pub fn metric(&mut self, name: &'static str, value: f64, samples: usize) {
        println!("metric {name} = {value} ({samples} samples)");
        self.metrics.insert(name, value);
    }

    /// Count one operation; a non-empty `problem` marks it failed.
    pub fn op(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("perfbench: check failed: {p}");
            }
        }
    }

    fn json(&self, names: &[(&str, &str)]) -> Result<String, String> {
        let mut parts = Vec::new();
        for (name, unit) in names {
            let v = self.metrics.get(name).copied().unwrap_or(0.0);
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite"));
            }
            parts.push(format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"));
        }
        Ok(format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            parts.join(",")
        ))
    }
}

/// The share by which the traced window ran slower than the untraced one
/// (`rate_untraced / rate_traced - 1`).
pub fn overhead(untraced_rate: f64, traced_rate: f64) -> f64 {
    if traced_rate > 0.0 {
        untraced_rate / traced_rate - 1.0
    } else {
        0.0
    }
}

/// Run the workload's set-up in `SETUP_PROBES` fresh child processes and
/// return their median, so lazy initialisation a user pays once per
/// process counts.
fn probe_setup(args: &Args) -> Result<(f64, usize), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut samples = Vec::new();
    for _ in 0..SETUP_PROBES {
        let out = Command::new(&exe)
            .args(args.probe_args())
            .output()
            .map_err(|e| format!("set-up probe: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let secs = text
            .lines()
            .last()
            .and_then(|l| l.trim().parse::<f64>().ok())
            .filter(|_| out.status.success())
            .ok_or_else(|| {
                format!(
                    "set-up probe failed: {}",
                    String::from_utf8_lossy(&out.stderr)
                )
            })?;
        samples.push(secs);
    }
    Ok((stats::median(&samples), samples.len()))
}

type Setup = fn(&Args) -> Result<f64, String>;
type Run = fn(&Args, &mut Report) -> Result<(), String>;

/// Each workload's set-up (timed by the probes) and measured run.
const WORKLOADS: [(&str, Setup, Run); 3] = [
    ("compile_apps", compile::setup, compile::run),
    ("sim_mesh", sim::setup, sim::run),
    ("serve_session", serve::setup, serve::run),
];

fn run(args: &Args) -> Result<Report, String> {
    let (_, setup, measure) = WORKLOADS
        .iter()
        .find(|w| w.0 == args.workload)
        .ok_or_else(|| format!("unknown workload `{}`", args.workload))?;
    if args.setup_probe {
        println!("{}", setup(args)?);
        return Ok(Report::default());
    }
    let parallelism = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "perfbench workload={} seed={} seconds={} trace={} available_parallelism={parallelism}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let mut report = Report::default();
    if !args.trace {
        let (setup_s, n) = probe_setup(args)?;
        report.metric("setup_s", setup_s, n);
    } else {
        report.metric("host.available_parallelism", parallelism as f64, 1);
    }
    measure(args, &mut report)?;
    Ok(report)
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&args) {
        Ok(r) => r,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::FAILURE;
        }
    };
    if args.setup_probe {
        return ExitCode::SUCCESS;
    }
    let names = if args.trace {
        LAYER_METRICS
    } else {
        END_TO_END
    };
    match report.json(names) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::FAILURE
        }
    }
}
