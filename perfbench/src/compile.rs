//! `compile_apps`: the ten bundled Figure-9 programs compiled round-robin
//! from source to P4 (`Build::p4`) and to O2 bytecode
//! (`CompiledProg::compile_opt`). One closed-loop client, one thread; the
//! seed only shuffles the order within each round.

use crate::stats::{self, Rng};
use crate::trace::Tracer;
use crate::{Args, Report};
use lucid_core::interp::CompiledProg;
use lucid_core::{Build, Compiler, OptLevel};
use std::hint::black_box;
use std::time::Instant;

/// What one compile produced, compared across samples of the same app.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Output {
    p4_hash: u64,
    stages: usize,
    p4_lines: usize,
}

/// Compile one app through every stage, spanning each stage call when
/// `tr` is given. The stages are lazy and cached, so asking for them in
/// pipeline order runs each exactly once.
fn compile_one(key: &str, src: &str, mut tr: Option<&mut Tracer>) -> Result<Build, String> {
    let fail = |stage: &str| format!("{key}: {stage} failed");
    let mut b = Compiler::new().build(key, src);
    macro_rules! stage {
        ($name:literal, $e:expr) => {
            match tr.as_deref_mut() {
                Some(t) => t.time($name, || $e),
                None => $e,
            }
        };
    }
    stage!("frontend.parse", b.ast().map(|_| ())).map_err(|_| fail("parse"))?;
    stage!("check.check", b.checked().map(|_| ())).map_err(|_| fail("check"))?;
    stage!("backend.elaborate", b.handlers().map(|_| ())).map_err(|_| fail("elaborate"))?;
    stage!("backend.layout", b.layout().map(|_| ())).map_err(|_| fail("layout"))?;
    stage!("backend.p4", b.p4().map(|_| ())).map_err(|_| fail("p4"))?;
    let prog = b.checked().map_err(|_| fail("check"))?;
    let bc = stage!(
        "bytecode.lower",
        CompiledProg::compile_opt(prog, OptLevel::O2)
    );
    black_box(&bc);
    Ok(b)
}

/// The fingerprint of a finished compile (taken outside the timed call).
fn output(b: &mut Build) -> Output {
    let stages = b.layout().map_or(0, |l| l.total_stages);
    b.p4().map_or(
        Output {
            p4_hash: 0,
            stages,
            p4_lines: 0,
        },
        |p4| Output {
            p4_hash: stats::fnv(p4.source.as_bytes()),
            stages,
            p4_lines: p4.loc.total(),
        },
    )
}

/// The set-up a user pays before the first measured compile: one pass
/// over the ten apps in a fresh process.
pub fn setup(_args: &Args) -> Result<f64, String> {
    let apps = lucid_apps::all();
    let t0 = Instant::now();
    for app in &apps {
        compile_one(app.key, app.source, None)?;
    }
    Ok(t0.elapsed().as_secs_f64())
}

/// Zero diagnostics and a clean bytecode verifier for every app, plus
/// the output each later sample must reproduce.
fn reference(apps: &[lucid_apps::AppInfo], wrong: bool) -> Result<Vec<Output>, String> {
    let mut refs = Vec::new();
    for app in apps {
        let mut b = Compiler::new().build(app.key, app.source);
        if b.p4().is_err() {
            return Err(format!("{}: {}", app.key, b.render_diagnostics()));
        }
        let diags = b.diagnostics();
        if !diags.is_empty() {
            return Err(format!("{}: {}", app.key, b.render_diagnostics()));
        }
        let violations = b
            .verify_bytecode(OptLevel::O2)
            .map_err(|_| format!("{}: does not check", app.key))?;
        if !violations.is_empty() {
            return Err(format!("{}: bytecode verifier: {violations:?}", app.key));
        }
        refs.push(output(&mut b));
    }
    if wrong {
        refs[0].p4_hash ^= 1;
    }
    Ok(refs)
}

/// Compile latencies (ms) of one measuring window, per app.
struct Window {
    per_app: Vec<Vec<f64>>,
}

impl Window {
    fn count(&self) -> usize {
        self.per_app.iter().map(Vec::len).sum()
    }

    /// Apps compiled per second of compile time.
    fn rate(&self) -> f64 {
        self.count() as f64 * 1e3 / self.per_app.iter().flatten().sum::<f64>()
    }
}

fn measure(
    apps: &[lucid_apps::AppInfo],
    refs: &[Output],
    rng: &mut Rng,
    seconds: f64,
    report: &mut Report,
    mut tr: Option<&mut Tracer>,
) -> Window {
    let mut w = Window {
        per_app: vec![Vec::new(); apps.len()],
    };
    let mut order: Vec<usize> = (0..apps.len()).collect();
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < seconds {
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        for &i in &order {
            let app = &apps[i];
            let op = tr.as_deref_mut().map(|t| t.open("compile.app"));
            let t = Instant::now();
            let built = compile_one(app.key, app.source, tr.as_deref_mut());
            let dt = t.elapsed().as_secs_f64();
            w.per_app[i].push(dt * 1e3);
            let check = |built: Result<Build, String>| match built {
                Ok(mut b) => {
                    let o = output(&mut b);
                    (o != refs[i])
                        .then(|| format!("{}: expected {:?}, got {o:?}", app.key, refs[i]))
                }
                Err(e) => Some(e),
            };
            let problem = match tr.as_deref_mut() {
                Some(t) => t.time("bench.check", || check(built)),
                None => check(built),
            };
            if let (Some(t), Some(id)) = (tr.as_deref_mut(), op) {
                t.close(id);
            }
            report.op(problem);
        }
    }
    w
}

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let apps = lucid_apps::all();
    let refs = reference(&apps, args.wrong_ref)?;
    let mut rng = Rng::new(args.seed);
    if !args.trace {
        let w = measure(&apps, &refs, &mut rng, args.seconds, report, None);
        let rss = stats::peak_rss_mb();
        let n = w.count();
        let medians: Vec<f64> = w.per_app.iter().map(|s| stats::median(s)).collect();
        let pooled: Vec<f64> = w.per_app.concat();
        println!(
            "compile_ms_p99 has {} of {n} samples beyond",
            stats::beyond(&pooled, 0.99)
        );
        for (app, m) in apps.iter().zip(&medians) {
            println!("compile_ms_median {} = {m}", app.key);
        }
        report.metric("work_per_s", w.rate(), n);
        report.metric("op_ms_p50", stats::geomean(&medians), n);
        report.metric("op_ms_tail", stats::quantile(&pooled, 0.99), n);
        report.metric("peak_rss_mb", rss, 1);
        return Ok(());
    }
    let half = args.seconds / 2.0;
    let plain = measure(&apps, &refs, &mut rng, half, report, None);
    let mut tr = Tracer::new();
    let t0 = Instant::now();
    let traced = measure(&apps, &refs, &mut rng, half, report, Some(&mut tr));
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let n = traced.count() as f64;
    for (span, metric) in [
        ("frontend.parse", "frontend.parse_ms"),
        ("check.check", "check.check_ms"),
        ("backend.elaborate", "backend.elaborate_ms"),
        ("backend.layout", "backend.layout_ms"),
        ("backend.p4", "backend.p4_ms"),
        ("bytecode.lower", "bytecode.lower_ms"),
    ] {
        report.metric(metric, tr.total_ms(span) / n, n as usize);
    }
    report.metric(
        "backend.stages",
        refs.iter().map(|o| o.stages).sum::<usize>() as f64,
        refs.len(),
    );
    report.metric(
        "backend.p4_lines",
        refs.iter().map(|o| o.p4_lines).sum::<usize>() as f64,
        refs.len(),
    );
    report.metric(
        "trace.overhead_share",
        crate::overhead(plain.rate(), traced.rate()),
        n as usize,
    );
    report.metric(
        "trace.unattributed_share",
        1.0 - tr.attributed_ms() / wall_ms,
        tr.spans.len(),
    );
    report.metric("trace.spans", tr.spans.len() as f64, tr.spans.len());
    Ok(())
}
