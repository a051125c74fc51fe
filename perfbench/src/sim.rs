//! `sim_mesh`: one-shot runs, from scenario text to report, of the
//! generator-driven 8-switch telemetry mesh `fig_workload_scale` uses,
//! under the sequential engine with trace retention off. One closed-loop
//! client repeats the same run.

use crate::refs::{self, Ref};
use crate::stats::{self, Rng};
use crate::trace::Tracer;
use crate::{Args, Report};
use lucid_core::{Compiler, Engine, ExecMode, Scenario, SimOptions, SimReport, SimSession};
use std::hint::black_box;
use std::time::Instant;

/// Virtual-time window of one traced `advance` slice. Any slicing is
/// digest-identical to the one-shot run by the session contract.
const SLICE_NS: u64 = 50_000;

const SWITCHES: u64 = 8;

/// The (engine, exec, opt) labels every report must carry: a run that
/// fell back to another engine or to the walker fails its check.
const LABELS: (&str, &str, &str) = ("sequential", "bytecode", "2");

/// The percentile reported as `op_ms_tail`: at ~50 ms a run, a 30 s
/// window leaves well over ten samples beyond it.
const TAIL_Q: f64 = 0.95;

struct Input {
    src: String,
    text: String,
    injections: u64,
}

/// The mesh program: every packet updates a per-switch sketch and, while
/// its ttl lasts, recirculates one copy and sends another to a
/// hash-picked neighbour (the `fig_workload_scale` program).
fn mesh_program(switches: u64) -> String {
    format!(
        r#"
        global cnt = new Array<<32>>(1024);
        global mix = new Array<<32>>(1024);
        memop plus(int m, int x) {{ return m + x; }}
        event pkt(int a, int b, int ttl);
        handle pkt(int a, int b, int ttl) {{
            auto i = hash<<10>>(1, a, b);
            int c = Array.update(cnt, i, plus, 1, plus, 1);
            auto j = hash<<10>>(2, c, a);
            Array.setm(mix, j, plus, b);
            if (ttl > 0) {{
                generate pkt(a + 1, b, ttl - 1);
                generate Event.locate(pkt(a, b + c, ttl - 1), ((a + b) & {mask}) + 1);
            }}
        }}
        "#,
        mask = switches - 1
    )
}

/// Three seeded sources (zipf flows, uniform background, a 10x burst),
/// each injection spawning a recirculated and a remote child. The
/// executor is pinned to bytecode in the scenario because the CLI
/// default is the walker.
fn mesh_scenario(switches: u64, injections: u64, seed: u64) -> String {
    let per = injections / 3;
    let burst = injections - 2 * per;
    let all = (1..=switches)
        .map(|s| s.to_string())
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        r#"{{
        "name": "sim_mesh",
        "net": {{"switches": {switches}}},
        "exec": "bytecode",
        "seed": {seed},
        "limits": {{"max_events": {budget}}},
        "generators": [
          {{"name": "flows", "event": "pkt", "switches": [{all}],
            "rate_eps": 2000000, "jitter_ns": 120, "count": {per},
            "args": [{{"zipf": {{"n": 65536, "s": 1.1}}}},
                     {{"uniform": [0, 1023]}}, 1]}},
          {{"name": "background", "event": "pkt", "switches": [{all}],
            "rate_eps": 1000000, "count": {per},
            "args": [{{"uniform": [0, 1048575]}}, {{"seq": 4096}}, 1]}},
          {{"name": "burst", "event": "pkt", "switch": 1,
            "rate_eps": 500000, "start_ns": 200000, "count": {burst},
            "phases": [{{"at_ns": 400000, "rate_eps": 5000000}}],
            "args": [{{"zipf": {{"n": 64, "s": 1.3}}}}, 7, 1]}}
        ]
      }}"#,
        budget = injections * 4 + 1_000,
    )
}

fn input(args: &Args) -> Input {
    // Scenario seeds travel as JSON numbers: keep them below 2^53.
    let seed = Rng::new(args.seed).next() >> 12;
    let injections = if args.tiny { 300 } else { 30_000 };
    Input {
        src: mesh_program(SWITCHES),
        text: mesh_scenario(SWITCHES, injections, seed),
        injections,
    }
}

fn options() -> SimOptions {
    SimOptions::new().record_trace(false)
}

/// Set-up a user pays before the simulation runs: compile, scenario
/// parse, session open.
pub fn setup(args: &Args) -> Result<f64, String> {
    let inp = input(args);
    let t0 = Instant::now();
    let mut b = Compiler::new().build("mesh.lucid", &inp.src);
    let prog = b.checked_arc().map_err(|_| b.render_diagnostics())?;
    let sc = Scenario::from_json(&inp.text).map_err(|e| e.to_string())?;
    let session = SimSession::open_arc(prog, &sc, &options()).map_err(|e| e.to_string())?;
    let secs = t0.elapsed().as_secs_f64();
    drop(session);
    Ok(secs)
}

/// The walker's outcome on the same scenario, sequential engine.
fn walker_reference(inp: &Input) -> Result<Ref, String> {
    let prog = lucid_core::check::parse_and_check(&inp.src).map_err(|_| "mesh program")?;
    let sc = Scenario::from_json(&inp.text).map_err(|e| e.to_string())?;
    let opts = SimOptions::new()
        .engine(Engine::Sequential)
        .exec(ExecMode::Ast)
        .record_trace(false);
    let r = lucid_core::run_scenario_with(&prog, &sc, &opts).map_err(|e| e.to_string())?;
    Ok(Ref::of(&r))
}

/// What a report says ran, or why it cannot be compared with the
/// reference at all.
fn outcome(inp: &Input, r: &SimReport) -> Result<Ref, String> {
    let injected: u64 = r.gens.iter().map(|(_, n)| n).sum();
    if (r.engine, r.exec, r.opt) != LABELS {
        Err(format!(
            "ran {}/{}/o{}, expected {LABELS:?}",
            r.engine, r.exec, r.opt
        ))
    } else if injected != inp.injections {
        Err(format!("injected {injected}, expected {}", inp.injections))
    } else if !r.mismatches.is_empty() {
        Err(format!("expectation mismatches: {:?}", r.mismatches))
    } else {
        Ok(Ref::of(r))
    }
}

/// One sample: whole one-shot latency and the open-to-report part.
struct Sample {
    op_s: f64,
    run_s: f64,
    processed: u64,
}

/// One untraced one-shot run: compile, parse, open, drain, render.
fn one_shot(inp: &Input) -> Result<(Sample, SimReport), String> {
    let t0 = Instant::now();
    let mut b = Compiler::new().build("mesh.lucid", &inp.src);
    let prog = b.checked_arc().map_err(|_| b.render_diagnostics())?;
    let sc = Scenario::from_json(&inp.text).map_err(|e| e.to_string())?;
    let t_open = Instant::now();
    let mut session = SimSession::open_arc(prog, &sc, &options()).map_err(|e| e.to_string())?;
    let report = session.drain().map_err(|e| e.to_string())?;
    black_box(report.to_json());
    let end = Instant::now();
    let sample = Sample {
        op_s: (end - t0).as_secs_f64(),
        run_s: (end - t_open).as_secs_f64(),
        processed: report.stats.processed,
    };
    Ok((sample, report))
}

/// Engine counts the traced run reads from the world and the report.
#[derive(Default)]
struct Counts {
    pending_max: usize,
    processed: u64,
    recirculated: u64,
    sent_remote: u64,
    injected: u64,
}

/// One traced one-shot run, advancing in fixed virtual-time slices.
fn one_shot_traced(
    inp: &Input,
    tr: &mut Tracer,
    counts: &mut Counts,
) -> Result<(Sample, SimReport), String> {
    let t0 = Instant::now();
    let mut b = Compiler::new().build("mesh.lucid", &inp.src);
    tr.time("frontend.parse", || b.ast().map(|_| ()))
        .map_err(|_| "parse failed")?;
    let prog = tr
        .time("check.check", || b.checked_arc())
        .map_err(|_| b.render_diagnostics())?;
    let sc = tr
        .time("scenario.parse", || Scenario::from_json(&inp.text))
        .map_err(|e| e.to_string())?;
    let t_open = Instant::now();
    let mut session = tr
        .time("session.open", || {
            SimSession::open_arc(prog, &sc, &options())
        })
        .map_err(|e| e.to_string())?;
    let mut to = 0u64;
    loop {
        to += SLICE_NS;
        tr.time("session.advance", || session.advance(to))
            .map_err(|e| e.to_string())?;
        let world = session.world();
        counts.pending_max = counts.pending_max.max(world.pending());
        if world.pending() == 0 && !world.source_pending() {
            break;
        }
    }
    let report = tr
        .time("session.drain", || session.drain())
        .map_err(|e| e.to_string())?;
    black_box(tr.time("report.render", || report.to_json()));
    let end = Instant::now();
    counts.processed = report.stats.processed;
    counts.recirculated = report.stats.recirculated;
    counts.sent_remote = report.stats.sent_remote;
    counts.injected = report.gens.iter().map(|(_, k)| k).sum();
    let sample = Sample {
        op_s: (end - t0).as_secs_f64(),
        run_s: (end - t_open).as_secs_f64(),
        processed: report.stats.processed,
    };
    Ok((sample, report))
}

/// Repeat the one-shot run for `seconds`. Each run's outcome is kept
/// for checking once the window (and the memory high-water reading) is
/// over.
fn measure(
    inp: &Input,
    seconds: f64,
    mut tr: Option<(&mut Tracer, &mut Counts)>,
) -> (Vec<Sample>, Vec<Result<Ref, String>>) {
    let (mut samples, mut outcomes) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    while outcomes.is_empty() || t0.elapsed().as_secs_f64() < seconds {
        let out = match tr.as_mut() {
            None => one_shot(inp),
            Some((t, counts)) => {
                let op = t.open("sim.op");
                let out = one_shot_traced(inp, t, counts);
                t.close(op);
                out
            }
        };
        let failed = out.is_err();
        outcomes.push(out.and_then(|(s, r)| {
            if samples.is_empty() {
                println!("ran engine={} exec={} opt={}", r.engine, r.exec, r.opt);
            }
            samples.push(s);
            outcome(inp, &r)
        }));
        if failed && samples.is_empty() {
            break;
        }
    }
    (samples, outcomes)
}

fn check(want: &Ref, outcomes: Vec<Result<Ref, String>>, report: &mut Report) {
    for o in outcomes {
        report.op(o
            .and_then(|got| want.mismatch(&got).map_or(Ok(()), Err))
            .err());
    }
}

/// Processed events per second from open to report, over all runs:
/// total work over total time, which a contended stretch of the run moves
/// in proportion to its length rather than all or nothing.
fn rate(samples: &[Sample]) -> f64 {
    let events: u64 = samples.iter().map(|s| s.processed).sum();
    events as f64 / samples.iter().map(|s| s.run_s).sum::<f64>()
}

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let inp = input(args);
    let reference = || {
        refs::resolve("sim_mesh", args.seed, args.tiny, args.wrong_ref, || {
            walker_reference(&inp)
        })
    };
    if !args.trace {
        let (samples, outcomes) = measure(&inp, args.seconds, None);
        let rss = stats::peak_rss_mb();
        check(&reference()?, outcomes, report);
        let n = samples.len();
        let ops: Vec<f64> = samples.iter().map(|s| s.op_s * 1e3).collect();
        println!(
            "op_ms_tail is p{} with {} of {n} samples beyond",
            TAIL_Q * 100.0,
            stats::beyond(&ops, TAIL_Q)
        );
        report.metric("work_per_s", rate(&samples), n);
        report.metric("op_ms_p50", stats::median(&ops), n);
        report.metric("op_ms_tail", stats::quantile(&ops, TAIL_Q), n);
        report.metric("peak_rss_mb", rss, 1);
        return Ok(());
    }
    let half = args.seconds / 2.0;
    let (plain, outcomes) = measure(&inp, half, None);
    let mut tr = Tracer::new();
    let mut counts = Counts::default();
    let t0 = Instant::now();
    let (traced, traced_outcomes) = measure(&inp, half, Some((&mut tr, &mut counts)));
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let want = reference()?;
    check(&want, outcomes, report);
    check(&want, traced_outcomes, report);
    let n = traced.len();
    let per_op = |span: &str| tr.total_ms(span) / n as f64;
    for (span, metric) in [
        ("frontend.parse", "frontend.parse_ms"),
        ("check.check", "check.check_ms"),
        ("scenario.parse", "scenario.parse_ms"),
        ("session.open", "session.open_ms"),
        ("session.drain", "session.drain_ms"),
        ("report.render", "report.render_ms"),
    ] {
        report.metric(metric, per_op(span), n);
    }
    let slices = tr.durations("session.advance");
    let k = slices.len();
    report.metric("session.advance_ms_p50", stats::median(&slices), k);
    report.metric("session.advance_ms_p99", stats::quantile(&slices, 0.99), k);
    let processed: u64 = traced.iter().map(|s| s.processed).sum();
    let engine_ms = tr.total_ms("session.advance") + tr.total_ms("session.drain");
    let ns_per_event = engine_ms * 1e6 / processed.max(1) as f64;
    report.metric("machine.ns_per_event", ns_per_event, n);
    report.metric("scenario.bytes", inp.text.len() as f64, 1);
    report.metric("machine.pending_max", counts.pending_max as f64, k);
    report.metric("machine.processed", counts.processed as f64, 1);
    report.metric("machine.recirculated", counts.recirculated as f64, 1);
    report.metric("machine.sent_remote", counts.sent_remote as f64, 1);
    report.metric("workload.injected", counts.injected as f64, 1);
    report.metric(
        "trace.overhead_share",
        crate::overhead(rate(&plain), rate(&traced)),
        n,
    );
    report.metric(
        "trace.unattributed_share",
        1.0 - tr.attributed_ms() / wall_ms,
        tr.spans.len(),
    );
    report.metric("trace.spans", tr.spans.len() as f64, tr.spans.len());
    Ok(())
}
