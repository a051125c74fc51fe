//! `serve_session`: one closed-loop client driving the daemon's request
//! handler (`handle_line` with the CLI's `BuildHost`) in-process. Each
//! episode opens `stateful_firewall` twice, then loops ingest (a batch of
//! seeded `pkt_out`/`pkt_in` events) → advance → query on session 1, and
//! every 64 of its 128 batches snapshots session 1 and restores the bytes
//! into session 2. It ends by draining both. Episodes repeat until the
//! run's time is up; every request line is built before timing.

use crate::refs::{self, Ref};
use crate::stats::{self, Rng};
use crate::trace::Tracer;
use crate::{Args, Report};
use lucid_core::interp::scenario::{json, Injection};
use lucid_core::{
    handle_line, json_escape, BuildHost, Compiler, ExecMode, Scenario, ServeState, SimOptions,
};
use std::time::Instant;

/// Each verb with its span and its two per-layer latency metrics.
const VERBS: [(&str, &str, &str, &str); 7] = [
    (
        "open",
        "serve.open",
        "serve.open_ms_p50",
        "serve.open_ms_p99",
    ),
    (
        "ingest",
        "serve.ingest",
        "serve.ingest_ms_p50",
        "serve.ingest_ms_p99",
    ),
    (
        "advance",
        "serve.advance",
        "serve.advance_ms_p50",
        "serve.advance_ms_p99",
    ),
    (
        "query",
        "serve.query",
        "serve.query_ms_p50",
        "serve.query_ms_p99",
    ),
    (
        "snapshot",
        "serve.snapshot",
        "serve.snapshot_ms_p50",
        "serve.snapshot_ms_p99",
    ),
    (
        "restore",
        "serve.restore",
        "serve.restore_ms_p50",
        "serve.restore_ms_p99",
    ),
    (
        "drain",
        "serve.drain",
        "serve.drain_ms_p50",
        "serve.drain_ms_p99",
    ),
];

const HEADER: &str = r#"{"name": "serve_session", "net": {"switches": 1}}"#;

/// The request-latency percentile reported as `op_ms_tail`. Restores
/// are 0.5% of requests, so a p99 would sit on the edge between the
/// restore band and the ingest tail and jump between them from run to
/// run; p95 lies inside the ingest band.
const TAIL_Q: f64 = 0.95;

/// Distinct flows the seeded traffic draws from: enough to fill most of
/// the firewall's two 1024-slot tables, so Cuckoo install chains run.
const FLOWS: u64 = 1_536;

struct Sizes {
    batches: usize,
    batch_events: usize,
    snap_every: usize,
}

fn sizes(tiny: bool) -> Sizes {
    if tiny {
        Sizes {
            batches: 4,
            batch_events: 8,
            snap_every: 2,
        }
    } else {
        Sizes {
            batches: 128,
            batch_events: 256,
            snap_every: 64,
        }
    }
}

#[derive(Clone)]
struct Line {
    /// Index into [`VERBS`].
    verb: usize,
    text: String,
}

struct Input {
    source: &'static str,
    /// One episode's requests. Restore lines carry the bytes of the
    /// snapshot before them, filled in by the warm-up episode.
    lines: Vec<Line>,
    /// Every ingested event, in order (the one-shot reference's input).
    events: Vec<Injection>,
}

fn source() -> &'static str {
    lucid_apps::by_key("sfw")
        .expect("the firewall is a bundled app")
        .source
}

fn open_line() -> String {
    format!(
        "{{\"op\":\"open\",\"program\":\"{}\",\"scenario\":\"{}\",\
         \"options\":{{\"exec\":\"bytecode\",\"record_trace\":false}}}}",
        json_escape(source()),
        json_escape(HEADER)
    )
}

fn line(verb: &str, text: String) -> Line {
    Line {
        verb: VERBS.iter().position(|v| v.0 == verb).expect("known verb"),
        text,
    }
}

fn input(args: &Args) -> Input {
    let sz = sizes(args.tiny);
    let mut rng = Rng::new(args.seed);
    let flows: Vec<(u64, u64)> = (0..FLOWS)
        .map(|_| (rng.below(1 << 31), rng.below(1 << 31)))
        .collect();
    let mut lines = vec![line("open", open_line()), line("open", open_line())];
    let mut events = Vec::new();
    let mut now = 0u64;
    for b in 0..sz.batches {
        let mut batch = Vec::new();
        for _ in 0..sz.batch_events {
            now += 200 + rng.below(600);
            let (src, dst) = flows[rng.below(FLOWS) as usize];
            let roll = rng.below(10);
            let (event, args) = if roll < 6 {
                ("pkt_out", vec![src, dst])
            } else if roll < 9 {
                ("pkt_in", vec![dst, src])
            } else {
                ("pkt_in", vec![rng.below(1 << 31), rng.below(1 << 31)])
            };
            batch.push(format!(
                "{{\"time_ns\":{now},\"switch\":1,\"event\":\"{event}\",\"args\":[{},{}]}}",
                args[0], args[1]
            ));
            events.push(Injection {
                time_ns: now,
                switch: 1,
                event: event.to_string(),
                args,
            });
        }
        lines.push(line(
            "ingest",
            format!(
                "{{\"op\":\"ingest\",\"session\":1,\"events\":[{}]}}",
                batch.join(",")
            ),
        ));
        lines.push(line(
            "advance",
            format!("{{\"op\":\"advance\",\"session\":1,\"to_ns\":{now}}}"),
        ));
        lines.push(line(
            "query",
            "{\"op\":\"query\",\"session\":1,\"metrics\":true}".to_string(),
        ));
        if (b + 1) % sz.snap_every == 0 {
            lines.push(line(
                "snapshot",
                "{\"op\":\"snapshot\",\"session\":1}".to_string(),
            ));
            lines.push(line("restore", String::new()));
        }
    }
    lines.push(line("drain", "{\"op\":\"drain\",\"session\":1}".into()));
    lines.push(line("drain", "{\"op\":\"drain\",\"session\":2}".into()));
    Input {
        source: source(),
        lines,
        events,
    }
}

/// Set-up a user pays before the first request is served: the daemon
/// state and the two session opens.
pub fn setup(args: &Args) -> Result<f64, String> {
    let opens: Vec<Line> = input(args).lines.into_iter().take(2).collect();
    let t0 = Instant::now();
    let mut state = ServeState::new();
    let mut host = BuildHost::new(Compiler::new());
    for l in &opens {
        let reply = handle_line(&mut state, &mut host, &l.text);
        if !reply.reply().starts_with("{\"ok\":true") {
            return Err(format!("open failed: {}", reply.reply()));
        }
    }
    Ok(t0.elapsed().as_secs_f64())
}

/// A drain reply's report fields the reference pins.
fn drained(reply: &str) -> Option<Ref> {
    let doc = json::parse(reply).ok()?;
    let get = |j: &json::Json, key: &str| -> Option<json::Json> {
        match j {
            json::Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.clone()),
            _ => None,
        }
    };
    let report = get(&doc, "report")?;
    let hex = |j: Option<json::Json>| match j {
        Some(json::Json::Str(s)) => u64::from_str_radix(&s, 16).ok(),
        _ => None,
    };
    let processed = match get(&report, "events_processed")? {
        json::Json::Num(n) => n as u64,
        _ => return None,
    };
    Some(Ref {
        state_digest: hex(get(&report, "state_digest"))?,
        metrics_digest: hex(get(&get(&report, "metrics")?, "digest"))?,
        processed,
    })
}

/// A reply with its wall-clock fields removed (the only part of a drain
/// report that differs between identical runs).
fn stable(reply: &str) -> String {
    reply
        .split(',')
        .filter(|f| !f.contains("\"wall_ms\"") && !f.contains("\"events_per_sec\""))
        .collect::<Vec<_>>()
        .join(",")
}

/// The status part of an advance/query/restore reply, without the
/// session id.
fn status(reply: &str) -> &str {
    reply.find("\"now_ns\"").map_or(reply, |i| &reply[i..])
}

/// The one-shot run of the same events, authored into the scenario in
/// memory (parsing a scenario of this size would dominate the run).
fn one_shot_reference(inp: &Input) -> Result<Ref, String> {
    let prog = lucid_core::check::parse_and_check(inp.source).map_err(|_| "firewall program")?;
    let mut sc = Scenario::from_json(HEADER).map_err(|e| e.to_string())?;
    sc.events = inp.events.clone();
    let opts = SimOptions::new().exec(ExecMode::Ast).record_trace(false);
    let r = lucid_core::run_scenario_with(&prog, &sc, &opts).map_err(|e| e.to_string())?;
    Ok(Ref::of(&r))
}

/// Run one episode untimed, filling in the restore lines. Returns the
/// replies later episodes must repeat and the two drained outcomes the
/// reference is checked against.
fn warm_up(inp: &mut Input) -> Result<(Vec<String>, Vec<Ref>), String> {
    let mut state = ServeState::new();
    let mut host = BuildHost::new(Compiler::new());
    let mut replies: Vec<String> = Vec::new();
    for i in 0..inp.lines.len() {
        if VERBS[inp.lines[i].verb].0 == "restore" {
            let snap = &replies[i - 1];
            let start = snap
                .find("\"bytes\":\"")
                .ok_or("snapshot reply has no bytes")?
                + 9;
            let hex = &snap[start..snap.len() - 2];
            inp.lines[i].text = format!("{{\"op\":\"restore\",\"session\":2,\"bytes\":\"{hex}\"}}");
        }
        let reply = handle_line(&mut state, &mut host, &inp.lines[i].text)
            .reply()
            .to_string();
        if !reply.starts_with("{\"ok\":true") {
            return Err(format!("request {i} failed: {reply}"));
        }
        if VERBS[inp.lines[i].verb].0 == "restore" && status(&reply) != status(&replies[i - 3]) {
            return Err(format!("restore {i} does not reproduce the queried state"));
        }
        replies.push(reply);
    }
    println!("opened {}", replies[0]);
    if !replies[0].contains("\"exec\":\"bytecode\"") {
        return Err(format!(
            "session opened with another executor: {}",
            replies[0]
        ));
    }
    let n = replies.len();
    let drains = replies[n - 2..]
        .iter()
        .map(|r| drained(r).ok_or("drain reply has no report"))
        .collect::<Result<Vec<Ref>, _>>()?;
    Ok((replies.iter().map(|r| stable(r)).collect(), drains))
}

/// Request latencies (ms) of one measuring window, one row per episode.
#[derive(Default)]
struct Window {
    episodes: Vec<Vec<f64>>,
}

impl Window {
    /// Ingested events per second of request time.
    fn rate(&self, events_per_episode: usize) -> f64 {
        let ms: f64 = self.episodes.iter().flatten().sum();
        (self.episodes.len() * events_per_episode) as f64 * 1e3 / ms
    }
}

fn episode(
    inp: &Input,
    expected: &[String],
    w: &mut Window,
    report: &mut Report,
    mut tr: Option<&mut Tracer>,
) {
    let mut state = ServeState::new();
    let mut host = BuildHost::new(Compiler::new());
    let mut latencies = Vec::with_capacity(inp.lines.len());
    let ep = tr.as_deref_mut().map(|t| t.open("serve.episode"));
    for (l, want) in inp.lines.iter().zip(expected) {
        let span = VERBS[l.verb].1;
        let (dt, reply) = match tr.as_deref_mut() {
            None => {
                let t = Instant::now();
                let out = handle_line(&mut state, &mut host, &l.text);
                (t.elapsed().as_secs_f64(), out)
            }
            Some(t) => {
                t.time("json.parse", || json::parse(&l.text).is_ok());
                let t0 = Instant::now();
                let out = t.time(span, || handle_line(&mut state, &mut host, &l.text));
                (t0.elapsed().as_secs_f64(), out)
            }
        };
        latencies.push(dt * 1e3);
        let check = || {
            let got = stable(reply.reply());
            (got != *want).then(|| {
                format!(
                    "{} reply differs from the warm-up episode: {}",
                    VERBS[l.verb].0,
                    &got[..got.len().min(200)]
                )
            })
        };
        let problem = match tr.as_deref_mut() {
            Some(t) => t.time("bench.check", check),
            None => check(),
        };
        report.op(problem);
    }
    if let (Some(t), Some(id)) = (tr, ep) {
        t.close(id);
    }
    w.episodes.push(latencies);
}

fn measure(
    inp: &Input,
    expected: &[String],
    seconds: f64,
    report: &mut Report,
    mut tr: Option<&mut Tracer>,
) -> Window {
    let mut w = Window::default();
    let t0 = Instant::now();
    while w.episodes.is_empty() || t0.elapsed().as_secs_f64() < seconds {
        episode(inp, expected, &mut w, report, tr.as_deref_mut());
    }
    w
}

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let mut inp = input(args);
    let (expected, drains) = match warm_up(&mut inp) {
        Ok(e) => e,
        Err(msg) => {
            // The warm-up is the reference of every later episode: a
            // failure there fails the whole run.
            report.op(Some(msg));
            return Ok(());
        }
    };
    // The drained sessions against the one-shot reference, checked after
    // the window so the reference run leaves the memory reading alone.
    let check_drains = |report: &mut Report| -> Result<(), String> {
        let want = refs::resolve(
            "serve_session",
            args.seed,
            args.tiny,
            args.wrong_ref,
            || one_shot_reference(&inp),
        )?;
        for got in &drains {
            report.op(want.mismatch(got).map(|m| format!("drained session: {m}")));
        }
        Ok(())
    };
    if !args.trace {
        let w = measure(&inp, &expected, args.seconds, report, None);
        let rss = stats::peak_rss_mb();
        check_drains(report)?;
        let ms: Vec<f64> = w.episodes.concat();
        let n = ms.len();
        println!(
            "{} episodes; op_ms_tail (p95) has {} of {n} samples beyond",
            w.episodes.len(),
            stats::beyond(&ms, TAIL_Q)
        );
        report.metric("work_per_s", w.rate(inp.events.len()), n);
        report.metric("op_ms_p50", stats::median(&ms), n);
        report.metric("op_ms_tail", stats::quantile(&ms, TAIL_Q), n);
        report.metric("peak_rss_mb", rss, 1);
        return Ok(());
    }
    let half = args.seconds / 2.0;
    let plain = measure(&inp, &expected, half, report, None);
    let mut tr = Tracer::new();
    let t0 = Instant::now();
    let traced = measure(&inp, &expected, half, report, Some(&mut tr));
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    check_drains(report)?;
    for (_, span, p50, p99) in VERBS {
        let d = tr.durations(span);
        report.metric(p50, stats::median(&d), d.len());
        report.metric(p99, stats::quantile(&d, 0.99), d.len());
    }
    let episodes = tr.durations("serve.episode").len();
    let request_bytes: usize = inp.lines.iter().map(|l| l.text.len()).sum();
    let reply_bytes: usize = expected.iter().map(String::len).sum();
    report.metric("serve.request_bytes", request_bytes as f64, episodes);
    report.metric("serve.reply_bytes", reply_bytes as f64, episodes);
    let snap_len = expected
        .iter()
        .find_map(|r| r.split("\"len\":").nth(1)?.split(',').next()?.parse().ok());
    report.metric("snap.bytes", snap_len.unwrap_or(0.0), 1);
    // Parse spans alternate with handle spans line by line, so the n-th
    // parse span belongs to line n of its episode.
    let parses = tr.durations("json.parse");
    let handled: f64 = VERBS.iter().map(|v| tr.total_ms(v.1)).sum();
    let parse_ms: f64 = parses.iter().sum();
    report.metric("json.parse_ms", stats::mean(&parses), parses.len());
    report.metric("json.parse_share", parse_ms / handled, parses.len());
    for (verb, metric) in [
        ("open", "json.ns_per_byte_open"),
        ("ingest", "json.ns_per_byte_ingest"),
        ("restore", "json.ns_per_byte_restore"),
    ] {
        let (mut ms, mut bytes) = (0.0, 0usize);
        for (i, d) in parses.iter().enumerate() {
            let l = &inp.lines[i % inp.lines.len()];
            if VERBS[l.verb].0 == verb {
                ms += d;
                bytes += l.text.len();
            }
        }
        report.metric(metric, ms * 1e6 / bytes.max(1) as f64, parses.len());
    }
    report.metric(
        "trace.overhead_share",
        crate::overhead(plain.rate(inp.events.len()), traced.rate(inp.events.len())),
        traced.episodes.len(),
    );
    report.metric(
        "trace.unattributed_share",
        1.0 - tr.attributed_ms() / wall_ms,
        tr.spans.len(),
    );
    report.metric("trace.spans", tr.spans.len() as f64, tr.spans.len());
    Ok(())
}
