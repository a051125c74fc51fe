//! The `lucidc serve` wire protocol, request by request: golden
//! transcripts for every verb, the structured error surface (malformed
//! JSON, unknown sessions, rejected swaps, corrupted snapshots — never a
//! panic), and the headline invariant: a served session is bit-identical
//! to the one-shot `sim` run it decomposes, through snapshots, restores,
//! and segmented advances, under both handler engines.

use lucid_core::{
    handle_line, run_scenario_with, BuildHost, CheckHost, Compiler, ExecMode, Scenario, ServeState,
    SimOptions, SimSession,
};

const COUNTER: &str = r#"
global cts = new Array<<32>>(64);
memop plus(int m, int x) { return m + x; }
event pkt(int idx);
handle pkt(int idx) { Array.setm(cts, idx, plus, 1); }
"#;

const SCENARIO: &str = r#"{
  "name": "served",
  "net": {"switches": 2},
  "events": [
    {"time_ns": 0,   "switch": 1, "event": "pkt", "args": [3]},
    {"time_ns": 100, "switch": 2, "event": "pkt", "args": [3]},
    {"time_ns": 200, "switch": 1, "event": "pkt", "args": [5]}
  ]
}"#;

/// Quote a string as a JSON literal.
fn q(s: &str) -> String {
    format!("\"{}\"", lucid_core::json_escape(s))
}

/// One request through a `CheckHost`-backed server.
fn ask(state: &mut ServeState, host: &mut CheckHost, line: &str) -> String {
    handle_line(state, host, line).reply().to_string()
}

fn open_line() -> String {
    format!(
        "{{\"op\":\"open\",\"program\":{},\"scenario\":{}}}",
        q(COUNTER),
        q(SCENARIO)
    )
}

// ------------------------------------------------------------ verb goldens

#[test]
fn open_replies_with_the_session_header() {
    let (mut state, mut host) = (ServeState::new(), CheckHost);
    let reply = ask(&mut state, &mut host, &open_line());
    assert_eq!(
        reply,
        "{\"ok\":true,\"session\":1,\"scenario\":\"served\",\"switches\":2,\
         \"engine\":\"sequential\",\"exec\":\"ast\",\"opt\":2}"
    );
    // Session ids are allocated in order, never reused.
    let reply = ask(&mut state, &mut host, &open_line());
    assert!(reply.contains("\"session\":2"), "{reply}");
}

#[test]
fn open_accepts_exec_and_rejects_engine_options() {
    let (mut state, mut host) = (ServeState::new(), CheckHost);
    let line = format!(
        "{{\"op\":\"open\",\"program\":{},\"scenario\":{},\
         \"options\":{{\"exec\":\"bytecode\",\"opt\":1}}}}",
        q(COUNTER),
        q(SCENARIO)
    );
    let reply = ask(&mut state, &mut host, &line);
    assert_eq!(
        reply,
        "{\"ok\":true,\"session\":1,\"scenario\":\"served\",\"switches\":2,\
         \"engine\":\"sequential\",\"exec\":\"bytecode\",\"opt\":1}"
    );

    // There is one engine: selecting or tuning it is an unknown option.
    for (key, value) in [
        ("workers", "2"),
        ("engine", "\"sharded\""),
        ("engine", "\"sequential\""),
    ] {
        let line = format!(
            "{{\"op\":\"open\",\"program\":{},\"scenario\":{},\"options\":{{\"{key}\":{value}}}}}",
            q(COUNTER),
            q(SCENARIO)
        );
        let reply = ask(&mut state, &mut host, &line);
        assert_eq!(
            reply,
            format!(
                "{{\"ok\":false,\"error\":{{\"kind\":\"protocol\",\"msg\":\"scenario schema \
                 error at `$.options`: unknown field `{key}` (expected one of: exec, opt, seed, \
                 events, record_trace)\"}}}}"
            )
        );
    }
    // So is an `engine` key inside the scenario document.
    let sc = SCENARIO.replacen('{', r#"{"engine": {"kind": "sharded"},"#, 1);
    let line = format!(
        "{{\"op\":\"open\",\"program\":{},\"scenario\":{}}}",
        q(COUNTER),
        q(&sc)
    );
    let reply = ask(&mut state, &mut host, &line);
    assert!(reply.contains("\"kind\":\"scenario\""), "{reply}");
    assert!(reply.contains("unknown field `engine`"), "{reply}");
    assert_eq!(state.len(), 1, "failed opens leave no session behind");
}

#[test]
fn deeply_nested_request_is_a_protocol_error() {
    // The parser stops at its nesting limit instead of recursing once
    // per `[` until the stack overflows.
    let (mut state, mut host) = (ServeState::new(), CheckHost);
    let reply = ask(&mut state, &mut host, &"[".repeat(200_000));
    assert_eq!(
        reply,
        "{\"ok\":false,\"error\":{\"kind\":\"protocol\",\"msg\":\"scenario is not valid \
         JSON (line 1, col 129): nested deeper than 128 levels\"}}"
    );
    // The daemon is still serving.
    let reply = ask(&mut state, &mut host, &open_line());
    assert!(reply.starts_with("{\"ok\":true,\"session\":1,"), "{reply}");
}

#[test]
fn advance_and_query_report_deterministic_status() {
    let (mut state, mut host) = (ServeState::new(), CheckHost);
    ask(&mut state, &mut host, &open_line());
    let reply = ask(
        &mut state,
        &mut host,
        "{\"op\":\"advance\",\"session\":1,\"to_ns\":100}",
    );
    // Events at t=0 and t=100 have run; t=200 is still queued.
    assert!(
        reply.starts_with("{\"ok\":true,\"session\":1,\"now_ns\":"),
        "{reply}"
    );
    assert!(reply.contains("\"processed\":2"), "{reply}");
    assert!(reply.contains("\"pending\":1"), "{reply}");
    assert!(reply.contains("\"state_digest\":\""), "{reply}");

    let reply = ask(
        &mut state,
        &mut host,
        "{\"op\":\"query\",\"session\":1,\"array\":{\"switch\":2,\"name\":\"cts\"},\"metrics\":true}",
    );
    let cells: Vec<&str> = reply
        .split("\"array\":[")
        .nth(1)
        .and_then(|r| r.split(']').next())
        .expect("array in reply")
        .split(',')
        .collect();
    assert_eq!(cells[3], "1", "switch 2 counted idx 3 once: {reply}");
    assert!(reply.contains("\"metrics\":{"), "{reply}");
}

/// The status part of an `advance`/`query`/`restore` reply.
fn status_of(reply: &str) -> &str {
    let start = reply.find("\"session\"").expect("status in reply");
    let end = reply.find("\"metrics_digest\":\"").expect("metrics digest") + 36;
    &reply[start..end]
}

#[test]
fn queries_between_advances_see_the_latest_digests() {
    let (mut state, mut host) = (ServeState::new(), CheckHost);
    ask(&mut state, &mut host, &open_line());
    let query = "{\"op\":\"query\",\"session\":1}";
    let mut seen = Vec::new();
    for to in [0, 100, 200] {
        let advanced = ask(
            &mut state,
            &mut host,
            &format!("{{\"op\":\"advance\",\"session\":1,\"to_ns\":{to}}}"),
        );
        let queried = ask(&mut state, &mut host, query);
        assert_eq!(status_of(&queried), status_of(&advanced));
        seen.push(status_of(&queried).to_string());
    }
    // Every advance ran an event on a counter, so each digest is new.
    assert_ne!(seen[0], seen[1]);
    assert_ne!(seen[1], seen[2]);
    let digest = |s: &str| s.split("\"state_digest\":").nth(1).unwrap().to_string();
    assert_ne!(digest(&seen[0]), digest(&seen[1]));
    assert_ne!(digest(&seen[1]), digest(&seen[2]));
}

#[test]
fn ingest_schedules_events_and_attaches_generators() {
    let (mut state, mut host) = (ServeState::new(), CheckHost);
    ask(&mut state, &mut host, &open_line());
    let reply = ask(
        &mut state,
        &mut host,
        "{\"op\":\"ingest\",\"session\":1,\"events\":[\
         {\"time_ns\":300,\"switch\":1,\"event\":\"pkt\",\"args\":[7]},\
         {\"time_ns\":400,\"switch\":2,\"event\":\"pkt\",\"args\":[7]}]}",
    );
    assert_eq!(
        reply,
        "{\"ok\":true,\"session\":1,\"ingested\":2,\"generators_attached\":0}"
    );

    let reply = ask(
        &mut state,
        &mut host,
        "{\"op\":\"ingest\",\"session\":1,\"generators\":[\
         {\"name\":\"g\",\"event\":\"pkt\",\"interval_ns\":50,\"count\":10,\
          \"args\":[{\"seq\":64}]}]}",
    );
    assert_eq!(
        reply,
        "{\"ok\":true,\"session\":1,\"ingested\":0,\"generators_attached\":1}"
    );

    // Drain sees all of it: 3 scenario events + 2 ingested + 10 generated.
    let reply = ask(&mut state, &mut host, "{\"op\":\"drain\",\"session\":1}");
    assert!(reply.contains("\"events_handled\":15"), "{reply}");
    assert!(reply.contains("\"name\":\"g\",\"injected\":10"), "{reply}");
    assert!(state.is_empty(), "drain closes the session");
}

#[test]
fn snapshot_restore_round_trips_over_the_wire() {
    let (mut state, mut host) = (ServeState::new(), CheckHost);
    ask(&mut state, &mut host, &open_line());
    ask(
        &mut state,
        &mut host,
        "{\"op\":\"advance\",\"session\":1,\"to_ns\":100}",
    );
    let snap = ask(&mut state, &mut host, "{\"op\":\"snapshot\",\"session\":1}");
    assert!(
        snap.starts_with("{\"ok\":true,\"session\":1,\"len\":"),
        "{snap}"
    );
    let hex = snap
        .split("\"bytes\":\"")
        .nth(1)
        .and_then(|r| r.split('"').next())
        .expect("hex payload");

    // Drive the original forward, then rewind it with the snapshot.
    ask(
        &mut state,
        &mut host,
        "{\"op\":\"advance\",\"session\":1,\"to_ns\":200}",
    );
    let reply = ask(
        &mut state,
        &mut host,
        &format!("{{\"op\":\"restore\",\"session\":1,\"bytes\":\"{hex}\"}}"),
    );
    assert!(reply.contains("\"ok\":true"), "{reply}");
    assert!(
        reply.contains("\"processed\":2"),
        "rewound to t=100: {reply}"
    );
    assert!(reply.contains("\"pending\":1"), "{reply}");
}

#[test]
fn megabyte_restore_lines_round_trip() {
    // Completion is the linearity guard: a request parser that rescans
    // the rest of the line per character never finishes this restore.
    let (mut state, mut host) = (ServeState::new(), CheckHost);
    let program = COUNTER.replace("(64)", "(65536)");
    let open = format!(
        "{{\"op\":\"open\",\"program\":{},\"scenario\":{}}}",
        q(&program),
        q(SCENARIO)
    );
    ask(&mut state, &mut host, &open);
    ask(
        &mut state,
        &mut host,
        "{\"op\":\"advance\",\"session\":1,\"to_ns\":100}",
    );
    let at_100 = ask(&mut state, &mut host, "{\"op\":\"query\",\"session\":1}");
    let snap = ask(&mut state, &mut host, "{\"op\":\"snapshot\",\"session\":1}");
    let hex = snap
        .split("\"bytes\":\"")
        .nth(1)
        .and_then(|r| r.split('"').next())
        .expect("hex payload");
    let line = format!("{{\"op\":\"restore\",\"session\":1,\"bytes\":\"{hex}\"}}");
    assert!(
        line.len() >= 1 << 20,
        "restore line is {} bytes",
        line.len()
    );

    ask(
        &mut state,
        &mut host,
        "{\"op\":\"advance\",\"session\":1,\"to_ns\":200}",
    );
    let reply = ask(&mut state, &mut host, &line);
    assert_eq!(reply, at_100);
}

#[test]
fn swap_reports_the_carry_statistics() {
    let (mut state, mut host) = (ServeState::new(), CheckHost);
    ask(&mut state, &mut host, &open_line());
    ask(
        &mut state,
        &mut host,
        "{\"op\":\"advance\",\"session\":1,\"to_ns\":100}",
    );
    // Same interface, different handler body: `cts` carries over.
    let v2 = COUNTER.replace("plus, 1", "plus, 2");
    let reply = ask(
        &mut state,
        &mut host,
        &format!("{{\"op\":\"swap\",\"session\":1,\"program\":{}}}", q(&v2)),
    );
    assert_eq!(
        reply,
        // One `cts` per switch carries over; nothing is reset or dropped.
        "{\"ok\":true,\"session\":1,\"arrays_carried\":2,\"arrays_reset\":0,\
         \"queued_remapped\":1,\"queued_dropped\":0,\"sources_disabled\":0}"
    );
    // The queued t=200 event now runs under the new handler: +2, not +1.
    let reply = ask(
        &mut state,
        &mut host,
        "{\"op\":\"query\",\"session\":1,\"array\":{\"switch\":1,\"name\":\"cts\"}}",
    );
    let after = ask(
        &mut state,
        &mut host,
        "{\"op\":\"advance\",\"session\":1,\"to_ns\":200}",
    );
    assert!(after.contains("\"processed\":3"), "{after}");
    let cells = ask(
        &mut state,
        &mut host,
        "{\"op\":\"query\",\"session\":1,\"array\":{\"switch\":1,\"name\":\"cts\"}}",
    );
    let nth = |reply: &str, i: usize| {
        reply
            .split("\"array\":[")
            .nth(1)
            .and_then(|r| r.split(']').next())
            .map(|cells| cells.split(',').nth(i).unwrap().to_string())
            .expect("array in reply")
    };
    assert_eq!(nth(&reply, 3), "1", "pre-advance: old increments only");
    assert_eq!(nth(&cells, 5), "2", "idx 5 ran under the swapped handler");
}

#[test]
fn close_and_shutdown_wind_the_sessions_down() {
    let (mut state, mut host) = (ServeState::new(), CheckHost);
    ask(&mut state, &mut host, &open_line());
    ask(&mut state, &mut host, &open_line());
    let reply = ask(&mut state, &mut host, "{\"op\":\"close\",\"session\":1}");
    assert_eq!(reply, "{\"ok\":true,\"session\":1,\"closed\":true}");
    assert_eq!(state.len(), 1);

    // Shutdown drains the survivors and replies with their final reports.
    let out = handle_line(&mut state, &mut CheckHost, "{\"op\":\"shutdown\"}");
    let lucid_core::Outcome::Shutdown(reply) = out else {
        panic!("shutdown must end the loop: {out:?}");
    };
    assert!(
        reply.starts_with("{\"ok\":true,\"shutdown\":true,\"reports\":["),
        "{reply}"
    );
    assert!(reply.contains("\"session\":2"), "{reply}");
    assert!(reply.contains("\"events_handled\":3"), "{reply}");
    assert!(state.is_empty());
}

// ------------------------------------------------------------ error paths

#[test]
fn malformed_requests_are_structured_errors_not_panics() {
    let (mut state, mut host) = (ServeState::new(), CheckHost);
    for (line, kind, needle) in [
        ("{ not json", "protocol", "not valid JSON"),
        ("[1,2,3]", "protocol", "expected an object"),
        ("{\"no\":\"op\"}", "protocol", "missing required field `op`"),
        ("{\"op\":\"warp\"}", "protocol", "unknown op `warp`"),
        (
            "{\"op\":\"open\",\"scenario\":\"{}\"}",
            "protocol",
            "open needs `program` or `program_path`",
        ),
        (
            "{\"op\":\"advance\",\"session\":41,\"to_ns\":1}",
            "unknown_session",
            "no open session 41",
        ),
        (
            "{\"op\":\"snapshot\",\"session\":0}",
            "unknown_session",
            "no open session 0",
        ),
    ] {
        let reply = ask(&mut state, &mut host, line);
        assert!(
            reply.starts_with("{\"ok\":false,\"error\":{"),
            "{line} -> {reply}"
        );
        assert!(
            reply.contains(&format!("\"kind\":\"{kind}\"")),
            "{line} -> {reply}"
        );
        assert!(reply.contains(needle), "{line} -> {reply}");
    }
    assert!(state.is_empty(), "no session leaked from failed requests");
}

#[test]
fn compile_and_scenario_failures_name_their_kind() {
    let (mut state, mut host) = (ServeState::new(), CheckHost);
    let reply = ask(
        &mut state,
        &mut host,
        &format!(
            "{{\"op\":\"open\",\"program\":\"event dup(); event dup();\",\"scenario\":{}}}",
            q("{}")
        ),
    );
    assert!(reply.contains("\"kind\":\"compile\""), "{reply}");

    let reply = ask(
        &mut state,
        &mut host,
        &format!(
            "{{\"op\":\"open\",\"program\":{},\"scenario\":\"{{ nope\"}}",
            q(COUNTER)
        ),
    );
    assert!(reply.contains("\"kind\":\"scenario\""), "{reply}");

    // A scenario that parses but does not validate against the program.
    let bad = r#"{"events": [{"time_ns": 0, "switch": 1, "event": "zap", "args": []}]}"#;
    let reply = ask(
        &mut state,
        &mut host,
        &format!(
            "{{\"op\":\"open\",\"program\":{},\"scenario\":{}}}",
            q(COUNTER),
            q(bad)
        ),
    );
    assert!(reply.contains("\"kind\":\"scenario\""), "{reply}");
    assert!(reply.contains("zap"), "{reply}");
    assert!(state.is_empty());
}

#[test]
fn swap_that_fails_the_typecheck_is_rejected_and_harmless() {
    let (mut state, mut host) = (ServeState::new(), CheckHost);
    ask(&mut state, &mut host, &open_line());
    ask(
        &mut state,
        &mut host,
        "{\"op\":\"advance\",\"session\":1,\"to_ns\":100}",
    );
    let reply = ask(
        &mut state,
        &mut host,
        "{\"op\":\"swap\",\"session\":1,\"program\":\"memop bad(int m, int x) { return m * m; }\"}",
    );
    assert!(reply.contains("\"kind\":\"swap\""), "{reply}");
    // The session survives a rejected swap, world intact.
    let reply = ask(&mut state, &mut host, "{\"op\":\"drain\",\"session\":1}");
    assert!(reply.contains("\"events_handled\":3"), "{reply}");
}

#[test]
fn over_budget_worlds_are_refused_on_open_and_swap() {
    let huge = COUNTER.replace("(64)", "(4000000000)");
    let (mut state, mut host) = (ServeState::new(), CheckHost);
    let open = format!(
        "{{\"op\":\"open\",\"program\":{},\"scenario\":{}}}",
        q(&huge),
        q(SCENARIO)
    );
    let reply = ask(&mut state, &mut host, &open);
    assert!(reply.contains("\"kind\":\"scenario\""), "{reply}");
    assert!(reply.contains("array `cts`"), "{reply}");
    assert!(state.is_empty());

    // A refused open allocates no id: this is session 1.
    ask(&mut state, &mut host, &open_line());
    let query = "{\"op\":\"query\",\"session\":1}";
    ask(
        &mut state,
        &mut host,
        "{\"op\":\"advance\",\"session\":1,\"to_ns\":100}",
    );
    let before = ask(&mut state, &mut host, query);
    let reply = ask(
        &mut state,
        &mut host,
        &format!("{{\"op\":\"swap\",\"session\":1,\"program\":{}}}", q(&huge)),
    );
    assert!(reply.contains("\"kind\":\"swap\""), "{reply}");
    assert!(reply.contains("array `cts`"), "{reply}");
    assert!(reply.contains("budget of 67108864 cells"), "{reply}");
    // Refused before anything changed: same world, still running.
    assert_eq!(ask(&mut state, &mut host, query), before);
    let reply = ask(&mut state, &mut host, "{\"op\":\"drain\",\"session\":1}");
    assert!(reply.contains("\"events_handled\":3"), "{reply}");
}

#[test]
fn overlong_and_non_utf8_lines_are_refused_and_the_stream_continues() {
    use lucid_core::interp::serve::MAX_LINE_BYTES;
    use std::io::Read;

    let scripted = format!(
        "{}\n{{\"op\":\"advance\",\"session\":1,\"to_ns\":100}}\n",
        open_line()
    );
    let query = "{\"op\":\"query\",\"session\":1}\n";
    let run = |input: &mut dyn std::io::BufRead| {
        let (mut state, mut host) = (ServeState::new(), CheckHost);
        let mut out = Vec::new();
        let shutdown =
            lucid_core::serve_lines(&mut state, &mut host, input, &mut out).expect("serves");
        assert!(!shutdown);
        String::from_utf8(out).expect("utf-8 replies")
    };

    let clean = run(&mut format!("{scripted}{query}").as_bytes());
    let want: Vec<&str> = clean.lines().collect();
    assert_eq!(want.len(), 3, "{clean}");

    // One byte over the cap, streamed: the reader drops it as it goes.
    let overlong = std::io::repeat(b'x').take(MAX_LINE_BYTES as u64 + 1);
    let tail = format!("\n{query}");
    let mut input =
        std::io::BufReader::new(scripted.as_bytes().chain(overlong).chain(tail.as_bytes()));
    let got = run(&mut input);
    let got: Vec<&str> = got.lines().collect();
    assert_eq!(got.len(), 4, "{got:?}");
    assert_eq!(got[..2], want[..2]);
    assert!(
        got[2].starts_with("{\"ok\":false,\"error\":{\"kind\":\"protocol\""),
        "{}",
        got[2]
    );
    assert!(got[2].contains(&format!("exceeds {MAX_LINE_BYTES} bytes")));
    assert_eq!(got[3], want[2]);

    let mut bad = scripted.clone().into_bytes();
    bad.extend_from_slice(b"{\"op\":\"qu\xffery\"}\n");
    bad.extend_from_slice(query.as_bytes());
    let got = run(&mut bad.as_slice());
    let got: Vec<&str> = got.lines().collect();
    assert!(got[2].contains("\"kind\":\"protocol\""), "{}", got[2]);
    assert!(got[2].contains("not valid UTF-8"), "{}", got[2]);
    assert_eq!(got[3], want[2]);
}

#[test]
fn corrupted_snapshots_are_rejected_with_offsets() {
    let (mut state, mut host) = (ServeState::new(), CheckHost);
    ask(&mut state, &mut host, &open_line());
    let snap = ask(&mut state, &mut host, "{\"op\":\"snapshot\",\"session\":1}");
    let hex = snap
        .split("\"bytes\":\"")
        .nth(1)
        .and_then(|r| r.split('"').next())
        .expect("hex payload")
        .to_string();

    // Not hex at all.
    let reply = ask(
        &mut state,
        &mut host,
        "{\"op\":\"restore\",\"session\":1,\"bytes\":\"zz\"}",
    );
    assert!(reply.contains("\"kind\":\"snapshot\""), "{reply}");
    assert!(reply.contains("bad hex"), "{reply}");

    // Truncated payload: a bounds error with a byte offset, not a panic.
    let truncated = &hex[..(hex.len() / 2) & !1];
    let reply = ask(
        &mut state,
        &mut host,
        &format!("{{\"op\":\"restore\",\"session\":1,\"bytes\":\"{truncated}\"}}"),
    );
    assert!(reply.contains("\"kind\":\"snapshot\""), "{reply}");
    assert!(reply.contains("corrupt snapshot at byte"), "{reply}");

    // Flipped magic: rejected before any state is touched.
    let mut flipped = hex.clone();
    flipped.replace_range(0..2, if &hex[0..2] == "00" { "ff" } else { "00" });
    let reply = ask(
        &mut state,
        &mut host,
        &format!("{{\"op\":\"restore\",\"session\":1,\"bytes\":\"{flipped}\"}}"),
    );
    assert!(reply.contains("\"kind\":\"snapshot\""), "{reply}");

    // A snapshot from a *different program* is refused by fingerprint.
    let other = format!(
        "{{\"op\":\"open\",\"program\":{},\"scenario\":{}}}",
        q("global other = new Array<<32>>(8);\nevent tick(int i);\nhandle tick(int i) { int j = i; }"),
        q("{}")
    );
    ask(&mut state, &mut host, &other);
    let reply = ask(
        &mut state,
        &mut host,
        &format!("{{\"op\":\"restore\",\"session\":2,\"bytes\":\"{hex}\"}}"),
    );
    assert!(reply.contains("different program"), "{reply}");

    // After all that abuse, the original session still drains clean.
    let reply = ask(&mut state, &mut host, "{\"op\":\"drain\",\"session\":1}");
    assert!(reply.contains("\"events_handled\":3"), "{reply}");
}

// ----------------------------------------------------- bit-identity gates

/// Everything a run must agree on, with the two wall-clock fields and the
/// `wall_ms`-bearing report dropped.
fn fingerprint(report: &lucid_core::SimReport) -> (u64, u64, String, String) {
    (
        report.state_digest,
        report.metrics.digest(),
        format!("{:?}", report.stats),
        format!("{:?}", report.gens),
    )
}

#[test]
fn served_sessions_are_bit_identical_to_one_shot_runs() {
    let prog = lucid_core::check::parse_and_check(COUNTER).expect("program checks");
    let sc = Scenario::from_json(SCENARIO).expect("scenario parses");
    for exec in [ExecMode::Ast, ExecMode::Bytecode] {
        let opts = SimOptions::new().exec(exec);
        let oneshot = run_scenario_with(&prog, &sc, &opts).expect("one-shot runs");

        // Segmented advance: odd step sizes, a snapshot/restore detour in
        // the middle, then drain.
        let mut session = SimSession::open(&prog, &sc, &opts).expect("session opens");
        session.advance(70).expect("advance");
        let snap = session.snapshot().expect("snapshot");
        session.advance(130).expect("advance");
        session.restore(&snap).expect("restore rewinds");
        session.advance(130).expect("re-advance");
        let served = session.drain().expect("drain");

        assert_eq!(fingerprint(&served), fingerprint(&oneshot), "{exec:?}");

        // A restored world replays into the *same* trace, not just the
        // same digest.
        let mut a = SimSession::open(&prog, &sc, &opts).expect("session opens");
        a.advance(u64::MAX).expect("run");
        let mut b = SimSession::open(&prog, &sc, &opts).expect("session opens");
        b.advance(70).expect("advance");
        let snap = b.snapshot().expect("snapshot");
        b.restore(&snap).expect("restore");
        b.advance(u64::MAX).expect("run");
        assert_eq!(
            format!("{:?}", a.world().trace),
            format!("{:?}", b.world().trace),
            "{exec:?}"
        );
    }
}

#[test]
fn snapshots_transplant_between_sessions() {
    let prog = lucid_core::check::parse_and_check(COUNTER).expect("program checks");
    let sc = Scenario::from_json(SCENARIO).expect("scenario parses");
    let opts = SimOptions::default();
    let oneshot = run_scenario_with(&prog, &sc, &opts).expect("one-shot runs");

    let mut donor = SimSession::open(&prog, &sc, &opts).expect("session opens");
    donor.advance(100).expect("advance");
    let snap = donor.snapshot().expect("snapshot");

    // A fresh session over the same program + scenario adopts the world.
    let mut heir = SimSession::open(&prog, &sc, &opts).expect("session opens");
    heir.restore(&snap).expect("restore");
    let served = heir.drain().expect("drain");
    assert_eq!(fingerprint(&served), fingerprint(&oneshot));
}

#[test]
fn build_host_recompiles_only_when_the_source_changes() {
    let mut state = ServeState::new();
    let mut host = BuildHost::new(Compiler::new());
    let open = format!(
        "{{\"op\":\"open\",\"program\":{},\"scenario\":{}}}",
        q(COUNTER),
        q(SCENARIO)
    );
    let reply = handle_line(&mut state, &mut host, &open)
        .reply()
        .to_string();
    assert!(reply.contains("\"ok\":true"), "{reply}");

    // Swapping in the identical source reconfigures the cached build
    // instead of re-parsing (the stats stay at one parse, one check).
    let swap = format!(
        "{{\"op\":\"swap\",\"session\":1,\"program\":{}}}",
        q(COUNTER)
    );
    let reply = handle_line(&mut state, &mut host, &swap)
        .reply()
        .to_string();
    assert!(reply.contains("\"arrays_carried\":2"), "{reply}");
    let build = host.build(1).expect("session build cached");
    assert_eq!((build.stats().parse_runs, build.stats().check_runs), (1, 1));
}
