//! The `lucidc serve` protocol: a long-lived daemon owning simulation
//! sessions, driven by line-delimited JSON requests over stdin/stdout or
//! a Unix socket.
//!
//! Every request is one line: an object with an `op` field and the
//! verb's arguments. Every reply is one line: `{"ok":true,...}` or
//! `{"ok":false,"error":{"kind":...,"msg":...}}`. The verbs — `open`,
//! `ingest`, `advance`, `query`, `snapshot`, `restore`, `swap`, `drain`,
//! `close`, `shutdown` — are documented field-by-field in
//! `docs/serve-protocol.md`.
//!
//! The protocol core is [`handle_line`]: a pure request → reply function
//! over a [`ServeState`] and a [`ProgramHost`], so golden-transcript
//! tests can drive it without any I/O. [`serve_lines`] wraps it around a
//! reader/writer pair (the stdin/stdout daemon); `serve_unix` (Unix
//! only) accepts concurrent connections on a socket, serializing request
//! handling over one shared world.
//!
//! Program compilation is behind the [`ProgramHost`] trait because this
//! crate sits below the build pipeline: the CLI plugs in a host backed
//! by `lucid_core::Build` (re-elaborating without re-parsing on `swap`),
//! while [`CheckHost`] compiles from scratch and keeps tests and
//! benchmarks dependency-light. A host error on `swap` leaves the
//! session untouched — a program that fails typecheck never reaches the
//! running world.

use crate::bytecode::{ExecMode, OptLevel};
use crate::scenario::{
    generators_of, get, injections_of, json, json_escape, obj, req, str_of, u64_of, Loc, Scenario,
    ScenarioError, SimOptions, SimRunError,
};
use crate::session::{SessionStatus, SimSession};
use lucid_check::CheckedProgram;
use std::collections::BTreeMap;
use std::io::{self, BufRead, Write};
use std::sync::Arc;

// ------------------------------------------------------------ the host

/// Compiles program source on behalf of the protocol. Implementations
/// may cache per-session build state keyed by the session id (the CLI's
/// `Build`-backed host reuses the parse across `swap` epochs).
pub trait ProgramHost {
    /// Compile the program a new session opens with.
    fn open_program(&mut self, session: u64, source: &str) -> Result<Arc<CheckedProgram>, String>;

    /// Compile a replacement program for a hot-swap. An `Err` rejects
    /// the swap; the session keeps running its current program.
    fn swap_program(&mut self, session: u64, source: &str) -> Result<Arc<CheckedProgram>, String>;

    /// The session closed; drop any cached build state.
    fn drop_session(&mut self, _session: u64) {}
}

/// The dependency-light [`ProgramHost`]: parse + typecheck from scratch
/// on every compile, no caching. Tests and in-crate tools use it; the
/// CLI substitutes a `Build`-backed host.
#[derive(Debug, Default)]
pub struct CheckHost;

impl ProgramHost for CheckHost {
    fn open_program(&mut self, _session: u64, source: &str) -> Result<Arc<CheckedProgram>, String> {
        lucid_check::parse_and_check(source)
            .map(Arc::new)
            .map_err(|ds| ds.to_string().trim_end().to_string())
    }

    fn swap_program(&mut self, session: u64, source: &str) -> Result<Arc<CheckedProgram>, String> {
        self.open_program(session, source)
    }
}

// ---------------------------------------------------------- error model

/// Which layer a request failed in. The kind is machine-readable so a
/// driver can branch (retry, re-open, give up) without parsing messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request itself is malformed (bad JSON, missing field,
    /// unknown op, unreadable file path).
    Protocol,
    /// The program failed to parse or typecheck on `open`.
    Compile,
    /// The scenario failed to parse or does not fit the program.
    Scenario,
    /// The simulation faulted while advancing.
    Runtime,
    /// A snapshot could not be taken or a restore was refused.
    Snapshot,
    /// A hot-swap was rejected; the session keeps its current program.
    Swap,
    /// The request names a session id that is not open.
    UnknownSession,
}

impl ErrorKind {
    pub fn label(self) -> &'static str {
        match self {
            ErrorKind::Protocol => "protocol",
            ErrorKind::Compile => "compile",
            ErrorKind::Scenario => "scenario",
            ErrorKind::Runtime => "runtime",
            ErrorKind::Snapshot => "snapshot",
            ErrorKind::Swap => "swap",
            ErrorKind::UnknownSession => "unknown_session",
        }
    }
}

/// A structured protocol error: every failure path — corrupted
/// snapshots included — comes back as one of these, never a panic.
#[derive(Debug, Clone)]
pub struct ServeError {
    pub kind: ErrorKind,
    pub msg: String,
}

impl ServeError {
    fn new(kind: ErrorKind, msg: impl Into<String>) -> ServeError {
        ServeError {
            kind,
            msg: msg.into(),
        }
    }

    /// The inner `{"kind":...,"msg":...}` object.
    fn body(&self) -> String {
        format!(
            "{{\"kind\":\"{}\",\"msg\":\"{}\"}}",
            self.kind.label(),
            json_escape(&self.msg)
        )
    }

    /// The full error reply line.
    pub fn to_json(&self) -> String {
        format!("{{\"ok\":false,\"error\":{}}}", self.body())
    }
}

impl From<SimRunError> for ServeError {
    fn from(e: SimRunError) -> ServeError {
        let kind = match &e {
            SimRunError::Scenario(_) => ErrorKind::Scenario,
            SimRunError::Runtime(_) => ErrorKind::Runtime,
            SimRunError::Snapshot(_) => ErrorKind::Snapshot,
            SimRunError::Swap(_) => ErrorKind::Swap,
        };
        ServeError::new(kind, e.to_string())
    }
}

/// Map a request-shape error (the accessors reuse the scenario schema
/// machinery) to a protocol error.
fn proto<T>(r: Result<T, ScenarioError>) -> Result<T, ServeError> {
    r.map_err(|e| ServeError::new(ErrorKind::Protocol, e.to_string()))
}

// ------------------------------------------------------------ the state

/// The daemon's world: every open session, keyed by id. Ids are assigned
/// once and never reused within a daemon's lifetime.
#[derive(Default)]
pub struct ServeState {
    sessions: BTreeMap<u64, SimSession>,
    next_id: u64,
}

impl ServeState {
    pub fn new() -> ServeState {
        ServeState {
            sessions: BTreeMap::new(),
            next_id: 1,
        }
    }

    /// Number of open sessions.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// Direct access to an open session (for in-process drivers like the
    /// serve benchmark's sanity checks).
    pub fn session(&self, id: u64) -> Option<&SimSession> {
        self.sessions.get(&id)
    }
}

/// What [`handle_line`] decided: reply and keep serving, or reply and
/// stop the daemon (the `shutdown` verb).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    Reply(String),
    Shutdown(String),
}

impl Outcome {
    /// The reply line, whichever way the daemon goes afterwards.
    pub fn reply(&self) -> &str {
        match self {
            Outcome::Reply(s) | Outcome::Shutdown(s) => s,
        }
    }
}

// -------------------------------------------------------------- dispatch

/// Handle one request line: parse, dispatch, and render the reply. Pure
/// over `(state, host)` — no I/O — so transcripts are testable
/// byte-for-byte.
pub fn handle_line(state: &mut ServeState, host: &mut dyn ProgramHost, line: &str) -> Outcome {
    match dispatch(state, host, line) {
        Ok(outcome) => outcome,
        Err(e) => Outcome::Reply(e.to_json()),
    }
}

fn dispatch(
    state: &mut ServeState,
    host: &mut dyn ProgramHost,
    line: &str,
) -> Result<Outcome, ServeError> {
    let doc = proto(json::parse(line))?;
    let fields = proto(obj(&doc, "$"))?;
    let op = proto(str_of(proto(req(fields, "op", "$"))?, "$.op"))?;
    match op {
        "open" => op_open(state, host, fields).map(Outcome::Reply),
        "ingest" => op_ingest(state, fields).map(Outcome::Reply),
        "advance" => op_advance(state, fields).map(Outcome::Reply),
        "query" => op_query(state, fields).map(Outcome::Reply),
        "snapshot" => op_snapshot(state, fields).map(Outcome::Reply),
        "restore" => op_restore(state, fields).map(Outcome::Reply),
        "swap" => op_swap(state, host, fields).map(Outcome::Reply),
        "drain" => op_drain(state, host, fields).map(Outcome::Reply),
        "close" => op_close(state, host, fields).map(Outcome::Reply),
        "shutdown" => op_shutdown(state, host).map(Outcome::Shutdown),
        other => Err(ServeError::new(
            ErrorKind::Protocol,
            format!(
                "unknown op `{other}` (expected open, ingest, advance, query, \
                 snapshot, restore, swap, drain, close, or shutdown)"
            ),
        )),
    }
}

// ------------------------------------------------------- request helpers

/// Resolve a source field that may be inline (`key`) or a file path
/// (`key_path`).
fn source_of(
    fields: &[(String, json::Json)],
    key: &str,
    path_key: &str,
    what: &str,
) -> Result<Option<String>, ServeError> {
    let root = Loc::Root("$");
    if let Some(j) = get(fields, key) {
        return Ok(Some(proto(str_of(j, root.field(key)))?.to_string()));
    }
    if let Some(j) = get(fields, path_key) {
        let path = proto(str_of(j, root.field(path_key)))?;
        return std::fs::read_to_string(path).map(Some).map_err(|e| {
            ServeError::new(
                ErrorKind::Protocol,
                format!("cannot read {what} `{path}`: {e}"),
            )
        });
    }
    Ok(None)
}

fn session_id(state: &ServeState, fields: &[(String, json::Json)]) -> Result<u64, ServeError> {
    let id = proto(u64_of(proto(req(fields, "session", "$"))?, "$.session"))?;
    if !state.sessions.contains_key(&id) {
        return Err(ServeError::new(
            ErrorKind::UnknownSession,
            format!("no open session {id}"),
        ));
    }
    Ok(id)
}

fn session_mut<'a>(
    state: &'a mut ServeState,
    fields: &[(String, json::Json)],
) -> Result<(u64, &'a mut SimSession), ServeError> {
    let id = session_id(state, fields)?;
    Ok((id, state.sessions.get_mut(&id).expect("checked")))
}

/// Parse the `open` verb's `options` object into [`SimOptions`] — the
/// same knobs `lucidc sim` takes, resolved the same way.
fn options_of(fields: &[(String, json::Json)]) -> Result<SimOptions, ServeError> {
    let Some(j) = get(fields, "options") else {
        return Ok(SimOptions::default());
    };
    let of = proto(obj(j, "$.options"))?;
    proto(crate::scenario::check_keys(
        of,
        &["exec", "opt", "seed", "events", "record_trace"],
        "$.options",
    ))?;
    let mut opts = SimOptions::default();
    if let Some(v) = get(of, "exec") {
        let name = proto(str_of(v, "$.options.exec"))?;
        opts.exec = Some(ExecMode::parse(name).ok_or_else(|| {
            ServeError::new(
                ErrorKind::Protocol,
                format!("unknown exec `{name}` (expected `ast` or `bytecode`)"),
            )
        })?);
    }
    if let Some(v) = get(of, "opt") {
        let n = proto(u64_of(v, "$.options.opt"))?;
        opts.opt = Some(OptLevel::parse(&n.to_string()).ok_or_else(|| {
            ServeError::new(
                ErrorKind::Protocol,
                format!("unknown opt level {n} (expected 0, 1, or 2)"),
            )
        })?);
    }
    if let Some(v) = get(of, "seed") {
        opts.seed = Some(proto(u64_of(v, "$.options.seed"))?);
    }
    if let Some(v) = get(of, "events") {
        opts.events = Some(proto(u64_of(v, "$.options.events"))?);
    }
    if let Some(v) = get(of, "record_trace") {
        match v {
            json::Json::Bool(b) => opts.record_trace = Some(*b),
            other => {
                return Err(ServeError::new(
                    ErrorKind::Protocol,
                    format!(
                        "$.options.record_trace: expected a bool, found {}",
                        other.kind()
                    ),
                ))
            }
        }
    }
    Ok(opts)
}

/// The status fields shared by `advance`, `query`, and `restore` replies.
fn status_fields(id: u64, st: &SessionStatus) -> String {
    format!(
        "\"session\":{id},\"now_ns\":{},\"pending\":{},\"source_pending\":{},\
         \"processed\":{},\"handled\":{},\"dropped\":{},\
         \"state_digest\":\"{:016x}\",\"metrics_digest\":\"{:016x}\"",
        st.now_ns,
        st.pending,
        st.source_pending,
        st.processed,
        st.handled,
        st.dropped,
        st.state_digest,
        st.metrics_digest
    )
}

// ----------------------------------------------------------------- verbs

fn op_open(
    state: &mut ServeState,
    host: &mut dyn ProgramHost,
    fields: &[(String, json::Json)],
) -> Result<String, ServeError> {
    let program = source_of(fields, "program", "program_path", "program")?.ok_or_else(|| {
        ServeError::new(
            ErrorKind::Protocol,
            "open needs `program` or `program_path`",
        )
    })?;
    let scenario_src =
        source_of(fields, "scenario", "scenario_path", "scenario")?.ok_or_else(|| {
            ServeError::new(
                ErrorKind::Protocol,
                "open needs `scenario` or `scenario_path`",
            )
        })?;
    let opts = options_of(fields)?;
    let sc = Scenario::from_json(&scenario_src)
        .map_err(|e| ServeError::new(ErrorKind::Scenario, e.to_string()))?;
    let id = state.next_id;
    let prog = host
        .open_program(id, &program)
        .map_err(|msg| ServeError::new(ErrorKind::Compile, msg))?;
    let session = SimSession::open_arc(prog, &sc, &opts).map_err(|e| {
        host.drop_session(id);
        ServeError::from(e)
    })?;
    state.next_id += 1;
    let (engine, exec, opt) = session.labels();
    let reply = format!(
        "{{\"ok\":true,\"session\":{id},\"scenario\":\"{}\",\"switches\":{},\
         \"engine\":\"{engine}\",\"exec\":\"{exec}\",\"opt\":{opt}}}",
        json_escape(&sc.name),
        sc.switches.len()
    );
    state.sessions.insert(id, session);
    Ok(reply)
}

fn op_ingest(
    state: &mut ServeState,
    fields: &[(String, json::Json)],
) -> Result<String, ServeError> {
    let (id, session) = session_mut(state, fields)?;
    let mut ingested = 0usize;
    let mut attached = 0usize;
    if let Some(j) = get(fields, "events") {
        let events = proto(injections_of(j, "$.events"))?;
        ingested = events.len();
        session.ingest(&events)?;
    }
    if let Some(j) = get(fields, "generators") {
        let specs = proto(generators_of(j, "$.generators"))?;
        for spec in &specs {
            session.attach_generator(spec)?;
            attached += 1;
        }
    }
    Ok(format!(
        "{{\"ok\":true,\"session\":{id},\"ingested\":{ingested},\"generators_attached\":{attached}}}"
    ))
}

fn op_advance(
    state: &mut ServeState,
    fields: &[(String, json::Json)],
) -> Result<String, ServeError> {
    let (id, session) = session_mut(state, fields)?;
    let to_ns = proto(u64_of(proto(req(fields, "to_ns", "$"))?, "$.to_ns"))?;
    session.advance(to_ns)?;
    Ok(format!(
        "{{\"ok\":true,{}}}",
        status_fields(id, &session.status())
    ))
}

fn op_query(state: &mut ServeState, fields: &[(String, json::Json)]) -> Result<String, ServeError> {
    let (id, session) = session_mut(state, fields)?;
    let mut extra = String::new();
    if let Some(j) = get(fields, "array") {
        let af = proto(obj(j, "$.array"))?;
        let switch = proto(u64_of(
            proto(req(af, "switch", "$.array"))?,
            "$.array.switch",
        ))?;
        let name = proto(str_of(proto(req(af, "name", "$.array"))?, "$.array.name"))?;
        if !session.program().info.globals_by_name.contains_key(name) {
            return Err(ServeError::new(
                ErrorKind::Protocol,
                format!("the program has no array `{name}`"),
            ));
        }
        let cells = session.world().try_array(switch, name).ok_or_else(|| {
            ServeError::new(
                ErrorKind::Protocol,
                format!("switch {switch} is unknown or failed"),
            )
        })?;
        let rendered: Vec<String> = cells.iter().map(u64::to_string).collect();
        extra.push_str(&format!(",\"array\":[{}]", rendered.join(",")));
    }
    if matches!(get(fields, "metrics"), Some(json::Json::Bool(true))) {
        extra.push_str(&format!(",\"metrics\":{}", session.metrics_json()));
    }
    Ok(format!(
        "{{\"ok\":true,{}{extra}}}",
        status_fields(id, &session.status())
    ))
}

fn op_snapshot(
    state: &mut ServeState,
    fields: &[(String, json::Json)],
) -> Result<String, ServeError> {
    let (id, session) = session_mut(state, fields)?;
    let bytes = session.snapshot()?;
    Ok(format!(
        "{{\"ok\":true,\"session\":{id},\"len\":{},\"bytes\":\"{}\"}}",
        bytes.len(),
        hex_encode(&bytes)
    ))
}

fn op_restore(
    state: &mut ServeState,
    fields: &[(String, json::Json)],
) -> Result<String, ServeError> {
    let (id, session) = session_mut(state, fields)?;
    let hex = proto(str_of(proto(req(fields, "bytes", "$"))?, "$.bytes"))?;
    let bytes = hex_decode(hex).map_err(|msg| ServeError::new(ErrorKind::Snapshot, msg))?;
    session.restore(&bytes)?;
    Ok(format!(
        "{{\"ok\":true,{}}}",
        status_fields(id, &session.status())
    ))
}

fn op_swap(
    state: &mut ServeState,
    host: &mut dyn ProgramHost,
    fields: &[(String, json::Json)],
) -> Result<String, ServeError> {
    let id = session_id(state, fields)?;
    let source = source_of(fields, "program", "program_path", "program")?.ok_or_else(|| {
        ServeError::new(
            ErrorKind::Protocol,
            "swap needs `program` or `program_path`",
        )
    })?;
    let prog = host
        .swap_program(id, &source)
        .map_err(|msg| ServeError::new(ErrorKind::Swap, msg))?;
    let session = state.sessions.get_mut(&id).expect("checked");
    let stats = session.swap(prog)?;
    Ok(format!(
        "{{\"ok\":true,\"session\":{id},\"arrays_carried\":{},\"arrays_reset\":{},\
         \"queued_remapped\":{},\"queued_dropped\":{},\"sources_disabled\":{}}}",
        stats.arrays_carried,
        stats.arrays_reset,
        stats.queued_remapped,
        stats.queued_dropped,
        stats.sources_disabled
    ))
}

fn op_drain(
    state: &mut ServeState,
    host: &mut dyn ProgramHost,
    fields: &[(String, json::Json)],
) -> Result<String, ServeError> {
    let id = session_id(state, fields)?;
    // An error mid-drain (runtime fault, unmet `--events` target) leaves
    // the session open so the caller can still query or close it.
    let report = state.sessions.get_mut(&id).expect("checked").drain()?;
    state.sessions.remove(&id);
    host.drop_session(id);
    Ok(format!(
        "{{\"ok\":true,\"session\":{id},\"report\":{}}}",
        report.to_json()
    ))
}

fn op_close(
    state: &mut ServeState,
    host: &mut dyn ProgramHost,
    fields: &[(String, json::Json)],
) -> Result<String, ServeError> {
    let id = session_id(state, fields)?;
    state.sessions.remove(&id);
    host.drop_session(id);
    Ok(format!("{{\"ok\":true,\"session\":{id},\"closed\":true}}"))
}

fn op_shutdown(state: &mut ServeState, host: &mut dyn ProgramHost) -> Result<String, ServeError> {
    let ids: Vec<u64> = state.sessions.keys().copied().collect();
    let mut reports = Vec::with_capacity(ids.len());
    for id in ids {
        let mut session = state.sessions.remove(&id).expect("listed");
        match session.drain() {
            Ok(report) => reports.push(format!(
                "{{\"session\":{id},\"report\":{}}}",
                report.to_json()
            )),
            Err(e) => reports.push(format!(
                "{{\"session\":{id},\"error\":{}}}",
                ServeError::from(e).body()
            )),
        }
        host.drop_session(id);
    }
    Ok(format!(
        "{{\"ok\":true,\"shutdown\":true,\"reports\":[{}]}}",
        reports.join(",")
    ))
}

// ------------------------------------------------------------- transport

/// The longest request line either transport accepts, in bytes (its
/// `\n` excluded). Every request is buffered whole before parsing, so
/// this bounds what one line can make the daemon hold. The largest
/// request is a `restore`, at two hex digits per snapshot byte (about 16
/// per array cell); 64 MiB covers worlds of some four million cells.
pub const MAX_LINE_BYTES: usize = 64 << 20;

/// Read the next line into `buf` (cleared first), without its line
/// ending, keeping at most [`MAX_LINE_BYTES`] of it: the rest of an
/// overlong line is consumed and dropped as it streams past, never
/// buffered. `None` at end of input; otherwise whether the line fit.
fn read_line_bounded<R: BufRead>(input: &mut R, buf: &mut Vec<u8>) -> io::Result<Option<bool>> {
    buf.clear();
    let mut fits = true;
    let mut seen = false;
    loop {
        let avail = match input.fill_buf() {
            Ok(avail) => avail,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if avail.is_empty() {
            return Ok(seen.then_some(fits));
        }
        seen = true;
        let newline = avail.iter().position(|&b| b == b'\n');
        let chunk = &avail[..newline.unwrap_or(avail.len())];
        if fits && buf.len() + chunk.len() <= MAX_LINE_BYTES {
            buf.extend_from_slice(chunk);
        } else {
            fits = false;
            buf.clear();
        }
        let used = chunk.len() + usize::from(newline.is_some());
        input.consume(used);
        if newline.is_some() {
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
            return Ok(Some(fits));
        }
    }
}

/// The next request line from a transport, or the protocol error that
/// refuses it unparsed (over [`MAX_LINE_BYTES`], or not UTF-8). Both
/// leave the connection usable for the next line.
fn next_request<'b, R: BufRead>(
    input: &mut R,
    buf: &'b mut Vec<u8>,
) -> io::Result<Option<Result<&'b str, ServeError>>> {
    Ok(read_line_bounded(input, buf)?.map(|fits| {
        if !fits {
            return Err(ServeError::new(
                ErrorKind::Protocol,
                format!("request line exceeds {MAX_LINE_BYTES} bytes; discarded"),
            ));
        }
        std::str::from_utf8(buf).map_err(|e| {
            ServeError::new(
                ErrorKind::Protocol,
                format!("request line is not valid UTF-8: {e}"),
            )
        })
    }))
}

/// The stdin/stdout daemon loop: one request line in, one reply line
/// out, until EOF or `shutdown`. Returns whether `shutdown` was the
/// reason for stopping.
pub fn serve_lines<R: BufRead, W: Write>(
    state: &mut ServeState,
    host: &mut dyn ProgramHost,
    mut input: R,
    mut output: W,
) -> io::Result<bool> {
    let mut buf = Vec::new();
    while let Some(request) = next_request(&mut input, &mut buf)? {
        let outcome = match request {
            Ok(line) if line.trim().is_empty() => continue,
            Ok(line) => handle_line(state, host, line),
            Err(e) => Outcome::Reply(e.to_json()),
        };
        writeln!(output, "{}", outcome.reply())?;
        output.flush()?;
        if let Outcome::Shutdown(_) = outcome {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Unix-socket transport: concurrent connections over one shared world.
#[cfg(unix)]
pub mod socket {
    use super::{handle_line, next_request, Outcome, ProgramHost, ServeState};
    use std::io::{self, Write};
    use std::os::unix::net::{UnixListener, UnixStream};
    use std::path::Path;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Mutex};

    struct Shared<H> {
        state: ServeState,
        host: H,
    }

    /// Bind `path` and serve until some connection issues `shutdown`.
    /// Connections are handled on their own threads; request handling is
    /// serialized over the shared state, so interleaved clients see a
    /// consistent world.
    pub fn serve_unix<H: ProgramHost + Send + 'static>(path: &Path, host: H) -> io::Result<()> {
        // A stale socket file from a dead daemon would fail the bind.
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)?;
        let shared = Arc::new(Mutex::new(Shared {
            state: ServeState::new(),
            host,
        }));
        let done = Arc::new(AtomicBool::new(false));
        let mut workers = Vec::new();
        for conn in listener.incoming() {
            if done.load(Ordering::SeqCst) {
                break;
            }
            let stream = conn?;
            let shared = Arc::clone(&shared);
            let done = Arc::clone(&done);
            let sock = path.to_path_buf();
            workers.push(std::thread::spawn(move || {
                let _ = serve_conn(stream, &shared, &done, &sock);
            }));
        }
        for w in workers {
            let _ = w.join();
        }
        let _ = std::fs::remove_file(path);
        Ok(())
    }

    fn serve_conn<H: ProgramHost>(
        stream: UnixStream,
        shared: &Mutex<Shared<H>>,
        done: &AtomicBool,
        sock: &Path,
    ) -> io::Result<()> {
        let mut reader = io::BufReader::new(stream.try_clone()?);
        let mut writer = stream;
        let mut buf = Vec::new();
        while let Some(request) = next_request(&mut reader, &mut buf)? {
            if matches!(request, Ok(line) if line.trim().is_empty()) {
                continue;
            }
            if done.load(Ordering::SeqCst) {
                break;
            }
            let outcome = match request {
                Ok(line) => {
                    let mut guard = shared.lock().expect("serve state poisoned");
                    let Shared { state, host } = &mut *guard;
                    handle_line(state, host, line)
                }
                Err(e) => Outcome::Reply(e.to_json()),
            };
            match outcome {
                Outcome::Reply(reply) => writeln!(writer, "{reply}")?,
                Outcome::Shutdown(reply) => {
                    writeln!(writer, "{reply}")?;
                    done.store(true, Ordering::SeqCst);
                    // The accept loop is blocked; a throwaway connection
                    // wakes it so it can observe the flag and stop.
                    let _ = UnixStream::connect(sock);
                    break;
                }
            }
        }
        Ok(())
    }
}

// ------------------------------------------------------------------- hex

/// Lowercase hex, two digits per byte (snapshots ride inside JSON
/// strings; base64 would save bytes but cost a dependency or a codec).
pub fn hex_encode(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut s = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        s.push(DIGITS[usize::from(b >> 4)] as char);
        s.push(DIGITS[usize::from(b & 0xf)] as char);
    }
    s
}

/// Inverse of [`hex_encode`]; accepts either case, rejects everything
/// else with a message naming the offending character.
pub fn hex_decode(s: &str) -> Result<Vec<u8>, String> {
    fn nibble(b: u8) -> Option<u8> {
        match b {
            b'0'..=b'9' => Some(b - b'0'),
            b'a'..=b'f' => Some(b - b'a' + 10),
            b'A'..=b'F' => Some(b - b'A' + 10),
            _ => None,
        }
    }
    let bytes = s.as_bytes();
    if !bytes.len().is_multiple_of(2) {
        return Err("odd-length hex string".to_string());
    }
    let mut out = Vec::with_capacity(bytes.len() / 2);
    for pair in bytes.chunks_exact(2) {
        let hi = nibble(pair[0]);
        let lo = nibble(pair[1]);
        match (hi, lo) {
            (Some(h), Some(l)) => out.push((h << 4) | l),
            _ => {
                return Err(format!(
                    "bad hex at byte {}: `{}{}`",
                    out.len() * 2,
                    pair[0] as char,
                    pair[1] as char
                ))
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_round_trips_and_rejects_garbage() {
        let bytes: Vec<u8> = (0..=255).collect();
        let want: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex_encode(&bytes), want);
        assert_eq!(hex_decode(&hex_encode(&bytes)).unwrap(), bytes);
        assert!(hex_decode("abc").is_err());
        assert!(hex_decode("zz").is_err());
        assert_eq!(
            hex_decode("DEADbeef").unwrap(),
            vec![0xDE, 0xAD, 0xBE, 0xEF]
        );
    }

    #[test]
    fn malformed_requests_get_protocol_errors() {
        let mut state = ServeState::new();
        let mut host = CheckHost;
        let r = handle_line(&mut state, &mut host, "not json");
        assert!(r.reply().contains("\"kind\":\"protocol\""));
        let r = handle_line(&mut state, &mut host, "{\"op\":\"warp\"}");
        assert!(r.reply().contains("unknown op `warp`"));
        let r = handle_line(
            &mut state,
            &mut host,
            "{\"op\":\"advance\",\"session\":9,\"to_ns\":1}",
        );
        assert!(r.reply().contains("\"kind\":\"unknown_session\""));
    }
}
