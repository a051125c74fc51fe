//! The event-driven interpreter: a discrete-event simulation of one or more
//! Lucid switches and the network between them.
//!
//! This plays the role of the Lucid interpreter from the paper's artifact
//! ("enables rapid prototyping and testing of data-plane applications
//! without requiring access to the Tofino toolchain"), extended with the
//! timing model of §2: handler execution is one pass through a PISA
//! pipeline, `generate` to the local switch costs one recirculation
//! (~600 ns on a Tofino, Fig. 17), and events sent to a neighbor take a
//! ~1 µs wire hop.
//!
//! # The driver
//!
//! Per-switch state is an independent *shard*: its register arrays and
//! its emission counter. One sequential driver executes every shard from
//! a single global queue, dispatching events strictly in `Key` order
//! (virtual time, then class, origin, and sequence number), so a run is a
//! pure function of its inputs: final array state, statistics, trace,
//! printf output, and metrics are bit-identical under either handler
//! executor and every bytecode optimization level.

use crate::bytecode::{CompiledProg, ExecMode, OptLevel};
use crate::metrics::{ClassHists, Metrics, ShardMetrics};
use crate::snap;
use crate::value::{lucid_hash, EventVal, Location, Value};
use crate::workload::{EventSource, GenSpec, SourcedEvent, Workload};
use lucid_check::{eval_memop, mask, CheckedProgram, GlobalId};
use lucid_frontend::ast::*;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::fmt;
use std::sync::Arc;

/// The driver that executes the shards. There is one; the type remains
/// so reports can name it (the `engine` field of every report and serve
/// `open` reply).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// One global queue, one thread.
    #[default]
    Sequential,
}

impl Engine {
    pub fn label(&self) -> &'static str {
        match self {
            Engine::Sequential => "sequential",
        }
    }
}

/// Network and hardware timing parameters.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Switch identifiers. Events located at unknown switches are dropped.
    pub switches: Vec<u64>,
    /// One-way latency between any two distinct switches, in nanoseconds.
    /// (§2.1: "sending a message from a switch's data-plane processor to
    /// its neighbor takes around 1 µs".)
    pub link_latency_ns: u64,
    /// Latency of one recirculation pass (§7.4: one recirculation ≈ 600 ns).
    pub recirc_latency_ns: u64,
    /// Which executor runs handler bodies.
    pub exec: ExecMode,
    /// How hard the bytecode pipeline optimizes (ignored by the AST
    /// walker). Every level is bit-identical; the default is the full
    /// pipeline.
    pub opt: OptLevel,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            switches: vec![1],
            link_latency_ns: 1_000,
            recirc_latency_ns: 600,
            exec: ExecMode::Ast,
            opt: OptLevel::default(),
        }
    }
}

impl NetConfig {
    /// A single-switch network (the common case for app tests).
    pub fn single() -> Self {
        Self::default()
    }

    /// A fully-connected network of `n` switches with ids `1..=n`.
    pub fn mesh(n: u64) -> Self {
        NetConfig {
            switches: (1..=n).collect(),
            ..Self::default()
        }
    }

    /// Select the bytecode executor.
    pub fn bytecode(mut self) -> Self {
        self.exec = ExecMode::Bytecode;
        self
    }
}

/// A record of one handled event, for assertions and tracing. The event
/// name is shared (`Arc<str>`): every record of the same event points at
/// one interned string, resolved from the id-keyed shard logs when a run
/// surfaces its trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Handled {
    pub time_ns: u64,
    pub switch: u64,
    pub event: Arc<str>,
    pub args: Vec<u64>,
}

/// The shard-local form of a trace record: the event is an id into the
/// program's event table, interned to an [`Arc<str>`] once when the
/// driver surfaces the record as a [`Handled`] — the dispatch path never
/// allocates or clones a name.
#[derive(Debug)]
struct TraceRec {
    time_ns: u64,
    switch: u64,
    event_id: usize,
    args: Vec<u64>,
}

impl TraceRec {
    fn into_handled(self, names: &[Arc<str>]) -> Handled {
        Handled {
            time_ns: self.time_ns,
            switch: self.switch,
            event: names[self.event_id].clone(),
            args: self.args,
        }
    }
}

/// A shard-local `printf` record. The bytecode executor defers
/// formatting: it records the interned format-string id plus the
/// evaluated values, and the driver renders the line once when the run
/// surfaces its output. The AST walker (and any echoed printf, which
/// must hit stdout immediately) records the formatted line directly.
#[derive(Debug)]
pub(crate) enum OutRec {
    Line(String),
    Fmt { fmt: u16, vals: Vec<Value> },
}

impl OutRec {
    fn render(self, compiled: Option<&CompiledProg>) -> String {
        match self {
            OutRec::Line(s) => s,
            OutRec::Fmt { fmt, vals } => {
                let cp = compiled.expect("deferred printf comes from the bytecode executor");
                format_printf(cp.fmt_str(fmt), &vals)
            }
        }
    }
}

/// Aggregate execution statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Stats {
    /// Events popped from a queue (handled + exported + dropped-at-switch).
    pub processed: u64,
    /// Events whose handler ran.
    pub handled: u64,
    /// Events generated to the local switch (each costs a recirculation).
    pub recirculated: u64,
    /// Events sent to other switches.
    pub sent_remote: u64,
    /// Events for which no handler exists (treated as exported packets).
    pub exported: u64,
    /// Events dropped because their destination switch does not exist or
    /// is failed.
    pub dropped: u64,
    /// Per-event-name counts of everything dispatched on a live switch
    /// (handled *and* exported events; dropped ones are not counted).
    pub per_event: HashMap<String, u64>,
}

impl Stats {
    /// Move `other`'s counts into `self`, leaving `other` zeroed.
    fn absorb(&mut self, other: &mut Stats) {
        self.processed += other.processed;
        self.handled += other.handled;
        self.recirculated += other.recirculated;
        self.sent_remote += other.sent_remote;
        self.exported += other.exported;
        self.dropped += other.dropped;
        for (name, n) in other.per_event.drain() {
            *self.per_event.entry(name).or_insert(0) += n;
        }
        *other = Stats {
            per_event: std::mem::take(&mut other.per_event),
            ..Stats::default()
        };
    }
}

/// What went wrong at runtime. The checker rules out type errors, so what
/// remains are data-dependent faults — exactly the ones a hardware target
/// would also hit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpFault {
    /// Array index outside the declared length.
    IndexOutOfBounds { array: String, index: u64, len: u64 },
    /// The run exceeded its event budget (likely a runaway recursion).
    FuelExhausted { handled: u64 },
    /// An event was scheduled by name that does not exist.
    NoSuchEvent(String),
    /// Wrong number of arguments in an externally injected event.
    BadArity {
        event: String,
        want: usize,
        got: usize,
    },
}

/// Where a fault happened: the deterministic key of the event being
/// handled (or the injection being scheduled) plus its destination
/// switch, so a failing scenario points at the offending event instead
/// of a bare message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultAt {
    /// Virtual time of the event, nanoseconds.
    pub time_ns: u64,
    /// Destination switch.
    pub switch: u64,
    /// Event name.
    pub event: String,
    /// `None` for externally injected events, `Some(src)` for events a
    /// handler on switch `src` generated.
    pub origin: Option<u64>,
    /// The event key's tie-breaker: the injection counter (per workload
    /// source, for sourced events) for external events, the per-source
    /// emission counter for generated ones.
    pub seq: u64,
}

impl fmt::Display for FaultAt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "`{}` on switch {} at {}ns ({})",
            self.event,
            self.switch,
            self.time_ns,
            match self.origin {
                None => format!("injection #{}", self.seq),
                Some(src) => format!("generated by switch {src}, #{}", self.seq),
            }
        )
    }
}

/// Runtime failure: the fault itself plus, when known, the event whose
/// handling (or injection) triggered it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterpError {
    pub kind: InterpFault,
    pub at: Option<FaultAt>,
}

impl From<InterpFault> for InterpError {
    fn from(kind: InterpFault) -> Self {
        InterpError { kind, at: None }
    }
}

impl InterpError {
    /// Attach a fault location, keeping an earlier (more precise) one.
    pub(crate) fn located(mut self, at: FaultAt) -> Self {
        if self.at.is_none() {
            self.at = Some(at);
        }
        self
    }

    /// One-line JSON rendering (for `lucidc sim --json`).
    pub fn to_json(&self) -> String {
        let kind = match &self.kind {
            InterpFault::IndexOutOfBounds { .. } => "index_out_of_bounds",
            InterpFault::FuelExhausted { .. } => "fuel_exhausted",
            InterpFault::NoSuchEvent(_) => "no_such_event",
            InterpFault::BadArity { .. } => "bad_arity",
        };
        let at = match &self.at {
            None => "null".to_string(),
            Some(at) => format!(
                "{{\"time_ns\":{},\"switch\":{},\"event\":\"{}\",\"origin\":{},\"seq\":{}}}",
                at.time_ns,
                at.switch,
                crate::scenario::json_escape(&at.event),
                at.origin.map_or("null".to_string(), |o| o.to_string()),
                at.seq,
            ),
        };
        format!(
            "{{\"kind\":\"{kind}\",\"msg\":\"{}\",\"at\":{at}}}",
            crate::scenario::json_escape(&self.kind.to_string())
        )
    }
}

impl fmt::Display for InterpFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpFault::IndexOutOfBounds { array, index, len } => write!(
                f,
                "index {index} out of bounds for array `{array}` (len {len})"
            ),
            InterpFault::FuelExhausted { handled } => {
                write!(f, "event budget exhausted after {handled} events")
            }
            InterpFault::NoSuchEvent(n) => write!(f, "no event named `{n}`"),
            InterpFault::BadArity { event, want, got } => {
                write!(f, "event `{event}` wants {want} args, got {got}")
            }
        }
    }
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.kind)?;
        if let Some(at) = &self.at {
            write!(f, " — at {at}")?;
        }
        Ok(())
    }
}

impl std::error::Error for InterpError {}

/// Per-switch persistent state: one `Vec<u64>` per global array, in
/// declaration (= stage) order. Registers reset to zero, as on hardware.
#[derive(Debug, Clone)]
pub struct SwitchState {
    pub arrays: Vec<Vec<u64>>,
}

impl SwitchState {
    fn zeroed(prog: &CheckedProgram) -> Self {
        SwitchState {
            arrays: prog
                .info
                .globals
                .iter()
                .map(|g| vec![0u64; g.len as usize])
                .collect(),
        }
    }
}

/// The deterministic total order on events. Ties in virtual time break on
/// class and origin: externally injected events come first — explicitly
/// scheduled ones (origin 0, in schedule order) before sourced ones (one
/// origin per workload source, in per-source pull order) — then generated
/// events by source switch and per-source emission count. No key
/// component depends on *when* the driver materializes the event, so
/// pulling a source early or late, or splitting a run at any horizon,
/// cannot change the execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Key {
    time_ns: u64,
    /// 0 = externally injected, 1 = handler-generated.
    class: u8,
    /// Source switch for generated events; for injections, 0 when
    /// explicitly scheduled or `1 + source index` when pulled from an
    /// attached [`EventSource`].
    origin: u64,
    /// Injection counter / per-source pull counter / per-switch emission
    /// counter, matching `class`/`origin`.
    seq: u64,
}

impl Key {
    /// The fault location this key describes, for error reports.
    fn fault_at(&self, switch: u64, event: &str) -> FaultAt {
        FaultAt {
            time_ns: self.time_ns,
            switch,
            event: event.to_string(),
            origin: (self.class == 1).then_some(self.origin),
            seq: self.seq,
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Scheduled {
    key: Key,
    /// Destination switch.
    switch: u64,
    event_id: usize,
    args: Vec<u64>,
    /// Virtual instant this entry was enqueued: the emitting shard's
    /// clock for generated events, the arrival time itself for external
    /// injections. `key.time_ns - enq_ns` is the queue residency the
    /// metrics layer records. (Keys are unique, so these trailing fields
    /// never influence the derived `Ord`.)
    enq_ns: u64,
    /// Arrival time of the external injection at the root of this
    /// event's causal chain, inherited across `generate`.
    /// `key.time_ns - root_ns` is the dispatch latency.
    root_ns: u64,
}

/// Flow of control inside a handler body.
enum Flow {
    Normal,
    Returned(Value),
}

/// One switch's independent slice of the simulation: persistent arrays
/// and run-local buffers that the driver drains back into the [`Interp`]
/// at run end.
#[derive(Debug)]
pub(crate) struct Shard {
    switch: u64,
    /// A failed switch keeps its shard (so queued events can be counted
    /// as dropped) but loses its state.
    alive: bool,
    pub(crate) state: SwitchState,
    /// Per-source emission counter feeding [`Key::seq`].
    emit_seq: u64,
    /// This shard's virtual clock: the latest event time it has executed.
    pub(crate) now_ns: u64,
    trace: Vec<(Key, TraceRec)>,
    pub(crate) output: Vec<(Key, OutRec)>,
    stats: Stats,
    /// Events generated for *other* switches, awaiting routing.
    outbox: Vec<Scheduled>,
    /// Freelist of argument buffers for [`Scheduled`] events — the
    /// shard's arena. Buffers whose events never reach the trace (drops,
    /// multicast copies) recycle here instead of churning the allocator;
    /// the list holds only cleared buffers, so it is equivalent to a
    /// freshly reset arena at every run start.
    args_pool: Vec<Vec<u64>>,
    /// Reusable bytecode register / object-slot / hash-argument buffers.
    pub(crate) bc_regs: Vec<crate::bytecode::Rv>,
    pub(crate) bc_objs: Vec<crate::bytecode::Obj>,
    pub(crate) bc_hash: Vec<u64>,
    /// Per-event-id dispatch counts; folded into the name-keyed
    /// [`Stats::per_event`] once per run (keeps the dispatch hot path
    /// free of string allocation and hashing).
    per_event_ids: Vec<u64>,
    /// Per-event-id latency histograms, same id-indexed pattern as
    /// `per_event_ids`: lock-free on the dispatch path, folded into the
    /// interpreter-level [`Metrics`] once per run.
    metrics: ShardMetrics,
    /// Root-injection time of the event currently dispatching, so
    /// `generate` can thread the causal chain's root into its emissions.
    cur_root_ns: u64,
}

impl Shard {
    fn new(switch: u64, prog: &CheckedProgram) -> Self {
        Shard {
            switch,
            alive: true,
            state: SwitchState::zeroed(prog),
            emit_seq: 0,
            now_ns: 0,
            trace: Vec::new(),
            output: Vec::new(),
            stats: Stats::default(),
            outbox: Vec::new(),
            args_pool: Vec::new(),
            bc_regs: Vec::new(),
            bc_objs: Vec::new(),
            bc_hash: Vec::new(),
            per_event_ids: vec![0; prog.info.events.len()],
            metrics: ShardMetrics::new(prog.info.events.len()),
            cur_root_ns: 0,
        }
    }

    /// An empty argument buffer from the shard arena (or a fresh one).
    pub(crate) fn take_args(&mut self) -> Vec<u64> {
        self.args_pool.pop().unwrap_or_default()
    }

    /// Return an argument buffer to the arena once its event is dead.
    pub(crate) fn recycle_args(&mut self, mut buf: Vec<u64>) {
        buf.clear();
        self.args_pool.push(buf);
    }
}

/// The handler-execution engine: immutable program + timing parameters.
/// It mutates exactly one shard at a time.
pub(crate) struct Exec {
    prog: Arc<CheckedProgram>,
    recirc_ns: u64,
    link_ns: u64,
    pub(crate) echo: bool,
    /// Whether handled/exported events are retained in the trace. Off,
    /// the per-event record is skipped and its argument buffer goes
    /// straight back to the shard arena — for throughput measurement,
    /// where nobody reads the trace and retaining it taxes every row.
    record_trace: bool,
    /// Compiled bytecode when [`ExecMode::Bytecode`] is selected; `None`
    /// runs the AST walker (the reference semantics).
    compiled: Option<Arc<CompiledProg>>,
}

/// Execution context of one handler activation.
struct ExecCx {
    switch: u64,
    key: Key,
    env: HashMap<String, Value>,
    /// Array-typed function parameters in scope: name → resolved global.
    array_params: Vec<(String, GlobalId)>,
}

impl Exec {
    /// Declared event with no handler: it leaves the simulated network
    /// (e.g. a report exported to a collector). It still counts in
    /// `per_event`, so scenario expectations can assert on exported
    /// reports.
    fn note_exported(&self, shard: &mut Shard, sched: Scheduled) {
        shard.stats.exported += 1;
        shard.per_event_ids[sched.event_id] += 1;
        if !self.record_trace {
            shard.recycle_args(sched.args);
            return;
        }
        shard.trace.push((
            sched.key,
            TraceRec {
                time_ns: sched.key.time_ns,
                switch: sched.switch,
                event_id: sched.event_id,
                args: sched.args,
            },
        ));
    }

    /// Record a handled event's trace entry. Called *after* the handler
    /// body ran (faulted or not) so the schedule entry's args move into
    /// the trace instead of being cloned — observably identical: the
    /// entry lands before the next event dispatches, faulting events
    /// included, and printf output lives in its own keyed buffer.
    fn note_handled(
        &self,
        shard: &mut Shard,
        event_id: usize,
        key: Key,
        switch: u64,
        args: Vec<u64>,
    ) {
        shard.stats.handled += 1;
        if !self.record_trace {
            shard.recycle_args(args);
            return;
        }
        shard.trace.push((
            key,
            TraceRec {
                time_ns: key.time_ns,
                switch,
                event_id,
                args,
            },
        ));
    }

    /// Run one event on its shard. The caller has already popped it from
    /// the queue and advanced the shard clock.
    fn dispatch(&self, shard: &mut Shard, sched: Scheduled) -> Result<(), InterpError> {
        // Borrow the event name from the program — the hot path never
        // clones it (only trace records and fault payloads allocate).
        let name = &self.prog.info.events[sched.event_id].name;
        if !shard.alive {
            shard.stats.dropped += 1;
            shard.recycle_args(sched.args);
            return Ok(());
        }

        // Metrics: both measurements are differences of deterministic
        // virtual instants (dispatch time is the event's own key time),
        // so every executor and opt level records identical samples.
        // Dropped events never dispatch and are not
        // measured; handled and exported events both are, matching
        // `per_event` counts. Only derived (class-1) events carry a
        // dispatch-latency sample — an injection is its own root. The
        // root instant is parked on the shard so any `generate` in the
        // handler body inherits it.
        shard.metrics.record(
            sched.event_id,
            (sched.key.class == 1).then(|| sched.key.time_ns - sched.root_ns),
            sched.key.time_ns - sched.enq_ns,
        );
        shard.cur_root_ns = sched.root_ns;

        // Bytecode fast path: flat dispatch over the compiled handler.
        if let Some(cp) = self.compiled.as_deref() {
            return match cp.handler(sched.event_id) {
                Some(h) => {
                    shard.per_event_ids[sched.event_id] += 1;
                    let (key, switch) = (sched.key, sched.switch);
                    let res = cp
                        .run_handler(h, self, shard, switch, key, &sched.args)
                        .map_err(|e| e.located(key.fault_at(switch, name)));
                    self.note_handled(shard, sched.event_id, key, switch, sched.args);
                    res
                }
                None => {
                    self.note_exported(shard, sched);
                    Ok(())
                }
            };
        }

        let Some((params, body)) = self.prog.handler_body(name) else {
            self.note_exported(shard, sched);
            return Ok(());
        };

        shard.per_event_ids[sched.event_id] += 1;
        let mut env: HashMap<String, Value> = HashMap::new();
        for (p, a) in params.iter().zip(&sched.args) {
            env.insert(p.name.name.clone(), value_of(p.ty, *a));
        }
        let mut cx = ExecCx {
            switch: sched.switch,
            key: sched.key,
            env,
            array_params: Vec::new(),
        };
        let body = body.clone();
        let res = self
            .exec_block(shard, &body, &mut cx)
            .map_err(|e| e.located(sched.key.fault_at(sched.switch, name)));
        self.note_handled(shard, sched.event_id, sched.key, sched.switch, sched.args);
        res?;
        Ok(())
    }

    // ------------------------------------------------------------ handlers

    fn exec_block(
        &self,
        shard: &mut Shard,
        b: &Block,
        cx: &mut ExecCx,
    ) -> Result<Flow, InterpError> {
        for s in &b.stmts {
            match self.exec_stmt(shard, s, cx)? {
                Flow::Normal => {}
                r @ Flow::Returned(_) => return Ok(r),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&self, shard: &mut Shard, s: &Stmt, cx: &mut ExecCx) -> Result<Flow, InterpError> {
        match &s.kind {
            StmtKind::Local { ty, name, init } => {
                let mut v = self.eval(shard, init, cx)?;
                if let (Some(Ty::Int(w)), Value::Int { v: x, .. }) = (ty, &v) {
                    v = Value::int(*x, *w);
                }
                cx.env.insert(name.name.clone(), v);
                Ok(Flow::Normal)
            }
            StmtKind::Assign { name, value } => {
                let v = self.eval(shard, value, cx)?;
                let v = match (cx.env.get(&name.name), v) {
                    (Some(Value::Int { width, .. }), Value::Int { v: x, .. }) => {
                        Value::int(x, *width)
                    }
                    (_, v) => v,
                };
                cx.env.insert(name.name.clone(), v);
                Ok(Flow::Normal)
            }
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                let c = self
                    .eval(shard, cond, cx)?
                    .as_bool()
                    .expect("checked: bool");
                if c {
                    self.exec_block(shard, then_blk, cx)
                } else if let Some(e) = else_blk {
                    self.exec_block(shard, e, cx)
                } else {
                    Ok(Flow::Normal)
                }
            }
            StmtKind::Generate(e) | StmtKind::MGenerate(e) => {
                let v = self.eval(shard, e, cx)?;
                let Value::Event(ev) = v else {
                    panic!("checked: generate of non-event")
                };
                self.emit(shard, ev);
                Ok(Flow::Normal)
            }
            StmtKind::Return(None) => Ok(Flow::Returned(Value::Void)),
            StmtKind::Return(Some(e)) => {
                let v = self.eval(shard, e, cx)?;
                Ok(Flow::Returned(v))
            }
            StmtKind::Printf { fmt, args } => {
                let mut vals = Vec::new();
                for a in args {
                    vals.push(self.eval(shard, a, cx)?);
                }
                let line = format_printf(fmt, &vals);
                if self.echo {
                    println!("[{} @{}ns] {}", cx.switch, shard.now_ns, line);
                }
                shard.output.push((cx.key, OutRec::Line(line)));
                Ok(Flow::Normal)
            }
            StmtKind::Expr(e) => {
                self.eval(shard, e, cx)?;
                Ok(Flow::Normal)
            }
        }
    }

    /// Schedule a generated event according to its location and delay.
    /// Every target, local or remote, goes to the shard's outbox for the
    /// driver to route.
    pub(crate) fn emit(&self, shard: &mut Shard, mut ev: EventVal) {
        let from = shard.switch;
        let lat_to = |target: u64| {
            if target == from {
                self.recirc_ns
            } else {
                self.link_ns
            }
        };
        // Unicast (the overwhelmingly common case) moves the event's
        // args straight into the schedule entry: no clone, no target
        // vector. Multicast clones once per member.
        match std::mem::replace(&mut ev.location, Location::Here) {
            Location::Here => {
                let args = std::mem::take(&mut ev.args);
                self.emit_one(shard, from, self.recirc_ns, &ev, args);
            }
            Location::Switch(s) => {
                let args = std::mem::take(&mut ev.args);
                self.emit_one(shard, s, lat_to(s), &ev, args);
            }
            Location::Group(members) => {
                // Each member gets a copy built in an arena buffer; the
                // source buffer itself recycles once the fan-out is done.
                for &m in &members {
                    let mut args = shard.take_args();
                    args.extend_from_slice(&ev.args);
                    self.emit_one(shard, m, lat_to(m), &ev, args);
                }
                shard.recycle_args(std::mem::take(&mut ev.args));
            }
        }
    }

    /// Schedule one copy of a generated event at one target.
    fn emit_one(&self, shard: &mut Shard, target: u64, lat: u64, ev: &EventVal, args: Vec<u64>) {
        let from = shard.switch;
        shard.emit_seq += 1;
        let sched = Scheduled {
            key: Key {
                time_ns: shard.now_ns + lat + ev.delay_ns,
                class: 1,
                origin: from,
                seq: shard.emit_seq,
            },
            switch: target,
            event_id: ev.event_id,
            args,
            enq_ns: shard.now_ns,
            root_ns: shard.cur_root_ns,
        };
        if target == from {
            shard.stats.recirculated += 1;
        } else {
            shard.stats.sent_remote += 1;
        }
        // The driver routes every emission (recirculation or remote)
        // from the outbox onto the queue it owns.
        shard.outbox.push(sched);
    }

    // --------------------------------------------------------- expressions

    fn eval(&self, shard: &mut Shard, e: &Expr, cx: &mut ExecCx) -> Result<Value, InterpError> {
        match &e.kind {
            ExprKind::Int { value, width } => Ok(Value::int(*value, width.unwrap_or(32))),
            ExprKind::Bool(b) => Ok(Value::Bool(*b)),
            ExprKind::Var(id) => {
                if let Some(v) = cx.env.get(&id.name) {
                    return Ok(v.clone());
                }
                if id.name == "SELF" {
                    return Ok(Value::int(cx.switch, 32));
                }
                if let Some(c) = self.prog.info.consts.get(&id.name) {
                    return Ok(match c.ty {
                        Ty::Bool => Value::Bool(c.value != 0),
                        Ty::Int(w) => Value::int(c.value, w),
                        _ => Value::int(c.value, 32),
                    });
                }
                if let Some(g) = self.prog.info.groups.get(&id.name) {
                    return Ok(Value::Group(g.members.clone()));
                }
                panic!("checked program has unbound var `{}`", id.name)
            }
            ExprKind::Unary { op, arg } => {
                let v = self.eval(shard, arg, cx)?;
                Ok(match op {
                    UnOp::Not => Value::Bool(!v.as_bool().expect("checked")),
                    UnOp::Neg => match v {
                        Value::Int { v, width } => Value::int(v.wrapping_neg(), width),
                        _ => panic!("checked"),
                    },
                    UnOp::BitNot => match v {
                        Value::Int { v, width } => Value::int(!v, width),
                        _ => panic!("checked"),
                    },
                })
            }
            ExprKind::Binary { op, lhs, rhs } => {
                // Short-circuit the logical connectives.
                if *op == BinOp::And {
                    let l = self.eval(shard, lhs, cx)?.as_bool().expect("checked");
                    if !l {
                        return Ok(Value::Bool(false));
                    }
                    return Ok(Value::Bool(
                        self.eval(shard, rhs, cx)?.as_bool().expect("checked"),
                    ));
                }
                if *op == BinOp::Or {
                    let l = self.eval(shard, lhs, cx)?.as_bool().expect("checked");
                    if l {
                        return Ok(Value::Bool(true));
                    }
                    return Ok(Value::Bool(
                        self.eval(shard, rhs, cx)?.as_bool().expect("checked"),
                    ));
                }
                let l = self.eval(shard, lhs, cx)?;
                let r = self.eval(shard, rhs, cx)?;
                Ok(eval_binop(*op, &l, &r))
            }
            ExprKind::Cast { width, arg } => {
                let v = self.eval(shard, arg, cx)?.as_int().expect("checked");
                Ok(Value::int(v, *width))
            }
            ExprKind::Hash { width, args } => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(shard, a, cx)?.as_int().expect("checked"));
                }
                let (seed, rest) = vals.split_first().expect("parser: nonempty");
                Ok(Value::int(lucid_hash(*width, *seed, rest), *width))
            }
            ExprKind::Call { callee, args } => {
                // Event constructor.
                if let Some(ev) = self.prog.info.event(&callee.name) {
                    let id = ev.id;
                    let widths: Vec<u32> = ev
                        .params
                        .iter()
                        .map(|p| p.ty.int_width().unwrap_or(32))
                        .collect();
                    let name: std::sync::Arc<str> = ev.name.as_str().into();
                    let mut vals = Vec::with_capacity(args.len());
                    for (a, w) in args.iter().zip(widths) {
                        vals.push(mask(self.eval(shard, a, cx)?.as_int().expect("checked"), w));
                    }
                    return Ok(Value::Event(EventVal {
                        event_id: id,
                        name,
                        args: vals,
                        delay_ns: 0,
                        location: Location::Here,
                    }));
                }
                // User function: evaluate args, bind, run body.
                let (_, params, body) = self
                    .prog
                    .fun_body(&callee.name)
                    .expect("checked: function exists");
                let params = params.clone();
                let body = body.clone();
                let mut env = HashMap::new();
                for (p, a) in params.iter().zip(args) {
                    match p.ty {
                        Ty::Array(_) => {
                            // Resolve the array argument to a name usable by
                            // nested Array.* calls: store as a marker value.
                            let gid = self.resolve_array(a, cx);
                            env.insert(p.name.name.clone(), Value::int(gid.0 as u64, 32));
                            cx.array_params.push((p.name.name.clone(), gid));
                        }
                        _ => {
                            let v = self.eval(shard, a, cx)?;
                            env.insert(p.name.name.clone(), v);
                        }
                    }
                }
                let saved_env = std::mem::replace(&mut cx.env, env);
                let array_params_mark = cx.array_params.len();
                let flow = self.exec_block(shard, &body, cx)?;
                cx.env = saved_env;
                cx.array_params.truncate(
                    array_params_mark.saturating_sub(
                        params
                            .iter()
                            .filter(|p| matches!(p.ty, Ty::Array(_)))
                            .count(),
                    ),
                );
                Ok(match flow {
                    Flow::Returned(v) => v,
                    Flow::Normal => Value::Void,
                })
            }
            ExprKind::BuiltinCall { builtin, args, .. } => {
                self.eval_builtin(shard, *builtin, args, cx)
            }
        }
    }

    fn resolve_array(&self, e: &Expr, cx: &ExecCx) -> GlobalId {
        match &e.kind {
            ExprKind::Var(id) => {
                // A function's array parameter shadows globals.
                if let Some((_, gid)) = cx.array_params.iter().rev().find(|(n, _)| *n == id.name) {
                    return *gid;
                }
                self.prog.info.globals_by_name[&id.name]
            }
            _ => panic!("checked: array argument is a name"),
        }
    }

    fn eval_builtin(
        &self,
        shard: &mut Shard,
        builtin: Builtin,
        args: &[Expr],
        cx: &mut ExecCx,
    ) -> Result<Value, InterpError> {
        match builtin {
            Builtin::ArrayGet
            | Builtin::ArrayGetm
            | Builtin::ArraySet
            | Builtin::ArraySetm
            | Builtin::ArrayUpdate => {
                let gid = self.resolve_array(&args[0], cx);
                let g = self.prog.info.globals[gid.0].clone();
                let idx = self.eval(shard, &args[1], cx)?.as_int().expect("checked");
                if idx >= g.len {
                    return Err(InterpFault::IndexOutOfBounds {
                        array: g.name.clone(),
                        index: idx,
                        len: g.len,
                    }
                    .into());
                }
                let cur = shard.state.arrays[gid.0][idx as usize];
                let w = g.cell_width;
                match builtin {
                    Builtin::ArrayGet => Ok(Value::int(cur, w)),
                    Builtin::ArrayGetm => {
                        let m = self.memop_of(&args[2]);
                        let local = self.eval(shard, &args[3], cx)?.as_int().expect("checked");
                        Ok(Value::int(eval_memop(&m, cur, local, w), w))
                    }
                    Builtin::ArraySet => {
                        let v = self.eval(shard, &args[2], cx)?.as_int().expect("checked");
                        shard.state.arrays[gid.0][idx as usize] = mask(v, w);
                        Ok(Value::Void)
                    }
                    Builtin::ArraySetm => {
                        let m = self.memop_of(&args[2]);
                        let local = self.eval(shard, &args[3], cx)?.as_int().expect("checked");
                        shard.state.arrays[gid.0][idx as usize] = eval_memop(&m, cur, local, w);
                        Ok(Value::Void)
                    }
                    Builtin::ArrayUpdate => {
                        let getop = self.memop_of(&args[2]);
                        let getarg = self.eval(shard, &args[3], cx)?.as_int().expect("checked");
                        let setop = self.memop_of(&args[4]);
                        let setarg = self.eval(shard, &args[5], cx)?.as_int().expect("checked");
                        let ret = eval_memop(&getop, cur, getarg, w);
                        shard.state.arrays[gid.0][idx as usize] =
                            eval_memop(&setop, cur, setarg, w);
                        Ok(Value::int(ret, w))
                    }
                    _ => unreachable!(),
                }
            }
            Builtin::EventDelay => {
                let mut v = self.eval(shard, &args[0], cx)?;
                let d_us = self.eval(shard, &args[1], cx)?.as_int().expect("checked");
                if let Value::Event(ev) = &mut v {
                    ev.delay_ns += d_us * 1_000;
                }
                Ok(v)
            }
            Builtin::EventLocate => {
                let mut v = self.eval(shard, &args[0], cx)?;
                let loc = self.eval(shard, &args[1], cx)?.as_int().expect("checked");
                if let Value::Event(ev) = &mut v {
                    ev.location = Location::Switch(loc);
                }
                Ok(v)
            }
            Builtin::EventMLocate => {
                let mut v = self.eval(shard, &args[0], cx)?;
                let Value::Group(g) = self.eval(shard, &args[1], cx)? else {
                    panic!("checked: group")
                };
                if let Value::Event(ev) = &mut v {
                    ev.location = Location::Group(g);
                }
                Ok(v)
            }
            Builtin::SysTime => Ok(Value::int(shard.now_ns / 1_000, 32)),
            Builtin::SysSelf => Ok(Value::int(cx.switch, 32)),
            Builtin::SysPort => Ok(Value::int(0, 32)),
        }
    }

    fn memop_of(&self, e: &Expr) -> lucid_check::MemopIr {
        match &e.kind {
            ExprKind::Var(id) => self.prog.memops[&id.name].clone(),
            _ => panic!("checked: memop position holds a name"),
        }
    }
}

/// How many sourced events a driver materializes per refill. Chunking
/// amortizes the per-pull dispatch overhead while keeping in-flight
/// memory bounded by the frontier; correctness never depends on the
/// chunk size because sourced keys are pull-order-independent.
const SOURCE_CHUNK: usize = 64;

/// A switch-id lookup table on the per-event routing path. Configs
/// number switches densely from 1, so the common case is a flat-array
/// read; arbitrary ids fall back to hashing (a per-event SipHash is
/// measurable on the dispatch loop).
enum SwitchMap {
    Dense(Vec<u32>),
    Sparse(HashMap<u64, u32>),
}

impl SwitchMap {
    const NONE: u32 = u32::MAX;

    /// Build from `(switch id, value)` pairs; values must be below
    /// [`Self::NONE`].
    fn build(pairs: &[(u64, u32)]) -> SwitchMap {
        let max = pairs.iter().map(|&(id, _)| id).max().unwrap_or(0);
        // Dense storage pays one u32 per id up to the largest; cap the
        // slack at a few KiB beyond what the entry count justifies.
        if (max as usize) < pairs.len() * 4 + 1024 {
            let mut v = vec![Self::NONE; max as usize + 1];
            for &(id, w) in pairs {
                v[id as usize] = w;
            }
            SwitchMap::Dense(v)
        } else {
            SwitchMap::Sparse(pairs.iter().map(|&(id, w)| (id, w)).collect())
        }
    }

    #[inline]
    fn get(&self, id: u64) -> Option<u32> {
        let w = match self {
            SwitchMap::Dense(v) => usize::try_from(id)
                .ok()
                .and_then(|i| v.get(i).copied())
                .unwrap_or(Self::NONE),
            SwitchMap::Sparse(m) => m.get(&id).copied().unwrap_or(Self::NONE),
        };
        (w != Self::NONE).then_some(w)
    }
}

/// A min-queue of [`Scheduled`] events built as an index heap over a
/// slab: the binary heap orders compact `(Key, slot)` pairs while the
/// much larger payloads stay put in a pooled slab, so every heap sift
/// moves less than half the bytes a `BinaryHeap<Scheduled>` would, and
/// head peeks never touch the slab at all. Keys are globally unique,
/// so pair order is exactly the key order the driver contract
/// requires. A popped slot leaves a dead record behind (empty args —
/// no allocation) and recycles through a freelist.
struct SchedHeap {
    pool: Vec<Scheduled>,
    free: Vec<u32>,
    heap: BinaryHeap<Reverse<(Key, u32)>>,
}

impl SchedHeap {
    fn with_capacity(n: usize) -> Self {
        SchedHeap {
            pool: Vec::with_capacity(n),
            free: Vec::new(),
            heap: BinaryHeap::with_capacity(n),
        }
    }

    fn dead() -> Scheduled {
        Scheduled {
            key: Key {
                time_ns: 0,
                class: 0,
                origin: 0,
                seq: 0,
            },
            switch: 0,
            event_id: 0,
            args: Vec::new(),
            enq_ns: 0,
            root_ns: 0,
        }
    }

    fn push(&mut self, s: Scheduled) {
        let key = s.key;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.pool[slot as usize] = s;
                slot
            }
            None => {
                self.pool.push(s);
                u32::try_from(self.pool.len() - 1).expect("in-flight events fit u32")
            }
        };
        self.heap.push(Reverse((key, slot)));
    }

    /// Key of the minimum pending event, straight off the heap head.
    fn peek_key(&self) -> Option<Key> {
        self.heap.peek().map(|&Reverse((k, _))| k)
    }

    fn pop(&mut self) -> Option<Scheduled> {
        let Reverse((_, slot)) = self.heap.pop()?;
        self.free.push(slot);
        Some(std::mem::replace(
            &mut self.pool[slot as usize],
            Self::dead(),
        ))
    }

    /// Tear down into the undispatched events, in no particular order.
    fn into_events(self) -> impl Iterator<Item = Scheduled> {
        let mut pool = self.pool;
        self.heap.into_iter().map(move |Reverse((_, slot))| {
            std::mem::replace(&mut pool[slot as usize], Self::dead())
        })
    }
}

/// Shape one sourced event into a scheduled class-0 injection, assigning
/// the key `(time, class 0, origin = source index + 1, seq = per-source
/// pull count)` and bumping that source's counter (dropped events count
/// too, mirroring the per-generator report rows).
///
/// Keying sourced injections per *source* rather than by a global pull
/// counter makes the key depend only on the source's own stream
/// position, never on how far ahead the driver pulled. The total order is
/// unchanged: [`crate::workload::Workload`] merges sources in (time,
/// source-index) order with nondecreasing times per source — exactly the
/// (time, origin, seq) order these keys encode — and explicitly scheduled
/// events keep `origin = 0`, winning time-ties just as their lower global
/// pull order did.
fn shape_sourced(
    prog: &CheckedProgram,
    counts: &mut Vec<u64>,
    ev: crate::workload::SourcedEvent,
) -> Scheduled {
    if ev.source >= counts.len() {
        // Custom sources may misreport `source_count`; grow rather than
        // lose the per-source sequencing the keys depend on.
        counts.resize(ev.source + 1, 0);
    }
    counts[ev.source] += 1;
    let params = &prog.info.events[ev.event_id].params;
    // Exactly one value per parameter, masked to its width — short
    // custom-source arg lists pad with zeros rather than leaving handler
    // parameters unbound.
    let args = params
        .iter()
        .enumerate()
        .map(|(i, p)| {
            mask(
                ev.args.get(i).copied().unwrap_or(0),
                p.ty.int_width().unwrap_or(32),
            )
        })
        .collect();
    Scheduled {
        key: Key {
            time_ns: ev.time_ns,
            class: 0,
            origin: ev.source as u64 + 1,
            seq: counts[ev.source],
        },
        switch: ev.switch,
        event_id: ev.event_id,
        args,
        // An injection roots its own causal chain and spends no virtual
        // time queued, so both metric baselines are the key time.
        enq_ns: ev.time_ns,
        root_ns: ev.time_ns,
    }
}

/// The interpreter. Owns the checked program (shared via `Arc` so sessions,
/// snapshots, and hot-swap can hold the world without a borrow) and all
/// simulation state.
pub struct Interp {
    prog: Arc<CheckedProgram>,
    pub config: NetConfig,
    /// One shard per configured switch, keyed by switch id.
    shards: BTreeMap<u64, Shard>,
    /// Pending events between runs; a run moves them into its heap.
    queue: BinaryHeap<Reverse<Scheduled>>,
    /// Injection counter feeding [`Key::seq`] for external events.
    inj_seq: u64,
    /// Simulation clock, nanoseconds.
    pub now_ns: u64,
    /// Every handled event, in deterministic `Key` order. Cleared with
    /// [`Interp::clear_trace`].
    pub trace: Vec<Handled>,
    /// Interned event names, one `Arc<str>` per event id; every
    /// [`Handled`] record resolves its name here with a refcount bump
    /// when the id-keyed shard logs surface into `trace`.
    names: Vec<Arc<str>>,
    /// `printf` output lines, in the same deterministic order.
    pub output: Vec<String>,
    pub stats: Stats,
    /// When true, `printf` also writes to stdout.
    pub echo: bool,
    /// When false, handled/exported events are not retained in `trace`
    /// (statistics, per-event counts, metrics, and `printf` output are
    /// unaffected). Defaults to true; benchmarks turn it off so rows
    /// don't pay for a per-event log nobody reads.
    record_trace: bool,
    /// Lazily compiled bytecode, populated when [`NetConfig::exec`] is
    /// [`ExecMode::Bytecode`].
    compiled: Option<Arc<CompiledProg>>,
    /// Attached streaming injection source ([`Interp::set_source`]). The
    /// driver drains it lazily — events materialize only when due, so a
    /// ten-million-event workload never builds an event vector.
    source: Option<Box<dyn EventSource + Send>>,
    /// Events injected per source index (for per-generator report rows).
    source_counts: Vec<u64>,
    /// Per-class latency histograms folded out of the shards once per
    /// run, keyed (switch, event name) for deterministic order. Each
    /// class lives on exactly one shard and histogram merge commutes, so
    /// runs split at any horizon accumulate bit-identical content here.
    metrics_acc: BTreeMap<(u64, String), ClassHists>,
}

impl Interp {
    /// Build a world from a borrowed program (clones it into a shared
    /// [`Arc`]; use [`Interp::from_arc`] to avoid the copy).
    pub fn new(prog: &CheckedProgram, config: NetConfig) -> Self {
        Interp::from_arc(Arc::new(prog.clone()), config)
    }

    /// Build a world around an already-shared program.
    pub fn from_arc(prog: Arc<CheckedProgram>, config: NetConfig) -> Self {
        let shards = config
            .switches
            .iter()
            .map(|&s| (s, Shard::new(s, &prog)))
            .collect();
        let names = prog
            .info
            .events
            .iter()
            .map(|e| Arc::from(e.name.as_str()))
            .collect();
        let mut interp = Interp {
            prog,
            config,
            shards,
            queue: BinaryHeap::new(),
            inj_seq: 0,
            now_ns: 0,
            trace: Vec::new(),
            names,
            output: Vec::new(),
            stats: Stats::default(),
            echo: false,
            record_trace: true,
            compiled: None,
            source: None,
            source_counts: Vec::new(),
            metrics_acc: BTreeMap::new(),
        };
        interp.ensure_compiled();
        interp
    }

    /// Single-switch interpreter with default timing.
    pub fn single(prog: &CheckedProgram) -> Self {
        Interp::new(prog, NetConfig::single())
    }

    /// The program this world runs (shared handle).
    pub fn program(&self) -> &Arc<CheckedProgram> {
        &self.prog
    }

    /// Toggle trace retention (on by default). Off, handled/exported
    /// events skip their [`Handled`] record entirely; everything else —
    /// stats, per-event counts, metrics, `printf` output, final state —
    /// is byte-identical to a recording run.
    pub fn set_record_trace(&mut self, on: bool) {
        self.record_trace = on;
    }

    /// Compile the program once if the bytecode executor is selected.
    /// `config` is public, so re-check on every run: flipping
    /// [`NetConfig::exec`] (or [`NetConfig::opt`]) between runs is
    /// supported — a cached artifact compiled at a different level is
    /// recompiled.
    fn ensure_compiled(&mut self) {
        if self.config.exec == ExecMode::Bytecode
            && self
                .compiled
                .as_ref()
                .is_none_or(|cp| cp.opt_level() != self.config.opt)
        {
            self.compiled = Some(Arc::new(CompiledProg::compile_opt(
                &self.prog,
                self.config.opt,
            )));
        }
    }

    fn exec(&self) -> Exec {
        Exec {
            prog: Arc::clone(&self.prog),
            recirc_ns: self.config.recirc_latency_ns,
            link_ns: self.config.link_latency_ns,
            echo: self.echo,
            record_trace: self.record_trace,
            compiled: if self.config.exec == ExecMode::Bytecode {
                self.compiled.clone()
            } else {
                None
            },
        }
    }

    /// Schedule an externally injected event (e.g. a packet arrival) by
    /// name at an absolute time. Injections to switches outside the
    /// configured topology are counted as dropped immediately.
    pub fn schedule(
        &mut self,
        switch: u64,
        time_ns: u64,
        event: &str,
        args: &[u64],
    ) -> Result<(), InterpError> {
        // Failed injections point at themselves: the offending time,
        // switch, and name, so a scenario error names the bad line. The
        // location is built only on those error returns.
        let seq = self.inj_seq + 1;
        let at = || FaultAt {
            time_ns,
            switch,
            event: event.to_string(),
            origin: None,
            seq,
        };
        let ev = self.prog.info.event(event).ok_or_else(|| {
            InterpError::from(InterpFault::NoSuchEvent(event.to_string())).located(at())
        })?;
        if ev.params.len() != args.len() {
            return Err(InterpError::from(InterpFault::BadArity {
                event: event.to_string(),
                want: ev.params.len(),
                got: args.len(),
            })
            .located(at()));
        }
        let masked: Vec<u64> = ev
            .params
            .iter()
            .zip(args)
            .map(|(p, a)| mask(*a, p.ty.int_width().unwrap_or(32)))
            .collect();
        if !self.shards.contains_key(&switch) {
            self.stats.dropped += 1;
            return Ok(());
        }
        self.inj_seq += 1;
        self.queue.push(Reverse(Scheduled {
            key: Key {
                time_ns,
                class: 0,
                origin: 0,
                seq: self.inj_seq,
            },
            switch,
            event_id: ev.id,
            args: masked,
            // An injection roots its own causal chain and spends no
            // virtual time queued (it is scheduled at its arrival
            // instant), so both metric baselines are the key time.
            enq_ns: time_ns,
            root_ns: time_ns,
        }));
        Ok(())
    }

    /// Attach a streaming injection source. Subsequent [`Interp::run`]
    /// calls drain it lazily, interleaved with explicitly scheduled
    /// events in deterministic key order (sourced events are class-0
    /// injections keyed per source — see `shape_sourced`). The source
    /// persists across runs until exhausted or replaced.
    pub fn set_source(&mut self, source: Box<dyn EventSource + Send>) {
        self.source_counts = vec![0; source.source_count()];
        self.source = Some(source);
    }

    /// Whether the attached source still has events to emit.
    pub fn source_pending(&self) -> bool {
        self.source.as_ref().is_some_and(|s| s.peek_ns().is_some())
    }

    /// Events injected so far per source index (empty without a source).
    pub fn source_counts(&self) -> &[u64] {
        &self.source_counts
    }

    /// The source's next event time, if any.
    fn source_peek(&self) -> Option<u64> {
        self.source.as_ref().and_then(|s| s.peek_ns())
    }

    /// Read a global array on a switch (for assertions). Panics if the
    /// switch is unknown or currently failed; see [`Interp::try_array`].
    pub fn array(&self, switch: u64, name: &str) -> &[u64] {
        self.try_array(switch, name)
            .unwrap_or_else(|| panic!("switch {switch} is unknown or failed"))
    }

    /// Read a global array on a switch, `None` when the switch is unknown
    /// or failed.
    pub fn try_array(&self, switch: u64, name: &str) -> Option<&[u64]> {
        let gid = self.prog.info.globals_by_name[name];
        let shard = self.shards.get(&switch)?;
        if !shard.alive {
            return None;
        }
        Some(&shard.state.arrays[gid.0])
    }

    /// Whether a switch is configured and currently alive.
    pub fn alive(&self, switch: u64) -> bool {
        self.shards.get(&switch).is_some_and(|s| s.alive)
    }

    /// Overwrite a global array cell (test setup / fault injection).
    pub fn poke(&mut self, switch: u64, name: &str, index: usize, value: u64) {
        let gid = self.prog.info.globals_by_name[name];
        let g = &self.prog.info.globals[gid.0];
        let v = mask(value, g.cell_width);
        self.shards
            .get_mut(&switch)
            .expect("switch exists")
            .state
            .arrays[gid.0][index] = v;
    }

    /// Fault injection: take a switch offline. Its state is lost and any
    /// event destined to it is dropped (counted in [`Stats::dropped`]),
    /// exactly like a dead box on the wire.
    pub fn fail_switch(&mut self, id: u64) {
        if let Some(shard) = self.shards.get_mut(&id) {
            shard.alive = false;
            shard.state = SwitchState::zeroed(&self.prog);
        }
    }

    /// Bring a previously failed switch back with zeroed registers (a
    /// rebooted switch does not remember its arrays).
    pub fn recover_switch(&mut self, id: u64) {
        if let Some(shard) = self.shards.get_mut(&id) {
            shard.alive = true;
            shard.state = SwitchState::zeroed(&self.prog);
        }
    }

    /// Number of events still queued.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    pub fn clear_trace(&mut self) {
        self.trace.clear();
        self.output.clear();
    }

    /// Run until the queue drains, `max_events` have been handled, or the
    /// clock passes `max_time_ns` (events after the horizon stay queued).
    pub fn run(&mut self, max_events: u64, max_time_ns: u64) -> Result<(), InterpError> {
        self.ensure_compiled();
        let res = self.run_sequential(max_events, max_time_ns);
        // Per-event counts accumulate as plain id-indexed counters on
        // the shards (the dispatch path never touches a hash map); they
        // materialize into `Stats::per_event` once per run — faulted
        // runs included, since tests compare those stats too.
        self.fold_per_event_counts();
        self.fold_metrics();
        res
    }

    /// Fold every shard's id-indexed per-event counters into the
    /// name-keyed [`Stats::per_event`] map, zeroing the counters (safe
    /// to call any number of times).
    fn fold_per_event_counts(&mut self) {
        for shard in self.shards.values_mut() {
            for (id, n) in shard.per_event_ids.iter_mut().enumerate() {
                if *n > 0 {
                    *self
                        .stats
                        .per_event
                        .entry(self.prog.info.events[id].name.clone())
                        .or_insert(0) += *n;
                    *n = 0;
                }
            }
        }
    }

    /// Fold every shard's per-event histograms into the metrics
    /// accumulator, zeroing the shard collectors (safe to call any
    /// number of times; accumulates across segmented runs the way a
    /// failure schedule drives them).
    fn fold_metrics(&mut self) {
        for shard in self.shards.values_mut() {
            Metrics::absorb_shard(
                &mut self.metrics_acc,
                shard.switch,
                &mut shard.metrics,
                |id| self.prog.info.events[id].name.clone(),
            );
        }
    }

    /// The per-event-class latency metrics accumulated so far, one row
    /// per (switch, event) class in sorted order. Deterministic: every
    /// executor and opt level yields bit-identical metrics
    /// ([`Metrics::digest`]), same contract as state, stats, and trace.
    pub fn metrics(&self) -> Metrics {
        Metrics::from_acc(&self.metrics_acc)
    }

    /// `self.metrics().digest()` without materializing the [`Metrics`].
    pub(crate) fn metrics_digest(&self) -> u64 {
        Metrics::digest_acc(&self.metrics_acc)
    }

    /// Run with a generous default budget; most tests use this.
    pub fn run_to_quiescence(&mut self) -> Result<(), InterpError> {
        self.run(1_000_000, u64::MAX)
    }

    // ------------------------------------------------------------ driver

    fn run_sequential(&mut self, max_events: u64, max_time_ns: u64) -> Result<(), InterpError> {
        let exec = self.exec();
        // Flatten the shard map for the dispatch loop: per-event routing
        // must not hash (see [`SwitchMap`]), and per-shard bookkeeping —
        // stats absorb, trace/output resolution — defers to one teardown
        // pass. Per-event work is then: heap pop, flat-array route,
        // dispatch, heap push.
        let mut shards: Vec<Shard> = std::mem::take(&mut self.shards).into_values().collect();
        let pairs: Vec<(u64, u32)> = shards
            .iter()
            .enumerate()
            .map(|(i, s)| (s.switch, u32::try_from(i).expect("shard count fits u32")))
            .collect();
        let at = SwitchMap::build(&pairs);
        // The run-local queue is a [`SchedHeap`]: an index heap over a
        // slab whose sifts move compact (key, slot) pairs instead of
        // whole [`Scheduled`] records — see its docs for the layout.
        let mut heap = SchedHeap::with_capacity(self.queue.len());
        for Reverse(s) in self.queue.drain() {
            heap.push(s);
        }
        let mut processed_this_run = 0u64;
        let mut batch: Vec<SourcedEvent> = Vec::new();
        // Run-level dispatch logs, appended in pop order (= global key
        // order); interned ids resolve once, at teardown.
        let mut trace_run: Vec<(Key, TraceRec)> = Vec::new();
        let mut output_run: Vec<(Key, OutRec)> = Vec::new();
        let res = 'run: {
            loop {
                // Lazy refill, in chunks: materialize the sourced
                // injections due at or before the queue head (they must
                // dispatch before it), up to [`SOURCE_CHUNK`] per pull so
                // memory stays bounded by the in-flight frontier.
                while let Some(t) = self.source_peek() {
                    if t > max_time_ns {
                        break;
                    }
                    let head = heap.peek_key().map_or(u64::MAX, |k| k.time_ns);
                    if head < t {
                        break;
                    }
                    batch.clear();
                    self.source.as_mut().expect("peeked").next_batch(
                        head.min(max_time_ns),
                        SOURCE_CHUNK,
                        &mut batch,
                    );
                    for ev in batch.drain(..) {
                        let sched = shape_sourced(&self.prog, &mut self.source_counts, ev);
                        if at.get(sched.switch).is_some() {
                            heap.push(sched);
                        } else {
                            self.stats.dropped += 1;
                        }
                    }
                }
                let Some(next_key) = heap.peek_key() else {
                    break 'run Ok(());
                };
                if next_key.time_ns > max_time_ns {
                    break 'run Ok(());
                }
                if processed_this_run >= max_events {
                    break 'run Err(InterpFault::FuelExhausted {
                        handled: processed_this_run,
                    }
                    .into());
                }
                let sched = heap.pop().expect("peeked");
                processed_this_run += 1;
                self.stats.processed += 1;
                self.now_ns = self.now_ns.max(sched.key.time_ns);
                let idx = at.get(sched.switch).expect("routed to known switch") as usize;
                let shard = &mut shards[idx];
                shard.now_ns = shard.now_ns.max(sched.key.time_ns);
                let res = exec.dispatch(shard, sched);
                // Route everything the handler produced (local and
                // remote — both go through the outbox) back to the
                // queue, and surface the shard's trace/output
                // immediately: the pop order already is the
                // deterministic key order, so appending here keeps the
                // run log sorted for free. Stats stay buffered on the
                // shard until teardown.
                let mut produced = std::mem::take(&mut shard.outbox);
                for ev in produced.drain(..) {
                    if at.get(ev.switch).is_some() {
                        heap.push(ev);
                    } else {
                        shard.stats.dropped += 1;
                        shard.recycle_args(ev.args);
                    }
                }
                shard.outbox = produced;
                trace_run.append(&mut shard.trace);
                output_run.append(&mut shard.output);
                if let Err(e) = res {
                    break 'run Err(e);
                }
            }
        };
        // Teardown, fault exits included: resolve the run logs (one bulk
        // pass instead of per-event work), park undispatched events back
        // on the persistent queue, absorb per-shard stats, and hand the
        // shards back to the map.
        let names = &self.names;
        resolve_run(trace_run, &mut self.trace, |r| r.into_handled(names));
        let cp = exec.compiled.as_deref();
        resolve_run(output_run, &mut self.output, |r| r.render(cp));
        self.queue.extend(heap.into_events().map(Reverse));
        for mut shard in shards {
            self.stats.absorb(&mut shard.stats);
            self.shards.insert(shard.switch, shard);
        }
        res
    }
}

// ------------------------------------------------------------- snapshots

/// Snapshot magic number: `LUCWORLD` as little-endian bytes, bumped with
/// the format version in the low byte. A reader seeing anything else
/// refuses the blob up front.
const WORLD_MAGIC: u64 = u64::from_le_bytes(*b"LUCWRLD\x01");

/// What a [`Interp::swap_program`] hot-swap did to the running world.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwapStats {
    /// Per-switch arrays whose (name, cell width, length) matched the new
    /// program and were carried over.
    pub arrays_carried: usize,
    /// Arrays of the new program with no compatible predecessor, zeroed.
    pub arrays_reset: usize,
    /// Pending queued events remapped to the new program's event ids.
    pub queued_remapped: u64,
    /// Pending queued events whose event vanished (or changed arity),
    /// dropped.
    pub queued_dropped: u64,
    /// Attached workload generators disabled because their event is gone.
    pub sources_disabled: usize,
}

fn encode_sched(w: &mut snap::Writer, s: &Scheduled) {
    w.u64(s.key.time_ns);
    w.u8(s.key.class);
    w.u64(s.key.origin);
    w.u64(s.key.seq);
    w.u64(s.switch);
    w.u64(s.event_id as u64);
    w.u64s(&s.args);
    w.u64(s.enq_ns);
    w.u64(s.root_ns);
}

fn decode_sched(
    r: &mut snap::Reader<'_>,
    prog: &CheckedProgram,
) -> Result<Scheduled, snap::SnapError> {
    let key = Key {
        time_ns: r.u64()?,
        class: r.u8()?,
        origin: r.u64()?,
        seq: r.u64()?,
    };
    let switch = r.u64()?;
    let event_id = r.u64()? as usize;
    let args = r.u64s()?;
    let enq_ns = r.u64()?;
    let root_ns = r.u64()?;
    let Some(ev) = prog.info.events.get(event_id) else {
        return Err(r.err(format!("queued event id {event_id} out of range")));
    };
    if ev.params.len() != args.len() {
        return Err(r.err(format!(
            "queued '{}' carries {} args for {} params",
            ev.name,
            args.len(),
            ev.params.len()
        )));
    }
    Ok(Scheduled {
        key,
        switch,
        event_id,
        args,
        enq_ns,
        root_ns,
    })
}

/// A queue's entries in deterministic (key) order — heap iteration order
/// is arbitrary and must never leak into snapshot bytes.
fn sorted_queue(q: &BinaryHeap<Reverse<Scheduled>>) -> Vec<&Scheduled> {
    let mut v: Vec<&Scheduled> = q.iter().map(|r| &r.0).collect();
    v.sort_by_key(|s| s.key);
    v
}

impl Interp {
    /// Encode the full dynamic world — clock, stats, trace, `printf`
    /// output, metrics, per-switch state, the pending queue, and the
    /// attached source's cursors — into a deterministic byte stream.
    /// Two worlds in the same state encode to identical bytes, however
    /// their runs were sliced. Fails (without writing) when a custom
    /// source does not support [`EventSource::save_state`].
    pub fn save_world(&self, out: &mut Vec<u8>) -> Result<(), String> {
        let mut src_bytes = None;
        if let Some(src) = &self.source {
            let mut bytes = Vec::new();
            if !src.save_state(&mut bytes) {
                return Err("attached event source does not support snapshots".to_string());
            }
            src_bytes = Some(bytes);
        }
        let mut w = snap::Writer::new();
        w.u64(WORLD_MAGIC);
        w.u64(self.now_ns);
        w.u64(self.inj_seq);
        w.u64(self.stats.processed);
        w.u64(self.stats.handled);
        w.u64(self.stats.recirculated);
        w.u64(self.stats.sent_remote);
        w.u64(self.stats.exported);
        w.u64(self.stats.dropped);
        let mut per_event: Vec<(&String, &u64)> = self.stats.per_event.iter().collect();
        per_event.sort();
        w.u64(per_event.len() as u64);
        for (name, n) in per_event {
            w.str(name);
            w.u64(*n);
        }
        w.u64(self.trace.len() as u64);
        for h in &self.trace {
            w.u64(h.time_ns);
            w.u64(h.switch);
            w.str(&h.event);
            w.u64s(&h.args);
        }
        w.u64(self.output.len() as u64);
        for line in &self.output {
            w.str(line);
        }
        w.u64s(&self.source_counts);
        w.u64(self.metrics_acc.len() as u64);
        for ((switch, event), hists) in &self.metrics_acc {
            w.u64(*switch);
            w.str(event);
            hists.encode(&mut w);
        }
        w.u64(self.shards.len() as u64);
        for (id, shard) in &self.shards {
            w.u64(*id);
            w.bool(shard.alive);
            w.u64(shard.now_ns);
            w.u64(shard.emit_seq);
            w.u64(shard.state.arrays.len() as u64);
            for arr in &shard.state.arrays {
                w.u64s(arr);
            }
            // Per-shard parked events: always none. The slot stays so
            // the byte layout is unchanged.
            w.u64(0);
        }
        let queued = sorted_queue(&self.queue);
        w.u64(queued.len() as u64);
        for s in queued {
            encode_sched(&mut w, s);
        }
        match src_bytes {
            None => w.bool(false),
            Some(bytes) => {
                w.bool(true);
                w.bytes(&bytes);
            }
        }
        out.extend_from_slice(&w.buf);
        Ok(())
    }

    /// Counterpart of [`Interp::save_world`]: overwrite this world's
    /// dynamic state from `bytes`. The world must have been built from
    /// the same program and topology (array geometry and switch ids are
    /// checked). Corrupted or mismatched bytes yield `Err` and leave the
    /// world unspecified-but-safe; they never panic.
    pub fn load_world(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.load_world_inner(bytes).map_err(|e| e.to_string())
    }

    fn load_world_inner(&mut self, bytes: &[u8]) -> Result<(), snap::SnapError> {
        let mut r = snap::Reader::new(bytes);
        let magic = r.u64()?;
        if magic != WORLD_MAGIC {
            return Err(r.err(format!("bad magic {magic:#018x}")));
        }
        self.now_ns = r.u64()?;
        self.inj_seq = r.u64()?;
        self.stats = Stats {
            processed: r.u64()?,
            handled: r.u64()?,
            recirculated: r.u64()?,
            sent_remote: r.u64()?,
            exported: r.u64()?,
            dropped: r.u64()?,
            per_event: HashMap::new(),
        };
        let n = r.len(9, "per-event stats")?;
        for _ in 0..n {
            let name = r.str()?;
            let count = r.u64()?;
            self.stats.per_event.insert(name, count);
        }
        // Trace records re-intern their event names: known events share
        // the world's interned `Arc<str>`s, names from an earlier program
        // epoch get their own allocation.
        let by_name: HashMap<&str, usize> = self
            .names
            .iter()
            .enumerate()
            .map(|(i, n)| (&**n, i))
            .collect();
        let n = r.len(25, "trace")?;
        self.trace = Vec::with_capacity(n);
        for _ in 0..n {
            let time_ns = r.u64()?;
            let switch = r.u64()?;
            let name = r.str()?;
            let args = r.u64s()?;
            let event = match by_name.get(name.as_str()) {
                Some(&i) => self.names[i].clone(),
                None => Arc::from(name.as_str()),
            };
            self.trace.push(Handled {
                time_ns,
                switch,
                event,
                args,
            });
        }
        let n = r.len(8, "output")?;
        self.output = Vec::with_capacity(n);
        for _ in 0..n {
            self.output.push(r.str()?);
        }
        self.source_counts = r.u64s()?;
        let n = r.len(17, "metrics rows")?;
        self.metrics_acc = BTreeMap::new();
        for _ in 0..n {
            let switch = r.u64()?;
            let event = r.str()?;
            let hists = ClassHists::decode(&mut r)?;
            self.metrics_acc.insert((switch, event), hists);
        }
        let n = r.len(35, "shards")?;
        if n != self.shards.len() {
            return Err(r.err(format!(
                "snapshot has {n} switches, world has {}",
                self.shards.len()
            )));
        }
        let mut parked = BinaryHeap::new();
        for _ in 0..n {
            let id = r.u64()?;
            let Some(shard) = self.shards.get_mut(&id) else {
                return Err(r.err(format!("snapshot switch {id} not in this topology")));
            };
            shard.alive = r.bool()?;
            shard.now_ns = r.u64()?;
            shard.emit_seq = r.u64()?;
            let narr = r.len(8, "arrays")?;
            if narr != self.prog.info.globals.len() {
                return Err(r.err(format!(
                    "snapshot has {narr} arrays, program declares {}",
                    self.prog.info.globals.len()
                )));
            }
            let mut arrays = Vec::with_capacity(narr);
            for g in &self.prog.info.globals {
                let arr = r.u64s()?;
                if arr.len() as u64 != g.len {
                    return Err(r.err(format!(
                        "array '{}' has {} cells, program declares {}",
                        g.name,
                        arr.len(),
                        g.len
                    )));
                }
                arrays.push(arr);
            }
            shard.state.arrays = arrays;
            // Snapshots never write per-shard parked events; any a blob
            // carries join the global queue.
            let nq = r.len(59, "parked events")?;
            for _ in 0..nq {
                parked.push(Reverse(decode_sched(&mut r, &self.prog)?));
            }
        }
        let nq = r.len(59, "pending events")?;
        self.queue = parked;
        self.queue.reserve(nq);
        for _ in 0..nq {
            let s = decode_sched(&mut r, &self.prog)?;
            self.queue.push(Reverse(s));
        }
        if r.bool()? {
            let src_bytes = r.bytes()?;
            if self.source.is_none() {
                self.source = Some(Box::new(Workload::new(Vec::new(), None)));
            }
            let prog = Arc::clone(&self.prog);
            self.source
                .as_mut()
                .expect("just ensured")
                .load_state(&prog, src_bytes)
                .map_err(|msg| r.err(msg))?;
        } else {
            self.source = None;
        }
        r.expect_end()?;
        Ok(())
    }

    /// Hot-swap the running program for a new epoch, in place. State
    /// carries over where it can: per-switch arrays whose (name, cell
    /// width, length) match move across unchanged, pending events are
    /// remapped by event name where the arity still matches (arguments
    /// re-masked to the new widths) and dropped otherwise, and attached
    /// workload generators re-resolve their events. Stats, trace, and
    /// metrics accumulate across the swap — they are the session's
    /// history, not the epoch's.
    ///
    /// Must be called between runs (after [`Interp::run`] returned), when
    /// shard-local buffers are folded.
    pub fn swap_program(&mut self, new: Arc<CheckedProgram>) -> SwapStats {
        let mut st = SwapStats::default();
        // New global id → compatible old global id.
        let carry: Vec<Option<usize>> = new
            .info
            .globals
            .iter()
            .map(|g| {
                self.prog.info.globals_by_name.get(&g.name).and_then(|old| {
                    let og = &self.prog.info.globals[old.0];
                    (og.cell_width == g.cell_width && og.len == g.len).then_some(old.0)
                })
            })
            .collect();
        // Old event id → new event id (same name, same arity).
        let evmap: Vec<Option<usize>> = self
            .prog
            .info
            .events
            .iter()
            .map(|e| {
                new.info
                    .event(&e.name)
                    .and_then(|ne| (ne.params.len() == e.params.len()).then_some(ne.id))
            })
            .collect();
        let remap = |s: &mut Scheduled, st: &mut SwapStats| -> bool {
            match evmap.get(s.event_id).copied().flatten() {
                Some(nid) => {
                    s.event_id = nid;
                    for (a, p) in s.args.iter_mut().zip(&new.info.events[nid].params) {
                        *a = mask(*a, p.ty.int_width().unwrap_or(32));
                    }
                    st.queued_remapped += 1;
                    true
                }
                None => {
                    st.queued_dropped += 1;
                    false
                }
            }
        };
        let nevents = new.info.events.len();
        for shard in self.shards.values_mut() {
            let mut old: Vec<Option<Vec<u64>>> = std::mem::take(&mut shard.state.arrays)
                .into_iter()
                .map(Some)
                .collect();
            shard.state.arrays = carry
                .iter()
                .enumerate()
                .map(|(nid, c)| match c.and_then(|oid| old[oid].take()) {
                    Some(arr) => {
                        st.arrays_carried += 1;
                        arr
                    }
                    None => {
                        st.arrays_reset += 1;
                        vec![0; new.info.globals[nid].len as usize]
                    }
                })
                .collect();
            shard.per_event_ids = vec![0; nevents];
            shard.metrics = ShardMetrics::new(nevents);
        }
        for Reverse(mut s) in std::mem::take(&mut self.queue) {
            if remap(&mut s, &mut st) {
                self.queue.push(Reverse(s));
            }
        }
        self.names = new
            .info
            .events
            .iter()
            .map(|e| Arc::from(e.name.as_str()))
            .collect();
        self.prog = new;
        self.compiled = None;
        self.ensure_compiled();
        if let Some(src) = self.source.as_mut() {
            let prog = Arc::clone(&self.prog);
            st.sources_disabled = src.remap_events(&prog);
        }
        st
    }

    /// Attach a generator spec to the running world mid-session (the
    /// serve `ingest` verb). Creates an empty [`Workload`] if no source
    /// is attached yet; the new generator claims the next source slot so
    /// existing per-source counters keep their positions.
    pub fn attach_generator(
        &mut self,
        spec: &GenSpec,
        scenario_seed: u64,
    ) -> Result<usize, String> {
        let Some(ev) = self.prog.info.event(&spec.event) else {
            return Err(format!("generator emits unknown event '{}'", spec.event));
        };
        if spec.args.len() != ev.params.len() {
            return Err(format!(
                "generator for '{}' draws {} args, event has {} params",
                spec.event,
                spec.args.len(),
                ev.params.len()
            ));
        }
        for &s in &spec.switches {
            if !self.shards.contains_key(&s) {
                return Err(format!("generator targets unknown switch {s}"));
            }
        }
        if spec.switches.is_empty() {
            return Err("generator targets no switches".to_string());
        }
        if self.source.is_none() {
            self.source = Some(Box::new(Workload::new(Vec::new(), None)));
        }
        let src = self.source.as_mut().expect("just ensured");
        let slot = src.source_count();
        let gen = spec.compile(&self.prog, scenario_seed, slot);
        if !src.attach_generator(gen) {
            return Err("attached event source cannot accept generators".to_string());
        }
        self.source_counts.resize(src.source_count(), 0);
        Ok(slot)
    }
}

/// Resolve a run's dispatch log into `out`, dropping the keys and
/// mapping each record through `f` (the id-to-name resolution step). The
/// driver appends records in pop order, which is key order
/// (debug-asserted); equal keys are adjacent records of one handler
/// activation (several printf lines) and keep their order.
fn resolve_run<T, U>(run: Vec<(Key, T)>, out: &mut Vec<U>, mut f: impl FnMut(T) -> U) {
    debug_assert!(run.windows(2).all(|w| w[0].0 <= w[1].0), "run not sorted");
    out.extend(run.into_iter().map(|(_, v)| f(v)));
}

fn value_of(ty: Ty, raw: u64) -> Value {
    match ty {
        Ty::Bool => Value::Bool(raw != 0),
        Ty::Int(w) => Value::int(raw, w),
        _ => Value::int(raw, 32),
    }
}

fn eval_binop(op: BinOp, l: &Value, r: &Value) -> Value {
    if op.is_comparison() {
        let a = l.as_int().expect("checked");
        let b = r.as_int().expect("checked");
        return Value::Bool(match op {
            BinOp::Eq => a == b,
            BinOp::Neq => a != b,
            BinOp::Lt => a < b,
            BinOp::Gt => a > b,
            BinOp::Le => a <= b,
            BinOp::Ge => a >= b,
            _ => unreachable!(),
        });
    }
    let (a, wa) = match l {
        Value::Int { v, width } => (*v, *width),
        Value::Bool(b) => (*b as u64, 1),
        _ => panic!("checked: arithmetic on non-int"),
    };
    let (b, wb) = match r {
        Value::Int { v, width } => (*v, *width),
        Value::Bool(b) => (*b as u64, 1),
        _ => panic!("checked: arithmetic on non-int"),
    };
    // Shifts keep the shifted operand's width (the checker types `a << b`
    // as `a`'s width regardless of `b`'s); everything else joins widths.
    let w = match op {
        BinOp::Shl | BinOp::Shr => wa,
        _ => wa.max(wb),
    };
    let v = match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        // Division by zero yields zero in the data plane.
        BinOp::Div => a.checked_div(b).unwrap_or(0),
        BinOp::Mod => a.checked_rem(b).unwrap_or(0),
        BinOp::BitAnd => a & b,
        BinOp::BitOr => a | b,
        BinOp::BitXor => a ^ b,
        // A shift count at or past the operand width clears every bit of
        // a `width`-bit register; `wrapping_shl` alone would wrap the
        // count mod 64 and leave bits behind for 64-bit operands.
        BinOp::Shl => {
            if b >= w as u64 {
                0
            } else {
                a.wrapping_shl(b as u32)
            }
        }
        BinOp::Shr => {
            if b >= w as u64 {
                0
            } else {
                a.wrapping_shr(b as u32)
            }
        }
        BinOp::And | BinOp::Or => unreachable!("short-circuited above"),
        _ => unreachable!(),
    };
    Value::int(v, w)
}

/// Minimal printf: `%d` decimal, `%x` hex, `%b` binary, `%%` literal.
pub(crate) fn format_printf(fmt: &str, args: &[Value]) -> String {
    let mut out = String::new();
    let mut it = args.iter();
    let mut chars = fmt.chars().peekable();
    while let Some(c) = chars.next() {
        if c != '%' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('%') => out.push('%'),
            Some('d') | None => {
                if let Some(v) = it.next() {
                    out.push_str(&v.to_string());
                }
            }
            Some('x') => {
                if let Some(v) = it.next() {
                    out.push_str(&format!("{:x}", v.as_int().unwrap_or(0)));
                }
            }
            Some('b') => {
                if let Some(v) = it.next() {
                    out.push_str(&format!("{:b}", v.as_int().unwrap_or(0)));
                }
            }
            Some(other) => {
                out.push('%');
                out.push(other);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lucid_check::parse_and_check;

    fn checked(src: &str) -> CheckedProgram {
        match parse_and_check(src) {
            Ok(p) => p,
            Err(ds) => panic!("check failed:\n{ds}"),
        }
    }

    #[test]
    fn counter_program_counts() {
        let prog = checked(
            r#"
            global cts = new Array<<32>>(8);
            memop plus(int m, int x) { return m + x; }
            event pkt(int idx);
            handle pkt(int idx) { Array.setm(cts, idx, plus, 1); }
            "#,
        );
        let mut i = Interp::single(&prog);
        for t in 0..5 {
            i.schedule(1, t * 100, "pkt", &[3]).unwrap();
        }
        i.schedule(1, 600, "pkt", &[5]).unwrap();
        i.run_to_quiescence().unwrap();
        assert_eq!(i.array(1, "cts")[3], 5);
        assert_eq!(i.array(1, "cts")[5], 1);
        assert_eq!(i.stats.handled, 6);
    }

    #[test]
    fn generate_recirculates_with_latency() {
        let prog = checked(
            r#"
            global hits = new Array<<32>>(4);
            memop plus(int m, int x) { return m + x; }
            event ping(int n);
            handle ping(int n) {
                Array.setm(hits, 0, plus, 1);
                if (n > 0) { generate ping(n - 1); }
            }
            "#,
        );
        let mut i = Interp::single(&prog);
        i.schedule(1, 0, "ping", &[3]).unwrap();
        i.run_to_quiescence().unwrap();
        assert_eq!(i.array(1, "hits")[0], 4);
        assert_eq!(i.stats.recirculated, 3);
        // 3 recirculations at 600 ns each.
        assert_eq!(i.trace.last().unwrap().time_ns, 3 * 600);
    }

    #[test]
    fn delay_combinator_shifts_execution_time() {
        let prog = checked(
            r#"
            event tick(int n);
            event noop();
            handle tick(int n) {
                generate Event.delay(noop(), 100);
            }
            "#,
        );
        let mut i = Interp::single(&prog);
        i.schedule(1, 0, "tick", &[0]).unwrap();
        i.run_to_quiescence().unwrap();
        // noop has no handler → exported; delay 100 µs + 600 ns recirc.
        let last = i.trace.last().unwrap();
        assert_eq!(&*last.event, "noop");
        assert_eq!(last.time_ns, 100_000 + 600);
        assert_eq!(i.stats.exported, 1);
    }

    #[test]
    fn locate_sends_to_other_switch() {
        let prog = checked(
            r#"
            global seen = new Array<<32>>(4);
            event probe(int from);
            handle probe(int from) {
                Array.set(seen, 0, from);
            }
            event kick(int target);
            handle kick(int target) {
                generate Event.locate(probe(SELF), target);
            }
            "#,
        );
        let mut i = Interp::new(&prog, NetConfig::mesh(2));
        i.schedule(1, 0, "kick", &[2]).unwrap();
        i.run_to_quiescence().unwrap();
        assert_eq!(i.array(2, "seen")[0], 1, "switch 2 should record sender 1");
        assert_eq!(i.array(1, "seen")[0], 0);
        assert_eq!(i.stats.sent_remote, 1);
    }

    #[test]
    fn mlocate_broadcasts_to_group() {
        let prog = checked(
            r#"
            const group NEIGHBORS = {2, 3};
            global seen = new Array<<32>>(4);
            event probe(int from);
            handle probe(int from) { Array.set(seen, 0, from); }
            event kick();
            handle kick() {
                mgenerate Event.mlocate(probe(SELF), NEIGHBORS);
            }
            "#,
        );
        let mut i = Interp::new(&prog, NetConfig::mesh(3));
        i.schedule(1, 0, "kick", &[]).unwrap();
        i.run_to_quiescence().unwrap();
        assert_eq!(i.array(2, "seen")[0], 1);
        assert_eq!(i.array(3, "seen")[0], 1);
    }

    #[test]
    fn array_update_returns_old_and_writes_new() {
        let prog = checked(
            r#"
            global slots = new Array<<32>>(4);
            global log = new Array<<32>>(4);
            memop read(int m, int x) { return m; }
            memop write(int m, int x) { return x; }
            event swap(int idx, int v);
            handle swap(int idx, int v) {
                int old = Array.update(slots, idx, read, 0, write, v);
                Array.set(log, idx, old);
            }
            "#,
        );
        let mut i = Interp::single(&prog);
        i.schedule(1, 0, "swap", &[2, 77]).unwrap();
        i.schedule(1, 100, "swap", &[2, 88]).unwrap();
        i.run_to_quiescence().unwrap();
        assert_eq!(i.array(1, "slots")[2], 88);
        assert_eq!(
            i.array(1, "log")[2],
            77,
            "second swap must observe the first value"
        );
    }

    #[test]
    fn function_with_array_param_runs() {
        let prog = checked(
            r#"
            global a = new Array<<32>>(4);
            global b = new Array<<32>>(4);
            memop plus(int m, int x) { return m + x; }
            fun int bump(Array<<32>> arr, int i) {
                return Array.update(arr, i, plus, 1, plus, 1);
            }
            event go(int i);
            handle go(int i) {
                int x = bump(a, i);
                int y = bump(b, i);
            }
            "#,
        );
        let mut i = Interp::single(&prog);
        i.schedule(1, 0, "go", &[0]).unwrap();
        i.run_to_quiescence().unwrap();
        assert_eq!(i.array(1, "a")[0], 1);
        assert_eq!(i.array(1, "b")[0], 1);
    }

    #[test]
    fn out_of_bounds_traps() {
        let prog = checked(
            r#"
            global a = new Array<<32>>(4);
            event go(int i);
            handle go(int i) { Array.set(a, i, 1); }
            "#,
        );
        let mut i = Interp::single(&prog);
        i.schedule(1, 0, "go", &[9]).unwrap();
        let err = i.run_to_quiescence().unwrap_err();
        assert!(
            matches!(err.kind, InterpFault::IndexOutOfBounds { index: 9, .. }),
            "{err}"
        );
    }

    #[test]
    fn runaway_recursion_hits_fuel() {
        let prog = checked(
            r#"
            event spin();
            handle spin() { generate spin(); }
            "#,
        );
        let mut i = Interp::single(&prog);
        i.schedule(1, 0, "spin", &[]).unwrap();
        let err = i.run(1_000, u64::MAX).unwrap_err();
        assert!(matches!(err.kind, InterpFault::FuelExhausted { .. }));
    }

    #[test]
    fn printf_formats() {
        let prog = checked(
            r#"
            event go(int x);
            handle go(int x) { printf("x=%d hex=%x pct=%%", x, x); }
            "#,
        );
        let mut i = Interp::single(&prog);
        i.schedule(1, 0, "go", &[255]).unwrap();
        i.run_to_quiescence().unwrap();
        assert_eq!(i.output, vec!["x=255 hex=ff pct=%"]);
    }

    #[test]
    fn shift_by_width_or_more_clears_narrow_registers() {
        // `x << n` / `x >> n` keep x's width; a count at or past that
        // width must zero the register — not wrap the count mod 64, and
        // not widen the result to the count's width.
        let prog = checked(
            r#"
            global a = new Array<<8>>(1);
            global b = new Array<<8>>(1);
            global c = new Array<<8>>(1);
            global d = new Array<<8>>(1);
            event go(int<<8>> x, int n);
            handle go(int<<8>> x, int n) {
                Array.set(a, 0, x << 1);
                Array.set(b, 0, x << n);
                Array.set(c, 0, x >> n);
                Array.set(d, 0, x >> 2);
            }
            "#,
        );
        let mut i = Interp::single(&prog);
        i.schedule(1, 0, "go", &[0xAB, 9]).unwrap();
        i.run_to_quiescence().unwrap();
        assert_eq!(i.array(1, "a")[0], 0x56, "0xAB << 1 masked to 8 bits");
        assert_eq!(i.array(1, "b")[0], 0, "count 9 >= width 8 clears");
        assert_eq!(i.array(1, "c")[0], 0, "right shift past the width too");
        assert_eq!(i.array(1, "d")[0], 0x2A);
    }

    #[test]
    fn shift_by_64_or_more_clears_wide_registers() {
        // The 64-bit case is where `wrapping_shl` alone went wrong: a
        // count of 64 wraps to 0 and leaves the value untouched.
        let prog = checked(
            r#"
            global lo = new Array<<64>>(1);
            global hi = new Array<<64>>(1);
            event go(int<<64>> x, int n);
            handle go(int<<64>> x, int n) {
                Array.set(lo, 0, x << n);
                Array.set(hi, 0, x >> n);
            }
            "#,
        );
        for (n, want_shl) in [(63u64, 0x8000_0000_0000_0000u64), (64, 0), (200, 0)] {
            let mut i = Interp::single(&prog);
            i.schedule(1, 0, "go", &[1, n]).unwrap();
            i.run_to_quiescence().unwrap();
            assert_eq!(i.array(1, "lo")[0], want_shl, "1 << {n}");
            assert_eq!(i.array(1, "hi")[0], 0, "1 >> {n}");
        }
    }

    #[test]
    fn narrow_width_arithmetic_wraps() {
        let prog = checked(
            r#"
            global out = new Array<<8>>(1);
            event go(int<<8>> x);
            handle go(int<<8>> x) { Array.set(out, 0, x + 1); }
            "#,
        );
        let mut i = Interp::single(&prog);
        i.schedule(1, 0, "go", &[255]).unwrap();
        i.run_to_quiescence().unwrap();
        assert_eq!(i.array(1, "out")[0], 0, "8-bit 255+1 wraps to 0");
    }

    #[test]
    fn events_to_unknown_switch_dropped() {
        let prog = checked(
            r#"
            event probe(int from);
            event kick();
            handle kick() { generate Event.locate(probe(SELF), 99); }
            "#,
        );
        let mut i = Interp::single(&prog);
        i.schedule(1, 0, "kick", &[]).unwrap();
        i.run_to_quiescence().unwrap();
        assert_eq!(i.stats.dropped, 1);
    }

    #[test]
    fn time_advances_monotonically_in_trace() {
        let prog = checked(
            r#"
            event a(int n);
            handle a(int n) { if (n > 0) { generate a(n - 1); } }
            "#,
        );
        let mut i = Interp::single(&prog);
        i.schedule(1, 500, "a", &[5]).unwrap();
        i.schedule(1, 0, "a", &[0]).unwrap();
        i.run_to_quiescence().unwrap();
        let times: Vec<u64> = i.trace.iter().map(|h| h.time_ns).collect();
        let mut sorted = times.clone();
        sorted.sort();
        assert_eq!(times, sorted);
    }

    // ---------------------------------------------- fuel, faults, resume

    /// A mesh program with heavy cross-switch traffic: every packet bumps
    /// a local sketch, then forwards to a hash-picked neighbor until its
    /// TTL drains. Exercises recirculation, remote sends, and timer ties.
    const MESH_MIX: &str = r#"
        global cnt = new Array<<32>>(64);
        global mix = new Array<<32>>(64);
        memop plus(int m, int x) { return m + x; }
        event pkt(int a, int b, int ttl);
        handle pkt(int a, int b, int ttl) {
            auto i = hash<<6>>(1, a, b);
            int c = Array.update(cnt, i, plus, 1, plus, 1);
            auto j = hash<<6>>(2, c, a);
            Array.setm(mix, j, plus, b);
            if (ttl > 0) {
                generate pkt(a + 1, b, ttl - 1);
                generate Event.locate(pkt(a, b + c, ttl - 1), ((a + b) & 7) + 1);
            }
        }
        "#;

    #[test]
    fn zero_latency_loop_hits_fuel_instead_of_hanging() {
        // recirc_latency_ns == 0 keeps a self-generating event at one
        // instant forever; the event budget must still bound it.
        let prog = checked(
            r#"
            event spin();
            handle spin() { generate spin(); }
            "#,
        );
        let mut cfg = NetConfig::mesh(2);
        cfg.recirc_latency_ns = 0;
        let mut i = Interp::new(&prog, cfg);
        i.schedule(1, 0, "spin", &[]).unwrap();
        let err = i.run(500, u64::MAX).unwrap_err();
        assert!(
            matches!(err.kind, InterpFault::FuelExhausted { handled: 500 }),
            "{err}"
        );
    }

    #[test]
    fn budget_overrun_that_would_drain_the_queue_still_errs() {
        // 12 events, budget 10: the run stops with FuelExhausted at the
        // 11th pop even though two more would have drained the queue,
        // and those two stay queued.
        let prog = checked(
            r#"
            global n = new Array<<32>>(1);
            memop plus(int m, int x) { return m + x; }
            event ping();
            handle ping() { Array.setm(n, 0, plus, 1); }
            "#,
        );
        let mut i = Interp::new(&prog, NetConfig::mesh(2));
        for s in [1u64, 2] {
            for k in 0..6u64 {
                i.schedule(s, k, "ping", &[]).unwrap();
            }
        }
        let err = i.run(10, u64::MAX).unwrap_err();
        assert!(
            matches!(err.kind, InterpFault::FuelExhausted { handled: 10 }),
            "{err}"
        );
        assert_eq!(i.pending(), 2);
    }

    #[test]
    fn runtime_fault_reports_the_earliest_event() {
        let prog = checked(
            r#"
            global a = new Array<<32>>(4);
            event go(int i);
            handle go(int i) { Array.set(a, i, 1); }
            "#,
        );
        let mut i = Interp::new(&prog, NetConfig::mesh(4));
        // Two out-of-bounds faults: the smaller key (earlier time) wins,
        // whatever the schedule order.
        i.schedule(3, 100, "go", &[9]).unwrap();
        i.schedule(2, 50, "go", &[7]).unwrap();
        let err = i.run_to_quiescence().unwrap_err();
        assert!(
            matches!(err.kind, InterpFault::IndexOutOfBounds { index: 7, .. }),
            "{err}"
        );
        let at = err.at.expect("fault carries its event");
        assert_eq!((at.time_ns, at.switch), (50, 2));
    }

    #[test]
    fn failed_switch_drops_and_recovers_under_both_engines() {
        // Both handler engines: the AST walker and the bytecode executor.
        for exec in [ExecMode::Ast, ExecMode::Bytecode] {
            let prog = checked(
                r#"
                global seen = new Array<<32>>(4);
                memop plus(int m, int x) { return m + x; }
                event pkt();
                handle pkt() { Array.setm(seen, 0, plus, 1); }
                "#,
            );
            let mut cfg = NetConfig::mesh(2);
            cfg.exec = exec;
            let mut i = Interp::new(&prog, cfg);
            i.fail_switch(2);
            i.schedule(2, 0, "pkt", &[]).unwrap();
            i.schedule(1, 0, "pkt", &[]).unwrap();
            i.run_to_quiescence().unwrap();
            assert_eq!(i.stats.dropped, 1, "{exec:?}");
            assert_eq!(i.array(1, "seen")[0], 1);
            assert!(i.try_array(2, "seen").is_none());
            i.recover_switch(2);
            i.schedule(2, 10_000, "pkt", &[]).unwrap();
            i.run_to_quiescence().unwrap();
            assert_eq!(i.array(2, "seen")[0], 1, "{exec:?}");
        }
    }

    #[test]
    fn resumed_runs_cross_engines() {
        // A run paused at a horizon under the AST walker can be resumed
        // under the bytecode executor: pending events survive in the
        // queue, and the result matches one uninterrupted run.
        let prog = checked(MESH_MIX);
        let mut i = Interp::new(&prog, NetConfig::mesh(8));
        for s in 1..=8u64 {
            i.schedule(s, 0, "pkt", &[s, 3, 6]).unwrap();
        }
        i.run(1_000_000, 2_000).unwrap();
        let mid_pending = i.pending();
        assert!(mid_pending > 0, "horizon must leave events queued");
        i.config.exec = ExecMode::Bytecode;
        i.run_to_quiescence().unwrap();
        assert_eq!(i.pending(), 0);

        let mut j = Interp::new(&prog, NetConfig::mesh(8));
        for s in 1..=8u64 {
            j.schedule(s, 0, "pkt", &[s, 3, 6]).unwrap();
        }
        j.run_to_quiescence().unwrap();
        for s in 1..=8u64 {
            assert_eq!(i.array(s, "cnt"), j.array(s, "cnt"));
            assert_eq!(i.array(s, "mix"), j.array(s, "mix"));
        }
        assert_eq!(i.stats, j.stats);
        assert_eq!(i.trace, j.trace);
        assert_eq!(i.metrics().digest(), j.metrics().digest());
        assert!(i.stats.sent_remote > 100, "workload must cross switches");
    }

    #[test]
    fn snapshot_parked_events_join_the_global_queue() {
        // The world layout keeps a per-switch parked-event list that is
        // always written empty; entries a blob does carry there load
        // into the global queue and run like any other pending event.
        let prog = checked(MESH_MIX);
        let world = || Interp::new(&prog, NetConfig::mesh(2));
        let mut full = Vec::new();
        let mut queued = world();
        queued.schedule(2, 0, "pkt", &[1, 2, 1]).unwrap();
        queued.save_world(&mut full).unwrap();
        let mut empty = Vec::new();
        world().save_world(&mut empty).unwrap();

        // Both blobs end with: switch 2's parked count, the pending
        // count, the pending events, and the no-source flag.
        let prefix = empty.len() - 17;
        assert_eq!(full[prefix..prefix + 8], 0u64.to_le_bytes());
        assert_eq!(full[prefix + 8..prefix + 16], 1u64.to_le_bytes());
        let event = &full[prefix + 16..full.len() - 1];
        let mut parked = full[..prefix].to_vec();
        parked.extend_from_slice(&1u64.to_le_bytes());
        parked.extend_from_slice(event);
        parked.extend_from_slice(&0u64.to_le_bytes());
        parked.push(0);

        let mut restored = world();
        restored.load_world(&parked).unwrap();
        assert_eq!(restored.pending(), 1);
        let mut resaved = Vec::new();
        restored.save_world(&mut resaved).unwrap();
        assert_eq!(resaved, full, "the parked event re-saves as pending");
        restored.run_to_quiescence().unwrap();
        queued.run_to_quiescence().unwrap();
        assert_eq!(restored.stats, queued.stats);
        assert_eq!(restored.array(2, "cnt"), queued.array(2, "cnt"));
    }
}
